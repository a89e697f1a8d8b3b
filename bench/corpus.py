"""Seeded corpus generator and output oracles for the wbforge benchmark.

Standard library only, and independent of wbforge: schemas and instance
files are written as DSL text, exported graphs are handled as canonical
N-Triples lines, and every expectation here (statement counts, the
findings each graph defect must produce, the counts line of
`wbforge check`) is derived from the recipe, never by running the code
under test. Every function that draws takes a `random.Random`, so one
seed always gives the same corpus.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

ROOT = "http://wikibase.example/"
WD = ROOT + "entity/"
STMT = ROOT + "entity/statement/"
WIKIBASE = "http://wikiba.se/ontology#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
PROV = "http://www.w3.org/ns/prov#wasDerivedFrom"
XSD = "http://www.w3.org/2001/XMLSchema#"
VOCAB = "http://bench.example/vocab/"


def prop(ns: str, name: str) -> str:
    """IRI of a family property under the default root, e.g. prop('pq', 'age')."""
    path = {"wdt": "prop/direct/", "p": "prop/", "ps": "prop/statement/",
            "pq": "prop/qualifier/", "pr": "prop/reference/"}[ns]
    return ROOT + path + name


# -- the record schema: audit graphs and large ingest files -------------------

# Four object kinds (item, decimal, datetime, string), qualifiers that mint
# time and quantity value nodes, and references to a small shared pool of
# source documents.
RECORD_SCHEMA = """\
prefix bench: <http://bench.example/vocab/>

class bench:Person
controlled class bench:Category
class bench:Source

statement bench:category {
  subject bench:Person
  object item bench:Category
  qualifier bench:age : decimal required
  qualifier bench:seenAt : datetime
  qualifier bench:note : string
  reference bench:basedOn -> item bench:Source required
  axioms { Domain, Range }
}

statement bench:height {
  subject bench:Person
  object decimal
  qualifier bench:measuredAt : datetime
  reference bench:heightSource -> item bench:Source
}

statement bench:born {
  subject bench:Person
  object datetime
  reference bench:bornSource -> item bench:Source
}

statement bench:alias {
  subject bench:Person
  object string
  qualifier bench:aliasNote : string
}
"""

CATEGORIES = 6
SOURCES = 6
_WORDS = ("cooper", "midwife", "ledger", "parish", "notary", "witness",
          "estate", "manifest", "baptism", "godparent", "laundress", "census")


def _decimal(rng: random.Random) -> str:
    # drawn from a wide range, so value nodes are rarely shared and a
    # graph's size does not depend on the seed
    text = str(rng.randint(0, 9999))
    if rng.random() < 0.8:
        text += f".{rng.randint(0, 9)}{rng.randint(1, 9)}"
    return text


def _datetime(rng: random.Random) -> str:
    iso = (f"{rng.randint(1700, 1950):04d}-{rng.randint(1, 12):02d}-"
           f"{rng.randint(1, 28):02d}T00:00:00Z")
    return f"{iso} precision {rng.choice((9, 10, 11))}"


def _string(rng: random.Random) -> str:
    text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.1:
        text += ' \\"sic\\"'
    return f'"{text}"'


@dataclass(frozen=True)
class Instances:
    text: str                     # .wbi source for RECORD_SCHEMA
    statements: int               # statement blocks written, one node each


def record_instances(rng: random.Random, persons: int) -> Instances:
    """A .wbi file with `persons` people, every statement distinct.

    Which statements, qualifiers and references a person carries is a
    fixed function of their index, so a file's size depends only on
    `persons`; the seed picks the values, categories and sources. Person 0
    carries a dated category record and person 1 an undated one without a
    note, so every defect in DEFECTS finds a target once persons >= 2.
    """
    if persons < 2:
        raise ValueError("record_instances needs at least two persons")
    lines = ["prefix bench: <http://bench.example/vocab/>", ""]
    count = 0
    for i in range(persons):
        body: list[str] = []
        cats = rng.sample(range(CATEGORIES), 2 if i % 3 == 0 else 1)
        for k, cat in enumerate(cats):
            body.append(f"  bench:category -> item wd:cat{cat} {{")
            body.append(f"    qualifier bench:age = decimal {_decimal(rng)}")
            if i == 0 or (i > 1 and (i + k) % 2 == 0):
                body.append(f"    qualifier bench:seenAt = datetime {_datetime(rng)}")
            if i > 1 and (i + k) % 4 == 3:
                body.append(f"    qualifier bench:note = string {_string(rng)}")
            for src in rng.sample(range(SOURCES), 2 if (i + k) % 4 == 1 else 1):
                body.append(f"    reference {{ bench:basedOn -> item wd:src{src} }}")
            body.append("  }")
        if i % 2 == 0:
            body.append(f"  bench:height -> decimal {_decimal(rng)} {{")
            if i % 4 == 0:
                body.append(f"    qualifier bench:measuredAt = datetime {_datetime(rng)}")
            else:
                body.append(f"    reference {{ bench:heightSource -> item "
                            f"wd:src{rng.randrange(SOURCES)} }}")
            body.append("  }")
        if i % 3 != 1:
            body.append(f"  bench:born -> datetime {_datetime(rng)} {{")
            if i % 6 == 0:
                body.append(f"    reference {{ bench:bornSource -> item "
                            f"wd:src{rng.randrange(SOURCES)} }}")
            body.append("  }")
        for n in range(i % 3):
            alias = f'"{rng.choice(_WORDS)} {i}-{n}"'
            if (i + n) % 3 == 0:
                body.append(f"  bench:alias -> string {alias} {{")
                body.append(f"    qualifier bench:aliasNote = string {_string(rng)}")
                body.append("  }")
            else:
                body.append(f"  bench:alias -> string {alias}")
        count += sum(1 for b in body if b.startswith("  bench:"))
        lines.append(f"item wd:p{i} : bench:Person {{")
        lines.extend(body)
        lines.append("}")
    lines.extend(f"item wd:cat{k} : bench:Category {{ }}" for k in range(CATEGORIES))
    lines.extend(f"item wd:src{k} : bench:Source {{ }}" for k in range(SOURCES))
    return Instances("\n".join(lines) + "\n", count)


# -- wide schemas for the compile workload -------------------------------------

_PATTERNS = ("Domain", "Range", "ScopedDomain", "ScopedRange", "Functionality",
             "InverseFunctionality", "ScopedFunctionality", "QualifiedFunctionality",
             "QualifiedScopedFunctionality", "InverseQualifiedScopedFunctionality",
             "Existential", "InverseExistential")
_DATATYPES = ("string", "decimal", "datetime")


@dataclass(frozen=True)
class WideSchema:
    text: str
    classes: tuple[str, ...]      # local names


def wide_schema(rng: random.Random, statements: int) -> WideSchema:
    """A schema with many declarations that uses every DSL feature.

    The shape of declaration i (object kind, qualifier types and flags,
    references, patterns) is a fixed function of i, so what a schema
    costs to compile depends only on `statements`; the seed picks the
    classes each declaration names.
    """
    classes = tuple(f"Cls{k}" for k in range(8))

    def pick() -> str:
        return f"wide:{rng.choice(classes)}"

    blocks: list[str] = []
    item_qualifiers = False
    for i in range(statements):
        lines = [f"statement wide:stmt{i} {{", f"  subject {pick()}"]
        data = i % 5 in (1, 3)
        lines.append(f"  object {_DATATYPES[i % 3]}" if data else f"  object item {pick()}")
        for j in range(i % 5):
            if (i + j) % 4 == 0:
                qtype = f"item {pick()}"
                item_qualifiers = True
            else:
                qtype = _DATATYPES[(i + j) % 3]
            suffix = ((" scoped" if (i + j) % 3 == 0 else "")
                      + (" required" if (i + 2 * j) % 4 == 1 else ""))
            lines.append(f"  qualifier wide:q{i}x{j} : {qtype}{suffix}")
        for j in range(i % 3):
            suffix = " required" if (i + j) % 2 == 0 else ""
            lines.append(f"  reference wide:r{i}x{j} -> item {pick()}{suffix}")
        pool = [p for p in _PATTERNS if not (data and p == "InverseExistential")]
        patterns = [pool[(3 * i + 5 * j) % len(pool)] for j in range(i % 4)]
        if patterns:
            lines.append(f"  axioms {{ {', '.join(patterns)} }}")
        lines.append("}")
        blocks.append("\n".join(lines))
    head = ["prefix wide: <http://wide.example/vocab/>"]
    if item_qualifiers:
        head.append("flag allow-item-qualifiers")
    decls = [("controlled class " if k % 3 == 0 else "class ") + f"wide:{c}"
             for k, c in enumerate(classes)]
    text = "\n\n".join(["\n".join(head), "\n".join(decls)] + blocks) + "\n"
    return WideSchema(text, classes)


def check_line(schema_text: str) -> str:
    """The `wbforge check` counts line, counted from the schema text itself."""
    counts = dict.fromkeys(("classes", "statements", "qualifiers", "references",
                            "patterns", "flags"), 0)
    for raw in schema_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        word = line.split(" ", 1)[0]
        if word in ("class", "controlled"):
            counts["classes"] += 1
        elif word == "statement":
            counts["statements"] += 1
        elif word in ("qualifier", "reference", "flag"):
            counts[word + "s"] += 1
        elif word == "axioms":
            inner = line[line.index("{") + 1:line.rindex("}")]
            counts["patterns"] += len([p for p in inner.split(",") if p.strip()])
    return " ".join(f"{k}={v}" for k, v in counts.items()) + "\n"


def split_exact_cardinality(axioms_text: str) -> str:
    """Rewrite exact-cardinality axioms as the min/max pairs they stand for."""
    out = []
    for line in axioms_text.splitlines(keepends=True):
        if "ExactCardinality(" in line and not line.startswith("#"):
            out.append(line.replace("ExactCardinality(", "MinCardinality("))
            out.append(line.replace("ExactCardinality(", "MaxCardinality("))
        else:
            out.append(line)
    return "".join(out)


# -- exported graphs as N-Triples lines ----------------------------------------

_NT_LINE = re.compile(r"^<([^>]*)> <([^>]*)> (.*) \.$")

Triple = tuple[str, str, str]     # subject IRI, predicate IRI, rendered object


def parse_lines(nt_text: str) -> set[Triple]:
    out = set()
    for line in nt_text.splitlines():
        m = _NT_LINE.match(line)
        if m is None:
            raise ValueError(f"not a canonical N-Triples line: {line!r}")
        out.add(m.groups())
    return out


def render_lines(triples: set[Triple]) -> str:
    """Canonical order: one line per triple, sorted on the rendered text."""
    return "".join(sorted(f"<{s}> <{p}> {o} .\n" for s, p, o in triples))


def statement_count(nt_text: str) -> int:
    """Number of statement nodes in an N-Triples text."""
    return nt_text.count(f"> <{RDF_TYPE}> <{WIKIBASE}Statement> .\n")


def strip_truthy(triples: set[Triple]) -> set[Triple]:
    """The graph without its direct wdt: edges, for `wbforge infer` to restore."""
    direct = ROOT + "prop/direct/"
    return {t for t in triples if not t[1].startswith(direct)}


# -- the audit defect menu -----------------------------------------------------

# Severity of each finding code, as the README documents them.
WARNINGS = frozenset({"BareTruthy", "HashMismatch", "UnknownProperty"})

Finding = tuple[str, str]         # (code, focus IRI)


class _View:
    def __init__(self, triples: set[Triple]) -> None:
        self.t = triples

    def objects(self, s: str, p: str) -> list[str]:
        return sorted(o for ts, tp, o in self.t if ts == s and tp == p)

    def subjects(self, p: str, o: str) -> list[str]:
        return sorted(s for s, tp, to in self.t if tp == p and to == o)

    def edges(self, p: str) -> list[tuple[str, str]]:
        return sorted((s, o) for s, tp, o in self.t if tp == p)

    def category_nodes(self) -> list[tuple[str, str]]:
        """(person, statement node) for every category statement."""
        return [(s, o[1:-1]) for s, o in self.edges(prop("p", "category"))]


def _iri(term: str) -> str:
    return f"<{term}>"


def _dv(v: _View, rng: random.Random):
    person = rng.choice(sorted({s for s, _ in v.category_nodes()}))
    v.t.discard((person, RDF_TYPE, _iri(VOCAB + "Person")))
    return {("DomainViolation", person)}


def _rv(v: _View, rng: random.Random):
    cats = sorted({o for _, o in v.edges(prop("ps", "category"))})
    cat = rng.choice(cats)[1:-1]
    v.t.discard((cat, RDF_TYPE, _iri(VOCAB + "Category")))
    return {("RangeViolation", cat)}


def _ev(v: _View, rng: random.Random):
    _, node = rng.choice(v.category_nodes())
    age = prop("pq", "age")
    v.t.discard((node, age, v.objects(node, age)[0]))
    # the recomputed content hash no longer covers the dropped qualifier
    return {("ExistenceViolation", node), ("HashMismatch", node)}


def _vnm(v: _View, rng: random.Random):
    node = rng.choice(v.subjects(RDF_TYPE, _iri(WIKIBASE + "TimeValue")))
    field = WIKIBASE + "timePrecision"
    v.t.discard((node, field, v.objects(node, field)[0]))
    return {("ValueNodeMalformed", node)}


def _fv(v: _View, rng: random.Random):
    seen = prop("pq", "seenAt")
    node = rng.choice([n for _, n in v.category_nodes() if v.objects(n, seen)])
    v.t.add((node, seen, f'"1999-09-09T00:00:00Z"^^<{XSD}dateTime>'))
    return {("FunctionalityViolation", node)}


def _qtv(v: _View, rng: random.Random):
    seen = prop("pq", "seenAt")
    node = rng.choice([n for _, n in v.category_nodes() if not v.objects(n, seen)])
    v.t.add((node, seen, '"yesterday"'))
    # a string reads back as a string qualifier, so the hash moves too
    return {("QualifierTypeViolation", node), ("HashMismatch", node)}


def _os(v: _View, rng: random.Random):
    node = f"{STMT}orphan-{rng.getrandbits(32):08x}"
    v.t.add((node, RDF_TYPE, _iri(WIKIBASE + "Statement")))
    return {("OrphanStatement", node)}


def _cg(v: _View, rng: random.Random):
    wdt = prop("wdt", "category")
    person, cat = rng.choice(v.edges(wdt))
    v.t.discard((person, wdt, cat))
    return {("ChainGap", node) for owner, node in v.category_nodes()
            if owner == person and cat in v.objects(node, prop("ps", "category"))}


def _bt(v: _View, rng: random.Random):
    wdt = prop("wdt", "category")
    person = rng.choice(sorted({s for s, _ in v.edges(wdt)}))
    held = set(v.objects(person, wdt))
    cat = rng.choice([c for c in (_iri(f"{WD}cat{k}") for k in range(CATEGORIES))
                      if c not in held])
    v.t.add((person, wdt, cat))
    return {("BareTruthy", person)}


def _sr(v: _View, rng: random.Random):
    (_, donor), (_, taker) = rng.sample(v.category_nodes(), 2)
    ref = v.objects(donor, PROV)[0]
    v.t.add((taker, PROV, ref))
    # the taker's recomputed content now carries one more reference
    return {("SharedReference", ref[1:-1]), ("HashMismatch", taker)}


def _ss(v: _View, rng: random.Random):
    owner, node = rng.choice(v.category_nodes())
    other = rng.choice(sorted({s for s, _ in v.category_nodes()} - {owner}))
    # a different property, so no truthy chain is implied by the new edge
    v.t.add((other, prop("p", "alias"), _iri(node)))
    return {("SharedStatement", node)}


def _hm(v: _View, rng: random.Random):
    note = prop("pq", "note")
    node = rng.choice([n for _, n in v.category_nodes() if not v.objects(n, note)])
    v.t.add((node, note, '"checked against the index"'))
    return {("HashMismatch", node)}


def _up(v: _View, rng: random.Random):
    _, node = rng.choice(v.category_nodes())
    unknown = prop("pq", "transcriberInitials")
    v.t.add((node, unknown, '"M.L."'))
    return {("UnknownProperty", unknown)}


# kind -> recipe; each edits the graph in place and returns the exact
# (code, focus) set that validation must report. The kinds follow the
# mutation manifest shipped with the fixtures, one per finding code.
DEFECTS = {
    "drop-subject-class": _dv,
    "drop-object-class": _rv,
    "drop-required-qualifier": _ev,
    "drop-time-precision": _vnm,
    "second-functional-qualifier": _fv,
    "string-on-date-qualifier": _qtv,
    "orphan-statement": _os,
    "strip-one-truthy-edge": _cg,
    "bare-truthy-edge": _bt,
    "shared-reference": _sr,
    "shared-statement": _ss,
    "note-added-after-export": _hm,
    "unknown-qualifier": _up,
}


def apply_defect(kind: str, nt_text: str, rng: random.Random) -> tuple[str, frozenset[Finding]]:
    """The defective graph text and the findings its recipe implies."""
    view = _View(parse_lines(nt_text))
    expected = DEFECTS[kind](view, rng)
    return render_lines(view.t), frozenset(expected)


_REPORT_LINE = re.compile(r"^(ERROR|WARNING) (\w+) <([^>]*)> : ")
_SUMMARY = re.compile(r"^errors=(\d+) warnings=(\d+)$")


def report_findings(report: str) -> frozenset[Finding] | None:
    """(code, focus) pairs of a rendered report; None if it is malformed.

    The summary line must agree with the severities of the finding lines.
    """
    lines = report.splitlines()
    if not lines or not report.endswith("\n"):
        return None
    summary = _SUMMARY.match(lines[-1])
    if summary is None:
        return None
    found: set[Finding] = set()
    errors = warnings = 0
    for line in lines[:-1]:
        m = _REPORT_LINE.match(line)
        if m is None or (m.group(1) == "WARNING") != (m.group(2) in WARNINGS):
            return None
        found.add((m.group(2), m.group(3)))
        errors += m.group(1) == "ERROR"
        warnings += m.group(1) == "WARNING"
    if (errors, warnings) != (int(summary.group(1)), int(summary.group(2))):
        return None
    return frozenset(found)


def expected_status(findings: frozenset[Finding]) -> int:
    """`wbforge validate` exits 1 when any finding is an error, else 0."""
    return 1 if any(code not in WARNINGS for code, _ in findings) else 0
