"""Schema-aware checking of exported or hand-edited instance graphs.

A report is a flat list of findings, each carrying a severity, one of
thirteen stable codes, a focus node, and a one-line detail. Errors mark
graphs that contradict the generated axioms (wrong classes, broken
cardinalities, dangling reification); warnings mark suspicious but
tolerated content (bare truthy edges, stale content hashes, names no
declaration covers). Validation never mutates the graph.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .axioms import CATALOG
from .errors import UnknownCodeError
from .exporter import literal_problem, read_statement, read_value_node, statement_hash, value_hash
from .model import (
    VALUE_KINDS,
    DateTimeValue,
    DecimalValue,
    SchemaDocument,
    StatementDecl,
)
from .namespaces import PROPERTY_NAMESPACES, Iri, namespaced_property, prov_was_derived_from, rdf_type, wikibase
from .rdf import Graph, Term, Triple

ERROR = "ERROR"
WARNING = "WARNING"

# every code the checker can emit, with its severity
CODES: dict[str, str] = {
    "BareTruthy": WARNING,
    "ChainGap": ERROR,
    "DomainViolation": ERROR,
    "ExistenceViolation": ERROR,
    "FunctionalityViolation": ERROR,
    "HashMismatch": WARNING,
    "OrphanStatement": ERROR,
    "QualifierTypeViolation": ERROR,
    "RangeViolation": ERROR,
    "SharedReference": ERROR,
    "SharedStatement": ERROR,
    "UnknownProperty": WARNING,
    "ValueNodeMalformed": ERROR,
}

# code -> axiom origin keys its findings trace back to
_CODE_ORIGINS: dict[str, tuple[str, ...]] = {
    "BareTruthy": ("Ax9",),
    "ChainGap": ("Ax9",),
    "DomainViolation": ("Ax1", "Ax9-c1", "Pattern:Domain"),
    "ExistenceViolation": ("Ax7", "AxReq"),
    "FunctionalityViolation": ("Ax7", "AxFunc"),
    "HashMismatch": (),
    "OrphanStatement": ("Ax3+4",),
    "QualifierTypeViolation": ("Ax10", "Ax11"),
    "RangeViolation": ("Ax6", "Ax50", "Ax53", "Pattern:Range"),
    "SharedReference": ("Ax54",),
    "SharedStatement": ("Ax3+4",),
    "UnknownProperty": (),
    "ValueNodeMalformed": tuple(key for kind in VALUE_KINDS.values() for key in kind.origins),
}

_CODE_SUMMARY: dict[str, str] = {
    "BareTruthy": "a truthy direct edge has no reified statement behind it",
    "ChainGap": "a reified statement is missing its truthy direct edge",
    "DomainViolation": "a statement subject lacks the declared subject class",
    "ExistenceViolation": "a mandatory value, qualifier, or reference is absent",
    "FunctionalityViolation": "an at-most-one property carries several values",
    "HashMismatch": "a node name no longer matches its content hash",
    "OrphanStatement": "a statement node has no owning item",
    "QualifierTypeViolation": "a qualifier value does not fit its declaration",
    "RangeViolation": "a statement or reference value lacks the declared class or type",
    "SharedReference": "a reference node is derived from several statements",
    "SharedStatement": "a statement node is claimed by several item edges",
    "UnknownProperty": "a family property matches no declaration",
    "ValueNodeMalformed": "a metadata value node has missing or ill-typed fields",
}


@dataclass(frozen=True, order=True)
class Finding:
    code: str
    focus: str                    # IRI or name the finding is about
    detail: str
    severity: str

    def render(self) -> str:
        return f"{self.severity} {self.code} <{self.focus}> : {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == WARNING)

    @property
    def passed(self) -> bool:
        return self.errors == 0

    def by_code(self, code: str) -> tuple[Finding, ...]:
        if code not in CODES:
            raise UnknownCodeError(code)
        return tuple(f for f in self.findings if f.code == code)


def render_report(report: ValidationReport) -> str:
    lines = [f.render() for f in report.findings]
    lines.append(f"errors={report.errors} warnings={report.warnings}")
    return "".join(line + "\n" for line in lines)


def render_report_tsv(report: ValidationReport) -> str:
    lines = ["severity\tcode\tfocus\tdetail"]
    lines.extend(f"{f.severity}\t{f.code}\t{f.focus}\t{f.detail}"
                 for f in report.findings)
    return "".join(line + "\n" for line in lines)


def explain(report: ValidationReport, code: str) -> str:
    """Prose for one finding code, citing the axiom origins behind it."""
    if code not in CODES:
        raise UnknownCodeError(code)
    hits = report.by_code(code)
    lines = [f"{code} ({CODES[code]}, {len(hits)} finding(s)): {_CODE_SUMMARY[code]}."]
    for key in _CODE_ORIGINS[code]:
        gloss = CATALOG.get(key, "named axiom pattern chosen in the schema")
        lines.append(f"  {key} | {gloss}")
    if not _CODE_ORIGINS[code]:
        lines.append("  (integrity check; not tied to a generated axiom)")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------

class _Checker:
    def __init__(self, schema: SchemaDocument, graph: Graph) -> None:
        self.schema = schema
        self.g = graph
        self.table = schema.namespaces
        self.a = rdf_type(self.table)
        self.prov = prov_was_derived_from(self.table)
        self.findings: set[Finding] = set()
        # qualifier and reference names some statement declares
        self.qual_names = dict.fromkeys(q.name for d in schema.statements for q in d.qualifiers)
        self.ref_names = {r.name for d in schema.statements for r in d.references}

    def wb(self, local: str) -> Iri:
        return wikibase(self.table, local)

    def add(self, code: str, focus: Iri | str, detail: str) -> None:
        f = focus.value if isinstance(focus, Iri) else focus
        self.findings.add(Finding(code, f, detail, CODES[code]))

    def has_type(self, node: Term, cls: Iri) -> bool:
        return isinstance(node, Iri) and Triple(node, self.a, cls) in self.g

    # -- property name coverage -------------------------------------------

    def check_unknown_properties(self) -> None:
        stmt_names = {d.property_name for d in self.schema.statements}
        family = {spl for p in {t.p for t in self.g}
                  if (spl := self.table.split(p)) is not None
                  and spl[0] in PROPERTY_NAMESPACES}
        for (prefix, local) in sorted(family):
            if prefix in ("wdt", "p", "ps", "psv"):
                known = local in stmt_names
            elif prefix in ("pq", "pqv"):
                known = local in self.qual_names
            else:
                known = local in self.ref_names
            if not known:
                self.add("UnknownProperty",
                         namespaced_property(local, prefix, self.table),
                         f"{prefix}:{local} matches no declaration")

    # -- reification shape --------------------------------------------------

    def family_edges(self, triples: list[Triple], prefix: str) -> list[tuple[Triple, str]]:
        """(triple, property local name) for the triples whose predicate is under `prefix`."""
        return [(t, spl[1]) for t in triples
                if (spl := self.table.split(t.p)) is not None and spl[0] == prefix]

    def in_edges(self, node: Iri) -> list[tuple[Iri, str]]:
        """Incoming p: edges as (subject, property local name), sorted."""
        return [(t.s, local) for t, local in self.family_edges(self.g.match(None, None, node), "p")]

    def resolve_decl(self, node: Iri, edges: list[tuple[Iri, str]]
                     ) -> tuple[StatementDecl | None, Iri | None]:
        """(declaration, owning subject) for a statement node and its `in_edges`, best effort."""
        subject = edges[0][0] if len(edges) == 1 else None
        names = {name for _, name in edges}
        if len(names) != 1:
            names = {local for _, local in self.family_edges(self.g.match(node), "ps")}
        if len(names) == 1:
            decl = self.schema.statement_decl(next(iter(names)))
            return decl, subject
        return None, subject

    def check_statement_nodes(self) -> None:
        for node in self.g.subjects(self.a, self.wb("Statement")):
            edges = self.in_edges(node)
            if not edges:
                self.add("OrphanStatement", node,
                         "statement node has no incoming p: edge")
            elif len(edges) > 1:
                self.add("SharedStatement", node,
                         f"{len(edges)} incoming p: edges")
            decl, subject = self.resolve_decl(node, edges)
            if decl is not None:
                self.check_against_decl(node, decl, subject)

    def check_against_decl(self, node: Iri, decl: StatementDecl,
                           subject: Iri | None) -> None:
        name = decl.property_name
        if subject is not None:
            if not self.has_type(subject, decl.subject_class):
                cls = self.table.curie(decl.subject_class) or decl.subject_class.value
                self.add("DomainViolation", subject,
                         f"subject of p:{name} lacks rdf:type {cls}")
            if not self.has_type(subject, self.wb("Item")):
                self.add("DomainViolation", subject,
                         f"subject of p:{name} lacks rdf:type wikibase:Item")

        ps_values = self.g.objects(node, namespaced_property(name, "ps", self.table))
        if not ps_values:
            self.add("ExistenceViolation", node, f"statement has no ps:{name} value")
        elif len(ps_values) > 1:
            self.add("FunctionalityViolation", node,
                     f"{len(ps_values)} ps:{name} values")
        for v in ps_values:
            self.check_object_value(node, decl, v)

        self.check_qualifiers(node, decl)
        self.check_references(node, decl)
        self.check_hash(node, decl, subject)

    def check_object_value(self, node: Iri, decl: StatementDecl, v: Term) -> None:
        name = decl.property_name
        cls = decl.object_spec.item_class
        if cls is None:
            problem = literal_problem(v, decl.object_spec.datatype, self.table)
            if problem:
                self.add("RangeViolation", node, f"value of ps:{name} {problem}")
            return
        if not isinstance(v, Iri):
            self.add("RangeViolation", node, f"value of ps:{name} is not an item")
            return
        if not self.has_type(v, cls):
            curie = self.table.curie(cls) or cls.value
            self.add("RangeViolation", v, f"value of ps:{name} lacks rdf:type {curie}")
        if not self.has_type(v, self.wb("Item")):
            self.add("RangeViolation", v,
                     f"value of ps:{name} lacks rdf:type wikibase:Item")

    def check_qualifiers(self, node: Iri, decl: StatementDecl) -> None:
        declared = {q.name: q for q in decl.qualifiers}
        for qname in self.qual_names:     # globally unknown names are covered elsewhere
            values = self.g.objects(node, namespaced_property(qname, "pq", self.table))
            q = declared.get(qname)
            if q is None:
                if values:
                    self.add("QualifierTypeViolation", node,
                             f"qualifier pq:{qname} not declared for {decl.property_name}")
                continue
            if q.required and not values:
                self.add("ExistenceViolation", node,
                         f"required qualifier pq:{qname} missing")
            if len(set(values)) > 1:
                self.add("FunctionalityViolation", node,
                         f"{len(set(values))} values for functional qualifier pq:{qname}")
            for v in values:
                self.check_qualifier_value(node, qname, q, v)

    def check_qualifier_value(self, node: Iri, qname: str, q, v: Term) -> None:
        if q.qtype.item_class is not None:
            if not self.has_type(v, q.qtype.item_class):
                cls = self.table.curie(q.qtype.item_class) or q.qtype.item_class.value
                self.add("QualifierTypeViolation", node,
                         f"value of pq:{qname} is not an item of {cls}")
            return
        problem = literal_problem(v, q.qtype.datatype, self.table)
        if problem:
            self.add("QualifierTypeViolation", node, f"value of pq:{qname} {problem}")

    def check_references(self, node: Iri, decl: StatementDecl) -> None:
        declared = {r.name: r for r in decl.references}
        snak_names: set[str] = set()
        for rnode in self.g.objects(node, self.prov):
            if not self.has_type(rnode, self.wb("Reference")):
                self.add("RangeViolation", node,
                         "prov:wasDerivedFrom value is not typed wikibase:Reference")
                continue
            for local, r in declared.items():
                targets = self.g.objects(rnode, namespaced_property(local, "pr", self.table))
                if targets:
                    snak_names.add(local)
                for target in targets:
                    if not self.has_type(target, r.target_class):
                        cls = self.table.curie(r.target_class) or r.target_class.value
                        self.add("RangeViolation", target,
                                 f"target of pr:{local} lacks rdf:type {cls}")
        for rname, r in declared.items():
            if r.required and rname not in snak_names:
                self.add("ExistenceViolation", node,
                         f"required reference pr:{rname} missing")

    # -- provenance sharing --------------------------------------------------

    def check_references_shared(self) -> None:
        derived: dict[Iri, set[Iri]] = {}
        for t in self.g.match(None, self.prov, None):
            if not self.has_type(t.s, self.wb("Statement")):
                continue          # non-statement provenance is out of scope
            if isinstance(t.o, Iri):
                derived.setdefault(t.o, set()).add(t.s)
        for rnode, owners in sorted(derived.items()):
            if len(owners) > 1:
                self.add("SharedReference", rnode,
                         f"reference derived by {len(owners)} statements")

    # -- truthy chain ----------------------------------------------------------

    def check_chain(self) -> None:
        names = {namespaced_property(d.property_name, "wdt", self.table): d.property_name
                 for d in self.schema.statements}
        implied: set[Triple] = set()
        for node, t in implied_truthy(self.schema, self.g):
            implied.add(t)
            if t not in self.g:
                self.add("ChainGap", node, f"missing truthy edge wdt:{names[t.p]}")
        for wdt, name in names.items():
            for t in self.g.match(None, wdt, None):
                if t not in implied:
                    self.add("BareTruthy", t.s,
                             f"truthy edge wdt:{name} has no reified statement")

    # -- metadata value nodes ---------------------------------------------------

    def check_value_nodes(self) -> None:
        for kind in VALUE_KINDS.values():
            for node in self.g.subjects(self.a, self.wb(kind.node_class)):
                value = read_value_node(self.g, node, kind, self.table)
                if isinstance(value, list):
                    self.add("ValueNodeMalformed", node, "; ".join(value))
                else:
                    self.check_value_node_hash(node, value)

    def check_value_node_hash(self, node: Iri, value: DateTimeValue | DecimalValue) -> None:
        base = self.table.base("v")
        if not node.value.startswith(base):
            return
        want = value_hash(value)
        got = node.value[len(base):]
        if got != want:
            self.add("HashMismatch", node,
                     f"node hash {got} does not match content hash {want}")

    # -- content-hash recomputation ---------------------------------------------

    def check_hash(self, node: Iri, decl: StatementDecl, subject: Iri | None) -> None:
        base = self.table.base("s")
        if subject is None or not node.value.startswith(base):
            return
        tail = node.value.rsplit("-", 1)
        if len(tail) != 2 or len(tail[1]) != 40:
            return
        stmt = read_statement(self.g, node, decl, self.table)
        if stmt is None:
            return
        want = statement_hash(subject, stmt, self.table)
        if tail[1] != want:
            self.add("HashMismatch", node,
                     f"node hash {tail[1]} does not match content hash {want}")

    def run(self) -> ValidationReport:
        self.check_unknown_properties()
        self.check_statement_nodes()
        self.check_references_shared()
        self.check_chain()
        self.check_value_nodes()
        ordered = sorted(self.findings, key=lambda f: (f.code, f.focus, f.detail))
        return ValidationReport(tuple(ordered))


def validate(schema: SchemaDocument, graph: Graph) -> ValidationReport:
    return _Checker(schema, graph).run()


def implied_truthy(schema: SchemaDocument, graph: Graph) -> Iterator[tuple[Iri, Triple]]:
    """(statement node, wdt: edge) for every p:/ps: chain of a declared property."""
    table = schema.namespaces
    for decl in schema.statements:
        name = decl.property_name
        ps = namespaced_property(name, "ps", table)
        wdt = namespaced_property(name, "wdt", table)
        for t in graph.match(None, namespaced_property(name, "p", table), None):
            if isinstance(t.o, Iri):
                for y in graph.objects(t.o, ps):
                    yield t.o, Triple(t.s, wdt, y)


def infer_truthy(schema: SchemaDocument, graph: Graph) -> Graph:
    """A new graph with the missing truthy edges added.

    For every reified statement of a declared property the direct edge
    implied by the p:/ps: chain is inserted; repeated application is a
    fixed point and never removes triples.
    """
    out = graph.copy()
    for _, t in implied_truthy(schema, graph):
        out.add(t)
    return out
