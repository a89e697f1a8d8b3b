"""Schema-aware checking of exported or hand-edited instance graphs.

A report is a flat list of findings, each carrying a severity, one of
thirteen stable codes, a focus node, and a one-line detail. Errors mark
graphs that contradict the generated axioms (wrong classes, broken
cardinalities, dangling reification); warnings mark suspicious but
tolerated content (bare truthy edges, stale content hashes, names no
declaration covers). Validation never mutates the graph.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

from .axioms import CATALOG
from .errors import PreimageDelimiterError, UnknownCodeError
from .expander import ExpandedSchema, ExpandedStatement, expand
from .exporter import (
    HASH_LENGTH,
    ReadValue,
    StatementContent,
    reference_hash,
    reference_name,
    statement_hash,
    statement_name_head,
    value_hash,
)
from .model import (
    KIND_BY_XSD,
    MAX_INT_DIGITS,
    VALUE_KINDS,
    XSD,
    XSD_NAME,
    Datatype,
    QualifierDecl,
    SchemaDocument,
    StatementDecl,
    ValueKind,
    is_canonical,
    within_int_bound,
)
from .namespaces import (
    PROPERTY_NAMESPACES, PROV_WAS_DERIVED_FROM, RDF_TYPE, WB_ITEM, WB_REFERENCE, WB_STATEMENT)
from .rdf import XSD_STRING, Graph, PlainTerm, PlainTriple

ERROR = "ERROR"
WARNING = "WARNING"

# every code the checker can emit: severity, summary, and the axiom origin
# keys its findings trace back to
_CODE_TABLE: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "BareTruthy": (WARNING, "a truthy direct edge has no reified statement behind it",
                   ("Ax9",)),
    "ChainGap": (ERROR, "a reified statement is missing its truthy direct edge", ("Ax9",)),
    "DomainViolation": (ERROR, "a statement subject lacks the declared subject class",
                        ("Ax1", "Ax9-c1", "Pattern:Domain")),
    "ExistenceViolation": (ERROR, "a mandatory value, qualifier, or reference is absent",
                           ("Ax7", "AxReq")),
    "FunctionalityViolation": (ERROR, "an at-most-one property carries several values",
                               ("Ax7", "AxFunc")),
    "HashMismatch": (WARNING, "a node name no longer matches its content hash", ()),
    "OrphanStatement": (ERROR, "a statement node has no owning item", ("Ax3+4",)),
    "QualifierTypeViolation": (ERROR, "a qualifier value does not fit its declaration",
                               ("Ax10", "Ax11")),
    "RangeViolation": (ERROR, "a statement or reference value lacks the declared class or type",
                       ("Ax6", "Ax50", "Ax53", "Pattern:Range")),
    "SharedReference": (ERROR, "a reference node is derived from several statements",
                        ("Ax54",)),
    "SharedStatement": (ERROR, "a statement node is claimed by several item edges",
                        ("Ax3+4",)),
    "UnknownProperty": (WARNING, "a family property matches no declaration", ()),
    "ValueNodeMalformed": (ERROR, "a metadata value node has missing or ill-typed fields",
                           tuple(key for kind in VALUE_KINDS.values() for key in kind.origins)),
}
CODES: dict[str, str] = {code: row[0] for code, row in _CODE_TABLE.items()}

# what follows a content-addressed node name's head: the content hash
_HASH = re.compile(rf"[0-9a-f]{{{HASH_LENGTH}}}")

# what reading a value node gives: its stored field texts in field order,
# or its field problems
NodeValue = tuple[str, ...] | list[str]
# one node's stored objects by predicate; an IRI is an exact `str`, a
# literal a plain `(lexical, datatype)` tuple
EdgeView = dict[str, list[PlainTerm]]


@dataclass(frozen=True, order=True)
class Finding:
    code: str
    focus: str                    # the IRI the finding is about, as text
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
    severity, summary, origins = _CODE_TABLE[code]
    lines = [f"{code} ({severity}, {len(hits)} finding(s)): {summary}."]
    for key in origins:
        gloss = CATALOG.get(key, "named axiom pattern chosen in the schema")
        lines.append(f"  {key} | {gloss}")
    if not origins:
        lines.append("  (integrity check; not tied to a generated axiom)")
    return "".join(line + "\n" for line in lines)


def literal_problem(v: PlainTerm, dt: Datatype) -> str | None:
    """Why `v` is not a canonical `dt` literal, or None when it is one."""
    if isinstance(v, str):
        return f"is not an {XSD_NAME[dt]} literal"
    lexical, datatype = v
    if datatype != XSD[dt]:
        return f"is not typed {XSD_NAME[dt]}"
    if not is_canonical(dt, lexical):
        return f"has non-canonical {XSD_NAME[dt]} lexical {lexical!r}"
    return None


# ---------------------------------------------------------------------------

class _Checker:
    def __init__(self, expanded: ExpandedSchema, graph: Graph) -> None:
        self.expanded = expanded
        self.g = graph
        self.table = expanded.source.namespaces
        self.findings: set[Finding] = set()
        # every family IRI some declaration's expansion mints
        self.minted = {p for st in expanded.statements for p in st.family_properties()}
        # (prefix, local name) of every predicate the graph uses under a property namespace
        self.family: dict[str, tuple[str, str]] = {
            p: spl for p in graph.predicates()
            if (spl := self.table.split(p)) is not None and spl[0] in PROPERTY_NAMESPACES}
        # the minted pq: IRIs the graph uses, to their local names
        self.minted_pq = {p: local for p, (prefix, local) in self.family.items()
                          if prefix == "pq" and p in self.minted}
        # the nodes typed with each class, in no order: what is found lands
        # in `findings`, which `run` sorts
        self.typed: dict[PlainTerm, set[str]] = defaultdict(set)
        for s, _, cls in graph.with_predicate(RDF_TYPE):
            self.typed[cls].add(s)
        # every value node read so far, by (node, kind tag), for the whole run
        self.values: dict[tuple[str, str], NodeValue] = {}
        # each statement owner's `statement_name_head`, for the whole run
        self.heads: dict[str, str] = {}
        # the name of each reference node whose statement's content hashed:
        # its snaks as read, scoped by the hash the statement's name carries
        self.ref_node_names: dict[str, str] = {}

    def add(self, code: str, focus: str, detail: str) -> None:
        self.findings.add(Finding(code, focus, detail, CODES[code]))

    def has_type(self, node: PlainTerm, cls: str) -> bool:
        return node in self.typed.get(cls, ())

    def value_node(self, node: str, kind: ValueKind) -> NodeValue:
        """The field texts a `kind` node stores, or its field problems, in field order.

        Read once per node and kind in a run, every field from one
        `Graph.edges` view. A text is an IRI or a canonical lexical form,
        which for an int is `str` of its value: so the joined texts are the
        form export hashes for the model value it wrote the node from.
        """
        key = (node, kind.tag)
        value = self.values.get(key)
        if value is not None:
            return value
        view = self.g.edges(node)
        problems: list[str] = []
        texts: list[str] = []
        for pred, (local, _, dt) in zip(kind.predicates, kind.fields):
            values = view.get(pred, ())
            if not values:
                problems.append(f"missing wikibase:{local}")
            elif len(values) > 1:
                problems.append(f"{len(values)} wikibase:{local} values")
            elif dt is None:
                if type(values[0]) is str:
                    texts.append(values[0])
                else:
                    problems.append(f"wikibase:{local} is not an IRI")
            elif (problem := literal_problem(values[0], dt)) is not None:
                problems.append(f"wikibase:{local} {problem}")
            elif dt is Datatype.INT and not within_int_bound(values[0][0]):
                problems.append(f"wikibase:{local} has more than {MAX_INT_DIGITS} digits")
            else:
                texts.append(values[0][0])
        value = self.values[key] = problems or tuple(texts)
        return value

    def read_value(self, view: EdgeView, value_prop: str | None, v: PlainTerm
                   ) -> ReadValue | None:
        """A ps:/pq: object as read back, or None.

        A date or quantity needs a well-formed `value_prop` node whose first
        field is the literal's text, and reads back as that node's field
        texts joined by '|'.
        """
        if type(v) is str or v[1] == XSD_STRING:
            return v
        kind = KIND_BY_XSD.get(v[1])
        if kind is None:
            return None
        for vnode in view.get(value_prop, ()):
            if type(vnode) is str:
                fields = self.value_node(vnode, kind)
                if type(fields) is tuple and fields[0] == v[0]:
                    return "|".join(fields)
        return None

    # -- property name coverage -------------------------------------------

    def check_unknown_properties(self) -> None:
        # known means minted: a psv:/pqv: edge no declaration mints is unknown
        for p, (prefix, local) in self.family.items():
            if p not in self.minted:
                self.add("UnknownProperty", p, f"{prefix}:{local} matches no declaration")

    # -- reification shape --------------------------------------------------

    def in_edges(self) -> dict[PlainTerm, list[tuple[str, str]]]:
        """Each node's incoming p: edges as (subject, property local name), unordered."""
        incoming: dict[PlainTerm, list[tuple[str, str]]] = {}
        for p, (prefix, local) in self.family.items():
            if prefix == "p":
                for s, _, o in self.g.with_predicate(p):
                    incoming.setdefault(o, []).append((s, local))
        return incoming

    def resolve_decl(self, view: EdgeView, edges: list[tuple[str, str]]
                     ) -> tuple[ExpandedStatement | None, str | None]:
        """(declaration's family, owning subject) for a statement node's edge
        view and incoming p: edges.

        One edge gives both. Otherwise there is no owner, and the
        declaration is the one property name the edges, or failing that
        the node's ps: edges, agree on, if any.
        """
        if len(edges) == 1:
            subject, name = edges[0]
            return self.expanded.statement(name), subject
        names = {name for _, name in edges}
        if len(names) != 1:
            names = {spl[1] for p in view
                     if (spl := self.family.get(p)) is not None and spl[0] == "ps"}
        return (self.expanded.statement(next(iter(names))) if len(names) == 1 else None), None

    def check_statement_nodes(self) -> None:
        incoming = self.in_edges()
        owners: dict[str, int] = {}       # statement nodes per prov:wasDerivedFrom object
        for node in self.typed.get(WB_STATEMENT, ()):
            edges = incoming.get(node, ())
            if not edges:
                self.add("OrphanStatement", node,
                         "statement node has no incoming p: edge")
            elif len(edges) > 1:
                self.add("SharedStatement", node,
                         f"{len(edges)} incoming p: edges")
            view = self.g.edges(node)     # the one look at the node
            for rnode in view.get(PROV_WAS_DERIVED_FROM, ()):
                if type(rnode) is str:
                    owners[rnode] = owners.get(rnode, 0) + 1
            st, subject = self.resolve_decl(view, edges)
            if st is not None:
                self.check_against_decl(node, view, st, subject)
        self.check_references_shared(owners)

    def check_against_decl(self, node: str, view: EdgeView, st: ExpandedStatement,
                           subject: str | None) -> None:
        """Every check of a statement node, and its content hash from what they read."""
        decl = st.source
        name = decl.property_name
        if subject is not None:
            if not self.has_type(subject, decl.subject_class):
                cls = self.table.curie(decl.subject_class) or decl.subject_class
                self.add("DomainViolation", subject,
                         f"subject of p:{name} lacks rdf:type {cls}")
            if not self.has_type(subject, WB_ITEM):
                self.add("DomainViolation", subject,
                         f"subject of p:{name} lacks rdf:type wikibase:Item")

        ps_values = view.get(st.ps, ())
        if not ps_values:
            self.add("ExistenceViolation", node, f"statement has no ps:{name} value")
        elif len(ps_values) > 1:
            self.add("FunctionalityViolation", node,
                     f"{len(ps_values)} ps:{name} values")
        for v in ps_values:
            self.check_object_value(node, decl, v)
        value = self.read_value(view, st.psv, ps_values[0]) if len(ps_values) == 1 else None

        quals = self.check_qualifiers(node, st, view)
        refs = self.check_references(node, st, view)
        readable = value is not None and quals is not None and refs is not None
        got = self.check_hash(node, subject,
                              (st.wdt, value, quals, tuple(refs.values())) if readable else None)
        if got is not None:
            for rnode, snaks in refs.items():
                self.ref_node_names[rnode] = reference_name(
                    reference_hash(snaks, self.table), got, self.table)

    def check_object_value(self, node: str, decl: StatementDecl, v: PlainTerm) -> None:
        name = decl.property_name
        cls = decl.object_spec.item_class
        if cls is None:
            problem = literal_problem(v, decl.object_spec.datatype)
            if problem:
                self.add("RangeViolation", node, f"value of ps:{name} {problem}")
            return
        if type(v) is not str:
            self.add("RangeViolation", node, f"value of ps:{name} is not an item")
            return
        if not self.has_type(v, cls):
            curie = self.table.curie(cls) or cls
            self.add("RangeViolation", v, f"value of ps:{name} lacks rdf:type {curie}")
        if not self.has_type(v, WB_ITEM):
            self.add("RangeViolation", v,
                     f"value of ps:{name} lacks rdf:type wikibase:Item")

    def check_qualifiers(self, node: str, st: ExpandedStatement, view: EdgeView
                         ) -> tuple[tuple[str, ReadValue], ...] | None:
        """The declared qualifiers' (pq:, value) pairs as read back, or None
        when a date or quantity value has no well-formed matching node."""
        minted_pq, quals = self.minted_pq, st.qualifiers
        for p in view:                 # another declaration's pq: edge; an unminted one is unknown
            if (qname := minted_pq.get(p)) is not None and qname not in quals:
                self.add("QualifierTypeViolation", node,
                         f"qualifier pq:{qname} not declared for {st.source.property_name}")
        read: list[tuple[str, ReadValue | None]] = []
        for qname, (q, pq, pqv) in quals.items():
            values = view.get(pq, ())
            if q.required and not values:
                self.add("ExistenceViolation", node,
                         f"required qualifier pq:{qname} missing")
            if len(values) > 1:        # a graph is a set, so the values are distinct
                self.add("FunctionalityViolation", node,
                         f"{len(values)} values for functional qualifier pq:{qname}")
            for v in values:
                self.check_qualifier_value(node, qname, q, v)
                read.append((pq, self.read_value(view, pqv, v)))
        return None if any(qv is None for _, qv in read) else tuple(read)

    def check_qualifier_value(self, node: str, qname: str, q: QualifierDecl, v: PlainTerm
                              ) -> None:
        if q.qtype.item_class is not None:
            if not self.has_type(v, q.qtype.item_class):
                cls = self.table.curie(q.qtype.item_class) or q.qtype.item_class
                self.add("QualifierTypeViolation", node,
                         f"value of pq:{qname} is not an item of {cls}")
            return
        problem = literal_problem(v, q.qtype.datatype)
        if problem:
            self.add("QualifierTypeViolation", node, f"value of pq:{qname} {problem}")

    def check_references(self, node: str, st: ExpandedStatement, view: EdgeView
                         ) -> dict[str, tuple[tuple[str, str], ...]] | None:
        """Each reference node's declared (pr:, target) snaks as read back, by
        node, or None when a reference node is not typed or a target is not an IRI."""
        snak_names: set[str] = set()
        read: dict[str, tuple[tuple[str, str], ...]] = {}
        readable = True
        for rnode in view.get(PROV_WAS_DERIVED_FROM, ()):
            if not self.has_type(rnode, WB_REFERENCE):
                self.add("RangeViolation", node,
                         "prov:wasDerivedFrom value is not typed wikibase:Reference")
                readable = False
                continue
            rview = self.g.edges(rnode)
            snaks: list[tuple[str, str]] = []
            for r, pr in st.references.values():
                targets = rview.get(pr, ())
                if targets:
                    snak_names.add(r.name)
                for target in targets:
                    if type(target) is not str:
                        self.add("RangeViolation", rnode, f"target of pr:{r.name} is not an item")
                        readable = False
                    elif not self.has_type(target, r.target_class):
                        cls = self.table.curie(r.target_class) or r.target_class
                        self.add("RangeViolation", target,
                                 f"target of pr:{r.name} lacks rdf:type {cls}")
                    snaks.append((pr, target))
            read[rnode] = tuple(snaks)
        for rname in st.required_references:
            if rname not in snak_names:
                self.add("ExistenceViolation", node, f"required reference pr:{rname} missing")
        return read if readable else None

    # -- provenance sharing --------------------------------------------------

    def check_references_shared(self, owners: dict[str, int]) -> None:
        """`owners`: how many statement nodes derive each reference node;
        provenance of other nodes is out of scope."""
        for rnode, count in owners.items():
            if count > 1:
                self.add("SharedReference", rnode,
                         f"reference derived by {count} statements")
            elif (want := self.ref_node_names.get(rnode, rnode)) != rnode:
                self.add("HashMismatch", rnode, f"node name does not match content name <{want}>")

    # -- truthy chain ----------------------------------------------------------

    def check_chain(self) -> None:
        names = {st.wdt: st.source.property_name
                 for st in self.expanded.statements}
        implied: set[PlainTriple] = set()
        for node, t in implied_truthy(self.expanded, self.g):
            implied.add(t)
            if t not in self.g:
                self.add("ChainGap", node, f"missing truthy edge wdt:{names[t[1]]}")
        for wdt, name in names.items():
            for t in self.g.with_predicate(wdt):
                if t not in implied:
                    self.add("BareTruthy", t[0],
                             f"truthy edge wdt:{name} has no reified statement")

    # -- metadata value nodes ---------------------------------------------------

    def check_value_nodes(self) -> None:
        for kind in VALUE_KINDS.values():
            for node in self.typed.get(kind.class_iri, ()):
                fields = self.value_node(node, kind)
                if type(fields) is list:
                    self.add("ValueNodeMalformed", node, "; ".join(fields))
                else:
                    self.check_value_node_hash(node, kind, fields)

    def check_value_node_hash(self, node: str, kind: ValueKind, fields: tuple[str, ...]
                              ) -> None:
        got = self.name_hash(node, self.table.base("v"))
        if got is None:
            return
        want = value_hash((kind.tag, "|".join(fields)))
        if got != want:
            self.add("HashMismatch", node,
                     f"node hash {got} does not match content hash {want}")

    # -- content-hash recomputation ---------------------------------------------

    def name_hash(self, node: str, head: str) -> str | None:
        """The hash `node`'s name carries after `head`.

        A name that does not start with `head`, or does not go on with a
        hash alone, is not content-addressed: that is a finding, and None.
        """
        if not (node.startswith(head) and _HASH.fullmatch(node, len(head))):
            self.add("HashMismatch", node, "node name is not content-addressed")
            return None
        return node[len(head):]

    def check_hash(self, node: str, subject: str | None,
                   content: StatementContent | None) -> str | None:
        """The name of a node with one owner, and its hash when `content` was
        read; gives the name's hash once the content hashes, else None."""
        if subject is None:
            return None
        # only the name export mints for this owner: one claim has one clean name
        head = self.heads.get(subject)
        if head is None:
            head = self.heads[subject] = statement_name_head(subject, self.table)
        got = self.name_hash(node, head)
        if got is None or content is None:
            return None
        try:
            want = statement_hash(subject, content, self.table)
        except PreimageDelimiterError as exc:
            # an IRI never holds '|', so the delimiter is ';'
            self.add("HashMismatch", node,
                     f"content cannot be hashed: reference target <{exc.iri}> contains ';'")
            return None
        if got != want:
            self.add("HashMismatch", node,
                     f"node hash {got} does not match content hash {want}")
        return got

    def run(self) -> ValidationReport:
        self.check_unknown_properties()
        self.check_statement_nodes()
        self.check_chain()
        self.check_value_nodes()
        ordered = sorted(self.findings, key=lambda f: (f.code, f.focus, f.detail))
        return ValidationReport(tuple(ordered))


def validate(schema: SchemaDocument, graph: Graph) -> ValidationReport:
    return _Checker(expand(schema), graph).run()


def implied_truthy(expanded: ExpandedSchema, graph: Graph
                   ) -> Iterator[tuple[str, PlainTriple]]:
    """(statement node, wdt: edge) for every p:/ps: chain of a declared property.

    In no particular order, since both consumers are order-free: the
    checker's findings set and `infer_truthy`'s graph. Per declaration,
    one pass over the graph's ps: triples groups their objects by node,
    and one pass over its p: triples joins each edge to them; a p: edge
    to a literal joins nothing, as no literal is a ps: subject.
    """
    for st in expanded.statements:
        values: dict[str, list[PlainTerm]] = {}
        for node, _, y in graph.with_predicate(st.ps):
            values.setdefault(node, []).append(y)
        wdt = st.wdt
        for s, _, node in graph.with_predicate(st.p):
            for y in values.get(node, ()):
                yield node, (s, wdt, y)


def infer_truthy(schema: SchemaDocument, graph: Graph) -> Graph:
    """A new graph with the missing truthy edges added.

    For every reified statement of a declared property the direct edge
    implied by the p:/ps: chain is inserted; repeated application is a
    fixed point and never removes triples.
    """
    out = graph.copy()
    for _, t in implied_truthy(expand(schema), graph):
        out.add(t)
    return out
