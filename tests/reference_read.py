"""The read path that `wbforge.exporter` held before the validator became
the one reader of a graph, kept as the reference for `test_read_back.py`
and `test_exporter.py`.

`_read_named` reads a statement node back by name, the inverse of export;
`read_content` gives that read as the graph terms a content hash reads,
and `read_statement` as the model `StatementData`. `read_value_node`
reads a date or quantity node, and `_read_value` a ps:/pq: object;
`literal_problem` says why a literal is not canonical. The function
bodies are the earlier definitions, so that the reference shares no
reading code with the validator it checks, except that `_read_named`
mints every family IRI it reads (ps:, psv:, pq:, pqv:, pr:) by name and
orders the references by name itself, reading no more of the expanded
statement than its declaration; that `read_content` mints the wdt:, pq:
and pr: IRIs of its terms and joins a value node's field texts itself;
and that every
fixed term (`rdf:type`, `wikibase:`, `xsd:`, `prov:`) is minted here
through `NamespaceTable.term`, not taken from the library's constants; the
imports differ too, and no underscore-prefixed name is imported from
`wbforge`. A node is looked at through `edge_view`, which groups the typed
views `Graph.match` gives, where the library's readers take the stored
terms from `Graph.edges`.
"""

from __future__ import annotations

from collections.abc import Callable

from wbforge.expander import ExpandedStatement
from wbforge.exporter import ReadValue, StatementContent
from wbforge.model import (
    MAX_INT_DIGITS,
    VALUE_KINDS,
    Datatype,
    DateTimeValue,
    DecimalValue,
    ItemRef,
    QualifierData,
    RefData,
    SnakData,
    StatementData,
    StringValue,
    Value,
    ValueKind,
    bounded_int,
    is_canonical,
)
from wbforge.namespaces import Iri, NamespaceTable
from wbforge.rdf import Graph, Literal, Term

# what reading a value node gives: its value, or its field problems
NodeValue = DateTimeValue | DecimalValue | list[str]
EdgeView = dict[Iri, list[Term]]              # one node's objects by predicate


def edge_view(g: Graph, node: Iri) -> EdgeView:
    """`node`'s objects by predicate as views, in the order `Graph.edges` gives them."""
    view: EdgeView = {}
    for t in g.match(s=node):
        view.setdefault(t.p, []).append(t.o)
    return view


# the xsd: local name of each Datatype's literals
XSD_LOCAL = {Datatype.STRING: "string", Datatype.DECIMAL: "decimal",
             Datatype.DATETIME: "dateTime", Datatype.INT: "int"}


def literal_problem(v: Term, dt: Datatype, table: NamespaceTable) -> str | None:
    """Why `v` is not a canonical `dt` literal, or None when it is one."""
    if not isinstance(v, Literal):
        return f"is not an xsd:{XSD_LOCAL[dt]} literal"
    if v.datatype != table.term("xsd", XSD_LOCAL[dt]):
        return f"is not typed xsd:{XSD_LOCAL[dt]}"
    if not is_canonical(dt, v.lexical):
        return f"has non-canonical xsd:{XSD_LOCAL[dt]} lexical {v.lexical!r}"
    return None


def read_value_node(g: Graph, node: Iri, kind: ValueKind, table: NamespaceTable) -> NodeValue:
    """The value a `kind` node holds, or its field problems in field order.

    One look at the node: every field comes from one `Graph.edges` view.
    The value is what `_add_value` wrote the node from.
    """
    view = edge_view(g, node)
    problems: list[str] = []
    fields: dict[str, object] = {}
    for local, attr, dt in kind.fields:
        values = view.get(table.term("wikibase", local), ())
        if not values:
            problems.append(f"missing wikibase:{local}")
        elif len(values) > 1:
            problems.append(f"{len(values)} wikibase:{local} values")
        elif dt is None:
            if isinstance(values[0], Iri):
                fields[attr] = values[0]
            else:
                problems.append(f"wikibase:{local} is not an IRI")
        elif (problem := literal_problem(values[0], dt, table)) is not None:
            problems.append(f"wikibase:{local} {problem}")
        elif dt is not Datatype.INT:
            fields[attr] = values[0].lexical
        elif (number := bounded_int(values[0].lexical)) is None:
            problems.append(f"wikibase:{local} has more than {MAX_INT_DIGITS} digits")
        else:
            fields[attr] = number
    return problems or kind.value_type(**fields)


def _read_value(view: EdgeView, value_prop: Iri | None, v: Term, table: NamespaceTable,
                value_of: Callable[[Iri, ValueKind], NodeValue]) -> NamedValue | None:
    """A ps:/pq: object as read back; dates and quantities need a matching node."""
    if isinstance(v, Iri) or v.datatype == table.term("xsd", "string"):
        return v
    kind = next((k for dt, k in VALUE_KINDS.items()
                 if v.datatype == table.term("xsd", XSD_LOCAL[dt])), None)
    if kind is None:
        return None
    main = kind.fields[0][1]
    for vnode in view.get(value_prop, ()):
        if isinstance(vnode, Iri):
            value = value_of(vnode, kind)
            if not isinstance(value, list) and getattr(value, main) == v.lexical:
                return value
    return None


# a statement node read back by name: the property name, the ps: value, a
# (name, value) pair for each declared qualifier value, and each reference's
# (name, target) snaks; a date or quantity is its model value
NamedValue = Iri | Literal | DateTimeValue | DecimalValue
NamedContent = tuple[str, NamedValue, tuple[tuple[str, NamedValue], ...],
                     tuple[tuple[tuple[str, Iri], ...], ...]]


def _read_named(g: Graph, node: Iri, st: ExpandedStatement,
                table: NamespaceTable) -> NamedContent | None:
    """The statement content behind `node` by name, the inverse of export.

    Only declared qualifiers and reference snaks are read, and psv:/pqv:
    edges by name, minted or not. None when the node is too broken to
    hash: not one ps: value, a date or quantity without a well-formed
    matching value node, or a malformed reference. The statement node and
    each reference node are looked at once, through `edge_view`.
    """
    def value_of(vnode: Iri, kind: ValueKind) -> NodeValue:
        return read_value_node(g, vnode, kind, table)

    decl = st.source
    view = edge_view(g, node)
    ps_values = view.get(table.term("ps", decl.property_name), ())
    if len(ps_values) != 1:
        return None
    value = _read_value(view, table.term("psv", decl.property_name), ps_values[0], table,
                        value_of)
    if value is None:
        return None
    quals: list[tuple[str, NamedValue]] = []
    for q in decl.qualifiers:
        pqv = table.term("pqv", q.name)
        for v in view.get(table.term("pq", q.name), ()):
            qv = _read_value(view, pqv, v, table, value_of)
            if qv is None:
                return None
            quals.append((q.name, qv))
    refs: list[tuple[tuple[str, Iri], ...]] = []
    a, reference = table.term("rdf", "type"), table.term("wikibase", "Reference")
    for rnode in view.get(table.term("prov", "wasDerivedFrom"), ()):
        if not isinstance(rnode, Iri) or (rnode, a, reference) not in g:
            return None
        rview = edge_view(g, rnode)
        snaks: list[tuple[str, Iri]] = []
        for rname in sorted(r.name for r in decl.references):
            for target in rview.get(table.term("pr", rname), ()):
                if not isinstance(target, Iri):
                    return None
                snaks.append((rname, target))
        refs.append(tuple(snaks))
    return st.source.property_name, value, tuple(quals), tuple(refs)


def _term_value(v: NamedValue) -> ReadValue:
    """A value as a content hash reads it: a date or quantity as its node's
    field texts, an int as `str` of its value, joined by '|'."""
    if isinstance(v, (DateTimeValue, DecimalValue)):
        kind = next(k for k in VALUE_KINDS.values() if k.value_type is type(v))
        return "|".join(str(getattr(v, attr)) for _, attr, _ in kind.fields)
    return v


def read_content(g: Graph, node: Iri, st: ExpandedStatement,
                 table: NamespaceTable) -> StatementContent | None:
    """`_read_named` as the graph terms a content hash reads: the wdt: IRI,
    the ps: value, (pq:, value) pairs and each reference's (pr:, target) snaks."""
    named = _read_named(g, node, st, table)
    if named is None:
        return None
    name, value, quals, refs = named
    return (table.term("wdt", name), _term_value(value),
            tuple((table.term("pq", n), _term_value(v)) for n, v in quals),
            tuple(tuple((table.term("pr", n), t) for n, t in snaks) for snaks in refs))


def _model_value(v: NamedValue) -> Value:
    t = type(v)
    if t is Iri:
        return ItemRef(v)
    if t is Literal:
        return StringValue(v.lexical)
    return v


def read_statement(g: Graph, node: Iri, st: ExpandedStatement,
                   table: NamespaceTable) -> StatementData | None:
    """`_read_named` as model data: what export would write `node` from."""
    named = _read_named(g, node, st, table)
    if named is None:
        return None
    name, value, quals, refs = named
    return StatementData(
        name, _model_value(value), tuple(QualifierData(n, _model_value(v)) for n, v in quals),
        tuple(RefData(tuple(SnakData(n, t) for n, t in snaks)) for snaks in refs))
