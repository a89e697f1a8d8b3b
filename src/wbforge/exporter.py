"""Instance export: reified statement triples with content-derived names.

Statements, references, and metadata value nodes have no authored
identifiers; each gets an IRI derived from a canonical text rendering
of its content, hashed with SHA-256 and truncated to 40 hex digits.
Equal content therefore shares nodes across the whole graph, and the
exported triple set is byte-deterministic under canonical ordering.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    MissingRequiredError,
    PreimageDelimiterError,
    TypeMismatchError,
    UnresolvedNameError,
)
from .expander import ExpandedStatement, expand
from .model import (
    VALUE_KINDS,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemRef,
    QualifierData,
    QualifierDecl,
    RefData,
    SchemaDocument,
    SnakData,
    StatementData,
    StringValue,
    Value,
    ValueKind,
    ValueType,
    is_canonical,
    value_kind,
)
from .namespaces import Iri, NamespaceTable, prov_was_derived_from, rdf_type, wikibase, xsd
from .rdf import Graph, Literal, Term, Triple, escape_literal

HASH_LENGTH = 40                  # hex digits kept from the SHA-256 digest


def _sha40(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LENGTH]


# Each value node kind's attributes in field order, read in one call. Every
# kind has two or more fields, so each getter returns a tuple.
_FIELDS = {kind.value_type: attrgetter(*(attr for _, attr, _ in kind.fields))
           for kind in VALUE_KINDS.values()}


def canonical_value(value: Value) -> str:
    """Stable one-line text form used inside hash preimages."""
    if isinstance(value, ItemRef):
        return value.iri.value
    if isinstance(value, StringValue):
        return escape_literal(value.text)
    return "|".join(map(str, _FIELDS[type(value)](value)))


def canonical_content(subject: Iri, stmt: StatementData, table: NamespaceTable) -> str:
    """The statement's hash preimage: S, P, V, sorted Q, sorted R lines."""
    wdt = table.term("wdt", stmt.property)
    lines = [f"S|{subject.value}", f"P|{wdt.value}", f"V|{canonical_value(stmt.value)}"]
    q_lines = []
    for q in stmt.qualifiers:
        pq = table.term("pq", q.name)
        q_lines.append(f"Q|{pq.value}|{canonical_value(q.value)}")
    lines.extend(sorted(q_lines))
    r_lines = ["R|" + ";".join(sorted(_snak_text(s, table) for s in ref.snaks))
               for ref in stmt.references]
    lines.extend(sorted(r_lines))
    return "".join(line + "\n" for line in lines)


def _snak_text(snak: SnakData, table: NamespaceTable) -> str:
    """`pr: IRI|target` in an R line; a delimiter in the target could merge two lines."""
    target = snak.target.value
    if "|" in target or ";" in target:
        raise PreimageDelimiterError(target)
    return f"{table.term('pr', snak.name).value}|{target}"


def statement_hash(subject: Iri, stmt: StatementData, table: NamespaceTable) -> str:
    return _sha40(canonical_content(subject, stmt, table))


def statement_node(subject: Iri, stmt: StatementData, table: NamespaceTable) -> Iri:
    return _statement_iri(subject, statement_hash(subject, stmt, table), table)


def _statement_iri(subject: Iri, stmt_hash: str, table: NamespaceTable) -> Iri:
    """The statement node's name: the subject's local name and the content hash."""
    return Iri(f"{table.base('s')}{subject.local_name}-{stmt_hash}")


def value_hash(value: DateTimeValue | DecimalValue) -> str:
    return _sha40(f"{value_kind(value).tag}|{canonical_value(value)}")


def value_node(value: DateTimeValue | DecimalValue, table: NamespaceTable) -> Iri:
    return Iri(table.base("v") + value_hash(value))


def reference_hash(ref: RefData, table: NamespaceTable) -> str:
    return _sha40("".join(sorted(f"R|{_snak_text(s, table)}\n" for s in ref.snaks)))


def reference_node(ref: RefData, stmt_hash: str, table: NamespaceTable) -> Iri:
    # scoped to the owning statement so provenance stays one-to-one
    return Iri(f"{table.base('ref')}{reference_hash(ref, table)}-{stmt_hash[:8]}")


_KIND = {
    ItemRef: "item",
    StringValue: "string",
    DecimalValue: "decimal",
    DateTimeValue: "datetime",
}

Add = Callable[[Triple], None]    # appends a triple to the export being built


def _literal(value: Value, table: NamespaceTable) -> Term:
    if isinstance(value, ItemRef):
        return value.iri
    if isinstance(value, StringValue):
        return tuple.__new__(Literal, (value.text, xsd(table, "string")))
    if isinstance(value, DecimalValue):
        return tuple.__new__(Literal, (value.amount, xsd(table, "decimal")))
    return tuple.__new__(Literal, (value.iso, xsd(table, "dateTime")))


def _add_value(add: Add, node: Iri, edge: Iri, value_edge: Iri | None, value: Value,
               table: NamespaceTable) -> Term:
    """The edge to the literal, then the edge to the value node if the family has one."""
    new = tuple.__new__
    term = _literal(value, table)
    add(new(Triple, (node, edge, term)))
    if value_edge is not None:
        kind = value_kind(value)
        vnode = value_node(value, table)
        add(new(Triple, (node, value_edge, vnode)))
        add(new(Triple, (vnode, rdf_type(table), wikibase(table, kind.node_class))))
        for (local, _, dt), field in zip(kind.fields, _FIELDS[type(value)](value)):
            add(new(Triple, (vnode, wikibase(table, local), field if dt is None else
                             new(Literal, (str(field), xsd(table, dt.xsd_local))))))
    return term


def _check_item_target(iri: Iri, instances: InstanceDoc, context: str) -> None:
    if instances.item(iri) is None:
        raise UnresolvedNameError(iri.value, f"item not declared ({context})")


def _check_value(vtype: ValueType, value: Value, instances: InstanceDoc,
                 context: str) -> None:
    """`value` is of the declared type; an item value must be a declared item."""
    expected = "item" if vtype.item_class is not None else vtype.datatype.value
    got = _KIND[type(value)]
    if got != expected:
        raise TypeMismatchError(context, expected, got)
    if vtype.item_class is not None:
        _check_item_target(value.iri, instances, context)


class _DeclChecks(NamedTuple):
    """What export checks a statement against, worked out once per declaration."""

    st: ExpandedStatement
    qualifiers: dict[str, QualifierDecl]    # by name
    required_qualifiers: tuple[str, ...]    # names, in declaration order
    required_references: tuple[str, ...]


def _decl_checks(st: ExpandedStatement) -> _DeclChecks:
    decl = st.source
    return _DeclChecks(st, {q.name: q for q in decl.qualifiers},
                       tuple(q.name for q in decl.qualifiers if q.required),
                       tuple(r.name for r in decl.references if r.required))


def export(schema: SchemaDocument, instances: InstanceDoc) -> Graph:
    """Deterministic instance graph for the declared statements.

    Raises on data that cannot be exported faithfully: values of the
    wrong kind, missing required qualifiers or references, and names or
    items that no declaration covers. The triples are collected in a list
    and the graph is built once, from all of them.
    """
    table = schema.namespaces
    expanded = expand(schema)
    triples: list[Triple] = []
    add = triples.append
    new = tuple.__new__
    checks: dict[str, _DeclChecks] = {}       # by statement property name
    wb_item = wikibase(table, "Item")
    a = rdf_type(table)
    for item in instances.items:
        if (schema.class_decl(item.type_class) is None
                and item.type_class != wb_item):
            raise UnresolvedNameError(item.type_class.value, "class not declared")
        add(new(Triple, (item.iri, a, item.type_class)))
        add(new(Triple, (item.iri, a, wb_item)))
        for stmt in item.statements:
            decl_checks = checks.get(stmt.property)
            if decl_checks is None:
                st = expanded.statement(stmt.property)
                if st is None:
                    raise UnresolvedNameError(stmt.property, "statement property not declared")
                decl_checks = checks[stmt.property] = _decl_checks(st)
            _export_statement(add, item.iri, stmt, decl_checks, instances, table)
    return Graph(triples)


def _export_statement(add: Add, subject: Iri, stmt: StatementData, decl_checks: _DeclChecks,
                      instances: InstanceDoc, table: NamespaceTable) -> None:
    st, quals_by_name, required_quals, required_refs = decl_checks
    _check_value(st.source.object_spec, stmt.value, instances, stmt.property)

    for q in stmt.qualifiers:
        decl_q = quals_by_name.get(q.name)
        if decl_q is None:
            raise UnresolvedNameError(q.name, f"qualifier not declared on {stmt.property}")
        _check_value(decl_q.qtype, q.value, instances, f"{stmt.property}/{q.name}")
    if required_quals:
        present = {q.name for q in stmt.qualifiers}
        for name in required_quals:
            if name not in present:
                raise MissingRequiredError(f"{stmt.property}/{name}")

    ref_props = st.reference_properties
    for ref in stmt.references:
        for snak in ref.snaks:
            if snak.name not in ref_props:
                raise UnresolvedNameError(
                    snak.name, f"reference not declared on {stmt.property}")
            _check_item_target(snak.target, instances, f"{stmt.property}/{snak.name}")
    if required_refs:
        snak_names = {s.name for ref in stmt.references for s in ref.snaks}
        for name in required_refs:
            if name not in snak_names:
                raise MissingRequiredError(f"{stmt.property}/{name}")

    new = tuple.__new__
    a = rdf_type(table)
    h = statement_hash(subject, stmt, table)
    node = _statement_iri(subject, h, table)
    props = st.statement_properties
    add(new(Triple, (subject, props["p"], node)))
    add(new(Triple, (node, a, wikibase(table, "Statement"))))
    value_term = _add_value(add, node, props["ps"], props.get("psv"), stmt.value, table)
    add(new(Triple, (subject, props["wdt"], value_term)))
    for q in stmt.qualifiers:
        fam = st.qualifier_properties[q.name]
        _add_value(add, node, fam["pq"], fam.get("pqv"), q.value, table)

    prov = prov_was_derived_from(table)
    for ref in stmt.references:
        rnode = reference_node(ref, h, table)
        add(new(Triple, (node, prov, rnode)))
        add(new(Triple, (rnode, a, wikibase(table, "Reference"))))
        for snak in ref.snaks:
            add(new(Triple, (rnode, ref_props[snak.name], snak.target)))


# reading a graph back ------------------------------------------------------

def literal_problem(v: Term, dt: Datatype, table: NamespaceTable) -> str | None:
    """Why `v` is not a canonical `dt` literal, or None when it is one."""
    if not isinstance(v, Literal):
        return f"is not an xsd:{dt.xsd_local} literal"
    if v.datatype != xsd(table, dt.xsd_local):
        return f"is not typed xsd:{dt.xsd_local}"
    if not is_canonical(dt, v.lexical):
        return f"has non-canonical xsd:{dt.xsd_local} lexical {v.lexical!r}"
    return None


# what reading a value node gives: its value, or its field problems
NodeValue = DateTimeValue | DecimalValue | list[str]
EdgeView = dict[Iri, list[Term]]              # one node's objects by predicate
ValueReader = Callable[[Iri, ValueKind], NodeValue]


def read_value_node(g: Graph, node: Iri, kind: ValueKind, table: NamespaceTable) -> NodeValue:
    """The value a `kind` node holds, or its field problems in field order.

    One look at the node: every field comes from one `Graph.edges` view.
    The value is what `_add_value` wrote the node from.
    """
    view = g.edges(node)
    problems: list[str] = []
    fields: dict[str, object] = {}
    for local, attr, dt in kind.fields:
        values = view.get(wikibase(table, local), ())
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
        else:
            lexical = values[0].lexical
            fields[attr] = int(lexical) if dt is Datatype.INT else lexical
    return problems or kind.value_type(**fields)


def _read_value(view: EdgeView, value_prop: Iri, v: Term, table: NamespaceTable,
                value_of: ValueReader) -> Value | None:
    """A ps:/pq: object as a value; dates and quantities need a matching node."""
    if isinstance(v, Iri):
        return ItemRef(v)
    if v.datatype == xsd(table, "string"):
        return StringValue(v.lexical)
    for dt, kind in VALUE_KINDS.items():
        if v.datatype != xsd(table, dt.xsd_local):
            continue
        main = kind.fields[0][1]
        for vnode in view.get(value_prop, ()):
            if isinstance(vnode, Iri):
                value = value_of(vnode, kind)
                if not isinstance(value, list) and getattr(value, main) == v.lexical:
                    return value
    return None


def read_statement(g: Graph, node: Iri, st: ExpandedStatement, table: NamespaceTable,
                   edges: Callable[[Iri], EdgeView] | None = None,
                   value_of: ValueReader | None = None) -> StatementData | None:
    """The statement content behind `node`, the inverse of export.

    Only declared qualifiers and reference snaks are read, and psv:/pqv:
    edges by name, minted or not. None when the node is too broken to hash:
    not one ps: value, a date or quantity without a well-formed matching
    value node, or a malformed reference.

    The statement node and each reference node are looked at once, through
    `edges` (`g.edges` by default); each value node is read through
    `value_of` (`read_value_node` on `g` by default). A caller that has
    already read some of these nodes passes memoised readers.
    """
    if edges is None:
        edges = g.edges
    if value_of is None:
        def value_of(vnode: Iri, kind: ValueKind) -> NodeValue:
            return read_value_node(g, vnode, kind, table)
    view = edges(node)
    name = st.source.property_name
    ps_values = view.get(st.statement_properties["ps"], ())
    if len(ps_values) != 1:
        return None
    value = _read_value(view, table.term("psv", name), ps_values[0], table, value_of)
    if value is None:
        return None
    quals: list[QualifierData] = []
    for q in st.source.qualifiers:
        pqv = table.term("pqv", q.name)
        for v in view.get(st.qualifier_properties[q.name]["pq"], ()):
            qv = _read_value(view, pqv, v, table, value_of)
            if qv is None:
                return None
            quals.append(QualifierData(q.name, qv))
    refs: list[RefData] = []
    ref_class = wikibase(table, "Reference")
    for rnode in view.get(prov_was_derived_from(table), ()):
        if not isinstance(rnode, Iri) or (rnode, rdf_type(table), ref_class) not in g:
            return None
        rview = edges(rnode)
        snaks: list[SnakData] = []
        for rname, pr in sorted(st.reference_properties.items()):
            for target in rview.get(pr, ()):
                if not isinstance(target, Iri):
                    return None
                snaks.append(SnakData(rname, target))
        refs.append(RefData(tuple(snaks)))
    return StatementData(name, value, tuple(quals), tuple(refs))
