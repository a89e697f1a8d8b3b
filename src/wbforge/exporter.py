"""Instance export: reified statement triples with content-derived names.

Statements, references, and metadata value nodes have no authored
identifiers; each gets an IRI derived from a canonical text rendering
of its content, hashed with SHA-256 and truncated to 40 hex digits.
Equal content therefore shares nodes across the whole graph, and the
exported triple set is byte-deterministic under canonical ordering.
"""

from __future__ import annotations

import hashlib

from .errors import (
    MissingRequiredError,
    PreimageDelimiterError,
    TypeMismatchError,
    UnresolvedNameError,
)
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
    StatementDecl,
    StringValue,
    Value,
    ValueKind,
    ValueType,
    is_canonical,
    value_kind,
)
from .namespaces import Iri, NamespaceTable, namespaced_property, prov_was_derived_from, rdf_type, wikibase, xsd
from .rdf import Graph, Literal, Term, Triple, escape_literal

HASH_LENGTH = 40                  # hex digits kept from the SHA-256 digest


def _sha40(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LENGTH]


def canonical_value(value: Value) -> str:
    """Stable one-line text form used inside hash preimages."""
    if isinstance(value, ItemRef):
        return value.iri.value
    if isinstance(value, StringValue):
        return escape_literal(value.text)
    return "|".join(str(getattr(value, attr)) for _, attr, _ in value_kind(value).fields)


def canonical_content(subject: Iri, stmt: StatementData, table: NamespaceTable) -> str:
    """The statement's hash preimage: S, P, V, sorted Q, sorted R lines."""
    wdt = namespaced_property(stmt.property, "wdt", table)
    lines = [f"S|{subject.value}", f"P|{wdt.value}", f"V|{canonical_value(stmt.value)}"]
    q_lines = []
    for q in stmt.qualifiers:
        pq = namespaced_property(q.name, "pq", table)
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
    return f"{namespaced_property(snak.name, 'pr', table).value}|{target}"


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


def _literal(value: Value, table: NamespaceTable) -> Term:
    if isinstance(value, ItemRef):
        return value.iri
    if isinstance(value, StringValue):
        return Literal(value.text, xsd(table, "string"))
    if isinstance(value, DecimalValue):
        return Literal(value.amount, xsd(table, "decimal"))
    return Literal(value.iso, xsd(table, "dateTime"))


def _emit_value_node(g: Graph, value: DateTimeValue | DecimalValue,
                     table: NamespaceTable) -> Iri:
    kind = value_kind(value)
    node = value_node(value, table)
    g.add(Triple(node, rdf_type(table), wikibase(table, kind.node_class)))
    for local, attr, dt in kind.fields:
        field = getattr(value, attr)
        g.add(Triple(node, wikibase(table, local),
                     field if dt is None else Literal(str(field), xsd(table, dt.xsd_local))))
    return node


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


def export(schema: SchemaDocument, instances: InstanceDoc) -> Graph:
    """Deterministic instance graph for the declared statements.

    Raises on data that cannot be exported faithfully: values of the
    wrong kind, missing required qualifiers or references, and names or
    items that no declaration covers.
    """
    table = schema.namespaces
    g = Graph()
    wb_item = wikibase(table, "Item")
    a = rdf_type(table)
    for item in instances.items:
        if (schema.class_decl(item.type_class) is None
                and item.type_class != wb_item):
            raise UnresolvedNameError(item.type_class.value, "class not declared")
        g.add(Triple(item.iri, a, item.type_class))
        g.add(Triple(item.iri, a, wb_item))
        for stmt in item.statements:
            _export_statement(g, item.iri, stmt, schema, instances)
    return g


def _export_statement(g: Graph, subject: Iri, stmt: StatementData,
                      schema: SchemaDocument, instances: InstanceDoc) -> None:
    table = schema.namespaces
    decl = schema.statement_decl(stmt.property)
    if decl is None:
        raise UnresolvedNameError(stmt.property, "statement property not declared")
    _check_value(decl.object_spec, stmt.value, instances, stmt.property)

    quals_by_name: dict[str, QualifierDecl] = {q.name: q for q in decl.qualifiers}
    for q in stmt.qualifiers:
        decl_q = quals_by_name.get(q.name)
        if decl_q is None:
            raise UnresolvedNameError(q.name, f"qualifier not declared on {stmt.property}")
        _check_value(decl_q.qtype, q.value, instances, f"{stmt.property}/{q.name}")
    present = {q.name for q in stmt.qualifiers}
    for decl_q in decl.qualifiers:
        if decl_q.required and decl_q.name not in present:
            raise MissingRequiredError(f"{stmt.property}/{decl_q.name}")

    refs_by_name = {r.name: r for r in decl.references}
    for ref in stmt.references:
        for snak in ref.snaks:
            if snak.name not in refs_by_name:
                raise UnresolvedNameError(
                    snak.name, f"reference not declared on {stmt.property}")
            _check_item_target(snak.target, instances, f"{stmt.property}/{snak.name}")
    snak_names = {s.name for ref in stmt.references for s in ref.snaks}
    for decl_r in decl.references:
        if decl_r.required and decl_r.name not in snak_names:
            raise MissingRequiredError(f"{stmt.property}/{decl_r.name}")

    a = rdf_type(table)
    h = statement_hash(subject, stmt, table)
    node = _statement_iri(subject, h, table)
    value_term = _literal(stmt.value, table)
    g.add(Triple(subject, namespaced_property(stmt.property, "p", table), node))
    g.add(Triple(node, a, wikibase(table, "Statement")))
    g.add(Triple(node, namespaced_property(stmt.property, "ps", table), value_term))
    g.add(Triple(subject, namespaced_property(stmt.property, "wdt", table), value_term))

    if value_kind(stmt.value) is not None:
        g.add(Triple(node, namespaced_property(stmt.property, "psv", table),
                     _emit_value_node(g, stmt.value, table)))
    for q in stmt.qualifiers:
        g.add(Triple(node, namespaced_property(q.name, "pq", table),
                     _literal(q.value, table)))
        if value_kind(q.value) is not None:
            g.add(Triple(node, namespaced_property(q.name, "pqv", table),
                         _emit_value_node(g, q.value, table)))

    prov = prov_was_derived_from(table)
    for ref in stmt.references:
        rnode = reference_node(ref, h, table)
        g.add(Triple(node, prov, rnode))
        g.add(Triple(rnode, a, wikibase(table, "Reference")))
        for snak in ref.snaks:
            g.add(Triple(rnode, namespaced_property(snak.name, "pr", table),
                         snak.target))


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


def read_value_node(g: Graph, node: Iri, kind: ValueKind,
                    table: NamespaceTable) -> DateTimeValue | DecimalValue | list[str]:
    """The value a `kind` node holds, or its field problems in field order.

    Each field is read from the graph once; the value is what
    `_emit_value_node` wrote the node from.
    """
    problems: list[str] = []
    fields: dict[str, object] = {}
    for local, attr, dt in kind.fields:
        values = g.objects(node, wikibase(table, local))
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


def _read_value(g: Graph, node: Iri, value_prop: Iri, v: Term,
                table: NamespaceTable) -> Value | None:
    """A ps:/pq: object as a value; dates and quantities need a matching node."""
    if isinstance(v, Iri):
        return ItemRef(v)
    if v.datatype == xsd(table, "string"):
        return StringValue(v.lexical)
    for dt, kind in VALUE_KINDS.items():
        if v.datatype != xsd(table, dt.xsd_local):
            continue
        main = kind.fields[0][1]
        for vnode in g.objects(node, value_prop):
            if isinstance(vnode, Iri):
                value = read_value_node(g, vnode, kind, table)
                if not isinstance(value, list) and getattr(value, main) == v.lexical:
                    return value
    return None


def read_statement(g: Graph, node: Iri, decl: StatementDecl,
                   table: NamespaceTable) -> StatementData | None:
    """The statement content behind `node`, the inverse of export.

    Only declared qualifiers and reference snaks are read. None when the
    node is too broken to hash: not one ps: value, a date or quantity
    without a well-formed matching value node, or a malformed reference.
    """
    name = decl.property_name
    ps_values = g.objects(node, namespaced_property(name, "ps", table))
    if len(ps_values) != 1:
        return None
    value = _read_value(g, node, namespaced_property(name, "psv", table),
                        ps_values[0], table)
    if value is None:
        return None
    quals: list[QualifierData] = []
    for q in decl.qualifiers:
        pqv = namespaced_property(q.name, "pqv", table)
        for v in g.objects(node, namespaced_property(q.name, "pq", table)):
            qv = _read_value(g, node, pqv, v, table)
            if qv is None:
                return None
            quals.append(QualifierData(q.name, qv))
    refs: list[RefData] = []
    ref_class = wikibase(table, "Reference")
    for rnode in g.objects(node, prov_was_derived_from(table)):
        if not isinstance(rnode, Iri) or Triple(rnode, rdf_type(table), ref_class) not in g:
            return None
        snaks: list[SnakData] = []
        for rname in sorted({r.name for r in decl.references}):
            for target in g.objects(rnode, namespaced_property(rname, "pr", table)):
                if not isinstance(target, Iri):
                    return None
                snaks.append(SnakData(rname, target))
        refs.append(RefData(tuple(snaks)))
    return StatementData(name, value, tuple(quals), tuple(refs))
