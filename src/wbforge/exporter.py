"""Instance export: reified statement triples with content-derived names.

Statements, references, and metadata value nodes have no authored
identifiers; each gets an IRI derived from a canonical text rendering
of its content, hashed with SHA-256 and truncated to 40 hex digits.
Equal content therefore shares nodes across the whole graph, and the
exported triple set is byte-deterministic under canonical ordering.
"""

from __future__ import annotations

import hashlib
import weakref
from collections.abc import Callable, Iterable
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    MissingRequiredError,
    PreimageDelimiterError,
    ReferenceNameCollisionError,
    TypeMismatchError,
    UnresolvedNameError,
    WbforgeError,
)
from .expander import ExpandedStatement, expand
from .model import (
    VALUE_KINDS,
    XSD,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemRef,
    RefData,
    SchemaDocument,
    SnakData,
    StatementData,
    StringValue,
    Value,
    ValueKind,
    ValueType,
)
from .namespaces import (
    PROV_WAS_DERIVED_FROM, RDF_TYPE, WB_ITEM, WB_REFERENCE, WB_STATEMENT, Iri, NamespaceTable,
    iri_text, local_name)
from .rdf import Graph, PlainTerm, PlainTriple, escape_literal

HASH_LENGTH = 40                  # hex digits kept from the SHA-256 digest


def _sha40(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LENGTH]


class _ValueOut(NamedTuple):
    """How a value of one type is checked and written: its ps:/pq: term, then its node if any."""

    name: str                           # the value's kind, as a type check names it
    lexical: Callable[[Value], str]     # the literal's text, or an item's IRI
    xsd: str | None                     # the literal's xsd: type; None for an item's IRI
    node: ValueKind | None              # the value node's kind; None for items and strings
    fields: Callable[[Value], tuple] | None     # the node's field values, read in one call
    rows: tuple[tuple[str, str | None], ...]    # per field: (predicate, xsd: type or None)


def _node_out(datatype: Datatype, kind: ValueKind) -> _ValueOut:
    # the first field holds the value the literal repeats; every kind has two
    # or more fields, so `fields` returns a tuple
    return _ValueOut(datatype.value, attrgetter(kind.fields[0][1]), XSD[datatype], kind,
                     attrgetter(*(attr for _, attr, _ in kind.fields)),
                     tuple((pred, None if dt is None else XSD[dt])
                           for pred, (_, _, dt) in zip(kind.predicates, kind.fields)))


# by exact type: the value classes have no subclasses
_OUT: dict[type, _ValueOut] = {
    ItemRef: _ValueOut("item", attrgetter("iri"), None, None, None, ()),
    StringValue: _ValueOut(Datatype.STRING.value, attrgetter("text"), XSD[Datatype.STRING],
                           None, None, ()),
    **{kind.value_type: _node_out(dt, kind) for dt, kind in VALUE_KINDS.items()},
}
# what a type check expects of a declared datatype
_EXPECTED = {dt: dt.value for dt in Datatype}


class LineHeads(dict):
    """Hash preimage line heads by property name, for the IRIs under one base.

    A name's head is its checked IRI's text in the form `form` gives,
    worked out on the first lookup of the name and then read from the dict.
    """

    __slots__ = ("_base", "_form")

    def __init__(self, base: str, form: str) -> None:
        super().__init__()
        self._base, self._form = base, form

    def __missing__(self, name: str) -> str:
        head = self[name] = self._form.format(iri_text(self._base + name))
        return head


class PreimageHeads(NamedTuple):
    """The hash preimage line heads under one table, whose root they move with."""

    p_line: LineHeads             # a statement's P line, `P|<wdt: IRI>`
    q_head: LineHeads             # a Q line up to its value, `Q|<pq: IRI>|`
    r_head: LineHeads             # a snak in an R line up to its target, `<pr: IRI>|`

    @staticmethod
    def build(table: NamespaceTable) -> PreimageHeads:
        return PreimageHeads(
            LineHeads(table.base("wdt"), "P|{}"), LineHeads(table.base("pq"), "Q|{}|"),
            LineHeads(table.base("pr"), "{}|"))


# by the `id` of a live table, whose dataclass hash would walk its fields
_HEADS: dict[int, PreimageHeads] = {}


def preimage_heads(table: NamespaceTable) -> PreimageHeads:
    """`table`'s `PreimageHeads`, built on the first call and dropped with the table."""
    heads = _HEADS.get(id(table))
    if heads is None:
        heads = _HEADS[id(table)] = PreimageHeads.build(table)
        weakref.finalize(table, _HEADS.pop, id(table), None)
    return heads


def canonical_value(value: Value | ReadValue) -> str:
    """Stable one-line text form used inside hash preimages.

    Of a model value, or of what the validator reads back for one: an
    item's IRI, a string literal's `(lexical, datatype)`, or a value
    node's field texts joined by '|', which is the text of its value.
    """
    t = type(value)
    if t is ItemRef:
        return value.iri
    if t is StringValue:
        return escape_literal(value.text)
    if isinstance(value, str):            # an IRI, or a value node's joined field texts
        return value
    if isinstance(value, tuple):          # a literal
        return escape_literal(value[0])
    return "|".join(map(str, _OUT[t].fields(value)))


def assemble_preimage(subject: str, prop: str, value: Value | ReadValue,
                      qualifiers: Iterable[tuple[str, Value | ReadValue]],
                      references: Iterable[Iterable[tuple[str, str]]],
                      table: NamespaceTable) -> str:
    """A statement's hash preimage: S, P, V, sorted Q, sorted R lines.

    `qualifiers` are (name, value) pairs, and each reference is its
    (name, target) snaks; values are as `canonical_value` takes them. The
    IRI text that starts each P, Q and snak line comes from the table's
    `PreimageHeads`, worked out once per name.
    """
    p_line, q_head, r_head = preimage_heads(table)
    lines = [f"S|{subject}", p_line[prop], f"V|{canonical_value(value)}"]
    lines.extend(sorted([q_head[name] + canonical_value(v) for name, v in qualifiers]))
    lines.extend(sorted(["R|" + ";".join(sorted([_snak_text(r_head, name, target)
                                                  for name, target in snaks]))
                         for snaks in references]))
    lines.append("")              # the final newline
    return "\n".join(lines)


_NAME_VALUE = attrgetter("name", "value")      # of a QualifierData
_NAME_TARGET = attrgetter("name", "target")    # of a SnakData


def canonical_content(subject: str, stmt: StatementData, table: NamespaceTable) -> str:
    """The statement's hash preimage, from its model data."""
    return assemble_preimage(
        subject, stmt.property, stmt.value, map(_NAME_VALUE, stmt.qualifiers),
        [map(_NAME_TARGET, ref.snaks) for ref in stmt.references], table)


def _snak_text(r_head: LineHeads, name: str, target: str) -> str:
    """`pr: IRI|target` in an R line; a delimiter in the target could merge two lines."""
    if "|" in target or ";" in target:
        raise PreimageDelimiterError(target)
    return r_head[name] + target


def statement_hash(subject: str, stmt: StatementData | StatementContent,
                   table: NamespaceTable) -> str:
    """The content hash: of model data, or of the content the validator reads back."""
    if type(stmt) is StatementData:
        return _sha40(canonical_content(subject, stmt, table))
    return _sha40(assemble_preimage(subject, *stmt, table))


# A node's name is the exact `str` a graph stores, and no name is checked on
# its own: each is a head that is a valid IRI, then hex digits and '-', which
# keep it one. A value or reference name's head is a table base, checked with
# the table. A statement name's head is the `s:` base, then the local name of
# the item's checked IRI (text an IRI body already holds) and '-', so it cannot
# fail the check either. `statement_node` and `value_node` type their names as
# `Iri`, which checks them again.

def statement_node(subject: Iri, stmt: StatementData, table: NamespaceTable) -> Iri:
    return Iri(statement_name_head(subject, table) + statement_hash(subject, stmt, table))


def statement_name_head(subject: str, table: NamespaceTable) -> str:
    """What a statement node's name holds before its hash: the subject's local name."""
    return f"{table.base('s')}{local_name(subject)}-"


def value_hash(value: DateTimeValue | DecimalValue | ReadNode) -> str:
    """The value node's content hash: of a model value, or of the node the
    validator reads back."""
    if type(value) is tuple:
        tag, text = value
    else:
        tag, text = _OUT[type(value)].node.tag, canonical_value(value)
    return _sha40(f"{tag}|{text}")


def value_node(value: DateTimeValue | DecimalValue, table: NamespaceTable) -> Iri:
    return Iri(_value_name(value, table))


def _value_name(value: DateTimeValue | DecimalValue, table: NamespaceTable) -> str:
    return table.base("v") + value_hash(value)


def reference_hash(ref: RefData | Iterable[tuple[str, str]], table: NamespaceTable) -> str:
    """The snaks' hash: of model data, or of the (name, target) pairs the
    validator reads back, in any order."""
    r_head = preimage_heads(table).r_head
    snaks = map(_NAME_TARGET, ref.snaks) if type(ref) is RefData else ref
    return _sha40("".join(sorted(f"R|{_snak_text(r_head, name, target)}\n"
                                 for name, target in snaks)))


def reference_name(ref_hash: str, stmt_hash: str, table: NamespaceTable) -> str:
    """The reference node's name: its snaks' hash, scoped to the owning
    statement by the first 8 hex digits (32 bits) of that statement's hash.

    Two statements citing the same snaks can share those digits; `export`
    refuses such a pair, so provenance stays one-to-one.
    """
    return f"{table.base('ref')}{ref_hash}-{stmt_hash[:8]}"


Add = Callable[[PlainTriple], None]    # adds a triple to the export being built


class _Texts(dict):
    """The exact `str` of each model `Iri` one export writes, copied on its first use."""

    __slots__ = ()

    def __missing__(self, iri: Iri) -> str:
        text = self[iri] = str(iri)
        return text


def _add_value(add: Add, texts: _Texts, node: str, edge: str, value_edge: str | None,
               value: Value, table: NamespaceTable) -> PlainTerm:
    """The edge to the literal, then the edge to the value node if the family has one."""
    _, lexical, xsd, kind, fields, rows = _OUT[type(value)]
    term = texts[lexical(value)] if xsd is None else (lexical(value), xsd)
    add((node, edge, term))
    if value_edge is not None:
        vnode = _value_name(value, table)
        add((node, value_edge, vnode))
        add((vnode, RDF_TYPE, kind.class_iri))
        for (pred, xsd), field in zip(rows, fields(value)):
            add((vnode, pred, texts[field] if xsd is None else (str(field), xsd)))
    return term


def _field(prop: str, name: str | None) -> str:
    """How a failed check names a statement's object (`name` None) or its qualifier or snak."""
    return prop if name is None else f"{prop}/{name}"


def _check_item_target(iri: Iri, instances: InstanceDoc, prop: str, name: str | None) -> None:
    if instances.item(iri) is None:
        raise UnresolvedNameError(iri.value, f"item not declared ({_field(prop, name)})")


def _check_value(vtype: ValueType, value: Value, instances: InstanceDoc,
                 prop: str, name: str | None) -> None:
    """`value` is of the declared type; an item value must be a declared item."""
    expected = "item" if vtype.item_class is not None else _EXPECTED[vtype.datatype]
    got = _OUT[type(value)].name
    if got != expected:
        raise TypeMismatchError(_field(prop, name), expected, got)
    if vtype.item_class is not None:
        _check_item_target(value.iri, instances, prop, name)


def export(schema: SchemaDocument, instances: InstanceDoc) -> Graph:
    """Deterministic instance graph for the declared statements.

    Raises on data that cannot be exported faithfully: values of the
    wrong kind, missing required qualifiers or references, and names or
    items that no declaration covers. Such an error raised for a statement
    names its item and its 1-based place among the item's statements. The
    triples are collected plain in one set, which becomes the graph's store.
    """
    table = schema.namespaces
    expanded = expand(schema)
    triples: set[PlainTriple] = set()
    add = triples.add
    texts = _Texts()
    ref_hashes: dict[tuple[SnakData, ...], str] = {}    # by snaks, for this export
    ref_owners: dict[str, tuple[str, str]] = {}     # reference name -> (statement hash, item)
    for item in instances.items:
        if (schema.class_decl(item.type_class) is None
                and item.type_class != WB_ITEM):
            raise UnresolvedNameError(item.type_class.value, "class not declared")
        subject = texts[item.iri]
        head = statement_name_head(subject, table)
        add((subject, RDF_TYPE, texts[item.type_class]))
        add((subject, RDF_TYPE, WB_ITEM))
        for index, stmt in enumerate(item.statements, 1):
            try:
                st = expanded.statement(stmt.property)
                if st is None:
                    raise UnresolvedNameError(stmt.property, "statement property not declared")
                _export_statement(add, texts, subject, head, stmt, st, ref_hashes, ref_owners,
                                  instances, table)
            except WbforgeError as exc:
                # the same error, its text led by the statement's place
                exc.args = (f"item <{subject}>, statement {index}: {exc}",)
                raise
    return Graph.of_plain(triples)


def _export_statement(add: Add, texts: _Texts, subject: str, head: str, stmt: StatementData,
                      st: ExpandedStatement, ref_hashes: dict[tuple[SnakData, ...], str],
                      ref_owners: dict[str, tuple[str, str]], instances: InstanceDoc,
                      table: NamespaceTable) -> None:
    """Check `stmt` against its declaration's family `st` and add its triples;
    `head` is its `statement_name_head`, `ref_hashes` the export's
    `reference_hash` of each snak tuple seen so far, and `ref_owners` the
    statement hash and item that first minted each reference name."""
    decl, wdt, p, ps, psv, quals, refs, required_quals, required_refs = st
    prop, value, qualifiers, references = (
        stmt.property, stmt.value, stmt.qualifiers, stmt.references)
    _check_value(decl.object_spec, value, instances, prop, None)

    for q in qualifiers:
        decl_q = quals.get(q.name)
        if decl_q is None:
            raise UnresolvedNameError(q.name, f"qualifier not declared on {prop}")
        _check_value(decl_q[0].qtype, q.value, instances, prop, q.name)
    if required_quals:
        present = {q.name for q in qualifiers}
        for name in required_quals:
            if name not in present:
                raise MissingRequiredError(f"{prop}/{name}")

    for ref in references:
        for snak in ref.snaks:
            if snak.name not in refs:
                raise UnresolvedNameError(snak.name, f"reference not declared on {prop}")
            _check_item_target(snak.target, instances, prop, snak.name)
    if required_refs:
        snak_names = {s.name for ref in references for s in ref.snaks}
        for name in required_refs:
            if name not in snak_names:
                raise MissingRequiredError(f"{prop}/{name}")

    h = statement_hash(subject, stmt, table)
    node = head + h
    add((subject, p, node))
    add((node, RDF_TYPE, WB_STATEMENT))
    add((subject, wdt, _add_value(add, texts, node, ps, psv, value, table)))
    for q in qualifiers:
        _, pq, pqv = quals[q.name]
        _add_value(add, texts, node, pq, pqv, q.value, table)

    for ref in references:
        ref_hash = ref_hashes.get(ref.snaks)
        if ref_hash is None:
            ref_hash = ref_hashes[ref.snaks] = reference_hash(ref, table)
        rnode = reference_name(ref_hash, h, table)
        owner_hash, owner = ref_owners.setdefault(rnode, (h, subject))
        if owner_hash != h:     # another statement whose hash shares the scope's 8 digits
            raise ReferenceNameCollisionError(rnode, owner, subject)
        add((node, PROV_WAS_DERIVED_FROM, rnode))
        add((rnode, RDF_TYPE, WB_REFERENCE))
        for snak in ref.snaks:
            add((rnode, refs[snak.name][1], texts[snak.target]))


# what the validator reads back -------------------------------------------

# a ps:/pq: value as read back: an item's IRI, a string literal's (lexical,
# datatype), or a date or quantity node's stored field texts joined by '|'
ReadValue = str | tuple[str, str]
# a date or quantity node as read back: its kind's tag and its stored field
# texts joined by '|'
ReadNode = tuple[str, str]
# a statement node's content as read back, in plain tuples laid out as
# StatementData: the property name, the ps: value, a (name, value) pair for
# each declared qualifier value, and each reference's (name, target) snaks
StatementContent = tuple[str, ReadValue, tuple[tuple[str, ReadValue], ...],
                         tuple[tuple[tuple[str, str], ...], ...]]
