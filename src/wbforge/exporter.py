"""Instance export: reified statement triples with content-derived names.

Statements, references, and metadata value nodes have no authored
identifiers; each gets an IRI derived from a canonical text rendering
of its content, hashed with SHA-256 and truncated to 40 hex digits.
Every hash reads one form, the terms the graph holds: export hashes the
terms it writes and the validator those it reads back, and model data
reaches a hash only through the adapter `statement_content`. Equal
content therefore shares nodes across the whole graph, and the
exported triple set is byte-deterministic under canonical ordering.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable

from .errors import (
    MissingRequiredError,
    PreimageDelimiterError,
    ReferenceNameCollisionError,
    RepeatedContentError,
    TypeMismatchError,
    UnresolvedNameError,
    WbforgeError,
)
from .expander import ExpandedStatement, expand
from .model import (
    KIND_BY_TYPE,
    VALUE_KINDS,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemRef,
    RefData,
    SchemaDocument,
    StatementData,
    StringValue,
    Value,
    ValueKind,
    ValueType,
)
from .namespaces import (
    PROV_WAS_DERIVED_FROM, RDF_TYPE, WB_ITEM, WB_REFERENCE, WB_STATEMENT, Iri, NamespaceTable,
    local_name)
from .rdf import XSD_STRING, Graph, PlainTerm, PlainTriple, escape_literal

HASH_LENGTH = 40                  # hex digits kept from the SHA-256 digest


def _sha40(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LENGTH]


# What every content hash reads: the terms the graph holds, which export
# writes and the validator reads back. A ps:/pq: value is an item's IRI, a
# string literal's (lexical, datatype), or a date or quantity node's field
# texts joined by '|'.
ReadValue = str | tuple[str, str]
Snaks = tuple[tuple[str, str], ...]     # one reference's (pr:, target) snaks
# a statement's content: the wdt: IRI, the ps: value, a (pq:, value) pair
# for each qualifier value, and each reference's snaks
StatementContent = tuple[str, ReadValue, tuple[tuple[str, ReadValue], ...], tuple[Snaks, ...]]


# the value class of each declared literal datatype, and each value class's
# name as a type check names it (`Datatype.value` is a Python-level property)
_VALUE_CLASS: dict[Datatype, type] = {
    Datatype.STRING: StringValue, **{dt: kind.value_type for dt, kind in VALUE_KINDS.items()}}
_TYPE_NAME: dict[type, str] = {ItemRef: "item", **{t: dt.value for dt, t in _VALUE_CLASS.items()}}


class _Texts(dict):
    """The exact `str` of each model `Iri` one export writes, copied on its first use."""

    __slots__ = ()

    def __missing__(self, iri: Iri) -> str:
        text = self[iri] = str(iri)
        return text


# a model value as the graph holds it: its ps:/pq: term, the form a content
# hash reads, and for a date or quantity its node's kind and field terms
GraphValue = tuple[PlainTerm, ReadValue, ValueKind | None, list[PlainTerm] | None]


def _graph_value(value: Value, texts: _Texts) -> GraphValue:
    """`value` as the graph holds it, worked out once for its triples and its hashes.

    A date's or quantity's form is its node's field texts joined by '|',
    and its first field term is the ps:/pq: literal.
    """
    t = type(value)
    if t is ItemRef:
        iri = texts[value.iri]
        return iri, iri, None, None
    if t is StringValue:
        literal = (value.text, XSD_STRING)
        return literal, literal, None, None
    xsds = (kind := KIND_BY_TYPE[t]).xsds
    field_texts = [texts[f] if xsd is None else str(f) for xsd, f in zip(xsds, kind.read(value))]
    terms = [text if xsd is None else (text, xsd) for xsd, text in zip(xsds, field_texts)]
    return terms[0], "|".join(field_texts), kind, terms


def statement_content(stmt: StatementData, table: NamespaceTable) -> StatementContent:
    """The model adapter: a statement's data as the graph terms its content
    hash reads, each family IRI minted through `table`."""
    term, texts = table.term, _Texts()
    return (term("wdt", stmt.property), _graph_value(stmt.value, texts)[1],
            tuple([(term("pq", q.name), _graph_value(q.value, texts)[1])
                   for q in stmt.qualifiers]),
            tuple([_snaks(ref, table) for ref in stmt.references]))


def _snaks(ref: RefData, table: NamespaceTable) -> Snaks:
    """The model adapter's part for one reference: its (pr:, target) snaks."""
    return tuple([(table.term("pr", s.name), s.target) for s in ref.snaks])


def canonical_value(value: ReadValue) -> str:
    """A value's text in a hash preimage: an item's IRI or a value node's
    joined field texts as they are, a string literal's escaped lexical form."""
    return value if isinstance(value, str) else escape_literal(value[0])


def assemble_preimage(subject: str, wdt: str, value: ReadValue,
                      qualifiers: Iterable[tuple[str, ReadValue]],
                      references: Iterable[Iterable[tuple[str, str]]]) -> str:
    """A statement's hash preimage: S, P, V, sorted Q, sorted R lines.

    `qualifiers` are (pq:, value) pairs, and each reference is its
    (pr:, target) snaks, all as the graph holds them.
    """
    lines = [f"S|{subject}", f"P|{wdt}", f"V|{canonical_value(value)}"]
    lines.extend(sorted([f"Q|{pq}|{canonical_value(v)}" for pq, v in qualifiers]))
    lines.extend(sorted(["R|" + ";".join(sorted([_snak_text(pr, target)
                                                  for pr, target in snaks]))
                         for snaks in references]))
    lines.append("")              # the final newline
    return "\n".join(lines)


def canonical_content(subject: str, stmt: StatementData, table: NamespaceTable) -> str:
    """The statement's hash preimage, from its model data."""
    return assemble_preimage(subject, *statement_content(stmt, table))


def _snak_text(pr: str, target: str) -> str:
    """`pr: IRI|target` in an R line; a delimiter in the target could merge two lines."""
    if "|" in target or ";" in target:
        raise PreimageDelimiterError(target)
    return f"{pr}|{target}"


def statement_hash(subject: str, stmt: StatementData | StatementContent,
                   table: NamespaceTable) -> str:
    """The content hash: of model data, or of the graph terms export writes
    and the validator reads back."""
    if type(stmt) is StatementData:
        stmt = statement_content(stmt, table)
    return _sha40(assemble_preimage(subject, *stmt))


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


def value_hash(value: DateTimeValue | DecimalValue | tuple[str, str]) -> str:
    """The value node's content hash: of a model value, or of its kind's tag
    and joined field texts as export writes and the validator reads them."""
    if type(value) is not tuple:
        _, text, kind, _ = _graph_value(value, _Texts())
        value = (kind.tag, text)
    return _sha40("|".join(value))


def value_node(value: DateTimeValue | DecimalValue, table: NamespaceTable) -> Iri:
    return Iri(table.base("v") + value_hash(value))


def reference_hash(ref: RefData | Snaks, table: NamespaceTable) -> str:
    """The snaks' hash: of model data, or of (pr:, target) pairs, in any order."""
    snaks = _snaks(ref, table) if type(ref) is RefData else ref
    return _sha40("".join(sorted([f"R|{_snak_text(pr, target)}\n" for pr, target in snaks])))


def reference_name(ref_hash: str, stmt_hash: str, table: NamespaceTable) -> str:
    """The reference node's name: its snaks' hash, scoped to the owning
    statement by the first 8 hex digits (32 bits) of that statement's hash.

    Two statements citing the same snaks can share those digits; `export`
    refuses such a pair, so provenance stays one-to-one.
    """
    return f"{table.base('ref')}{ref_hash}-{stmt_hash[:8]}"


Add = Callable[[PlainTriple], None]    # adds a triple to the export being built


def _add_value(add: Add, node: str, edge: str, value_edge: str | None,
               value: GraphValue, vbase: str) -> None:
    """The edge to the term, then the edge to the value node if the family has
    one; `vbase` is the table's `v:` base."""
    term, text, kind, fields = value
    add((node, edge, term))
    if value_edge is not None:
        vnode = vbase + value_hash((kind.tag, text))
        add((node, value_edge, vnode))
        add((vnode, RDF_TYPE, kind.class_iri))
        for pred, field in zip(kind.predicates, fields):
            add((vnode, pred, field))


def _field(prop: str, name: str | None) -> str:
    """How a failed check names a statement's object (`name` None) or its qualifier or snak."""
    return prop if name is None else f"{prop}/{name}"


def _check_item_target(iri: Iri, instances: InstanceDoc, prop: str, name: str | None) -> None:
    if instances.item(iri) is None:
        raise UnresolvedNameError(iri.value, f"item not declared ({_field(prop, name)})")


def _check_value(vtype: ValueType, value: Value, instances: InstanceDoc,
                 prop: str, name: str | None) -> None:
    """`value` is of the declared type; an item value must be a declared item."""
    expected = ItemRef if vtype.item_class is not None else _VALUE_CLASS[vtype.datatype]
    if type(value) is not expected:
        raise TypeMismatchError(_field(prop, name), _TYPE_NAME[expected], _TYPE_NAME[type(value)])
    if expected is ItemRef:
        _check_item_target(value.iri, instances, prop, name)


def export(schema: SchemaDocument, instances: InstanceDoc) -> Graph:
    """Deterministic instance graph for the declared statements.

    Raises on data that cannot be exported faithfully: values of the
    wrong kind, missing required qualifiers or references, a second value
    for a qualifier, a repeated snak or reference, and names or items that
    no declaration covers. Such an error raised for a statement
    names its item and its 1-based place among the item's statements. The
    triples are collected plain in one set, which becomes the graph's store.
    """
    table = schema.namespaces
    expanded = expand(schema)
    triples: set[PlainTriple] = set()
    add = triples.add
    texts = _Texts()
    ref_hashes: dict[Snaks, str] = {}       # by snaks, for this export
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
                      st: ExpandedStatement, ref_hashes: dict[Snaks, str],
                      ref_owners: dict[str, tuple[str, str]], instances: InstanceDoc,
                      table: NamespaceTable) -> None:
    """Check `stmt` against its declaration's family `st` and add its triples;
    `head` is its `statement_name_head`, `ref_hashes` the export's
    `reference_hash` of each snak tuple seen so far, and `ref_owners` the
    statement hash and item that first minted each reference name."""
    decl, wdt, p, ps, psv, quals, refs, required_quals, required_refs = st
    prop, value, qualifiers, references = stmt
    _check_value(decl.object_spec, value, instances, prop, None)

    present: set[str] = set()           # the qualifier names given so far
    for name, qvalue in qualifiers:
        decl_q = quals.get(name)
        if decl_q is None:
            raise UnresolvedNameError(name, f"qualifier not declared on {prop}")
        if name in present:
            raise RepeatedContentError(_field(prop, name), "a qualifier given twice")
        present.add(name)
        _check_value(decl_q[0].qtype, qvalue, instances, prop, name)
    for name in required_quals:
        if name not in present:
            raise MissingRequiredError(f"{prop}/{name}")

    for (snaks,) in references:
        for name, target in snaks:
            if name not in refs:
                raise UnresolvedNameError(name, f"reference not declared on {prop}")
            _check_item_target(target, instances, prop, name)
        if len(snaks) > 1 and len(set(snaks)) < len(snaks):
            raise RepeatedContentError(prop, "a reference gives one snak twice")
    if len(references) > 1 and len({frozenset(snaks) for (snaks,) in references}) < len(references):
        raise RepeatedContentError(prop, "two references give the same snaks")
    if required_refs:
        snak_names = {name for (snaks,) in references for name, _ in snaks}
        for name in required_refs:
            if name not in snak_names:
                raise MissingRequiredError(f"{prop}/{name}")

    obj = _graph_value(value, texts)
    qual_values = [(quals[name], _graph_value(qvalue, texts)) for name, qvalue in qualifiers]
    ref_snaks = tuple([tuple([(refs[name][1], texts[target]) for name, target in snaks])
                       for (snaks,) in references])
    content = (wdt, obj[1], tuple([(pq, qv[1]) for (_, pq, _), qv in qual_values]), ref_snaks)
    h = statement_hash(subject, content, table)
    node = head + h
    vbase = table.base("v")
    add((subject, p, node))
    add((node, RDF_TYPE, WB_STATEMENT))
    add((subject, wdt, obj[0]))
    _add_value(add, node, ps, psv, obj, vbase)
    for (_, pq, pqv), qv in qual_values:
        _add_value(add, node, pq, pqv, qv, vbase)

    for snaks in ref_snaks:
        ref_hash = ref_hashes.get(snaks)
        if ref_hash is None:
            ref_hash = ref_hashes[snaks] = reference_hash(snaks, table)
        rnode = reference_name(ref_hash, h, table)
        owner_hash, owner = ref_owners.setdefault(rnode, (h, subject))
        if owner_hash != h:     # another statement whose hash shares the scope's 8 digits
            raise ReferenceNameCollisionError(rnode, owner, subject)
        add((node, PROV_WAS_DERIVED_FROM, rnode))
        add((rnode, RDF_TYPE, WB_REFERENCE))
        for pr, target in snaks:
            add((rnode, pr, target))
