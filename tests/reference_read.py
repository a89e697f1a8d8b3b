"""The read path that `wbforge.exporter` held before the validator's own
walk of a statement node became the only one, kept as the reference for
`test_read_back.py` and `test_exporter.py`.

`read_content` reads a statement node back as plain tuples, the inverse
of export, and `read_statement` builds the model `StatementData` from
them. The function bodies are the earlier definitions, except that
`read_content` mints the by-name psv:/pqv: IRIs and orders the
references by name itself, as the expander's read plan once did; the
imports differ too.
"""

from __future__ import annotations

from collections.abc import Callable

from wbforge.expander import ExpandedStatement
from wbforge.exporter import (
    EdgeView,
    NodeValue,
    ReadValue,
    StatementContent,
    _read_value,
    read_value_node,
    vocabulary,
)
from wbforge.model import (
    ItemRef,
    QualifierData,
    RefData,
    SnakData,
    StatementData,
    StringValue,
    Value,
    ValueKind,
)
from wbforge.namespaces import Iri, NamespaceTable
from wbforge.rdf import Graph, Literal

ValueReader = Callable[[Iri, ValueKind], NodeValue]


def read_content(g: Graph, node: Iri, st: ExpandedStatement, table: NamespaceTable,
                 edges: Callable[[Iri], EdgeView] | None = None,
                 value_of: ValueReader | None = None) -> StatementContent | None:
    """The statement content behind `node`, the inverse of export.

    Only declared qualifiers and reference snaks are read, and psv:/pqv:
    edges by name, minted or not. None when the node is too broken to
    hash: not one ps: value, a date or quantity without a well-formed
    matching value node, or a malformed reference.

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
    vocab = vocabulary(table)
    decl = st.source
    view = edges(node)
    ps_values = view.get(st.statement_properties["ps"], ())
    if len(ps_values) != 1:
        return None
    value = _read_value(view, table.term("psv", decl.property_name), ps_values[0], vocab,
                        value_of)
    if value is None:
        return None
    quals: list[tuple[str, ReadValue]] = []
    for q in decl.qualifiers:
        pqv = table.term("pqv", q.name)
        for v in view.get(st.qualifier_properties[q.name]["pq"], ()):
            qv = _read_value(view, pqv, v, vocab, value_of)
            if qv is None:
                return None
            quals.append((q.name, qv))
    refs: list[tuple[tuple[str, Iri], ...]] = []
    for rnode in view.get(vocab.derived_from, ()):
        if not isinstance(rnode, Iri) or (rnode, vocab.a, vocab.reference) not in g:
            return None
        rview = edges(rnode)
        snaks: list[tuple[str, Iri]] = []
        for rname, pr in sorted(st.reference_properties.items()):
            for target in rview.get(pr, ()):
                if not isinstance(target, Iri):
                    return None
                snaks.append((rname, target))
        refs.append(tuple(snaks))
    return st.source.property_name, value, tuple(quals), tuple(refs)


def _model_value(v: ReadValue) -> Value:
    t = type(v)
    if t is Iri:
        return ItemRef(v)
    if t is Literal:
        return StringValue(v.lexical)
    return v


def read_statement(g: Graph, node: Iri, st: ExpandedStatement,
                   table: NamespaceTable) -> StatementData | None:
    """`read_content` as model data: what export would write `node` from."""
    content = read_content(g, node, st, table)
    if content is None:
        return None
    name, value, quals, refs = content
    return StatementData(
        name, _model_value(value), tuple(QualifierData(n, _model_value(v)) for n, v in quals),
        tuple(RefData(tuple(SnakData(n, t) for n, t in snaks)) for snaks in refs))
