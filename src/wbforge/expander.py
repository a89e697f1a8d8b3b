"""Expansion of schema declarations into the full property and class inventory.

One declared statement property fans out into its namespace family
(wdt:, p:, ps:, and psv: when the object is a date or quantity), every
qualifier into pq: (and pqv: for dates and quantities), every reference
into pr:. `expand` builds only these families, which every layer reads,
each IRI as the exact `str` a graph stores.
`expansion_report` derives the class, provenance and value-field rows
itself; value-node classes and fields appear only when some declaration
needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    VALUE_KINDS,
    Datatype,
    SchemaDocument,
    StatementDecl,
    needed_value_kinds,
)
from .namespaces import PROV_WAS_DERIVED_FROM, WB_ITEM, WB_REFERENCE, WB_STATEMENT, NamespaceTable


def object_datatype(decl: StatementDecl) -> Datatype | None:
    return decl.object_spec.datatype


@dataclass(frozen=True)
class ExpandedStatement:
    source: StatementDecl
    statement_properties: dict[str, str]            # wdt/p/ps and psv if valued
    qualifier_properties: dict[str, dict[str, str]]  # name -> {pq[, pqv]}
    reference_properties: dict[str, str]            # name -> pr

    def family_properties(self) -> list[str]:
        """All minted family IRIs; the count is 3 + psv + per-qualifier + refs."""
        out = list(self.statement_properties.values())
        for fam in self.qualifier_properties.values():
            out.extend(fam.values())
        out.extend(self.reference_properties.values())
        return out


@dataclass(frozen=True)
class ExpandedSchema:
    source: SchemaDocument
    statements: tuple[ExpandedStatement, ...]
    _by_name: dict[str, ExpandedStatement] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # reversed, so the first declaration of a name wins, as in SchemaDocument
        object.__setattr__(self, "_by_name",
                           {st.source.property_name: st for st in reversed(self.statements)})

    def statement(self, property_name: str) -> ExpandedStatement | None:
        return self._by_name.get(property_name)


def expand_statement(decl: StatementDecl, table: NamespaceTable) -> ExpandedStatement:
    """The family: the one place that mints its IRIs, as exact text, and decides psv:/pqv:."""
    name = decl.property_name
    stmt_props = {ns: table.term(ns, name).value for ns in ("wdt", "p", "ps")}
    if object_datatype(decl) in VALUE_KINDS:
        stmt_props["psv"] = table.term("psv", name).value

    qual_props: dict[str, dict[str, str]] = {}
    for q in decl.qualifiers:
        fam = {"pq": table.term("pq", q.name).value}
        if q.qtype.datatype in VALUE_KINDS:
            fam["pqv"] = table.term("pqv", q.name).value
        qual_props[q.name] = fam

    ref_props = {r.name: table.term("pr", r.name).value for r in decl.references}
    return ExpandedStatement(decl, stmt_props, qual_props, ref_props)


def expand(doc: SchemaDocument) -> ExpandedSchema:
    return ExpandedSchema(doc, tuple(expand_statement(d, doc.namespaces)
                                     for d in doc.statements))


_ROLE_LABELS = {
    "wdt": "direct edge",
    "p": "statement edge",
    "ps": "statement edge",
    "psv": "statement value node",
    "pq": "qualifier edge",
    "pqv": "qualifier value node",
    "pr": "reference edge",
}


def expansion_report(expanded: ExpandedSchema) -> str:
    """Fixed-width `IRI | ROLE | ORIGIN` table, sorted by origin then role."""
    classes = [WB_ITEM, WB_STATEMENT, WB_REFERENCE]
    classes.extend(kind.class_iri for kind in needed_value_kinds(expanded.source.statements))
    rows = [(cls, "class", "schema") for cls in classes]
    for st in expanded.statements:
        origin = st.source.property_name
        for ns, iri in st.statement_properties.items():
            rows.append((iri, _ROLE_LABELS[ns], origin))
        for qname, fam in st.qualifier_properties.items():
            for ns, iri in fam.items():
                rows.append((iri, _ROLE_LABELS[ns], f"{origin}/{qname}"))
        for rname, iri in st.reference_properties.items():
            rows.append((iri, _ROLE_LABELS["pr"], f"{origin}/{rname}"))
        if st.source.references:
            rows.append((PROV_WAS_DERIVED_FROM, "provenance edge", origin))
        for kind in needed_value_kinds((st.source,)):
            rows.extend((pred, "value field", origin) for pred in kind.predicates)
    rows.sort(key=lambda r: (r[2], r[1], r[0]))

    header = ("IRI", "ROLE", "ORIGIN")
    widths = [max(len(r[i]) for r in (header, *rows)) for i in range(3)]
    lines = [" | ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(3)).rstrip())
    return "".join(line + "\n" for line in lines)
