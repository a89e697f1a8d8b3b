"""Expansion of schema declarations into the full property and class inventory.

One declared statement property fans out into its namespace family
(wdt:, p:, ps:, and psv: when the object is a date or quantity), every
qualifier into pq: (and pqv: for dates and quantities), every reference
into pr:. `expand_statement` mints each family once, as one
`ExpandedStatement` of named fields that export, validate, axioms and
shapes all read; each IRI is the exact `str` a graph stores.
`expansion_report` derives the class, provenance and value-field rows
itself; value-node classes and fields appear only when some declaration
needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .model import (
    VALUE_KINDS,
    Datatype,
    QualifierDecl,
    ReferenceDecl,
    SchemaDocument,
    StatementDecl,
    needed_value_kinds,
)
from .namespaces import PROV_WAS_DERIVED_FROM, WB_ITEM, WB_REFERENCE, WB_STATEMENT, NamespaceTable


def object_datatype(decl: StatementDecl) -> Datatype | None:
    return decl.object_spec.datatype


class ExpandedStatement(NamedTuple):
    """One declaration's family, as `expand_statement` mints it."""

    source: StatementDecl
    wdt: str
    p: str
    ps: str
    psv: str | None               # None unless the object is a date or quantity
    # name -> (declaration, pq:, pqv: or None), in declaration order
    qualifiers: dict[str, tuple[QualifierDecl, str, str | None]]
    # name -> (declaration, pr:), in name order: the validator reads snaks in
    # it, so which of several ';' targets a hash finding names does not hang
    # on declaration order, which `source.references` keeps
    references: dict[str, tuple[ReferenceDecl, str]]
    required_qualifiers: tuple[str, ...]    # names, in declaration order
    required_references: tuple[str, ...]

    def family_properties(self) -> list[str]:
        """All minted family IRIs; the count is 3 + psv + per-qualifier + refs."""
        out = [self.wdt, self.p, self.ps]
        if self.psv is not None:
            out.append(self.psv)
        for _, pq, pqv in self.qualifiers.values():
            out.append(pq)
            if pqv is not None:
                out.append(pqv)
        out.extend(pr for _, pr in self.references.values())
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


_BY_NAME = attrgetter("name")


def expand_statement(decl: StatementDecl, table: NamespaceTable) -> ExpandedStatement:
    """The family: the one place that mints its IRIs, as exact text, and decides psv:/pqv:."""
    name, term = decl.property_name, table.term
    return ExpandedStatement(
        decl, term("wdt", name).value, term("p", name).value, term("ps", name).value,
        term("psv", name).value if object_datatype(decl) in VALUE_KINDS else None,
        {q.name: (q, term("pq", q.name).value,
                  term("pqv", q.name).value if q.qtype.datatype in VALUE_KINDS else None)
         for q in decl.qualifiers},
        {r.name: (r, term("pr", r.name).value) for r in sorted(decl.references, key=_BY_NAME)},
        tuple([q.name for q in decl.qualifiers if q.required]),
        tuple([r.name for r in decl.references if r.required]))


def expand(doc: SchemaDocument) -> ExpandedSchema:
    return ExpandedSchema(doc, tuple(expand_statement(d, doc.namespaces)
                                     for d in doc.statements))


def expansion_report(expanded: ExpandedSchema) -> str:
    """Fixed-width `IRI | ROLE | ORIGIN` table, sorted by origin then role."""
    classes = [WB_ITEM, WB_STATEMENT, WB_REFERENCE]
    classes.extend(kind.class_iri for kind in needed_value_kinds(expanded.source.statements))
    rows = [(cls, "class", "schema") for cls in classes]
    for st in expanded.statements:
        origin = st.source.property_name
        rows += [(st.wdt, "direct edge", origin), (st.p, "statement edge", origin),
                 (st.ps, "statement edge", origin)]
        if st.psv is not None:
            rows.append((st.psv, "statement value node", origin))
        for qname, (_, pq, pqv) in st.qualifiers.items():
            rows.append((pq, "qualifier edge", f"{origin}/{qname}"))
            if pqv is not None:
                rows.append((pqv, "qualifier value node", f"{origin}/{qname}"))
        for rname, (_, pr) in st.references.items():
            rows.append((pr, "reference edge", f"{origin}/{rname}"))
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
