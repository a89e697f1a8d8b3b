"""Expansion of schema declarations into the full property and class inventory.

One declared statement property fans out into its namespace family
(wdt:, p:, ps:, and psv: when the object is a date or quantity), every
qualifier into pq: (and pqv: for dates and quantities), every reference
into pr:. Value-node classes and their metadata properties appear only
when some declaration needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import VALUE_KINDS, Datatype, SchemaDocument, StatementDecl, needed_value_kinds
from .namespaces import Iri, NamespaceTable, namespaced_property, prov_was_derived_from, wikibase


def object_datatype(decl: StatementDecl) -> Datatype | None:
    return decl.object_spec.datatype


@dataclass(frozen=True)
class ExpandedStatement:
    source: StatementDecl
    statement_properties: dict[str, Iri]            # wdt/p/ps and psv if valued
    qualifier_properties: dict[str, dict[str, Iri]]  # name -> {pq[, pqv]}
    reference_properties: dict[str, Iri]            # name -> pr
    fixed_properties: tuple[tuple[str, Iri], ...]   # (role label, iri)

    def family_properties(self) -> list[Iri]:
        """All minted family IRIs; the count is 3 + psv + per-qualifier + refs."""
        out = list(self.statement_properties.values())
        for fam in self.qualifier_properties.values():
            out.extend(fam.values())
        out.extend(self.reference_properties.values())
        return out

    def property_set(self) -> set[Iri]:
        return set(self.family_properties()) | {iri for _, iri in self.fixed_properties}


@dataclass(frozen=True)
class ExpandedSchema:
    source: SchemaDocument
    classes: tuple[Iri, ...]
    statements: tuple[ExpandedStatement, ...] = field(default=())


def expand_statement(decl: StatementDecl, table: NamespaceTable) -> ExpandedStatement:
    name = decl.property_name
    stmt_props = {ns: namespaced_property(name, ns, table) for ns in ("wdt", "p", "ps")}
    if object_datatype(decl) in VALUE_KINDS:
        stmt_props["psv"] = namespaced_property(name, "psv", table)

    qual_props: dict[str, dict[str, Iri]] = {}
    for q in decl.qualifiers:
        fam = {"pq": namespaced_property(q.name, "pq", table)}
        if q.qtype.datatype in VALUE_KINDS:
            fam["pqv"] = namespaced_property(q.name, "pqv", table)
        qual_props[q.name] = fam

    ref_props = {r.name: namespaced_property(r.name, "pr", table) for r in decl.references}

    fixed: list[tuple[str, Iri]] = []
    if decl.references:
        fixed.append(("provenance edge", prov_was_derived_from(table)))
    for kind in needed_value_kinds((decl,)):
        fixed.extend(("value field", wikibase(table, f)) for f, _, _ in kind.fields)

    return ExpandedStatement(decl, stmt_props, qual_props, ref_props, tuple(fixed))


def expand(doc: SchemaDocument) -> ExpandedSchema:
    table = doc.namespaces
    classes = [wikibase(table, "Item"), wikibase(table, "Statement"),
               wikibase(table, "Reference")]
    classes.extend(wikibase(table, kind.node_class)
                   for kind in needed_value_kinds(doc.statements))
    expanded = tuple(expand_statement(d, table) for d in doc.statements)
    return ExpandedSchema(doc, tuple(classes), expanded)


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
    rows: list[tuple[str, str, str]] = []
    for cls in expanded.classes:
        rows.append((cls.value, "class", "schema"))
    for st in expanded.statements:
        origin = st.source.property_name
        for ns, iri in st.statement_properties.items():
            rows.append((iri.value, _ROLE_LABELS[ns], origin))
        for qname, fam in st.qualifier_properties.items():
            for ns, iri in fam.items():
                rows.append((iri.value, _ROLE_LABELS[ns], f"{origin}/{qname}"))
        for rname, iri in st.reference_properties.items():
            rows.append((iri.value, _ROLE_LABELS["pr"], f"{origin}/{rname}"))
        for role, iri in st.fixed_properties:
            rows.append((iri.value, role, origin))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))

    header = ("IRI", "ROLE", "ORIGIN")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(3)]
    lines = [" | ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(3)).rstrip())
    return "".join(line + "\n" for line in lines)
