"""Shape generation: a ShExC view of the same declarations.

Each declared class gets an open item shape, each statement declaration
a closed statement shape (plus a reference shape when it declares
references), and triggered metadata nodes get the two fixed value
shapes. Closed shapes carry EXTRA a so rdf:type triples pass without a
value-set constraint. Scoped and unscoped qualifier ranges collapse to
the same constraint here; the distinction only matters for axioms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    VALUE_KINDS,
    DataObject,
    Datatype,
    QualifierDecl,
    SchemaDocument,
    StatementDecl,
    AxiomPattern,
    ValueKind,
)
from .expander import object_datatype
from .namespaces import Iri, NamespaceTable, prov_was_derived_from, wikibase


@dataclass(frozen=True)
class DatatypeExpr:
    curie: str                    # e.g. "xsd:string"


@dataclass(frozen=True)
class ShapeRef:
    label: str


@dataclass(frozen=True)
class IriKind:
    """Any IRI; used where the target class is just wikibase:Item."""


ValueExpr = DatatypeExpr | ShapeRef | IriKind

# cardinality suffixes; empty string means exactly one
EXACTLY_ONE = ""
OPTIONAL = "?"
ANY = "*"
AT_LEAST_ONE = "+"


@dataclass(frozen=True)
class TripleConstraint:
    predicate: Iri
    value_expr: ValueExpr
    cardinality: str = EXACTLY_ONE


@dataclass(frozen=True)
class Shape:
    label: str
    constraints: tuple[TripleConstraint, ...]
    closed: bool = False
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class ShapeDoc:
    namespaces: NamespaceTable
    shapes: tuple[Shape, ...]

    def shape(self, label: str) -> Shape | None:
        for s in self.shapes:
            if s.label == label:
                return s
        return None


def class_label(iri: Iri, table: NamespaceTable) -> str:
    c = table.curie(iri)
    return c.replace(":", "_") if c is not None else iri.local_name


def statement_label(decl: StatementDecl, table: NamespaceTable) -> str:
    return f"{class_label(decl.property_iri, table)}_statement"


def reference_label(decl: StatementDecl, table: NamespaceTable) -> str:
    return f"{class_label(decl.property_iri, table)}_reference"


def _prop(name: str, ns: str, table: NamespaceTable) -> Iri:
    return Iri(table.base(ns) + name)


def _class_expr(cls: Iri, doc: SchemaDocument) -> ValueExpr:
    """Shape reference for declared classes, bare IRI for plain items."""
    if doc.class_decl(cls) is not None:
        return ShapeRef(class_label(cls, doc.namespaces))
    return IriKind()


def _qualifier_cardinality(q: QualifierDecl) -> str:
    if q.functional:
        return EXACTLY_ONE if q.required else OPTIONAL
    return AT_LEAST_ONE if q.required else ANY


def _item_shape(cls_iri: Iri, doc: SchemaDocument) -> Shape:
    table = doc.namespaces
    tcs: list[TripleConstraint] = []
    origins = ["Ax1", "Ax9-c1"]
    for decl in doc.statements:
        if decl.subject_class != cls_iri:
            continue
        name = decl.property_name
        card = (AT_LEAST_ONE if AxiomPattern.EXISTENTIAL in decl.patterns else ANY)
        if AxiomPattern.EXISTENTIAL in decl.patterns:
            origins.append("Pattern:Existential")
        tcs.append(TripleConstraint(_prop(name, "p", table),
                                    ShapeRef(statement_label(decl, table)), card))
        if isinstance(decl.object_spec, DataObject):
            obj_expr: ValueExpr = DatatypeExpr(
                f"xsd:{decl.object_spec.datatype.xsd_local}")
        else:
            obj_expr = _class_expr(decl.object_spec.iri, doc)
        tcs.append(TripleConstraint(_prop(name, "wdt", table), obj_expr, card))
    comment = "# origin: " + ", ".join(dict.fromkeys(origins))
    return Shape(class_label(cls_iri, table), tuple(tcs), closed=False,
                 comments=(comment,))


def _statement_shape(decl: StatementDecl, doc: SchemaDocument) -> Shape:
    table = doc.namespaces
    name = decl.property_name
    tcs: list[TripleConstraint] = []
    origins = ["Ax2", "Ax3+4", "Ax5"]
    if isinstance(decl.object_spec, DataObject):
        dt = decl.object_spec.datatype
        tcs.append(TripleConstraint(_prop(name, "ps", table),
                                    DatatypeExpr(f"xsd:{dt.xsd_local}")))
        origins.append({Datatype.DATETIME: "Ax15", Datatype.STRING: "Ax34",
                        Datatype.DECIMAL: "AxQ-pq-range"}[dt])
        if dt in VALUE_KINDS:
            tcs.append(TripleConstraint(_prop(name, "psv", table),
                                        ShapeRef(VALUE_KINDS[dt].node_class)))
            origins.append({Datatype.DATETIME: "Ax17",
                            Datatype.DECIMAL: "AxQ-pqv-range"}[dt])
    else:
        tcs.append(TripleConstraint(_prop(name, "ps", table),
                                    _class_expr(decl.object_spec.iri, doc)))
        origins.extend(["Ax6", "Ax7"])

    for q in decl.qualifiers:
        card = _qualifier_cardinality(q)
        if q.qtype.item_class is not None:
            expr: ValueExpr = _class_expr(q.qtype.item_class, doc)
            origins.append("Ax10" if q.scoped else "Ax11")
        else:
            expr = DatatypeExpr(f"xsd:{q.qtype.datatype.xsd_local}")
            origins.append({Datatype.DATETIME: "Ax14" if q.scoped else "Ax31",
                            Datatype.STRING: "Ax33" if q.scoped else "Ax34",
                            Datatype.DECIMAL: "AxQ-pq-range"}[q.qtype.datatype])
        tcs.append(TripleConstraint(_prop(q.name, "pq", table), expr, card))
        if q.qtype.datatype in VALUE_KINDS:
            tcs.append(TripleConstraint(_prop(q.name, "pqv", table),
                                        ShapeRef(VALUE_KINDS[q.qtype.datatype].node_class),
                                        card))
        if q.functional:
            origins.append("AxFunc")
        if q.required:
            origins.append("AxReq")

    if decl.references:
        card = AT_LEAST_ONE if any(r.required for r in decl.references) else ANY
        tcs.append(TripleConstraint(prov_was_derived_from(table),
                                    ShapeRef(reference_label(decl, table)), card))
        origins.append("Ax50")
    comments = ["# origin: " + ", ".join(dict.fromkeys(origins))]
    if any(q.scoped for q in decl.qualifiers):
        comments.append("# scoped ranges collapse to plain constraints in shapes")
    return Shape(statement_label(decl, table), tuple(tcs), closed=True,
                 comments=tuple(comments))


def _reference_shape(decl: StatementDecl, doc: SchemaDocument) -> Shape:
    table = doc.namespaces
    # a lone declared snak property must appear on every non-empty reference
    card = AT_LEAST_ONE if len(decl.references) == 1 else ANY
    tcs = tuple(
        TripleConstraint(_prop(r.name, "pr", table),
                         _class_expr(r.target_class, doc), card)
        for r in decl.references)
    return Shape(reference_label(decl, table), tcs, closed=True,
                 comments=("# origin: Ax51, Ax53, Ax54",))


# the origin keys each value node shape cites
_VALUE_SHAPE_ORIGINS = {
    Datatype.DATETIME: "Ax19, Ax23, Ax27",
    Datatype.DECIMAL: "AxQ-val-dom, AxQ-val-range, AxQ-unit-range",
}


def _value_shape(kind: ValueKind, origin: str, table: NamespaceTable) -> Shape:
    tcs = tuple(
        TripleConstraint(wikibase(table, local),
                         IriKind() if dt is None else DatatypeExpr(f"xsd:{dt.xsd_local}"))
        for local, _, dt in kind.fields)
    return Shape(kind.node_class, tcs, closed=True, comments=(f"# origin: {origin}",))


def schema_shapes(doc: SchemaDocument) -> ShapeDoc:
    """All shapes for the document, item shapes first, in declaration order."""
    table = doc.namespaces
    shapes = [_item_shape(c.iri, doc) for c in doc.classes]
    datatypes: set[Datatype | None] = set()
    for decl in doc.statements:
        shapes.append(_statement_shape(decl, doc))
        if decl.references:
            shapes.append(_reference_shape(decl, doc))
        datatypes.update(q.qtype.datatype for q in decl.qualifiers)
        datatypes.add(object_datatype(decl))
    shapes.extend(_value_shape(kind, _VALUE_SHAPE_ORIGINS[dt], table)
                  for dt, kind in VALUE_KINDS.items() if dt in datatypes)
    return ShapeDoc(table, tuple(shapes))


def _render_value_expr(expr: ValueExpr) -> str:
    if isinstance(expr, DatatypeExpr):
        return expr.curie
    if isinstance(expr, ShapeRef):
        return f"@<{expr.label}>"
    return "IRI"


def _render_predicate(p: Iri, table: NamespaceTable) -> str:
    c = table.curie(p)
    return c if c is not None else f"<{p.value}>"


def serialize_shapes(doc: ShapeDoc) -> str:
    """ShExC text: prefix block, then one block per shape."""
    lines = [f"PREFIX {prefix}: <{base}>" for prefix, base in doc.namespaces.prefixes()]
    for shape in doc.shapes:
        lines.append("")
        lines.extend(shape.comments)
        head = f"<{shape.label}>"
        if shape.closed:
            head += " CLOSED EXTRA a"
        lines.append(head + " {")
        for tc in shape.constraints:
            line = (f"  {_render_predicate(tc.predicate, doc.namespaces)} "
                    f"{_render_value_expr(tc.value_expr)}")
            if tc.cardinality:
                line += f" {tc.cardinality}"
            lines.append(line + " ;")
        lines.append("}")
    return "".join(line + "\n" for line in lines)
