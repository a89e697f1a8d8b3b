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

from .expander import ExpandedSchema, ExpandedStatement, expand
from .model import (
    TYPED_ORIGINS,
    VALUE_KINDS,
    XSD_NAME,
    Datatype,
    SchemaDocument,
    StatementDecl,
    AxiomPattern,
    ValueKind,
    ValueType,
    needed_value_kinds,
)
from .namespaces import PROV_WAS_DERIVED_FROM, Iri, NamespaceTable, curie_or_iri


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
    predicate: str
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


def class_label(iri: Iri, table: NamespaceTable) -> str:
    c = table.curie(iri)
    return c.replace(":", "_") if c is not None else iri.local_name


def statement_label(decl: StatementDecl, table: NamespaceTable) -> str:
    return f"{class_label(decl.property_iri, table)}_statement"


def reference_label(decl: StatementDecl, table: NamespaceTable) -> str:
    return f"{class_label(decl.property_iri, table)}_reference"


def _class_expr(cls: Iri, doc: SchemaDocument) -> ValueExpr:
    """Shape reference for declared classes, bare IRI for plain items."""
    if doc.class_decl(cls) is not None:
        return ShapeRef(class_label(cls, doc.namespaces))
    return IriKind()


def _value_expr(vtype: ValueType, doc: SchemaDocument) -> ValueExpr:
    if vtype.item_class is not None:
        return _class_expr(vtype.item_class, doc)
    return DatatypeExpr(XSD_NAME[vtype.datatype])


def _item_shape(cls_iri: Iri, expanded: ExpandedSchema) -> Shape:
    doc = expanded.source
    table = doc.namespaces
    tcs: list[TripleConstraint] = []
    origins = ["Ax1", "Ax9-c1"]
    for st in expanded.statements:
        decl = st.source
        if decl.subject_class != cls_iri:
            continue
        card = (AT_LEAST_ONE if AxiomPattern.EXISTENTIAL in decl.patterns else ANY)
        if AxiomPattern.EXISTENTIAL in decl.patterns:
            origins.append("Pattern:Existential")
        tcs.append(TripleConstraint(st.p, ShapeRef(statement_label(decl, table)), card))
        tcs.append(TripleConstraint(st.wdt, _value_expr(decl.object_spec, doc), card))
    comment = "# origin: " + ", ".join(dict.fromkeys(origins))
    return Shape(class_label(cls_iri, table), tuple(tcs), closed=False,
                 comments=(comment,))


def _statement_shape(st: ExpandedStatement, doc: SchemaDocument) -> Shape:
    table = doc.namespaces
    decl = st.source
    tcs: list[TripleConstraint] = []
    origins = ["Ax2", "Ax3+4", "Ax5"]
    dt = decl.object_spec.datatype
    tcs.append(TripleConstraint(st.ps, _value_expr(decl.object_spec, doc)))
    if dt is None:
        origins.extend(["Ax6", "Ax7"])
    else:
        origins.append(TYPED_ORIGINS[dt]["unscoped"])
    if st.psv is not None:
        tcs.append(TripleConstraint(st.psv, ShapeRef(VALUE_KINDS[dt].node_class)))
        origins.append(TYPED_ORIGINS[dt]["value_range"])

    for q, pq, pqv in st.qualifiers.values():
        card = EXACTLY_ONE if q.required else OPTIONAL
        dt = q.qtype.datatype
        tcs.append(TripleConstraint(pq, _value_expr(q.qtype, doc), card))
        if dt is None:
            origins.append("Ax10" if q.scoped else "Ax11")
        else:
            # an unscoped date qualifier cites its value-node link, not the range axiom
            origins.append("Ax31" if dt is Datatype.DATETIME and not q.scoped
                           else TYPED_ORIGINS[dt]["scoped" if q.scoped else "unscoped"])
        if pqv is not None:
            tcs.append(TripleConstraint(pqv, ShapeRef(VALUE_KINDS[dt].node_class), card))
        origins.append("AxFunc")
        if q.required:
            origins.append("AxReq")

    if decl.references:
        card = AT_LEAST_ONE if any(r.required for r in decl.references) else ANY
        tcs.append(TripleConstraint(PROV_WAS_DERIVED_FROM,
                                    ShapeRef(reference_label(decl, table)), card))
        origins.append("Ax50")
    comments = ["# origin: " + ", ".join(dict.fromkeys(origins))]
    if any(q.scoped for q in decl.qualifiers):
        comments.append("# scoped ranges collapse to plain constraints in shapes")
    return Shape(statement_label(decl, table), tuple(tcs), closed=True,
                 comments=tuple(comments))


def _reference_shape(st: ExpandedStatement, doc: SchemaDocument) -> Shape:
    table = doc.namespaces
    decl = st.source
    # a lone declared snak property must appear on every non-empty reference
    card = AT_LEAST_ONE if len(decl.references) == 1 else ANY
    tcs = tuple(
        TripleConstraint(st.references[r.name][1], _class_expr(r.target_class, doc), card)
        for r in decl.references)
    return Shape(reference_label(decl, table), tcs, closed=True,
                 comments=("# origin: Ax51, Ax53, Ax54",))


def _value_shape(kind: ValueKind) -> Shape:
    tcs = tuple(
        TripleConstraint(pred, IriKind() if dt is None
                         else DatatypeExpr(XSD_NAME[dt]))
        for pred, (_, _, dt) in zip(kind.predicates, kind.fields))
    return Shape(kind.node_class, tcs, closed=True,
                 comments=("# origin: " + ", ".join(kind.origins),))


def schema_shapes(doc: SchemaDocument) -> ShapeDoc:
    """All shapes for the document, item shapes first, in declaration order."""
    table = doc.namespaces
    expanded = expand(doc)
    shapes = [_item_shape(c.iri, expanded) for c in doc.classes]
    for st in expanded.statements:
        shapes.append(_statement_shape(st, doc))
        if st.source.references:
            shapes.append(_reference_shape(st, doc))
    shapes.extend(_value_shape(kind) for kind in needed_value_kinds(doc.statements))
    return ShapeDoc(table, tuple(shapes))


def _render_value_expr(expr: ValueExpr) -> str:
    if isinstance(expr, DatatypeExpr):
        return expr.curie
    if isinstance(expr, ShapeRef):
        return f"@<{expr.label}>"
    return "IRI"


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
            line = (f"  {curie_or_iri(tc.predicate, doc.namespaces)} "
                    f"{_render_value_expr(tc.value_expr)}")
            if tc.cardinality:
                line += f" {tc.cardinality}"
            lines.append(line + " ;")
        lines.append("}")
    return "".join(line + "\n" for line in lines)
