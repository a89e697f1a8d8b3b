"""Shape generation and its serialized form.

shexc.py is an independent reader written before the shape goldens were
frozen; every serialized document must tokenize, parse, and resolve
under it.
"""

import random

from generators import random_schema
from shexc import check_shex
from wbforge.dsl import parse_schema
from wbforge.expander import object_datatype
from wbforge.fixtures import FIXTURE_NAMES, load_fixture
from wbforge.model import Datatype
from wbforge.shapes import (
    IriKind,
    ShapeRef,
    class_label,
    schema_shapes,
    serialize_shapes,
    statement_label,
)

SCHEMA = """
prefix ex: <http://v.example/>
class ex:Person
class ex:Event
flag allow-item-qualifiers
statement ex:joined {
  subject ex:Person
  object item ex:Event
  qualifier ex:role : item ex:Event required
  qualifier ex:note : string
  qualifier ex:when : datetime scoped
  reference ex:srcA -> item ex:Event
  reference ex:srcB -> item ex:Event required
  axioms { Existential }
}
statement ex:height {
  subject ex:Person
  object decimal
}
"""


def _shape(doc, label):
    return next(s for s in doc.shapes if s.label == label)


def _by_pred(doc, shape):
    # keyed by curie; predicates are stored as full IRIs
    return {doc.namespaces.curie(c.predicate): c for c in shape.constraints}


def test_expected_shape_inventory():
    shapes = schema_shapes(parse_schema(SCHEMA))
    labels = [s.label for s in shapes.shapes]
    # classes, then per-statement shapes, then triggered value shapes
    assert labels == [
        "ex_Person", "ex_Event",
        "ex_joined_statement", "ex_joined_reference",
        "ex_height_statement",
        "TimeValue", "QuantityValue",
    ]


def test_shape_count_formula_over_fixtures_and_fuzz():
    docs = [load_fixture(name)[0] for name in FIXTURE_NAMES]
    docs += [random_schema(random.Random(seed)) for seed in range(30)]
    for doc in docs:
        shapes = schema_shapes(doc)
        datatypes = {object_datatype(d) for d in doc.statements}
        for d in doc.statements:
            datatypes.update(q.qtype.datatype for q in d.qualifiers)
        expected = (len(doc.classes)
                    + len(doc.statements)
                    + sum(1 for d in doc.statements if d.references)
                    + (Datatype.DATETIME in datatypes)
                    + (Datatype.DECIMAL in datatypes))
        assert len(shapes.shapes) == expected


def test_item_shapes_are_open_with_both_edges():
    doc = schema_shapes(parse_schema(SCHEMA))
    person = _shape(doc, "ex_Person")
    assert not person.closed
    by_pred = _by_pred(doc, person)
    p_tc = by_pred["p:joined"]
    wdt_tc = by_pred["wdt:joined"]
    # Existential upgrades both cardinalities from * to +
    assert p_tc.cardinality == "+" and wdt_tc.cardinality == "+"
    assert p_tc.value_expr == ShapeRef("ex_joined_statement")
    assert wdt_tc.value_expr == ShapeRef("ex_Event")
    # data-valued statement: wdt carries the datatype
    by_pred = _by_pred(doc, _shape(doc, "ex_Person"))
    assert by_pred["wdt:height"].value_expr.curie == "xsd:decimal"
    assert by_pred["wdt:height"].cardinality == "*"


def test_statement_shape_cardinalities():
    doc = schema_shapes(parse_schema(SCHEMA))
    st = _shape(doc, "ex_joined_statement")
    assert st.closed
    by_pred = _by_pred(doc, st)
    assert by_pred["ps:joined"].cardinality == ""            # exactly one
    assert by_pred["pq:role"].cardinality == ""              # functional+required
    assert by_pred["pq:note"].cardinality == "?"             # functional+optional
    assert by_pred["pq:when"].cardinality == "?"
    assert by_pred["pqv:when"].cardinality == "?"            # mirrors pq
    assert by_pred["prov:wasDerivedFrom"].cardinality == "+"  # a required ref
    # item qualifier points at the class shape
    assert by_pred["pq:role"].value_expr == ShapeRef("ex_Event")
    # scoped qualifier carries the collapse note
    assert any("scoped ranges collapse" in c for c in st.comments)


def test_data_statement_shape_has_psv():
    doc = schema_shapes(parse_schema(SCHEMA))
    st = _shape(doc, "ex_height_statement")
    by_pred = _by_pred(doc, st)
    assert by_pred["ps:height"].value_expr.curie == "xsd:decimal"
    assert by_pred["psv:height"].value_expr == ShapeRef("QuantityValue")
    assert "prov:wasDerivedFrom" not in by_pred              # no declared refs


def test_reference_shape_snak_cardinality():
    doc = schema_shapes(parse_schema(SCHEMA))
    ref = _shape(doc, "ex_joined_reference")
    by_pred = _by_pred(doc, ref)
    # two declared reference names: a reference uses a subset, so *
    assert by_pred["pr:srcA"].cardinality == "*"
    assert by_pred["pr:srcB"].cardinality == "*"
    # single declared name: every reference must carry it
    single = parse_schema(
        "prefix ex: <http://v.example/>\nclass ex:A\n"
        "statement ex:st { subject ex:A object item ex:A\n"
        "  reference ex:only -> item ex:A }")
    ref2 = _shape(schema_shapes(single), "ex_st_reference")
    assert ref2.constraints[0].cardinality == "+"


def test_undeclared_class_target_renders_iri_kind():
    doc = parse_schema(
        "prefix ex: <http://v.example/>\n"
        "statement ex:st { subject wikibase:Item object item wikibase:Item }")
    shapes = schema_shapes(doc)
    st = _shape(shapes, "ex_st_statement")
    assert isinstance(st.constraints[0].value_expr, IriKind)


def test_labels():
    doc = parse_schema(SCHEMA)
    table = doc.namespaces
    assert class_label(doc.classes[0].iri, table) == "ex_Person"
    assert statement_label(doc.statements[0], table) == "ex_joined_statement"


def test_serialized_shapes_pass_the_reference_reader():
    for name in FIXTURE_NAMES:
        doc, _ = load_fixture(name)
        text = serialize_shapes(schema_shapes(doc))
        parsed = check_shex(text)
        assert parsed.shapes, name
    for seed in range(30):
        doc = random_schema(random.Random(seed))
        check_shex(serialize_shapes(schema_shapes(doc)))


def test_serialization_layout():
    text = serialize_shapes(schema_shapes(parse_schema(SCHEMA)))
    lines = text.splitlines()
    assert lines[0].startswith("PREFIX wikibase: <")
    assert "<ex_joined_statement> CLOSED EXTRA a {" in lines
    assert any(l.startswith("# origin: ") for l in lines)
    # every origin comment sits directly above its shape header
    for i, l in enumerate(lines):
        if l.startswith("# origin: ") and "scoped" not in l:
            assert lines[i + 1].startswith("<") or lines[i + 1].startswith("#")
