"""Property-family expansion: one declared name mints the whole family."""

import dataclasses
import random

import pytest

from generators import random_instances, random_schema
from wbforge.axioms import schema_axioms
from wbforge.dl import Role
from wbforge.dsl import parse_instances, parse_schema
from wbforge.expander import (ExpandedSchema, ExpandedStatement, expand, expand_statement,
                              expansion_report, object_datatype)
from wbforge.errors import MissingRequiredError
from wbforge.exporter import export
from wbforge.fixtures import FIXTURE_NAMES, load_fixture
from wbforge.model import VALUE_KINDS, XSD, Datatype
from wbforge.namespaces import (
    DEFAULT_ROOT, PROV_WAS_DERIVED_FROM, RDF_TYPE, WB_ITEM, WB_REFERENCE, WB_STATEMENT, Iri,
    NamespaceTable)
from wbforge.rdf import XSD_STRING
from wbforge.shapes import schema_shapes

TABLE = NamespaceTable()

ITEM_OBJECT = parse_schema("""
prefix ex: <http://v.example/>
class ex:Person
class ex:Job
statement ex:hasJob {
  subject ex:Person
  object item ex:Job
  qualifier ex:since : datetime
  qualifier ex:note : string
  reference ex:statedIn -> item ex:Job
}
""")

DATA_OBJECT = parse_schema("""
prefix ex: <http://v.example/>
class ex:Person
statement ex:heightCm {
  subject ex:Person
  object decimal
}
""")

# qualifiers and references declared out of name order, some required
UNSORTED = parse_schema("""
prefix ex: <http://v.example/>
class ex:Person
class ex:Source
statement ex:hasName {
  subject ex:Person
  object string
  qualifier ex:zeta : string required
  qualifier ex:alpha : string
  qualifier ex:mid : string required
  reference ex:zRef -> item ex:Source required
  reference ex:aRef -> item ex:Source
  reference ex:mRef -> item ex:Source required
}
""")


def _report_rows(expanded):
    """The report's `(IRI, ROLE, ORIGIN)` rows, header dropped."""
    return [tuple(cell.strip() for cell in line.split(" | "))
            for line in expansion_report(expanded).splitlines()[1:]]


def test_item_object_family():
    decl = ITEM_OBJECT.statements[0]
    st = expand_statement(decl, TABLE)
    assert st.source is decl
    assert st.wdt == Iri(DEFAULT_ROOT + "prop/direct/hasJob")
    assert st.p == Iri(DEFAULT_ROOT + "prop/hasJob")
    assert st.ps == Iri(DEFAULT_ROOT + "prop/statement/hasJob")
    assert st.psv is None                 # an item object has no value node
    # datetime qualifier mints pq and pqv, string only pq
    since, note = decl.qualifiers
    assert st.qualifiers == {
        "since": (since, DEFAULT_ROOT + "prop/qualifier/since",
                  DEFAULT_ROOT + "prop/qualifier/value/since"),
        "note": (note, DEFAULT_ROOT + "prop/qualifier/note", None)}
    assert st.references == {
        "statedIn": (decl.references[0], DEFAULT_ROOT + "prop/reference/statedIn")}
    assert st.required_qualifiers == st.required_references == ()
    # 3 statement + 2 + 1 qualifier + 1 reference = 7 family properties
    assert len(st.family_properties()) == 7
    # the report adds the declaration's fixed rows: its provenance edge, and
    # the value fields of the time node its datetime qualifier carries
    fixed = {(iri, role) for iri, role, origin in _report_rows(expand(ITEM_OBJECT))
             if origin == "hasJob" and role in ("provenance edge", "value field")}
    assert {role for _, role in fixed} == {"provenance edge", "value field"}
    assert (TABLE.term("prov", "wasDerivedFrom").value, "provenance edge") in fixed
    assert {Iri(iri).local_name for iri, role in fixed if role == "value field"} == {
        "timeValue", "timePrecision", "timeTimezone", "timeCalendarModel"}


def test_data_object_mints_psv():
    st = expand_statement(DATA_OBJECT.statements[0], TABLE)
    assert st.psv == Iri(DEFAULT_ROOT + "prop/statement/value/heightCm")
    assert st.family_properties() == [st.wdt, st.p, st.ps, st.psv]
    assert st.qualifiers == st.references == {}
    rows = _report_rows(expand(DATA_OBJECT))
    fields = {Iri(iri).local_name for iri, role, _ in rows if role == "value field"}
    assert fields == {"quantityValue", "quantityUnit"}
    # no references, so no provenance edge
    assert not any(role == "provenance edge" for _, role, _ in rows)


def test_object_datatype():
    assert object_datatype(ITEM_OBJECT.statements[0]) is None
    assert object_datatype(DATA_OBJECT.statements[0]) is Datatype.DECIMAL


def test_expand_collects_value_classes():
    def classes(doc):
        return {Iri(iri).local_name for iri, role, origin in _report_rows(expand(doc))
                if role == "class" and origin == "schema"}
    assert classes(ITEM_OBJECT) == {"Item", "Statement", "Reference", "TimeValue"}
    assert classes(DATA_OBJECT) == {"Item", "Statement", "Reference", "QuantityValue"}


def test_expand_builds_only_the_families():
    assert [f.name for f in dataclasses.fields(ExpandedSchema) if f.init] == [
        "source", "statements"]
    assert ExpandedStatement._fields == (
        "source", "wdt", "p", "ps", "psv", "qualifiers", "references",
        "required_qualifiers", "required_references")


def test_family_orders():
    # qualifiers keep declaration order, references go by name, and the
    # required names keep declaration order
    st = expand_statement(UNSORTED.statements[0], TABLE)
    assert list(st.qualifiers) == ["zeta", "alpha", "mid"]
    assert list(st.references) == ["aRef", "mRef", "zRef"]
    assert [r.name for r in st.source.references] == ["zRef", "aRef", "mRef"]
    assert st.required_qualifiers == ("zeta", "mid")
    assert st.required_references == ("zRef", "mRef")


@pytest.mark.parametrize("body, missing", [
    ("", "hasName/zeta"),
    ('{ qualifier ex:mid = string "m" }', "hasName/zeta"),
    ('{ qualifier ex:zeta = string "z" }', "hasName/mid"),
    ('{ qualifier ex:zeta = string "z" qualifier ex:mid = string "m" }', "hasName/zRef"),
    ('{ qualifier ex:zeta = string "z" qualifier ex:mid = string "m" '
     "reference { ex:mRef -> item wd:src } }", "hasName/zRef"),
    ('{ qualifier ex:zeta = string "z" qualifier ex:mid = string "m" '
     "reference { ex:zRef -> item wd:src } }", "hasName/mRef"),
])
def test_export_names_the_first_missing_required_name_in_declaration_order(body, missing):
    instances = parse_instances(f"""
prefix ex: <http://v.example/>
item wd:p : ex:Person {{ ex:hasName -> string "n" {body} }}
item wd:src : ex:Source {{ }}
""")
    with pytest.raises(MissingRequiredError) as exc:
        export(UNSORTED, instances)
    assert exc.value.name == missing


def test_family_count_arithmetic():
    # 3 + psv? + sum(1 + pqv?) + |refs| per statement, over random schemas
    for seed in range(40):
        doc = random_schema(random.Random(seed))
        for decl in doc.statements:
            st = expand_statement(decl, doc.namespaces)
            expected = 3
            if object_datatype(decl) in (Datatype.DECIMAL, Datatype.DATETIME):
                expected += 1
            for q in decl.qualifiers:
                expected += 1
                if q.qtype.datatype in (Datatype.DECIMAL, Datatype.DATETIME):
                    expected += 1
            expected += len(decl.references)
            fam = st.family_properties()
            assert len(fam) == expected, f"seed {seed} {decl.property_name}"
            assert len(set(fam)) == expected  # no collisions inside one family


def test_report_layout():
    report = expansion_report(expand(ITEM_OBJECT))
    lines = report.splitlines()
    assert lines[0].startswith("IRI") and "| ROLE" in lines[0] and "ORIGIN" in lines[0]
    # every minted property appears exactly once: the family, the
    # provenance edge and the time node's value fields
    st = expand_statement(ITEM_OBJECT.statements[0], TABLE)
    minted = set(st.family_properties())
    minted.add(TABLE.term("prov", "wasDerivedFrom").value)
    minted.update("http://wikiba.se/ontology#" + f
                  for f in ("timeValue", "timePrecision", "timeTimezone", "timeCalendarModel"))
    assert {iri for iri, role, _ in _report_rows(expand(ITEM_OBJECT))
            if role != "class"} == minted
    body = "\n".join(lines[1:])
    for iri in minted:
        assert body.count(iri) == 1
    assert "hasJob/since" in body and "provenance edge" in body
    # deterministic
    assert expansion_report(expand(ITEM_OBJECT)) == report


def _role_iris(node):
    """Every Role IRI inside a DL axiom or class expression."""
    if isinstance(node, Role):
        yield node.iri
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _role_iris(getattr(node, f.name))
    elif isinstance(node, tuple) and not isinstance(node, Iri):
        for part in node:
            yield from _role_iris(part)


def _case(case):
    if isinstance(case, str):
        return load_fixture(case)
    rng = random.Random(3000 + case)
    schema = random_schema(rng)
    return schema, random_instances(rng, schema)


@pytest.mark.parametrize("case", [*FIXTURE_NAMES, *range(60)])
def test_every_layer_uses_only_the_expanded_family(case):
    schema, instances = _case(case)
    family = {Iri(iri) for iri, role, _ in _report_rows(expand(schema)) if role != "class"}
    a = schema.namespaces.term("rdf", "type")
    exported = {t.p for t in export(schema, instances)} - {a}
    shaped = {tc.predicate for sh in schema_shapes(schema).shapes for tc in sh.constraints}
    roles = {iri for ax in schema_axioms(schema) for iri in _role_iris(ax.axiom)}
    assert shaped and roles           # every generated schema declares a statement
    assert exported <= family
    assert shaped <= family
    assert roles <= family


def test_every_graph_side_term_is_minted_as_exact_text():
    # a graph stores exact `str`, so the fixed vocabulary and each family
    # IRI are minted as that text, and no layer keeps a second copy of them
    terms = [RDF_TYPE, WB_ITEM, WB_STATEMENT, WB_REFERENCE, PROV_WAS_DERIVED_FROM, XSD_STRING,
             *XSD.values()]
    for kind in VALUE_KINDS.values():
        terms += [kind.class_iri, *kind.predicates]
    schemas = [load_fixture(name)[0] for name in FIXTURE_NAMES]
    schemas += [random_schema(random.Random(seed)) for seed in range(50)]
    for schema in schemas:
        for st in expand(schema).statements:
            terms += st.family_properties()
    assert [t for t in terms if type(t) is not str] == []
