"""Schema/instance DSL: parsing, canonical printing, error reporting."""

import random

import pytest

from generators import random_schema
from wbforge.dsl import parse_instances, parse_schema, print_schema
from wbforge.errors import (
    DslSyntaxError,
    DuplicateDeclarationError,
    FeatureDisabledError,
    MalformedValueError,
    UnknownClassError,
    WbforgeError,
)
from wbforge.fixtures import FIXTURE_NAMES, fixture_path
from wbforge.model import (
    AxiomPattern,
    ClassDecl,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemData,
    ItemRef,
    QualifierDecl,
    SchemaDocument,
    StatementDecl,
    StringValue,
    ValueType,
    is_canonical,
)
from wbforge.namespaces import DEFAULT_ROOT, Iri

SCHEMA = """
prefix ex: <http://v.example/>
class ex:Person
controlled class ex:Job
statement ex:hasJob {
  subject ex:Person
  object item ex:Job
  qualifier ex:since : datetime scoped
  qualifier ex:rank : decimal required
  reference ex:statedIn -> item ex:Job required
  axioms { Domain, Existential }
}
"""


def test_functional_keyword_is_accepted_and_inert():
    text = ("prefix ex: <http://v.example/> class ex:A\n"
            "statement ex:s {{ subject ex:A object item ex:A\n  qualifier ex:q : string{} }}\n")
    doc = parse_schema(text.format(" functional"))
    assert doc == parse_schema(text.format(""))
    assert "functional" not in print_schema(doc)
    assert (parse_schema(text.format(" scoped functional required"))
            == parse_schema(text.format(" scoped required")))
    # every qualifier is functional; there is no flag to print or to turn off
    with pytest.raises(TypeError):
        QualifierDecl("q", ValueType(Datatype.STRING), functional=False)


def test_parse_schema_structure():
    doc = parse_schema(SCHEMA)
    assert [c.iri.local_name for c in doc.classes] == ["Person", "Job"]
    assert doc.classes[1].controlled
    (decl,) = doc.statements
    assert decl.property_name == "hasJob"
    assert decl.subject_class == Iri("http://v.example/Person")
    assert decl.qualifiers[0].scoped and not decl.qualifiers[0].required
    assert decl.qualifiers[1].required and decl.qualifiers[1].qtype.datatype is Datatype.DECIMAL
    assert decl.references[0].required
    assert decl.patterns == (AxiomPattern.DOMAIN, AxiomPattern.EXISTENTIAL)


def test_parse_accepts_wikibase_item_without_declaration():
    doc = parse_schema(
        "prefix ex: <http://v.example/>\n"
        "statement ex:links { subject wikibase:Item object item wikibase:Item }")
    assert doc.statements[0].subject_class == Iri("http://wikiba.se/ontology#Item")


def test_data_object_and_comments():
    doc = parse_schema(
        "# comment line\n"
        "prefix ex: <http://v.example/>\n"
        "class ex:P\n"
        "statement ex:note { subject ex:P object string }  # trailing\n")
    assert doc.statements[0].object_spec == ValueType(Datatype.STRING)


def test_print_parse_fixed_point_on_fixtures():
    for name in FIXTURE_NAMES:
        text = fixture_path(name, "wbs").read_text()
        doc = parse_schema(text)
        printed = print_schema(doc)
        doc2 = parse_schema(printed)
        assert doc2 == doc, name
        assert print_schema(doc2) == printed, name


def test_print_parse_fixed_point_on_random_schemas():
    for seed in range(60):
        doc = random_schema(random.Random(seed))
        printed = print_schema(doc)
        assert parse_schema(printed) == doc, f"seed {seed}"


def test_print_empty_document():
    assert print_schema(parse_schema("")) == ""


# error paths -------------------------------------------------------------

def _bad(text: str, exc: type[Exception]) -> None:
    with pytest.raises(exc):
        parse_schema(text)


def test_schema_error_paths():
    _bad("flag no-such-flag", DslSyntaxError)
    _bad("flag allow-item-qualifiers flag allow-item-qualifiers",
         DuplicateDeclarationError)
    _bad("prefix ex: <http://v.example/> class ex:A class ex:A",
         DuplicateDeclarationError)
    _bad("prefix ex: <http://v.example/> class ex:A\n"
         "statement ex:s { subject ex:A object item ex:Missing }",
         UnknownClassError)
    _bad("prefix ex: <http://v.example/> class ex:A\n"
         "statement ex:s { subject ex:A object item ex:A }\n"
         "statement ex:s { subject ex:A object item ex:A }",
         DuplicateDeclarationError)
    _bad("prefix ex: <http://v.example/> class ex:A\n"
         "statement ex:s { object item ex:A }", DslSyntaxError)     # no subject
    _bad("prefix ex: <http://v.example/> class ex:A\n"
         "statement ex:s { subject ex:A }", DslSyntaxError)         # no object
    _bad("prefix ex: <http://v.example/> class ex:A\n"
         "statement ex:s { subject ex:A object item ex:A\n"
         "  qualifier ex:q : item ex:A }", FeatureDisabledError)    # flag off
    _bad("prefix ex: <http://v.example/> class ex:A\n"
         "statement ex:s { subject ex:A object item ex:A\n"
         "  axioms { NotAPattern } }", DslSyntaxError)
    _bad("statement nope:s { subject wikibase:Item object string }",
         DslSyntaxError)                                            # unknown prefix
    _bad("class wikibase:Item ~", DslSyntaxError)                   # stray token


INSTANCES = """
prefix ex: <http://v.example/>
item wd:emp : ex:Person {
  ex:hasJob -> item wd:j1 {
    qualifier ex:since = datetime 1850-07-01T00:00:00Z
    qualifier ex:rank = decimal 3.5 unit wd:One
    qualifier ex:note = string "said \\"hi\\"\\n"
    reference { ex:statedIn -> item wd:doc }
  }
}
item wd:j1 : ex:Job { }
"""


def test_parse_instances():
    doc = parse_instances(INSTANCES)
    emp = doc.item(Iri(DEFAULT_ROOT + "entity/emp"))
    (stmt,) = emp.statements
    assert stmt.property == "hasJob"
    assert stmt.value == ItemRef(Iri(DEFAULT_ROOT + "entity/j1"))
    since, rank, note = stmt.qualifiers
    assert since.value == DateTimeValue("1850-07-01T00:00:00Z")
    assert since.value.precision == 11 and since.value.timezone == 0
    assert since.value.calendar == Iri(DEFAULT_ROOT + "entity/ProlepticGregorian")
    assert rank.value == DecimalValue("3.5", Iri(DEFAULT_ROOT + "entity/One"))
    assert note.value == StringValue('said "hi"\n')
    (ref,) = stmt.references
    assert ref.snaks[0].name == "statedIn"
    assert ref.snaks[0].target == Iri(DEFAULT_ROOT + "entity/doc")


def test_parse_instances_explicit_time_fields():
    doc = parse_instances(
        "prefix ex: <http://v.example/>\n"
        "item wd:a : ex:P { ex:at -> datetime 2001-01-01T00:00:00Z"
        " precision 9 tz -300 calendar wd:Julian }\n")
    v = doc.items[0].statements[0].value
    assert (v.precision, v.timezone) == (9, -300)
    assert v.calendar == Iri(DEFAULT_ROOT + "entity/Julian")


def test_parse_instances_error_paths():
    with pytest.raises(DslSyntaxError):
        parse_instances("item wd:a : wikibase:Item { badtoken -> item wd:b }")
    with pytest.raises(DslSyntaxError):   # non-canonical decimal
        parse_instances("prefix ex: <http://v.example/>\n"
                        "item wd:a : ex:P { ex:v -> decimal 01 }")
    with pytest.raises(DslSyntaxError):   # "-0" is not canonical
        parse_instances("prefix ex: <http://v.example/>\n"
                        "item wd:a : ex:P { ex:v -> decimal -0 }")
    with pytest.raises(DslSyntaxError):   # dateTime must be Z-suffixed ISO
        parse_instances("prefix ex: <http://v.example/>\n"
                        "item wd:a : ex:P { ex:v -> datetime 2001-01-01 }")
    with pytest.raises(DuplicateDeclarationError):
        parse_instances("item wd:a : wikibase:Item { } item wd:a : wikibase:Item { }")
    with pytest.raises(DslSyntaxError):   # empty reference block
        parse_instances("prefix ex: <http://v.example/>\n"
                        "item wd:a : ex:P { ex:v -> item wd:b { reference { } } }")


def test_string_with_a_lone_surrogate_is_rejected():
    # what an undecodable byte becomes under surrogateescape; UTF-8 cannot encode it
    with pytest.raises(DslSyntaxError, match="line 2, col 35"):
        parse_instances("prefix ex: <http://v.example/>\n"
                        "item wd:a : ex:P { ex:v -> string \"caf\udcff\" }\n")


def test_canonical_forms_reject_a_trailing_newline():
    with pytest.raises(MalformedValueError):
        DecimalValue("5\n")
    with pytest.raises(MalformedValueError):
        DateTimeValue("1850-07-01T00:00:00Z\n")
    assert not is_canonical(Datatype.INT, "5\n")


def test_item_lookup_first_item_wins():
    a = Iri(DEFAULT_ROOT + "entity/a")
    first = ItemData(a, Iri("http://v.example/P"))
    second = ItemData(a, Iri("http://v.example/Q"))
    doc = InstanceDoc(items=(first, second))
    assert doc.item(a) is first
    assert doc.item(Iri(DEFAULT_ROOT + "entity/b")) is None
    assert doc == InstanceDoc(items=(first, second))
    assert hash(doc) == hash(InstanceDoc(items=(first, second)))


def test_declaration_lookup_first_declaration_wins():
    person, job = Iri("http://v.example/Person"), Iri("http://v.example/Job")
    first = StatementDecl(Iri("http://v.example/hasJob"), person, ValueType(item_class=job))
    second = StatementDecl(Iri("http://w.example/hasJob"), job, ValueType(item_class=person))
    c1, c2 = ClassDecl(person), ClassDecl(person, controlled=True)
    doc = SchemaDocument(classes=(c1, c2), statements=(first, second))
    assert doc.statement_decl("hasJob") is first
    assert doc.statement_decl("hasRank") is None
    assert doc.class_decl(person) is c1
    assert doc.class_decl(job) is None
    assert doc == SchemaDocument(classes=(c1, c2), statements=(first, second))
    assert hash(doc) == hash(SchemaDocument(classes=(c1, c2), statements=(first, second)))


@pytest.mark.parametrize("fields", [{}, {"datatype": Datatype.STRING,
                                         "item_class": Iri("http://v.example/Job")}])
def test_a_value_type_has_exactly_one_of_datatype_and_class(fields):
    person = Iri("http://v.example/Person")
    with pytest.raises(ValueError, match="exactly one of datatype/item_class"):
        StatementDecl(Iri("http://v.example/hasJob"), person, ValueType(**fields))
    with pytest.raises(ValueError, match="exactly one of datatype/item_class"):
        QualifierDecl("since", ValueType(**fields))


def test_decimal_rejects_exponent_form():
    with pytest.raises(DslSyntaxError):
        parse_instances("prefix ex: <http://v.example/>\n"
                        "item wd:a : ex:P { ex:v -> decimal 1e3 }")


def test_custom_root_rebases_instances():
    doc = parse_instances("item wd:a : wikibase:Item { }",
                          root="http://other.example/")
    assert doc.items[0].iri == Iri("http://other.example/entity/a")


def test_repeated_curies_resolve_to_one_iri():
    doc = parse_instances("prefix ex: <http://v.example/>\n"
                          "item wd:a : ex:P { ex:v -> item wd:b }\n"
                          "item wd:b : ex:P { ex:v -> item wd:a }\n")
    a, b = doc.items
    assert a.type_class is b.type_class
    assert a.iri is b.statements[0].value.iri
    assert b.iri is a.statements[0].value.iri


def test_curie_with_an_invalid_iri_is_a_syntax_error():
    # an invalid prefix base fails at its declaration, before any CURIE uses it
    for parse in (parse_schema, parse_instances):
        with pytest.raises(WbforgeError) as info:
            parse('prefix bad: <http://x"y/>\nitem bad:a : wikibase:Item { }\n')
        assert str(info.value) == "prefix bad: base is not an absolute IRI: 'http://x\"y/'"
    for _ in range(2):
        with pytest.raises(DslSyntaxError) as info:
            parse_instances('item <http://x"y/a> : wikibase:Item { }\n')
        assert str(info.value) == ("line 1, col 6: expected a resolvable name "
                                   "(not an absolute IRI: 'http://x\"y/a')")
