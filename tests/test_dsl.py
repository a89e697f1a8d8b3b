"""Schema/instance DSL: parsing, canonical printing, error reporting."""

import random
import time

import pytest

import dsl_corpus
from generators import random_schema
from test_tokenizer import EDGE_CASES
from wbforge import dsl
from wbforge.dsl import parse_instances, parse_schema, print_schema, tokenize
from wbforge.errors import (
    DslSyntaxError,
    DuplicateDeclarationError,
    FeatureDisabledError,
    MalformedValueError,
    PatternInapplicableError,
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


def test_print_refuses_an_iri_no_prefix_covers():
    doc = SchemaDocument(classes=(ClassDecl(Iri("http://elsewhere.example/Person")),))
    with pytest.raises(WbforgeError, match="no declared prefix covers"):
        print_schema(doc)


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
    assert not is_canonical(Datatype.INT, "-0")


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
        with pytest.raises(DslSyntaxError) as info:
            parse('prefix bad: <http://x"y/>\nitem bad:a : wikibase:Item { }\n')
        assert str(info.value) == ("line 1, col 13: expected a valid prefix base "
                                   "(prefix bad: base is not an absolute IRI: 'http://x\"y/')")
    for _ in range(2):
        with pytest.raises(DslSyntaxError) as info:
            parse_instances('item <http://x"y/a> : wikibase:Item { }\n')
        assert str(info.value) == ("line 1, col 6: expected a resolvable name "
                                   "(not an absolute IRI: 'http://x\"y/a')")


def test_an_iriref_holding_a_backslash_is_a_positioned_syntax_error():
    # written raw into N-Triples, the backslash would read back as an escape
    for parse in (parse_schema, parse_instances):
        with pytest.raises(DslSyntaxError) as info:
            parse("prefix ex: <http://x.example/a\\b/>\n")
        assert str(info.value) == ("line 1, col 12: expected a valid prefix base "
                                   "(prefix ex: base is not an absolute IRI: "
                                   "'http://x.example/a\\\\b/')")
    with pytest.raises(DslSyntaxError) as info:
        parse_schema("class <http://x.example/A\\B>\n")
    assert (info.value.line, info.value.col) == (1, 7)
    with pytest.raises(DslSyntaxError) as info:
        parse_instances("\nitem <http://x.example/a\\b> : wikibase:Item { }\n")
    assert str(info.value) == ("line 2, col 6: expected a resolvable name "
                               "(not an absolute IRI: 'http://x.example/a\\\\b')")


def test_prefix_base_faults_carry_a_position():
    for parse in (parse_schema, parse_instances):
        with pytest.raises(DslSyntaxError) as info:
            parse("\nprefix ex: <http://x.example/a>\n")
        assert (info.value.line, info.value.col) == (2, 12)
        # a redeclared or shadowing prefix stays a duplicate declaration
        for text in ("prefix ex: <http://x.example/> prefix ex: <http://y.example/>",
                     "prefix wd: <http://y.example/>"):
            with pytest.raises(DuplicateDeclarationError):
                parse(text)


def test_an_unknown_string_escape_is_a_positioned_syntax_error():
    # a schema holds no string values, so its string token is refused where it stands
    with pytest.raises(DslSyntaxError) as info:
        parse_schema('prefix ex: <http://x.example/>\nclass ex:A\n  "a\\q"\n')
    assert (info.value.line, info.value.col) == (3, 3)
    # an instance string value is decoded, and the escape names the string's position
    with pytest.raises(DslSyntaxError) as info:
        parse_instances('prefix ex: <http://x.example/>\nitem wd:a : ex:A {\n'
                        '  ex:p -> string "ok \\q"\n}\n')
    assert str(info.value) == "line 3, col 18: expected a valid escape (found \\q)"


@pytest.mark.parametrize("object_spec", ["decimal", "string", "datetime"])
@pytest.mark.parametrize("axioms_first", [False, True])
def test_inverse_existential_on_a_data_object_is_refused_at_parse_time(object_spec,
                                                                       axioms_first):
    clauses = [f"object {object_spec}", "axioms { Domain, InverseExistential }"]
    if axioms_first:
        clauses.reverse()
    text = ("prefix ex: <http://example.org/>\nclass ex:A\n"
            f"statement ex:q {{ subject ex:A {' '.join(clauses)} }}\n")
    with pytest.raises(PatternInapplicableError,
                       match="^pattern InverseExistential is not applicable to q$"):
        parse_schema(text)
    # on an item object the same pattern parses
    doc = parse_schema(text.replace(f"object {object_spec}", "object item ex:A"))
    assert doc.statements[0].patterns == (AxiomPattern.DOMAIN,
                                          AxiomPattern.INVERSE_EXISTENTIAL)


# `^d` marks where a non-ASCII form of the ASCII digit d replaces it
@pytest.mark.parametrize("zero", ["٠", "０"], ids=["arabic-indic", "fullwidth"])
@pytest.mark.parametrize("old, new", [
    ("precision 9", "precision ^9"),                     # INT
    ("decimal 34", "decimal 3^4.5"),                     # DECIMAL
    ("1850-07-01T00:00:00Z", "1850-07-0^1T00:00:00Z"),   # DATETIME
], ids=["INT", "DECIMAL", "DATETIME"])
def test_a_non_ascii_digit_is_a_syntax_error_at_its_position(old, new, zero):
    # `\d` would take any Unicode decimal digit, and `int()` reads them all
    text = fixture_path("age-record", "wbi").read_text(encoding="utf-8")
    line_no, line = next((n, line) for n, line in enumerate(text.split("\n"), 1)
                         if old in line)
    mark = new.index("^")
    digit = chr(ord(zero) + int(new[mark + 1]))
    edited = text.replace(old, new[:mark] + digit + new[mark + 2:], 1)
    with pytest.raises(DslSyntaxError) as info:
        parse_instances(edited)
    assert (info.value.line, info.value.col) == (line_no, line.index(old) + mark + 1)
    assert info.value.expected == f"a token (found {digit!r})"


# The parsers read token texts from one scan and place a fault only once it
# is raised, by tokenizing the source; these pin what that must keep.

def test_a_statement_property_name_resolves_before_its_value():
    with pytest.raises(DslSyntaxError) as info:
        parse_instances("item wd:a : wd:C {\n  zz:p -> decimal 01.0\n}")
    assert str(info.value) == "line 2, col 3: expected a resolvable name (unknown prefix 'zz')"


@pytest.mark.parametrize("clause, fault", [
    ("qualifier zz:q = decimal 01.0",
     "line 3, col 30: expected a canonical decimal (no leading/trailing zeros)"),
    ("reference { zz:r -> item 7 }", "line 3, col 30: expected an item name"),
])
def test_a_qualifier_or_snak_name_resolves_after_the_rest_of_its_clause(clause, fault):
    with pytest.raises(DslSyntaxError) as info:
        parse_instances(f"item wd:a : wd:C {{\n  wd:p -> item wd:b {{\n    {clause}\n  }}\n}}")
    assert str(info.value) == fault


def test_a_memoised_name_still_checks_the_kinds_its_place_takes():
    # `<...>` resolves as an item name first; as a unit it must still be refused
    text = "item <http://x.example/u> : wd:C {\n  wd:p -> decimal 1 unit <http://x.example/u>\n}"
    with pytest.raises(DslSyntaxError) as info:
        parse_instances(text)
    assert str(info.value) == "line 2, col 26: expected a unit item"
    assert parse_instances(text.replace("unit <http://x.example/u>", "unit wd:u")).items


@pytest.mark.parametrize("parse, text", [
    (parse_instances, "item wd:a : wd:C { }\nitem wd:a : wd:C { }\n  wd:b @"),
    (parse_instances, "item zz:a : wd:C { }\n\n  wd:b @"),
    (parse_schema, "class wd:C\nclass wd:C\n  wd:b @"),
    (parse_schema, "class zz:C\n\n  wd:b @"),
])
def test_a_bad_character_is_reported_ahead_of_an_earlier_fault(parse, text):
    with pytest.raises(DslSyntaxError) as info:
        parse(text)
    assert str(info.value) == "line 3, col 8: expected a token (found '@')"
    with pytest.raises(DslSyntaxError) as info:
        parse(text, root="http://x y/")      # an invalid root is a fault too
    assert str(info.value) == "line 3, col 8: expected a token (found '@')"


@pytest.mark.parametrize("parse, text", [
    (parse_schema, SCHEMA),
    (parse_instances, fixture_path("age-record", "wbi").read_text(encoding="utf-8")),
])
@pytest.mark.parametrize("tail", [" " * 10_000, "# note\n" * 10_000],
                         ids=["spaces", "comment-lines"])
def test_a_long_blank_or_comment_tail_takes_linear_time(parse, text, tail):
    # a scan that tried a match at each trailing space would take seconds here
    started = time.perf_counter()
    assert parse(text + tail) == parse(text)
    assert time.perf_counter() - started < 1.0


def test_the_text_scan_gives_the_token_texts():
    """On every DSL corpus text, and each of the tokenizer's edge cases:
    the texts of `tokenize`'s tokens, or, where it raises, a bad character."""
    for text in [text for _, text in dsl_corpus.texts()] + EDGE_CASES:
        texts = dsl._texts(text)
        try:
            tokens = tokenize(text)
        except DslSyntaxError:
            assert "ERROR" in {dsl._TOKEN_RE.match(t).lastgroup for t in texts[:-1]}
        else:
            assert texts == [tok[1] for tok in tokens], repr(text)


# Each name resolves once per parse: a later prefix line only adds a
# binding, so a memoised name is the IRI under every later table.

@pytest.mark.parametrize("parse, text", [
    (parse_schema, "prefix ex: <http://x.example/>\nclass ex:A\nprefix ey: <http://y.example/>\n"
                   "statement ey:s {\n  subject ex:A\n  object item ex:A\n}\n"),
    (parse_instances, "prefix ex: <http://x.example/>\nitem wd:a : ex:A { }\n"
                      "prefix ey: <http://y.example/>\nitem wd:b : ex:A { ey:s -> item wd:a }\n"),
], ids=["schema", "instances"])
def test_a_curie_before_and_after_a_later_prefix_is_one_iri(parse, text):
    doc = parse(text)
    a = Iri("http://x.example/A")
    if parse is parse_schema:
        ((cls,), (st,)) = doc.classes, doc.statements
        assert cls.iri == st.subject_class == st.object_spec.item_class == a
    else:
        assert [item.type_class for item in doc.items] == [a, a]
        assert doc.items[1].statements[0].value == ItemRef(doc.items[0].iri)


@pytest.mark.parametrize("parse, text, fault", [
    (parse_schema, "class ex:A\nprefix ex: <http://x.example/>\nclass ex:B\n",
     "line 1, col 7: expected a resolvable name (unknown prefix 'ex')"),
    (parse_schema, "prefix ex: <http://x.example/>\nclass ex:A\nstatement ex:s {\n"
                   "  subject ex:A\n  object item ey:B\n}\nprefix ey: <http://y.example/>\n"
                   "class ey:B\n",
     "line 5, col 15: expected a resolvable name (unknown prefix 'ey')"),
    (parse_instances, "item wd:a : ex:P { }\nprefix ex: <http://x.example/>\n",
     "line 1, col 13: expected a resolvable name (unknown prefix 'ex')"),
    (parse_instances, "item wd:a : wd:C {\n  wd:p -> item ex:b\n}\n"
                      "prefix ex: <http://x.example/>\nitem ex:b : wd:C { }\n",
     "line 2, col 16: expected a resolvable name (unknown prefix 'ex')"),
], ids=["schema-class", "schema-object", "instances-class", "instances-value"])
def test_a_curie_whose_prefix_comes_later_is_refused_at_its_first_use(parse, text, fault):
    with pytest.raises(DslSyntaxError) as info:
        parse(text)
    assert str(info.value) == fault


_EX = "prefix ex: <http://x.example/>\nclass ex:A\n"
_STMT = _EX + "statement ex:s {\n  subject ex:A\n  object string\n  "


# A token of a kind its place does not take, at the schema sites the DSL
# corpus does not reach with that kind; an IRIREF first resolved as a class
# name is refused where a CURIE must stand.
@pytest.mark.parametrize("text, fault", [
    ("flag <http://x.example/f>\n", "line 1, col 6: expected a feature flag name"),
    ('flag "allow-item-qualifiers"\n', "line 1, col 6: expected a feature flag name"),
    ("flag 3\n", "line 1, col 6: expected a feature flag name"),
    ("prefix 3: <http://x.example/>\n", "line 1, col 8: expected a prefix name"),
    ('prefix ex: "http://x.example/"\n', "line 1, col 12: expected an IRI in angle brackets"),
    ("prefix ex: 2020-01-01T00:00:00Z\n",
     "line 1, col 12: expected an IRI in angle brackets"),
    (_EX + "class", "line 3, col 6: expected a class name"),
    (_EX + "statement ex:s {\n  subject", "line 4, col 10: expected a class name"),
    ("class <http://x.example/s>\nstatement <http://x.example/s> {\n"
     "  subject <http://x.example/s>\n  object string\n}\n",
     "line 2, col 11: expected a statement property name"),
    (_EX + "statement 1.5 {\n  subject ex:A\n  object string\n}\n",
     "line 3, col 11: expected a statement property name"),
    (_STMT + "qualifier <http://x.example/A> : string\n}\n",
     "line 6, col 13: expected a qualifier name"),
    (_STMT + "qualifier 2020-01-01T00:00:00Z : string\n}\n",
     "line 6, col 13: expected a qualifier name"),
    (_STMT + "reference <http://x.example/A> -> item ex:A\n}\n",
     "line 6, col 13: expected a reference name"),
    (_STMT + "reference 1.5 -> item ex:A\n}\n", "line 6, col 13: expected a reference name"),
    (_STMT + "reference 7 -> item ex:A\n}\n", "line 6, col 13: expected a reference name"),
])
def test_a_schema_token_of_the_wrong_kind_is_refused_where_it_stands(text, fault):
    with pytest.raises(DslSyntaxError) as info:
        parse_schema(text)
    assert str(info.value) == fault


# One statement with every clause: a datetime with precision, tz and
# calendar, a decimal qualifier with a unit, a string and an item qualifier,
# and a two-snak reference. Each row is a token of the statement, in order,
# then the (line, col, expected) of the fault when the text is cut after
# it, and when it is swapped for a token of a kind its place does not take.
_EVERY_CLAUSE_HEAD = "prefix ex: <http://x.example/>\nitem wd:a : ex:C {\n"
_EVERY_CLAUSE = (
    "  ex:p -> datetime 1850-07-01T00:00:00Z precision 9 tz -300 calendar wd:Julian {\n"
    "    qualifier ex:q = decimal 1.5 unit wd:metre\n"
    "    qualifier ex:n = string \"x\"\n"
    "    qualifier ex:k = item wd:b\n"
    "    reference { ex:r -> item wd:b ex:s -> item <http://x.example/c> }\n"
    "  }\n")
_EVERY_CLAUSE_FAULTS = [
    ('ex:p', (3, 7, "'->'"), (3, 3, 'a statement property name')),
    ('->', (3, 10, "'item', 'string', 'decimal' or 'datetime'"), (3, 8, "'->'")),
    ('datetime', (3, 19, 'an ISO dateTime like 2009-01-01T00:00:00Z'),
     (3, 11, "'item', 'string', 'decimal' or 'datetime'")),
    ('1850-07-01T00:00:00Z', (3, 40, 'a statement property name'),
     (3, 20, 'an ISO dateTime like 2009-01-01T00:00:00Z')),
    ('precision', (3, 50, 'a precision integer'), (3, 41, 'a statement property name')),
    ('9', (3, 52, 'a statement property name'), (3, 51, 'a precision integer')),
    ('tz', (3, 55, 'a timezone offset in minutes'), (3, 53, 'a statement property name')),
    ('-300', (3, 60, 'a statement property name'), (3, 56, 'a timezone offset in minutes')),
    ('calendar', (3, 69, 'a calendar item'), (3, 61, 'a statement property name')),
    ('wd:Julian', (3, 79, 'a statement property name'), (3, 70, 'a calendar item')),
    ('{', (3, 81, "'qualifier', 'reference' or '}'"), (3, 80, 'a statement property name')),
    ('qualifier', (4, 14, 'a qualifier name'), (4, 5, "'qualifier', 'reference' or '}'")),
    ('ex:q', (4, 19, "'='"), (4, 15, 'a qualifier name')),
    ('=', (4, 21, "'item', 'string', 'decimal' or 'datetime'"), (4, 20, "'='")),
    ('decimal', (4, 29, 'a decimal amount'), (4, 22, "'item', 'string', 'decimal' or 'datetime'")),
    ('1.5', (4, 33, "'qualifier', 'reference' or '}'"), (4, 30, 'a decimal amount')),
    ('unit', (4, 38, 'a unit item'), (4, 34, "'qualifier', 'reference' or '}'")),
    ('wd:metre', (4, 47, "'qualifier', 'reference' or '}'"), (4, 39, 'a unit item')),
    ('qualifier', (5, 14, 'a qualifier name'), (5, 5, "'qualifier', 'reference' or '}'")),
    ('ex:n', (5, 19, "'='"), (5, 15, 'a qualifier name')),
    ('=', (5, 21, "'item', 'string', 'decimal' or 'datetime'"), (5, 20, "'='")),
    ('string', (5, 28, 'a quoted string'), (5, 22, "'item', 'string', 'decimal' or 'datetime'")),
    ('"x"', (5, 32, "'qualifier', 'reference' or '}'"), (5, 29, 'a quoted string')),
    ('qualifier', (6, 14, 'a qualifier name'), (6, 5, "'qualifier', 'reference' or '}'")),
    ('ex:k', (6, 19, "'='"), (6, 15, 'a qualifier name')),
    ('=', (6, 21, "'item', 'string', 'decimal' or 'datetime'"), (6, 20, "'='")),
    ('item', (6, 26, 'an item name'), (6, 22, "'item', 'string', 'decimal' or 'datetime'")),
    ('wd:b', (6, 31, "'qualifier', 'reference' or '}'"), (6, 27, 'an item name')),
    ('reference', (7, 14, "'{'"), (7, 5, "'qualifier', 'reference' or '}'")),
    ('{', (7, 16, 'a reference property name'), (7, 15, "'{'")),
    ('ex:r', (7, 21, "'->'"), (7, 17, 'a reference property name')),
    ('->', (7, 24, "'item'"), (7, 22, "'->'")),
    ('item', (7, 29, 'an item name'), (7, 25, "'item'")),
    ('wd:b', (7, 34, 'a reference property name'), (7, 30, 'an item name')),
    ('ex:s', (7, 39, "'->'"), (7, 35, 'a reference property name')),
    ('->', (7, 42, "'item'"), (7, 40, "'->'")),
    ('item', (7, 47, 'an item name'), (7, 43, "'item'")),
    ('<http://x.example/c>', (7, 68, 'a reference property name'), (7, 48, 'an item name')),
    ('}', (7, 70, "'qualifier', 'reference' or '}'"), (7, 69, 'a reference property name')),
    ('}', (8, 4, 'a statement property name'), (8, 3, "'qualifier', 'reference' or '}'")),
]


def test_each_statement_token_cut_or_swapped_faults_where_it_stands():
    text = _EVERY_CLAUSE_HEAD + _EVERY_CLAUSE + "}\n"
    assert len(parse_instances(text).items[0].statements[0].qualifiers) == 3
    offsets = [0]
    for line in text.split("\n"):
        offsets.append(offsets[-1] + len(line) + 1)
    tokens = [tok for tok in tokenize(text)
              if 3 <= tok[2] < 3 + _EVERY_CLAUSE.count("\n")]
    assert [tok[1] for tok in tokens] == [row[0] for row in _EVERY_CLAUSE_FAULTS]
    for (kind, word, line, col), (_, cut, swapped) in zip(tokens, _EVERY_CLAUSE_FAULTS):
        start = offsets[line - 1] + col - 1
        end = start + len(word)
        wrong = "7" if kind == "STRING" else '"s"'
        for variant, fault in ((text[:end], cut), (text[:start] + wrong + text[end:], swapped)):
            with pytest.raises(DslSyntaxError) as info:
                parse_instances(variant)
            assert (info.value.line, info.value.col, info.value.expected) == fault, variant


# A value parser reads a literal whose text tells its kind without the kind
# memo, and hands any other text to the kind check; each fault below is the
# line, column and `expected` of the earlier parser, which checked every
# literal's kind first.
_VALUE_HEAD = "prefix ex: <http://example.org/>\nitem wd:a : ex:A {\n  ex:p -> "


@pytest.mark.parametrize("literal, fault", [
    ("decimal -0", (3, 19, "a canonical decimal (no leading/trailing zeros)")),
    ("decimal 1.50", (3, 19, "a canonical decimal (no leading/trailing zeros)")),
    ("decimal 007", (3, 19, "a canonical decimal (no leading/trailing zeros)")),
    ("decimal x", (3, 19, "a decimal amount")),
    ('decimal "1"', (3, 19, "a decimal amount")),
    ("decimal 1.50 unit 3", (3, 29, "a unit item")),
    ("decimal", (4, 1, "a decimal amount")),
    ("datetime 2009-01-01", (3, 20, "an ISO dateTime like 2009-01-01T00:00:00Z")),
    ("datetime 5", (3, 20, "an ISO dateTime like 2009-01-01T00:00:00Z")),
    ('datetime "x"', (3, 20, "an ISO dateTime like 2009-01-01T00:00:00Z")),
    ("datetime", (4, 1, "an ISO dateTime like 2009-01-01T00:00:00Z")),
    ("string wd:x", (3, 18, "a quoted string")),
    ("string 5", (3, 18, "a quoted string")),
    ('string "', (3, 18, "a token (found '\"')")),
    ('string "a\\q"', (3, 18, "a valid escape (found \\q)")),
    ("string", (4, 1, "a quoted string")),
])
def test_a_bad_value_literal_faults_where_it_stands(literal, fault):
    with pytest.raises(DslSyntaxError) as info:
        parse_instances(_VALUE_HEAD + literal + "\n}\n")
    assert (info.value.line, info.value.col, info.value.expected) == fault


@pytest.mark.parametrize("literal, value", [
    ("decimal -0.5", DecimalValue("-0.5")),
    ("decimal 0", DecimalValue("0")),
    ("datetime 2009-13-45T99:99:99Z", DateTimeValue("2009-13-45T99:99:99Z")),
    ('string ""', StringValue("")),
    ('string "a\\"b"', StringValue('a"b')),
])
def test_a_literal_whose_text_tells_its_kind_parses_as_before(literal, value):
    doc = parse_instances(_VALUE_HEAD + literal + "\n}\n")
    assert doc.items[0].statements[0].value == value
