"""Exporter: content hashing, node identity, triple emission, rejection."""

import dataclasses
import random
import re

import pytest

import hash_oracle as oracle
from generators import random_datetime, random_decimal, random_instances, random_schema
from reference_read import read_statement, read_value_node
from wbforge.dsl import parse_instances, parse_schema
from wbforge.errors import (
    MissingRequiredError,
    PreimageDelimiterError,
    ReferenceNameCollisionError,
    TypeMismatchError,
    UnresolvedNameError,
    WbforgeError,
)
from wbforge.axioms import schema_axioms
from wbforge.expander import expand, expansion_report
from wbforge import exporter
from wbforge.exporter import (
    canonical_content,
    export,
    reference_hash,
    statement_content,
    statement_hash,
    statement_node,
    value_hash,
    value_node,
)
from wbforge.fixtures import FIXTURE_NAMES, fixture_path, load_fixture
from wbforge.model import (
    KIND_BY_XSD,
    VALUE_KINDS,
    XSD,
    Datatype,
    DateTimeValue,
    DecimalValue,
    ItemRef,
    QualifierData,
    RefData,
    SnakData,
    StatementData,
    StringValue,
)
from wbforge.namespaces import (
    DEFAULT_ROOT,
    PROV_WAS_DERIVED_FROM,
    RDF_TYPE,
    WB_ITEM,
    WB_REFERENCE,
    WB_STATEMENT,
    Iri,
    NamespaceTable,
    fixed_term,
    iri_text,
)
from wbforge.rdf import XSD_STRING, Literal, Triple, serialize_canonical
from wbforge.shapes import schema_shapes
from wbforge.validator import validate

TABLE = NamespaceTable()
WD = DEFAULT_ROOT + "entity/"

SCHEMA_TEXT = """
prefix ex: <http://example.org/>
class ex:Employee
class ex:Job
statement ex:hasJob {
  subject ex:Employee
  object item ex:Job
  qualifier ex:atTime : datetime
  qualifier ex:amount : decimal
  reference ex:taxRecord -> item ex:Job required
}
"""
SCHEMA = parse_schema(SCHEMA_TEXT)

EMPLOYEE = Iri(WD + "employee0")
JOB = ItemRef(Iri(WD + "job0"))
AT_TIME = QualifierData("atTime", DateTimeValue("2001-01-01T00:00:00Z"))
TAX_REF = RefData((SnakData("taxRecord", Iri(WD + "doc1")),))


def reference_node(ref: RefData, stmt_hash: str, table: NamespaceTable) -> Iri:
    """The node export names for `ref` under the statement whose hash is `stmt_hash`."""
    return Iri(exporter.reference_name(reference_hash(ref, table), stmt_hash, table))


def test_frozen_statement_hashes():
    bare = StatementData("hasJob", JOB)
    assert canonical_content(EMPLOYEE, bare, TABLE) == oracle.PREIMAGE_BARE
    assert statement_hash(EMPLOYEE, bare, TABLE) == oracle.HASH_BARE

    qualified = StatementData("hasJob", JOB, (AT_TIME,))
    assert canonical_content(EMPLOYEE, qualified, TABLE) == oracle.PREIMAGE_QUALIFIED
    assert statement_hash(EMPLOYEE, qualified, TABLE) == oracle.HASH_QUALIFIED

    referenced = StatementData("hasJob", JOB, (AT_TIME,), (TAX_REF,))
    assert canonical_content(EMPLOYEE, referenced, TABLE) == oracle.PREIMAGE_REFERENCED
    assert statement_hash(EMPLOYEE, referenced, TABLE) == oracle.HASH_REFERENCED


def test_frozen_value_and_reference_hashes():
    t = DateTimeValue("2001-01-01T00:00:00Z")
    assert value_hash(t) == oracle.HASH_TIME_NODE
    assert value_node(t, TABLE) == Iri(DEFAULT_ROOT + "value/" + oracle.HASH_TIME_NODE)

    q = DecimalValue("4.5")
    assert value_hash(q) == oracle.HASH_QUANTITY_NODE

    assert reference_hash(TAX_REF, TABLE) == oracle.HASH_REFERENCE
    node = reference_node(TAX_REF, oracle.HASH_REFERENCED, TABLE)
    assert node == Iri(DEFAULT_ROOT + "reference/"
                       + oracle.HASH_REFERENCE + "-" + oracle.HASH_REFERENCED[:8])


def test_statement_node_shape():
    node = statement_node(EMPLOYEE, StatementData("hasJob", JOB), TABLE)
    assert node == Iri(DEFAULT_ROOT + "entity/statement/employee0-" + oracle.HASH_BARE)


def test_hash_ignores_qualifier_and_reference_order():
    quals = (
        AT_TIME,
        QualifierData("amount", DecimalValue("4.5")),
        QualifierData("amount", DecimalValue("7")),
    )
    refs = (
        TAX_REF,
        RefData((SnakData("taxRecord", Iri(WD + "doc2")),
                 SnakData("taxRecord", Iri(WD + "doc3")))),
    )
    base = StatementData("hasJob", JOB, quals, refs)
    expected = statement_hash(EMPLOYEE, base, TABLE)
    rng = random.Random(11)
    for _ in range(50):
        q = list(quals)
        r = list(refs)
        rng.shuffle(q)
        rng.shuffle(r)
        snaks = list(refs[1].snaks)
        rng.shuffle(snaks)
        r = [RefData(tuple(snaks)) if ref is refs[1] else ref for ref in r]
        shuffled = StatementData("hasJob", JOB, tuple(q), tuple(r))
        assert statement_hash(EMPLOYEE, shuffled, TABLE) == expected


def test_hash_distinguishes_value_kinds():
    # same text, different kind: the T|/N| prefixes keep them apart
    assert value_hash(DateTimeValue("2001-01-01T00:00:00Z")) != \
        value_hash(DecimalValue("1"))
    a = StatementData("hasJob", JOB, (QualifierData("amount", DecimalValue("1")),))
    b = StatementData("hasJob", JOB, (QualifierData("atTime",
                                                    DateTimeValue("2001-01-01T00:00:00Z")),))
    assert statement_hash(EMPLOYEE, a, TABLE) != statement_hash(EMPLOYEE, b, TABLE)


PR = DEFAULT_ROOT + "prop/reference/"


def test_reference_target_delimiters_cannot_merge_statements():
    # one reference with two snaks, against one snak whose target spells out both
    two_snaks = StatementData("hasJob", JOB, (), (RefData((
        SnakData("taxRecord", Iri(WD + "T1")), SnakData("payslip", Iri(WD + "T2")))),))
    assert f"R|{PR}payslip|{WD}T2;{PR}taxRecord|{WD}T1\n" in \
        canonical_content(EMPLOYEE, two_snaks, TABLE)
    with pytest.raises(WbforgeError, match="not an absolute IRI"):
        Iri(f"{WD}T1;{PR}payslip|{WD}T2")     # an Iri cannot spell out both snaks
    half = Iri(f"{WD}T1;{PR}payslip")
    one_snak = StatementData("hasJob", JOB, (), (RefData((SnakData("taxRecord", half),)),))
    for stmt_fn in (canonical_content, statement_hash, statement_node):
        with pytest.raises(PreimageDelimiterError):
            stmt_fn(EMPLOYEE, one_snak, TABLE)
    for target in (WD + "T1;x", "urn:;"):
        ref = RefData((SnakData("taxRecord", Iri(target)),))
        with pytest.raises(PreimageDelimiterError):
            reference_hash(ref, TABLE)
        with pytest.raises(PreimageDelimiterError):
            canonical_content(EMPLOYEE, StatementData("hasJob", JOB, (), (ref,)), TABLE)


def _adversarial_statement(rng: random.Random) -> StatementData:
    """A small statement whose IRIs and strings often hold `|`, `;` and
    text copied from other preimage lines. Each qualifier name has one
    value kind, as a schema declares it."""
    def iri() -> Iri:                   # an Iri cannot hold `|`
        return Iri(rng.choice((
            WD + "T1", WD + "T2", WD + "T1;x", WD + "T1;",
            f"{WD}T1;{PR}b", f"{WD}T1;{PR}b;{WD}T2")))

    def value(kind: str):
        if kind == "item":
            return ItemRef(iri())
        if kind == "string":
            return StringValue(rng.choice(("x", "x|y", "x;y", "x\ny", "x\\ny", f"T1;{PR}b|T2")))
        if kind == "decimal":
            return DecimalValue(rng.choice(("1", "1.5")), iri())
        return DateTimeValue("2001-01-01T00:00:00Z", rng.choice((9, 11)), 0, iri())

    kinds = {"qi": "item", "qs": "string", "qd": "decimal", "qt": "datetime"}
    quals = tuple(QualifierData(name, value(kinds[name]))
                  for name in rng.choices(sorted(kinds), k=rng.randint(0, 2)))
    refs = tuple(RefData(tuple(SnakData(rng.choice("ab"), iri())
                               for _ in range(rng.randint(1, 2))))
                 for _ in range(rng.randint(0, 2)))
    return StatementData("hasJob", value("item"), quals, refs)


def _content_key(stmt: StatementData) -> tuple:
    """What a statement says, with qualifier, reference and snak order dropped."""
    refs = sorted(repr(sorted(map(repr, ref.snaks))) for ref in stmt.references)
    return stmt.property, repr(stmt.value), tuple(sorted(map(repr, stmt.qualifiers))), tuple(refs)


@pytest.mark.parametrize("seed", range(5))
def test_distinct_statements_give_distinct_preimages(seed):
    rng = random.Random(4000 + seed)
    seen: dict[str, tuple] = {}
    rejected = 0
    for _ in range(3000):
        stmt = _adversarial_statement(rng)
        try:
            preimage = canonical_content(EMPLOYEE, stmt, TABLE)
        except PreimageDelimiterError:
            assert any(c in s.target.value for r in stmt.references for s in r.snaks
                       for c in "|;")
            rejected += 1
            continue
        assert seen.setdefault(preimage, _content_key(stmt)) == _content_key(stmt)
    assert rejected and len(seen) > 100


# a value's node kind, by its exact class; None for items and strings
KIND_BY_TYPE = {kind.value_type: kind for kind in VALUE_KINDS.values()}


def test_value_kind_is_looked_up_by_exact_class():
    # the exporter keys on type(value), which is only right while no subclasses exist
    for cls in (ItemRef, StringValue, DecimalValue, DateTimeValue):
        assert cls.__subclasses__() == []
    for kind in VALUE_KINDS.values():
        value = DecimalValue("1") if kind.value_type is DecimalValue else AT_TIME.value
        assert KIND_BY_TYPE.get(type(value)) is kind
    assert ItemRef not in KIND_BY_TYPE and StringValue not in KIND_BY_TYPE


def _instances(statements=(), extra_items=()):
    text = ["item wd:employee0 : ex:Employee {"]
    text.extend(statements)
    text.append("}")
    text.append("item wd:job0 : ex:Job { }")
    text.extend(extra_items)
    return parse_instances("prefix ex: <http://example.org/>\n" + "\n".join(text))


def test_export_emits_reification_and_types():
    inst = _instances([
        "ex:hasJob -> item wd:job0 {",
        "  qualifier ex:atTime = datetime 2001-01-01T00:00:00Z",
        "  reference { ex:taxRecord -> item wd:doc1 }",
        "}",
    ], extra_items=["item wd:doc1 : ex:Job { }"])
    g = export(SCHEMA, inst)
    snode = Iri(DEFAULT_ROOT + "entity/statement/employee0-" + oracle.HASH_REFERENCED)

    def iri(text):
        return Iri(DEFAULT_ROOT + text)

    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    wikibase = "http://wikiba.se/ontology#"
    assert Triple(EMPLOYEE, iri("prop/hasJob"), snode) in g
    assert Triple(snode, iri("prop/statement/hasJob"), JOB.iri) in g
    assert Triple(EMPLOYEE, iri("prop/direct/hasJob"), JOB.iri) in g
    # declared class and the generic item class
    assert Triple(EMPLOYEE, rdf_type, Iri("http://example.org/Employee")) in g
    assert Triple(EMPLOYEE, rdf_type, Iri(wikibase + "Item")) in g
    assert Triple(snode, rdf_type, Iri(wikibase + "Statement")) in g
    # qualifier edge carries the simple literal; pqv points at the value node
    vnode = Iri(DEFAULT_ROOT + "value/" + oracle.HASH_TIME_NODE)
    assert Triple(snode, iri("prop/qualifier/atTime"),
                  Literal("2001-01-01T00:00:00Z",
                          Iri("http://www.w3.org/2001/XMLSchema#dateTime"))) in g
    assert Triple(snode, iri("prop/qualifier/value/atTime"), vnode) in g
    # reference node typed and linked
    rnode = Iri(DEFAULT_ROOT + "reference/" + oracle.HASH_REFERENCE
                + "-" + oracle.HASH_REFERENCED[:8])
    assert Triple(snode, Iri("http://www.w3.org/ns/prov#wasDerivedFrom"), rnode) in g
    assert Triple(rnode, rdf_type, Iri(wikibase + "Reference")) in g
    assert Triple(rnode, iri("prop/reference/taxRecord"), Iri(WD + "doc1")) in g


def test_export_deterministic_bytes():
    inst = _instances([
        "ex:hasJob -> item wd:job0 {",
        "  reference { ex:taxRecord -> item wd:doc1 }",
        "}",
    ], extra_items=["item wd:doc1 : ex:Job { }"])
    assert serialize_canonical(export(SCHEMA, inst)) == \
        serialize_canonical(export(SCHEMA, inst))


def test_value_nodes_are_shared_by_content():
    # the same date in two statements lands on one node
    inst = parse_instances("""
prefix ex: <http://example.org/>
item wd:employee0 : ex:Employee {
  ex:hasJob -> item wd:job0 {
    qualifier ex:atTime = datetime 2001-01-01T00:00:00Z
    reference { ex:taxRecord -> item wd:doc1 }
  }
  ex:hasJob -> item wd:doc1 {
    qualifier ex:atTime = datetime 2001-01-01T00:00:00Z
    reference { ex:taxRecord -> item wd:doc1 }
  }
}
item wd:job0 : ex:Job { }
item wd:doc1 : ex:Job { }
""")
    g = export(SCHEMA, inst)
    vnode = Iri(DEFAULT_ROOT + "value/" + oracle.HASH_TIME_NODE)
    field = Iri("http://wikiba.se/ontology#timeValue")
    assert len(g.match(None, field, None)) == 1
    assert len(g.match(None, None, vnode)) == 2  # two pqv edges, one node


def test_reference_nodes_are_per_statement():
    inst = parse_instances("""
prefix ex: <http://example.org/>
item wd:employee0 : ex:Employee {
  ex:hasJob -> item wd:job0 { reference { ex:taxRecord -> item wd:doc1 } }
  ex:hasJob -> item wd:doc1 { reference { ex:taxRecord -> item wd:doc1 } }
}
item wd:job0 : ex:Job { }
item wd:doc1 : ex:Job { }
""")
    g = export(SCHEMA, inst)
    prov = Iri("http://www.w3.org/ns/prov#wasDerivedFrom")
    nodes = {t.o for t in g.match(None, prov, None)}
    assert len(nodes) == 2
    # same content hash, different statement suffix
    assert {n.value.rsplit("-", 1)[0] for n in nodes} == \
        {DEFAULT_ROOT + "reference/" + oracle.HASH_REFERENCE}


# Two items whose "Anna" statements cite one source and whose statement hashes
# share their first 8 hex digits, found by hashing that statement under the
# subjects wd:a0, wd:a1, ...: both would mint one reference name.
NAME_RECORD_PAIR = """
prefix rec: <http://records.example/vocab/>
item wd:a26779 : rec:Agent {
  rec:hasNameRecord -> string "Anna" { reference { rec:isDirectlyBasedOn -> item wd:src } }
}
item wd:a154832 : rec:Agent {
  rec:hasNameRecord -> string "Anna" { reference { rec:isDirectlyBasedOn -> item wd:src } }
}
item wd:src : rec:SourceDocument { }
"""


def test_export_refuses_two_statements_that_mint_one_reference_name():
    schema = load_fixture("name-record")[0]
    inst = parse_instances(NAME_RECORD_PAIR)
    first, second = (statement_hash(item.iri, item.statements[0], schema.namespaces)
                     for item in inst.items[:2])
    assert first != second and first[:8] == second[:8] == "764d46f3"
    with pytest.raises(ReferenceNameCollisionError) as exc:
        export(schema, inst)
    assert re.fullmatch(DEFAULT_ROOT + r"reference/5ba0c313[0-9a-f]{32}-764d46f3", exc.value.name)
    assert (exc.value.first, exc.value.second) == (
        DEFAULT_ROOT + "entity/a26779", DEFAULT_ROOT + "entity/a154832")
    assert f"<{exc.value.name}>" in str(exc.value)
    assert f"<{exc.value.first}>" in str(exc.value) and f"<{exc.value.second}>" in str(exc.value)


def test_a_statement_repeated_verbatim_on_one_item_is_one_node_and_exports():
    schema = load_fixture("name-record")[0]
    anna = ('  rec:hasNameRecord -> string "Anna" '
            "{ reference { rec:isDirectlyBasedOn -> item wd:src } }\n")

    def wbi(statements):
        return ("prefix rec: <http://records.example/vocab/>\n"
                "item wd:a26779 : rec:Agent {\n" + statements + "}\n"
                "item wd:src : rec:SourceDocument { }\n")

    g = export(schema, parse_instances(wbi(anna * 2)))
    assert g == export(schema, parse_instances(wbi(anna)))
    prov = Iri("http://www.w3.org/ns/prov#wasDerivedFrom")
    assert len(g.match(None, prov, None)) == 1


def test_export_rejections():
    # wrong object kind
    with pytest.raises(TypeMismatchError) as exc:
        export(SCHEMA, _instances(['ex:hasJob -> string "oops"']))
    assert exc.value.expected == "item" and exc.value.got == "string"
    # missing required reference
    with pytest.raises(MissingRequiredError):
        export(SCHEMA, _instances(["ex:hasJob -> item wd:job0"]))
    # undeclared statement property
    with pytest.raises(UnresolvedNameError):
        export(SCHEMA, _instances(["ex:nope -> item wd:job0"]))
    # undeclared qualifier name
    with pytest.raises(UnresolvedNameError):
        export(SCHEMA, _instances([
            "ex:hasJob -> item wd:job0 {",
            "  qualifier ex:mystery = string \"x\"",
            "  reference { ex:taxRecord -> item wd:doc1 }",
            "}",
        ], extra_items=["item wd:doc1 : ex:Job { }"]))
    # reference using an undeclared snak name
    with pytest.raises(UnresolvedNameError):
        export(SCHEMA, _instances([
            "ex:hasJob -> item wd:job0 { reference { ex:mystery -> item wd:doc1 } }",
        ], extra_items=["item wd:doc1 : ex:Job { }"]))
    # object item not declared in the document
    with pytest.raises(UnresolvedNameError):
        export(SCHEMA, parse_instances(
            "prefix ex: <http://example.org/>\n"
            "item wd:employee0 : ex:Employee {"
            " ex:hasJob -> item wd:ghost { reference { ex:taxRecord -> item wd:doc1 } } }\n"
            "item wd:doc1 : ex:Job { }"))
    # item typed with an undeclared class
    with pytest.raises(UnresolvedNameError):
        export(SCHEMA, parse_instances(
            "prefix ex: <http://example.org/>\n"
            "item wd:employee0 : ex:Ghost { }"))
    # wrong qualifier kind
    with pytest.raises(TypeMismatchError):
        export(SCHEMA, _instances([
            "ex:hasJob -> item wd:job0 {",
            "  qualifier ex:atTime = string \"yesterday\"",
            "  reference { ex:taxRecord -> item wd:doc1 }",
            "}",
        ], extra_items=["item wd:doc1 : ex:Job { }"]))


ORDER_SCHEMA = parse_schema("""
prefix ex: <http://example.org/>
class ex:Employee
class ex:Job
statement ex:hasJob {
  subject ex:Employee
  object item ex:Job
  qualifier ex:atTime : datetime required
  reference ex:taxRecord -> item ex:Job required
  reference ex:payslip -> item ex:Job
}
""")
DELIMITED = WD + "doc;1"                 # a declared item whose IRI holds `;`
AT = "qualifier ex:atTime = datetime 2001-01-01T00:00:00Z"
TAX = "reference { ex:taxRecord -> item wd:job0 }"


@pytest.mark.parametrize("statements, error, name", [
    # the object's kind, then each qualifier, then the required qualifiers,
    # then each snak, then the required references, then the preimage
    (['ex:hasJob -> string "x" { qualifier ex:mystery = string "y" }'],
     TypeMismatchError, "hasJob"),
    (['ex:hasJob -> item wd:job0 { qualifier ex:mystery = string "y" }'],
     UnresolvedNameError, "mystery"),
    (['ex:hasJob -> item wd:job0 { qualifier ex:atTime = string "y" }'],
     TypeMismatchError, "hasJob/atTime"),
    (["ex:hasJob -> item wd:job0 { reference { ex:mystery -> item wd:job0 } }"],
     MissingRequiredError, "hasJob/atTime"),
    ([f"ex:hasJob -> item wd:job0 {{ {AT} reference {{ ex:mystery -> item wd:job0 }} }}"],
     UnresolvedNameError, "mystery"),
    ([f"ex:hasJob -> item wd:job0 {{ {AT} reference {{ ex:payslip -> item wd:ghost }} }}"],
     UnresolvedNameError, WD + "ghost"),
    ([f"ex:hasJob -> item wd:job0 {{ {AT} reference {{ ex:payslip -> item <{DELIMITED}> }} }}"],
     MissingRequiredError, "hasJob/taxRecord"),
    ([f"ex:hasJob -> item wd:job0 {{ {AT} {TAX} "
      f"reference {{ ex:payslip -> item <{DELIMITED}> }} }}"],
     PreimageDelimiterError, DELIMITED),
    # a declaration's checks, worked out once, still apply to its later statements
    ([f"ex:hasJob -> item wd:job0 {{ {AT} {TAX} }}", f"ex:hasJob -> item wd:job0 {{ {TAX} }}"],
     MissingRequiredError, "hasJob/atTime"),
    ([f"ex:hasJob -> item wd:job0 {{ {AT} {TAX} }}", "ex:nope -> item wd:job0"],
     UnresolvedNameError, "nope"),
])
def test_export_checks_run_in_order(statements, error, name):
    inst = _instances(statements, extra_items=[f"item <{DELIMITED}> : ex:Job {{ }}"])
    with pytest.raises(error) as exc:
        export(ORDER_SCHEMA, inst)
    assert (exc.value.iri if error is PreimageDelimiterError else exc.value.name) == name


GOOD = f"ex:hasJob -> item wd:job0 {{ {AT} {TAX} }}"
PLACE = f"item <{WD}employee0>, statement"


@pytest.mark.parametrize("statements, error, message", [
    (['ex:hasJob -> string "x"'], TypeMismatchError,
     f"{PLACE} 1: hasJob: expected item, got string"),
    ([GOOD, 'ex:hasJob -> item wd:job0 { qualifier ex:atTime = string "y" }'],
     TypeMismatchError, f"{PLACE} 2: hasJob/atTime: expected datetime, got string"),
    ([GOOD, GOOD, 'ex:hasJob -> item wd:job0 { qualifier ex:mystery = string "y" }'],
     UnresolvedNameError,
     f"{PLACE} 3: name 'mystery' does not resolve against the schema "
     "(qualifier not declared on hasJob)"),
    ([GOOD, f"ex:hasJob -> item wd:job0 {{ {AT} reference {{ ex:payslip -> item wd:ghost }} }}"],
     UnresolvedNameError,
     f"{PLACE} 2: name '{WD}ghost' does not resolve against the schema "
     "(item not declared (hasJob/payslip))"),
    (["ex:hasJob -> item wd:ghost"], UnresolvedNameError,
     f"{PLACE} 1: name '{WD}ghost' does not resolve against the schema "
     "(item not declared (hasJob))"),
    ([GOOD, "ex:nope -> item wd:job0"], UnresolvedNameError,
     f"{PLACE} 2: name 'nope' does not resolve against the schema "
     "(statement property not declared)"),
    ([f"ex:hasJob -> item wd:job0 {{ {TAX} }}"], MissingRequiredError,
     f"{PLACE} 1: required hasJob/atTime is missing"),
    ([GOOD, f"ex:hasJob -> item wd:job0 {{ {AT} }}"], MissingRequiredError,
     f"{PLACE} 2: required hasJob/taxRecord is missing"),
])
def test_a_statement_data_error_names_its_item_and_place(statements, error, message):
    # the place leads the message; the type and its name are as before
    with pytest.raises(error) as exc:
        export(ORDER_SCHEMA, _instances(statements))
    assert str(exc.value) == message
    assert exc.value.name in message


def test_an_item_error_names_no_statement():
    with pytest.raises(UnresolvedNameError) as exc:
        export(ORDER_SCHEMA, parse_instances(
            "prefix ex: <http://example.org/>\nitem wd:employee0 : ex:Ghost { }"))
    assert str(exc.value) == ("name 'http://example.org/Ghost' does not resolve against "
                              "the schema (class not declared)")


def test_the_adapter_joins_a_value_nodes_fields():
    # a date or quantity reads as its node's field texts in ValueKind order,
    # joined by '|', as an object and as a qualifier value alike
    rng = random.Random(11)
    units = (Iri(WD + "One"), Iri(WD + "metre"), Iri("urn:x:unit"))
    values = []
    for _ in range(200):
        d, t = random_decimal(rng), random_datetime(rng)
        values.append(DecimalValue(d.amount, rng.choice(units)))
        values.append(DateTimeValue(t.iso, t.precision, t.timezone, rng.choice(units)))
    for value in values:
        fields = KIND_BY_TYPE[type(value)].fields
        joined = "|".join(str(getattr(value, attr)) for _, attr, _ in fields)
        assert statement_content(StatementData("hasJob", value), TABLE)[1] == joined
        qualified = StatementData("hasJob", JOB, (QualifierData("amount", value),))
        assert statement_content(qualified, TABLE)[2] == ((TABLE.term("pq", "amount"), joined),)


def test_generic_item_class_is_always_allowed():
    doc = parse_schema(
        "prefix ex: <http://example.org/>\n"
        "statement ex:link { subject wikibase:Item object item wikibase:Item }")
    inst = parse_instances(
        "prefix ex: <http://example.org/>\n"
        "item wd:a : wikibase:Item { ex:link -> item wd:b }\n"
        "item wd:b : wikibase:Item { }")
    g = export(doc, inst)
    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    # declared class IS the generic class: one type triple per item
    assert len(g.match(Iri(WD + "a"), rdf_type, None)) == 1


def test_random_documents_export_without_error():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        schema = random_schema(rng)
        inst = random_instances(rng, schema)
        g = export(schema, inst)
        assert len(g) >= len(inst.items)  # at least the type triples


@pytest.mark.parametrize("case", FIXTURE_NAMES + tuple(range(50)))
def test_read_back_inverts_export(case):
    """Reading a node back yields content that names the same node."""
    if isinstance(case, str):
        schema, instances = load_fixture(case)
    else:
        rng = random.Random(2000 + case)
        schema = random_schema(rng)
        instances = random_instances(rng, schema)
    table = schema.namespaces
    expanded = expand(schema)
    g = export(schema, instances)
    for item in instances.items:
        for stmt in item.statements:
            node = statement_node(item.iri, stmt, table)
            read = read_statement(g, node, expanded.statement(stmt.property), table)
            assert statement_node(item.iri, read, table) == node
            for value in (stmt.value, *(q.value for q in stmt.qualifiers)):
                kind = KIND_BY_TYPE.get(type(value))
                if kind is not None:
                    vnode = value_node(value, table)
                    assert read_value_node(g, vnode, kind, table) == value


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_export_hashes_each_statement_once(name, monkeypatch):
    from wbforge import exporter

    schema, instances = load_fixture(name)
    table = schema.namespaces
    calls = []

    def counting(subject, content, table_):
        calls.append(content)
        return statement_hash(subject, content, table_)

    monkeypatch.setattr(exporter, "statement_hash", counting)
    g = export(schema, instances)
    # one content tuple per statement, the graph terms the model adapter gives
    statements = [s for item in instances.items for s in item.statements]
    assert all(type(content) is tuple for content in calls)
    assert calls == [statement_content(s, table) for s in statements]
    for item in instances.items:
        for stmt in item.statements:
            assert statement_node(item.iri, stmt, schema.namespaces) in {t.o for t in g}


_HASH_ROOT = "http://hash.example/ns#"     # a root ending in '#', so item local names hold '/'
_HEX40 = "[0-9a-f]{40}"


def _rooted(case, root: str):
    """A fixture, or a `random_schema`/`random_instances` seed, under `root`."""
    if isinstance(case, str):
        return (parse_schema(fixture_path(case, "wbs").read_text(), root),
                parse_instances(fixture_path(case, "wbi").read_text(), root))
    rng = random.Random(case)
    schema = random_schema(rng)
    schema = dataclasses.replace(schema, namespaces=NamespaceTable(root, schema.namespaces.user))
    return schema, random_instances(rng, schema)


@pytest.mark.parametrize("root", [DEFAULT_ROOT, _HASH_ROOT], ids=["default", "hash"])
@pytest.mark.parametrize("case", FIXTURE_NAMES + tuple(range(50)))
def test_minted_names_are_a_checked_head_and_hex_digits(case, root):
    # export checks no minted name itself: each is a checked head followed by
    # hex digits and '-', which keep an absolute IRI one
    schema, instances = _rooted(case, root)
    table = schema.namespaces
    g = export(schema, instances)
    owner = {node: s for st in expand(schema).statements
             for s, _, node in g.with_predicate(st.p)}
    typed = {}
    for node, _, cls in g.with_predicate(RDF_TYPE):
        typed.setdefault(cls, []).append(node)
    shapes = [(node, re.escape(exporter.statement_name_head(owner[node], table)) + _HEX40)
              for node in typed.get(WB_STATEMENT, ())]
    shapes += [(node, re.escape(table.base("v")) + _HEX40)
               for kind in VALUE_KINDS.values() for node in typed.get(kind.class_iri, ())]
    shapes += [(node, re.escape(table.base("ref")) + _HEX40 + "-[0-9a-f]{8}")
               for node in typed.get(WB_REFERENCE, ())]
    claims = {(item.iri, stmt) for item in instances.items for stmt in item.statements}
    assert len(typed.get(WB_STATEMENT, ())) == len(claims)
    for node, shape in shapes:
        assert iri_text(node) == node
        assert re.fullmatch(shape, node), node


def _snak_tuples(instances):
    """Each reference's snaks as export meets them, first meeting only."""
    return list(dict.fromkeys(ref.snaks for item in instances.items
                              for stmt in item.statements for ref in stmt.references))


# two statements share one reference's snaks and two share another's
_SHARED_SOURCES_TEXT = """
prefix ex: <http://example.org/>
item wd:employee0 : ex:Employee {
  ex:hasJob -> item wd:job0 {
    qualifier ex:atTime = datetime 2001-01-01T00:00:00Z
    reference { ex:taxRecord -> item wd:doc1 }
  }
  ex:hasJob -> item wd:job1 {
    reference { ex:taxRecord -> item wd:doc1 }
    reference { ex:taxRecord -> item wd:doc2 }
  }
}
item wd:employee1 : ex:Employee {
  ex:hasJob -> item wd:job0 {
    qualifier ex:atTime = datetime 2001-01-01T00:00:00Z
    reference { ex:taxRecord -> item wd:doc2 }
  }
}
item wd:job0 : ex:Job { }
item wd:job1 : ex:Job { }
item wd:doc1 : ex:Job { }
item wd:doc2 : ex:Job { }
"""


@pytest.mark.parametrize("case", ("shared-sources",) + FIXTURE_NAMES + tuple(range(10)))
def test_export_hashes_each_snak_tuple_once(case, monkeypatch):
    if case == "shared-sources":
        schema, instances = SCHEMA, parse_instances(_SHARED_SOURCES_TEXT)
    else:
        schema, instances = _rooted(case, DEFAULT_ROOT)
    table = schema.namespaces
    calls = []

    def counting(snaks, table_):
        calls.append(snaks)
        return reference_hash(snaks, table_)

    monkeypatch.setattr(exporter, "reference_hash", counting)
    # one (pr:, target) tuple per snak tuple, the graph terms the model adapter
    # gives, in the order export first meets them
    expected = list(dict.fromkeys(snaks for item in instances.items for stmt in item.statements
                                  for snaks in statement_content(stmt, table)[3]))
    assert len(expected) == len(_snak_tuples(instances))
    for _ in range(2):            # the memo lasts one export
        calls.clear()
        g = export(schema, instances)
        assert all(type(snaks) is tuple for snaks in calls)
        assert calls == expected
    if case == "shared-sources":
        assert len(calls) == 2 and len(list(g.with_predicate(PROV_WAS_DERIVED_FROM))) == 4


def _typed_names(g, cls, base):
    """The names of the nodes typed `cls`, each without `base`, which it starts with."""
    nodes = [s for s, _, o in g.with_predicate(RDF_TYPE) if o == cls]
    assert nodes and all(node.startswith(base) for node in nodes)
    return sorted(node[len(base):] for node in nodes)


def test_exports_under_two_roots_share_no_state():
    # what one export hashed is its own: the same instances under a root give
    # the same bytes whichever export, under whichever root, ran before
    instances = parse_instances(_SHARED_SOURCES_TEXT)
    schemas = {root: parse_schema(SCHEMA_TEXT, root)
               for root in (DEFAULT_ROOT, "http://other.example/")}
    first = {root: serialize_canonical(export(schema, instances))
             for root, schema in schemas.items()}
    graphs = {root: export(schema, instances) for root, schema in reversed(schemas.items())}
    assert {root: serialize_canonical(g) for root, g in graphs.items()} == first
    names = {}
    for root, schema in schemas.items():
        table, g = schema.namespaces, graphs[root]
        assert set(g.subjects(RDF_TYPE, WB_REFERENCE)) == {
            reference_node(ref, statement_hash(item.iri, stmt, table), table)
            for item in instances.items for stmt in item.statements for ref in stmt.references}
        names[root] = [_typed_names(g, VALUE_KINDS[Datatype.DATETIME].class_iri,
                                    table.base("v")),
                       _typed_names(g, WB_REFERENCE, table.base("ref"))]
    # a value node's hash holds its value alone, so its name differs only in
    # the base; a reference node's hash holds its pr: IRIs, which the root moves
    (values, refs), (other_values, other_refs) = names.values()
    assert values == other_values
    assert len(refs) == len(other_refs) == 4 and not set(refs) & set(other_refs)


def test_read_back_of_a_literal_reference_target_is_none():
    schema, instances = load_fixture("age-record")
    table = schema.namespaces
    st = expand(schema).statement("hasAgeRecord")
    ((_, pr),) = st.references.values()
    g = export(schema, instances)
    item = instances.items[0]
    node = statement_node(item.iri, item.statements[0], table)
    assert read_statement(g, node, st, table) is not None
    for t in g.match(None, pr, None):
        g.discard(t)
        g.add(Triple(t.s, pr, Literal(t.o.local_name)))
    assert read_statement(g, node, st, table) is None


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_no_layer_resolves_a_fixed_term_through_a_table(name, monkeypatch):
    # the fixed terms are the same under every table, so they are constants;
    # a new table, whose memos are empty, shows every term a layer asks for
    schema, instances = load_fixture(name)
    asked = []
    term = NamespaceTable.term

    def counted(self, prefix, local):
        if prefix in ("rdf", "wikibase", "xsd", "prov"):
            asked.append((prefix, local))
        return term(self, prefix, local)

    monkeypatch.setattr(NamespaceTable, "term", counted)
    g = export(schema, instances)
    assert validate(schema, g).passed
    assert schema_axioms(schema) and schema_shapes(schema).shapes
    assert expansion_report(expand(schema))
    assert asked == []


_FIXED_PREFIXES = ("wikibase", "prov", "xsd", "rdf", "rdfs", "owl")


@pytest.mark.parametrize("table", [
    NamespaceTable(),
    NamespaceTable("http://other.example/"),
    NamespaceTable().with_prefix("ex", "http://example.org/").with_prefix(
        "rec", "http://records.example/vocab#"),
], ids=["default", "rebased", "user-prefixes"])
def test_fixed_terms_are_every_tables_terms(table):
    term = table.term
    for prefix in _FIXED_PREFIXES:
        assert fixed_term(prefix, "x") == term(prefix, "x")
    assert RDF_TYPE == term("rdf", "type")
    assert WB_ITEM == term("wikibase", "Item")
    assert WB_STATEMENT == term("wikibase", "Statement")
    assert WB_REFERENCE == term("wikibase", "Reference")
    assert PROV_WAS_DERIVED_FROM == term("prov", "wasDerivedFrom")
    assert XSD == {Datatype.STRING: term("xsd", "string"), Datatype.DECIMAL: term("xsd", "decimal"),
                   Datatype.DATETIME: term("xsd", "dateTime"), Datatype.INT: term("xsd", "int")}
    assert XSD_STRING == term("xsd", "string")
    assert KIND_BY_XSD == {term("xsd", "dateTime"): VALUE_KINDS[Datatype.DATETIME],
                           term("xsd", "decimal"): VALUE_KINDS[Datatype.DECIMAL]}
    for kind in VALUE_KINDS.values():
        assert kind.class_iri == term("wikibase", kind.node_class)
        assert kind.predicates == tuple(term("wikibase", local) for local, _, _ in kind.fields)


def test_property_name_is_kept_without_touching_equality():
    decl, twin = (load_fixture("sex-record")[0].statements[0] for _ in range(2))
    assert decl.property_name == "hasSexRecord"
    assert decl.property_name is decl.property_name
    assert decl == twin and hash(decl) == hash(twin) and repr(decl) == repr(twin)
