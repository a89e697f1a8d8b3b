"""Exporter: content hashing, node identity, triple emission, rejection."""

import random

import pytest

import hash_oracle as oracle
from generators import random_instances, random_schema
from wbforge.dsl import parse_instances, parse_schema
from wbforge.errors import (
    MissingRequiredError,
    TypeMismatchError,
    UnresolvedNameError,
)
from wbforge.exporter import (
    canonical_content,
    export,
    read_statement,
    read_value_node,
    reference_hash,
    reference_node,
    statement_hash,
    statement_node,
    value_hash,
    value_node,
)
from wbforge.fixtures import FIXTURE_NAMES, load_fixture
from wbforge.model import (
    DateTimeValue,
    DecimalValue,
    ItemRef,
    QualifierData,
    RefData,
    SnakData,
    StatementData,
    StringValue,
    value_kind,
)
from wbforge.namespaces import DEFAULT_ROOT, Iri, NamespaceTable
from wbforge.rdf import Literal, Triple, serialize_canonical

TABLE = NamespaceTable()
WD = DEFAULT_ROOT + "entity/"

SCHEMA = parse_schema("""
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
""")

EMPLOYEE = Iri(WD + "employee0")
JOB = ItemRef(Iri(WD + "job0"))
AT_TIME = QualifierData("atTime", DateTimeValue("2001-01-01T00:00:00Z"))
TAX_REF = RefData((SnakData("taxRecord", Iri(WD + "doc1")),))


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
    g = export(schema, instances)
    for item in instances.items:
        for stmt in item.statements:
            node = statement_node(item.iri, stmt, table)
            decl = schema.statement_decl(stmt.property)
            read = read_statement(g, node, decl, table)
            assert statement_node(item.iri, read, table) == node
            for value in (stmt.value, *(q.value for q in stmt.qualifiers)):
                if value_kind(value) is not None:
                    vnode = value_node(value, table)
                    assert read_value_node(g, vnode, value_kind(value), table) == value
