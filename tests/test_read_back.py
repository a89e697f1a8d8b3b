"""Read-back: the hash check's preimage against the reference model read.

The validator hashes a statement node from the graph terms its own checks
read, sent straight to `assemble_preimage`. `reference_read` keeps the
earlier separate walk: `read_content` gives the same terms, and
`read_statement` builds the model `StatementData`, which `canonical_content`
turns into them through the model adapter. All must give one preimage for
every node, and fail together, on clean, mutated and randomly edited
graphs. Export and the validator must hand `statement_hash` one content
for each statement node. The checker's value-node reader is held to the
reference's `read_value_node` on the same graphs.
"""

import random
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402
import hash_oracle as oracle
from generators import random_instances, random_schema
from reference_read import read_content, read_statement, read_value_node
from report_corpus import _edit
from wbforge import exporter, validator
from wbforge.errors import PreimageDelimiterError
from wbforge.expander import expand
from wbforge.dsl import parse_instances, parse_schema
from wbforge.exporter import (
    assemble_preimage,
    canonical_content,
    export,
    statement_content,
    statement_hash,
    statement_name_head,
    value_node,
)
from wbforge.fixtures import FIXTURE_NAMES, MUTATIONS, load_bundle
from wbforge.model import VALUE_KINDS, DateTimeValue, DecimalValue
from wbforge.namespaces import DEFAULT_ROOT, RDF_TYPE, WB_STATEMENT, Iri, NamespaceTable
from wbforge.rdf import Graph, Literal, Triple
from wbforge.validator import validate

_ELSEWHERE = Iri("http://elsewhere.example/subject")


def _model_preimage(g, node, st, table, subject):
    """`canonical_content` of the model read, or the error it raises, or None."""
    stmt = read_statement(g, node, st, table)
    if stmt is None:
        return None
    try:
        return canonical_content(subject, stmt, table)
    except PreimageDelimiterError as exc:
        return exc.iri


def _content_preimage(content, subject):
    try:
        return assemble_preimage(subject, *content)
    except PreimageDelimiterError as exc:
        return exc.iri


def _assert_reads_agree(schema, g):
    """Every statement node under every declaration, read both ways."""
    table = schema.namespaces
    expanded = expand(schema)
    ps = {st.ps for st in expanded.statements}
    nodes = g.subjects(RDF_TYPE, WB_STATEMENT) + [t.s for t in g if t.p in ps]
    read = 0
    for node in sorted(set(nodes)):
        subjects = [t.s for t in g.match(None, None, node)] or [_ELSEWHERE]
        for st in expanded.statements:
            content = read_content(g, node, st, table)
            for subject in subjects:
                want = _model_preimage(g, node, st, table, subject)
                if content is None:
                    assert want is None, node
                else:
                    assert _content_preimage(content, subject) == want, node
                    read += 1
    return read


def _assert_check_hashes_the_model_read(schema, g, monkeypatch):
    """The hash check hashes what `read_statement` reads, node by node.

    Of the statement nodes with one p: owner and the name export mints
    for that owner, it hashes exactly those the reference reads, each
    once and in no particular order, and each content it hashes gives
    that read's preimage.
    Gives the number of nodes hashed.
    """
    table = schema.namespaces
    expanded = expand(schema)
    hashed = []

    def recording_hash(subject, content, table_):
        hashed.append((subject, _content_preimage(content, subject)))
        return statement_hash(subject, content, table_)

    monkeypatch.setattr(validator, "statement_hash", recording_hash)
    validate(schema, g)
    monkeypatch.undo()
    expected = []
    for node in g.subjects(RDF_TYPE, WB_STATEMENT):
        owners = [(t.s, spl[1]) for t in g.match(None, None, node)
                  if (spl := table.split(t.p)) is not None and spl[0] == "p"]
        if len(owners) != 1:
            continue
        subject, name = owners[0]
        # the name export mints for this owner: its local name, '-' and a hash
        addressed = re.escape(f"{table.base('s')}{subject.local_name}-") + "[0-9a-f]{40}"
        if re.fullmatch(addressed, node.value) is None:
            continue
        st = expanded.statement(name)
        if st is not None and read_statement(g, node, st, table) is not None:
            expected.append((subject, _model_preimage(g, node, st, table, subject)))
    assert sorted(hashed) == sorted(expected)
    return len(hashed)


def _recipe_cases():
    cases = []
    for owner, mutations in MUTATIONS.items():
        for m in mutations:
            for name in FIXTURE_NAMES:
                try:
                    m.apply(load_bundle(name))
                except (IndexError, AttributeError):
                    assert name != owner       # a recipe applies to its own fixture
                    continue                   # names a node this fixture lacks
                cases.append(pytest.param(name, m, id=f"{name}-{m.code}"))
    return cases


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_clean_fixtures_read_back_alike(name, monkeypatch):
    b = load_bundle(name)
    assert _assert_reads_agree(b.schema, b.graph) > 0
    assert _assert_check_hashes_the_model_read(b.schema, b.graph, monkeypatch) > 0


@pytest.mark.parametrize("name,mutation", _recipe_cases())
def test_mutated_fixtures_read_back_alike(name, mutation, monkeypatch):
    b = load_bundle(name)
    g = mutation.apply(b)
    _assert_reads_agree(b.schema, g)
    _assert_check_hashes_the_model_read(b.schema, g, monkeypatch)


@pytest.mark.parametrize("seed", range(100))
def test_edited_random_exports_read_back_alike(seed, monkeypatch):
    # the report corpus's graphs: a seeded export, then five seeded edits
    rng = random.Random(seed)
    schema = random_schema(rng)
    g = export(schema, random_instances(rng, schema))
    _assert_reads_agree(schema, g)
    for _ in range(5):
        edited = _edit(g, rng)
        _assert_reads_agree(schema, edited)
        _assert_check_hashes_the_model_read(schema, edited, monkeypatch)


def _export_handing(schema, instances, monkeypatch):
    """The export of `instances`, and the content export hands `statement_hash`
    for each statement node, by node."""
    handed = {}

    def recording_hash(subject, content, table):
        h = statement_hash(subject, content, table)
        handed[statement_name_head(subject, table) + h] = content
        return h

    monkeypatch.setattr(exporter, "statement_hash", recording_hash)
    g = export(schema, instances)
    monkeypatch.undo()
    return g, handed


def _validator_handing(schema, g, monkeypatch):
    """The content the validator hands `statement_hash` for each statement node, by node."""
    handed, checking = {}, []
    check_hash = validator._Checker.check_hash

    def recording_check(self, node, subject, content):
        checking[:] = [node]
        return check_hash(self, node, subject, content)

    def recording_hash(subject, content, table):
        handed[checking[0]] = content
        return statement_hash(subject, content, table)

    monkeypatch.setattr(validator._Checker, "check_hash", recording_check)
    monkeypatch.setattr(validator, "statement_hash", recording_hash)
    validate(schema, g)
    monkeypatch.undo()
    return handed


def _order_free(content):
    """Content as its hash reads it, with qualifier, reference and snak order dropped."""
    wdt, value, quals, refs = content
    return wdt, value, sorted(quals, key=repr), sorted(sorted(snaks) for snaks in refs)


def _agreement_cases():
    cases = [pytest.param(name, None, id=name) for name in FIXTURE_NAMES]
    cases += [pytest.param(owner, m, id=f"{owner}-{m.code}")
              for owner, mutations in MUTATIONS.items() for m in mutations]
    return cases + [pytest.param(seed, None, id=f"seed{seed}") for seed in range(20)]


@pytest.mark.parametrize("case,mutation", _agreement_cases())
def test_export_and_validate_hand_statement_hash_one_content(case, mutation, monkeypatch):
    # one form, held structurally: for each statement node, the content export
    # hashes is the content the validator reads back and hashes
    if isinstance(case, str):
        b = load_bundle(case)
        schema, instances = b.schema, b.instances
    else:
        rng = random.Random(case)
        schema = random_schema(rng)
        instances = random_instances(rng, schema)
    g, exported = _export_handing(schema, instances, monkeypatch)
    if mutation is None:
        read = _validator_handing(schema, g, monkeypatch)
        assert read.keys() == exported.keys() and read
    else:
        # a statement node the recipe edited, or whose value or reference
        # nodes it edited, holds other content now; every other node reads
        # back as written. An item's own edges are no statement's content.
        mutated = mutation.apply(b)
        items = {item.iri for item in instances.items}
        edited = {t.s for t in set(g) ^ set(mutated)} - items
        read = _validator_handing(schema, mutated, monkeypatch)
        read = {node: content for node, content in read.items() if node not in edited
                and not any(t.o in edited for t in g.match(node, None, None))}
        assert read.keys() <= exported.keys() and read
    for node, content in read.items():
        assert _order_free(content) == _order_free(exported[node]), node


def test_a_semicolon_target_fails_both_reads_alike():
    b = load_bundle("sex-record")
    manifest = Iri(DEFAULT_ROOT + "entity/manifest")
    semi = Iri(DEFAULT_ROOT + "entity/mani;fest")
    g = Graph([Triple(*(semi if x == manifest else x for x in t)) for t in b.graph])
    assert _assert_reads_agree(b.schema, g) > 0
    node, st = next((n, st) for st in expand(b.schema).statements
                    for n in g.subjects(RDF_TYPE, WB_STATEMENT)
                    if read_content(g, n, st, b.table) is not None)
    with pytest.raises(PreimageDelimiterError):
        assemble_preimage(_ELSEWHERE, *read_content(g, node, st, b.table))


def test_frozen_preimages_through_the_assembler():
    table = NamespaceTable()
    wd = DEFAULT_ROOT + "entity/"
    employee, job = Iri(wd + "employee0"), Iri(wd + "job0")
    # a date reads as its node's field texts: time, precision, timezone, calendar
    at_time = (table.term("pq", "atTime"),
               f"2001-01-01T00:00:00Z|11|0|{DEFAULT_ROOT}entity/ProlepticGregorian")
    snaks = ((table.term("pr", "taxRecord"), Iri(wd + "doc1")),)
    cases = [
        ((), (), oracle.PREIMAGE_BARE, oracle.HASH_BARE),
        ((at_time,), (), oracle.PREIMAGE_QUALIFIED, oracle.HASH_QUALIFIED),
        ((at_time,), (snaks,), oracle.PREIMAGE_REFERENCED, oracle.HASH_REFERENCED),
    ]
    for quals, refs, preimage, digest in cases:
        content = (table.term("wdt", "hasJob"), job, quals, refs)
        assert assemble_preimage(employee, *content) == preimage
        assert statement_hash(employee, content, table) == digest


def test_a_string_value_reads_back_as_its_literal():
    b = load_bundle("name-record")
    table = b.table
    st = next(st for st in expand(b.schema).statements
              if st.source.object_spec.datatype is not None)
    node = next(n for n in b.graph.subjects(RDF_TYPE, WB_STATEMENT)
                if read_content(b.graph, n, st, table) is not None)
    content = read_content(b.graph, node, st, table)
    assert type(content[1]) is Literal
    assert (assemble_preimage(_ELSEWHERE, *content)
            == canonical_content(_ELSEWHERE, read_statement(b.graph, node, st, table), table))


def _assert_value_nodes_read_alike(schema, g):
    """`_Checker.value_node` against `read_value_node` on every node, as every kind.

    A well-formed node reads as a tuple holding, for each field in order,
    the text the graph stores for the reference's value: an IRI, or the
    lexical form, which for an int is `str` of its value. A malformed one
    reads as the reference's problem list, whole. Each node is read twice
    through one checker, so the second read comes from its memo. Gives the
    number of well-formed value nodes.
    """
    checker = validator._Checker(expand(schema), g)
    nodes = {t.s for t in g} | {t.o for t in g if isinstance(t.o, Iri)}
    values = 0
    for node in sorted(nodes):
        for kind in VALUE_KINDS.values():
            want = read_value_node(g, node, kind, schema.namespaces)
            got = checker.value_node(node, kind)
            assert checker.value_node(node, kind) is got, node
            if isinstance(want, list):
                assert got == want, node
                continue
            assert type(got) is tuple, node
            assert len(got) == len(kind.fields), node
            for text, (_, attr, _) in zip(got, kind.fields):
                assert type(text) is str, node
                assert text == str(getattr(want, attr)), node
            values += 1
    return values


def test_value_nodes_read_alike_on_fixtures_mutations_and_edits():
    values = 0
    for name in FIXTURE_NAMES:
        b = load_bundle(name)
        values += _assert_value_nodes_read_alike(b.schema, b.graph)
        rng = random.Random(name)
        g = b.graph
        for _ in range(20):
            g = _edit(g, rng)
            _assert_value_nodes_read_alike(b.schema, g)
    for owner, mutations in MUTATIONS.items():
        b = load_bundle(owner)
        for m in mutations:
            _assert_value_nodes_read_alike(b.schema, m.apply(b))
    assert values > 0


@pytest.mark.parametrize("seed", range(20))
def test_value_nodes_read_alike_on_edited_random_exports(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    g = export(schema, random_instances(rng, schema))
    for _ in range(5):
        g = _edit(g, rng)
        _assert_value_nodes_read_alike(schema, g)


# dates and quantities with signs, a unit, a calendar and every int field
# away from its default, for the record schema
_SIGNED_RECORDS = """
item wd:signed0 : bench:Person {
  bench:height -> decimal -12.5 unit wd:Metre {
    qualifier bench:measuredAt = datetime 1900-01-01T00:00:00Z precision 14 tz -300
  }
  bench:born -> datetime 1706-11-18T00:00:00Z precision 0 tz 720 calendar wd:Julian {
  }
}
item wd:signed1 : bench:Person {
  bench:height -> decimal -3
  bench:category -> item wd:cat1 {
    qualifier bench:age = decimal -0.25
    qualifier bench:seenAt = datetime 1850-07-01T00:00:00Z precision 9 tz -60
    reference { bench:basedOn -> item wd:src0 }
  }
}
"""


def _node_values(instances):
    """Every date and quantity value the statements of `instances` carry."""
    for item in instances.items:
        for stmt in item.statements:
            for value in (stmt.value, *(q.value for q in stmt.qualifiers)):
                if type(value) in (DateTimeValue, DecimalValue):
                    yield value


def _assert_joined_texts_are_the_adapters_form(schema, instances):
    """Each value node of the export reads as the field texts whose join is
    the value's form in the model adapter's statement content. Gives the
    number of value nodes."""
    table = schema.namespaces
    g = export(schema, instances)
    checker = validator._Checker(expand(schema), g)
    kinds = {kind.value_type: kind for kind in VALUE_KINDS.values()}
    read = set()
    for item in instances.items:
        for stmt in item.statements:
            _, form, quals, _ = statement_content(stmt, table)
            pairs = [(stmt.value, form)]
            pairs += [(q.value, qform) for q, (_, qform) in zip(stmt.qualifiers, quals)]
            for value, form in pairs:
                if type(value) in kinds:
                    node = value_node(value, table)
                    assert "|".join(checker.value_node(node, kinds[type(value)])) == form
                    read.add(node)
    assert read == {n for kind in VALUE_KINDS.values()
                    for n in g.subjects(RDF_TYPE, Iri(kind.class_iri))}
    return len(read)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_joined_field_texts_are_the_adapters_value_form_on_fixtures(name):
    b = load_bundle(name)
    _assert_joined_texts_are_the_adapters_form(b.schema, b.instances)


def test_joined_field_texts_are_the_adapters_value_form_on_a_record_export():
    schema = parse_schema(corpus.RECORD_SCHEMA)
    text = corpus.record_instances(random.Random(1), 200).text + _SIGNED_RECORDS
    instances = parse_instances(text)
    values = list(_node_values(instances))
    assert any(type(v) is DecimalValue and v.amount.startswith("-") for v in values)
    assert any(type(v) is DateTimeValue and v.timezone < 0 for v in values)
    assert {v.precision for v in values if type(v) is DateTimeValue} >= {0, 9, 14}
    assert _assert_joined_texts_are_the_adapters_form(schema, instances) > 200
