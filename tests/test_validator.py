"""Validator findings, report rendering, explanation, truthy inference.

The thirteen-code catalog is exercised end to end by the fixture
mutations (test_fixtures / acceptance); here each code also gets a
minimal handmade trigger so failures localize.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402
import report_corpus
from generators import random_instances, random_schema
from wbforge.cli import main
from wbforge.dsl import parse_instances, parse_schema
from wbforge.errors import UnknownCodeError
from wbforge.expander import expand
from wbforge.exporter import export, statement_node, value_node
from wbforge.validator import (
    CODES,
    ERROR,
    WARNING,
    Finding,
    ValidationReport,
    explain,
    implied_truthy,
    infer_truthy,
    render_report,
    render_report_tsv,
    validate,
)
from wbforge.fixtures import FIXTURE_NAMES, MUTATIONS, fixture_path, load_bundle
from wbforge.model import VALUE_KINDS, DecimalValue
from wbforge.namespaces import (
    DEFAULT_ROOT,
    Iri,
    NamespaceTable,
)
from wbforge.rdf import Graph, Literal, Triple, parse_ntriples, serialize_canonical
from wbforge.shapes import schema_shapes, statement_label

SCHEMA = parse_schema("""
prefix ex: <http://example.org/>
class ex:Employee
class ex:Job
statement ex:hasJob {
  subject ex:Employee
  object item ex:Job
  qualifier ex:atTime : datetime
  reference ex:taxRecord -> item ex:Job required
}
""")

INSTANCES = parse_instances("""
prefix ex: <http://example.org/>
item wd:employee0 : ex:Employee {
  ex:hasJob -> item wd:job0 {
    qualifier ex:atTime = datetime 2001-01-01T00:00:00Z
    reference { ex:taxRecord -> item wd:doc1 }
  }
}
item wd:job0 : ex:Job { }
item wd:doc1 : ex:Job { }
""")

RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")


def _graph():
    return export(SCHEMA, INSTANCES)


def _snode(g):
    (t,) = g.match(None, Iri(DEFAULT_ROOT + "prop/hasJob"), None)
    return t.o


def test_clean_export_passes():
    rep = validate(SCHEMA, _graph())
    assert rep.passed and rep.errors == 0 and rep.warnings == 0
    assert render_report(rep) == "errors=0 warnings=0\n"


def test_code_catalog_shape():
    assert len(CODES) == 13
    assert set(CODES.values()) == {ERROR, WARNING}
    warnings = {c for c, sev in CODES.items() if sev == WARNING}
    assert warnings == {"BareTruthy", "HashMismatch", "UnknownProperty"}


def test_finding_render_and_sort():
    g = _graph()
    snode = _snode(g)
    # break two things: drop the wdt edge, add an unknown pq edge
    g.discard(Triple(Iri(DEFAULT_ROOT + "entity/employee0"),
                     Iri(DEFAULT_ROOT + "prop/direct/hasJob"),
                     Iri(DEFAULT_ROOT + "entity/job0")))
    g.add(Triple(snode, Iri(DEFAULT_ROOT + "prop/qualifier/mystery"),
                 Literal("x", XSD_STRING)))
    rep = validate(SCHEMA, g)
    rendered = render_report(rep)
    assert rendered.endswith(f"errors={rep.errors} warnings={rep.warnings}\n")
    codes = [f.code for f in rep.findings]
    assert codes == sorted(codes)  # report sorted by (code, focus, detail)
    line = rep.by_code("ChainGap")[0].render()
    assert line.startswith("ERROR ChainGap <") and " : " in line


def test_tsv_rendering():
    rep = validate(SCHEMA, _graph())
    assert render_report_tsv(rep) == "severity\tcode\tfocus\tdetail\n"
    g = _graph()
    g.add(Triple(Iri(DEFAULT_ROOT + "entity/employee0"),
                 Iri(DEFAULT_ROOT + "prop/direct/hasJob"),
                 Iri(DEFAULT_ROOT + "entity/doc1")))
    lines = render_report_tsv(validate(SCHEMA, g)).splitlines()
    assert lines[0] == "severity\tcode\tfocus\tdetail"
    assert any(l.split("\t")[1] == "BareTruthy" for l in lines[1:])


def test_explain_cites_axioms():
    g = _graph()
    employee = Iri(DEFAULT_ROOT + "entity/employee0")
    g.discard(Triple(employee, RDF_TYPE, Iri("http://example.org/Employee")))
    g.discard(Triple(employee, RDF_TYPE, Iri("http://wikiba.se/ontology#Item")))
    rep = validate(SCHEMA, g)
    assert not rep.passed
    text = explain(rep, "DomainViolation")
    assert text.startswith("DomainViolation (ERROR, ")
    assert "Ax1 |" in text and "Ax9-c1 |" in text
    # warning-only integrity codes explain without axiom citations
    text = explain(rep, "HashMismatch")
    assert "integrity check" in text
    with pytest.raises(UnknownCodeError):
        explain(rep, "NoSuchCode")
    with pytest.raises(UnknownCodeError):
        rep.by_code("NoSuchCode")


def test_orphan_and_shared_statements():
    g = _graph()
    stray = Iri(DEFAULT_ROOT + "entity/statement/stray-" + "0" * 40)
    g.add(Triple(stray, RDF_TYPE, Iri("http://wikiba.se/ontology#Statement")))
    rep = validate(SCHEMA, g)
    assert [f.code for f in rep.findings if f.severity == ERROR] == ["OrphanStatement"]

    g = _graph()
    snode = _snode(g)
    g.add(Triple(Iri(DEFAULT_ROOT + "entity/doc1"),
                 Iri(DEFAULT_ROOT + "prop/hasJob"), snode))
    rep = validate(SCHEMA, g)
    assert rep.by_code("SharedStatement")


def test_existence_and_functionality():
    g = _graph()
    snode = _snode(g)
    ps = Iri(DEFAULT_ROOT + "prop/statement/hasJob")
    (ps_triple,) = g.match(snode, ps, None)
    g.discard(ps_triple)
    rep = validate(SCHEMA, g)
    assert rep.by_code("ExistenceViolation")

    g = _graph()
    g.add(Triple(_snode(g), ps, Iri(DEFAULT_ROOT + "entity/doc1")))
    rep = validate(SCHEMA, g)
    assert rep.by_code("FunctionalityViolation")


def test_qualifier_type_violation_vs_unknown_property():
    other = parse_schema("""
prefix ex: <http://example.org/>
class ex:Employee
class ex:Job
statement ex:hasJob {
  subject ex:Employee
  object item ex:Job
  qualifier ex:atTime : datetime
  reference ex:taxRecord -> item ex:Job required
}
statement ex:worksAt {
  subject ex:Employee
  object item ex:Job
  qualifier ex:shift : string
}
""")
    g = export(other, INSTANCES)
    snode = _snode(g)
    # declared on the OTHER statement decl: a type violation here
    g.add(Triple(snode, Iri(DEFAULT_ROOT + "prop/qualifier/shift"),
                 Literal("night", XSD_STRING)))
    rep = validate(other, g)
    assert rep.by_code("QualifierTypeViolation")
    assert not rep.by_code("UnknownProperty")
    # declared nowhere: UnknownProperty only
    g = export(other, INSTANCES)
    g.add(Triple(_snode(g), Iri(DEFAULT_ROOT + "prop/qualifier/ghost"),
                 Literal("x", XSD_STRING)))
    rep = validate(other, g)
    assert rep.by_code("UnknownProperty")
    assert not rep.by_code("QualifierTypeViolation")


def test_malformed_qualifier_literal():
    g = _graph()
    snode = _snode(g)
    pq = Iri(DEFAULT_ROOT + "prop/qualifier/atTime")
    (t,) = g.match(snode, pq, None)
    g.discard(t)
    g.add(Triple(snode, pq, Literal("yesterday", XSD_STRING)))
    rep = validate(SCHEMA, g)
    assert rep.by_code("QualifierTypeViolation")


def test_value_node_malformed():
    g = _graph()
    field = Iri("http://wikiba.se/ontology#timePrecision")
    (t,) = g.match(None, field, None)
    g.discard(t)
    rep = validate(SCHEMA, g)
    assert rep.by_code("ValueNodeMalformed")
    (finding,) = rep.by_code("ValueNodeMalformed")
    assert "timePrecision" in finding.detail


def test_quantity_with_trailing_newline_is_malformed():
    schema = parse_schema("""
prefix ex: <http://example.org/>
class ex:Employee
statement ex:salary { subject ex:Employee object decimal }
""")
    g = export(schema, parse_instances("""
prefix ex: <http://example.org/>
item wd:employee0 : ex:Employee { ex:salary -> decimal 5 }
"""))
    field = Iri("http://wikiba.se/ontology#quantityValue")
    (t,) = g.match(None, field, None)
    g.discard(t)
    g.add(Triple(t.s, field, Literal("5\n", t.o.datatype)))
    (finding,) = validate(schema, g).by_code("ValueNodeMalformed")
    assert "non-canonical xsd:decimal" in finding.detail


def test_shared_reference():
    g = _graph()
    prov = Iri("http://www.w3.org/ns/prov#wasDerivedFrom")
    (t,) = g.match(None, prov, None)
    # second statement derives the same reference node
    other = Iri(DEFAULT_ROOT + "entity/statement/other-" + "1" * 40)
    g.add(Triple(other, RDF_TYPE, Iri("http://wikiba.se/ontology#Statement")))
    g.add(Triple(other, prov, t.o))
    rep = validate(SCHEMA, g)
    assert rep.by_code("SharedReference")


def test_prov_from_non_statement_is_ignored():
    g = _graph()
    prov = Iri("http://www.w3.org/ns/prov#wasDerivedFrom")
    (t,) = g.match(None, prov, None)
    # an untyped bystander pointing at the reference is not provenance
    g.add(Triple(Iri(DEFAULT_ROOT + "entity/bystander"), prov, t.o))
    rep = validate(SCHEMA, g)
    assert not rep.by_code("SharedReference")


def test_range_violation_on_reference_target():
    g = _graph()
    doc1 = Iri(DEFAULT_ROOT + "entity/doc1")
    g.discard(Triple(doc1, RDF_TYPE, Iri("http://example.org/Job")))
    rep = validate(SCHEMA, g)
    assert rep.by_code("RangeViolation")


def test_hash_mismatch_is_a_warning():
    g = _graph()
    snode = _snode(g)
    pq = Iri(DEFAULT_ROOT + "prop/qualifier/atTime")
    (t,) = g.match(snode, pq, None)
    g.discard(t)
    rep = validate(SCHEMA, g)
    # one finding, on the statement node: its reference stays named by the
    # hash the statement's name carries, not the recomputed one
    assert [(f.code, f.focus) for f in rep.findings] == [("HashMismatch", snode.value)]
    assert rep.passed  # warnings never fail a report


def test_infer_truthy_restores_chain():
    g = _graph()
    wdt = Iri(DEFAULT_ROOT + "prop/direct/hasJob")
    (t,) = g.match(None, wdt, None)
    g.discard(t)
    assert validate(SCHEMA, g).by_code("ChainGap")
    fixed = infer_truthy(SCHEMA, g)
    assert t in fixed
    assert not validate(SCHEMA, fixed).by_code("ChainGap")
    # monotone and idempotent
    assert all(x in fixed for x in g)
    assert infer_truthy(SCHEMA, fixed) == fixed
    # input graph untouched
    assert t not in g


def test_implied_truthy_yields_each_ps_value_once():
    # in no particular order: both consumers are order-free
    g = _graph()
    node = _snode(g)
    ps = Iri(DEFAULT_ROOT + "prop/statement/hasJob")
    wdt = Iri(DEFAULT_ROOT + "prop/direct/hasJob")
    (job,) = g.objects(node, ps)
    employee = Iri(DEFAULT_ROOT + "entity/employee0")
    extra = [Iri(DEFAULT_ROOT + f"entity/{name}") for name in "job9 a z job00 b y c x".split()]
    for o in extra:
        g.add(Triple(node, ps, o))
    assert Counter(implied_truthy(expand(SCHEMA), g)) == Counter(
        (node, Triple(employee, wdt, o)) for o in [job, *extra])


def test_infer_truthy_random_graphs():
    for seed in range(20):
        rng = random.Random(2000 + seed)
        schema = random_schema(rng)
        g = export(schema, random_instances(rng, schema))
        wdt_triples = [t for t in g if "/prop/direct/" in t.p.value]
        for t in rng.sample(wdt_triples, k=len(wdt_triples) // 2):
            g.discard(t)
        fixed = infer_truthy(schema, g)
        for t in wdt_triples:
            assert t in fixed
        assert infer_truthy(schema, fixed) == fixed


def test_validation_report_passed_logic():
    rep = ValidationReport((Finding("BareTruthy", "x", "d", WARNING),))
    assert rep.passed and rep.warnings == 1
    rep = ValidationReport((Finding("ChainGap", "x", "d", ERROR),))
    assert not rep.passed


def _fixture_snode(bundle):
    item = bundle.instances.items[0]
    return statement_node(item.iri, item.statements[0], bundle.table)


def test_a_psv_edge_the_declaration_does_not_mint_is_unknown_and_not_read_back():
    # name-record's object is a string, so its family has no psv: edge; a graph
    # that holds one anyway gets it reported, and the decimal ps: value is not
    # read back through it, so the statement's content is not hashed
    b = load_bundle("name-record")
    t, node = b.table, _fixture_snode(b)
    ps, value = t.term("ps", "hasNameRecord"), DecimalValue("5")
    vnode = value_node(value, t)
    g = b.graph.copy()
    for old in b.graph.objects(node, ps):
        g.discard(Triple(node, ps, old))
    five = Literal("5", t.term("xsd", "decimal"))
    psv = t.term("psv", "hasNameRecord")
    for triple in (Triple(node, ps, five),
                   Triple(node, psv, vnode),
                   Triple(vnode, t.term("rdf", "type"), t.term("wikibase", "QuantityValue")),
                   Triple(vnode, t.term("wikibase", "quantityValue"), five),
                   Triple(vnode, t.term("wikibase", "quantityUnit"), value.unit)):
        g.add(triple)
    rep = validate(b.schema, g)
    assert [f.focus for f in rep.by_code("UnknownProperty")] == [psv.value]
    assert node.value not in {f.focus for f in rep.by_code("HashMismatch")}


@pytest.mark.parametrize("with_pqv", [True, False])
def test_a_pqv_edge_the_declaration_does_not_mint_is_unknown_and_not_read_back(with_pqv):
    # relationship-record's note qualifier is a string, so its family has no
    # pqv: edge; a decimal note is not read back, with or without a pqv: edge
    # in the graph, and such an edge is reported
    b = load_bundle("relationship-record")
    t, node = b.table, _fixture_snode(b)
    value = DecimalValue("5")
    vnode = value_node(value, t)
    five = Literal("5", t.term("xsd", "decimal"))
    pqv = t.term("pqv", "note")
    g = b.graph.copy()
    for triple in (Triple(node, t.term("pq", "note"), five),
                   Triple(vnode, t.term("rdf", "type"), t.term("wikibase", "QuantityValue")),
                   Triple(vnode, t.term("wikibase", "quantityValue"), five),
                   Triple(vnode, t.term("wikibase", "quantityUnit"), value.unit)):
        g.add(triple)
    if with_pqv:
        g.add(Triple(node, pqv, vnode))
    rep = validate(b.schema, g)
    assert [f.focus for f in rep.by_code("UnknownProperty")] == ([pqv.value] if with_pqv else [])
    assert node.value not in {f.focus for f in rep.by_code("HashMismatch")}


@pytest.mark.parametrize("local, report", [
    # an item object mints no psv:, so the edge is unknown although the name is declared
    ("hasSexRecord",
     f"WARNING UnknownProperty <{DEFAULT_ROOT}prop/statement/value/hasSexRecord> : "
     "psv:hasSexRecord matches no declaration\nerrors=0 warnings=1\n"),
    ("hasNoSuchThing",
     f"WARNING UnknownProperty <{DEFAULT_ROOT}prop/statement/value/hasNoSuchThing> : "
     "psv:hasNoSuchThing matches no declaration\nerrors=0 warnings=1\n"),
], ids=["hasSexRecord", "hasNoSuchThing"])
def test_unknown_property_rule_goes_by_what_expansion_mints(local, report):
    b = load_bundle("sex-record")
    g = b.graph.copy()
    g.add(Triple(_fixture_snode(b), b.table.term("psv", local), Iri(b.table.base("v") + "x")))
    assert render_report(validate(b.schema, g)) == report


def _unlisted_value_edges(bundle):
    """(statement node, predicate) for each value edge the closed statement
    shapes do not list: per declaration its own psv: edge, and a pqv: edge
    under each qualifier name no shape lists one for; read from the shapes."""
    t = bundle.table
    shapes = {shape.label: shape for shape in schema_shapes(bundle.schema).shapes}
    listed = {tc.predicate for shape in shapes.values() if shape.closed
              for tc in shape.constraints}
    qnames = {q.name for decl in bundle.schema.statements for q in decl.qualifiers}
    for decl in bundle.schema.statements:
        shape = shapes[statement_label(decl, t)]
        assert shape.closed
        node = min(tr.o for tr in bundle.graph.match(None, t.term("p", decl.property_name), None))
        psv = t.term("psv", decl.property_name)
        if psv not in {tc.predicate for tc in shape.constraints}:
            yield node, psv
        for qname in sorted(qnames):
            if (pqv := t.term("pqv", qname)) not in listed:
                yield node, pqv


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_value_edge_no_shape_lists_is_one_unknown_property(name):
    b = load_bundle(name)
    clean = validate(b.schema, b.graph).findings
    edges = list(_unlisted_value_edges(b))
    assert edges
    for node, pred in edges:
        g = b.graph.copy()
        g.add(Triple(node, pred, Iri(b.table.base("v") + "x")))
        findings = validate(b.schema, g).findings
        assert set(clean) <= set(findings)
        assert [(f.code, f.focus) for f in set(findings) - set(clean)] == [
            ("UnknownProperty", pred.value)], (node, pred)


# one more declaration whose forty qualifier names no record statement carries
_FORTY_QUALIFIERS = ("statement bench:ledger {\n  subject bench:Person\n  object string\n"
                     + "".join(f"  qualifier bench:q{i} : string\n" for i in range(40)) + "}\n")


@pytest.mark.parametrize("persons", [4, 24])
@pytest.mark.parametrize("extra", ["", _FORTY_QUALIFIERS], ids=["record", "forty-qualifiers"])
def test_validate_looks_at_each_statement_node_a_bounded_number_of_times(
        persons, extra, monkeypatch):
    # Exactly one Graph.edges view of each statement node, each reference node
    # and each distinct value node, so a second walk of any of them shows. The
    # other lookups do not grow with the graph: per declaration its p: edges
    # twice (owners, truthy chain) and its ps: and wdt: edges, and per run the
    # rdf:type edges once; the prov: edges are read from the statement nodes'
    # views. A lookup per statement node breaks that bound.
    schema = parse_schema(corpus.RECORD_SCHEMA)
    instances = parse_instances(corpus.record_instances(random.Random(7), persons).text)
    g = export(schema, instances)
    nodes = len(g.subjects(RDF_TYPE, Iri(corpus.WIKIBASE + "Statement")))
    references = len(g.subjects(RDF_TYPE, Iri(corpus.WIKIBASE + "Reference")))
    values = sum(len(g.subjects(RDF_TYPE, Iri(corpus.WIKIBASE + kind.node_class)))
                 for kind in VALUE_KINDS.values())
    assert references and values
    reads: Counter[str] = Counter()
    for name in ("match", "edges", "with_predicate"):
        def counted(self, *args, _name=name, _read=getattr(Graph, name)):
            reads[_name] += 1
            return _read(self, *args)
        monkeypatch.setattr(Graph, name, counted)
    full = parse_schema(corpus.RECORD_SCHEMA + extra)
    report = validate(full, g)
    assert report.findings == ()
    assert reads["edges"] == nodes + references + values
    assert reads["match"] + reads["with_predicate"] <= 4 * len(full.statements) + 1


def _term_calls(monkeypatch, run):
    """What `run()` gives, and the `NamespaceTable.term` calls it makes by prefix."""
    calls = Counter()
    with monkeypatch.context() as m:
        def counted(self, prefix, local, _term=NamespaceTable.term):
            calls[prefix] += 1
            return _term(self, prefix, local)
        m.setattr(NamespaceTable, "term", counted)
        return run(), calls


def test_validate_resolves_no_term_per_statement_node(monkeypatch):
    # the property families and preimage line heads are resolved per table
    # or per declaration, so the count is the same at every graph
    # size; psv:/pqv: edges are the ones each declaration's expansion mints,
    # so validate mints no more of them than expansion does
    counts = []
    for persons in (4, 24):
        schema = parse_schema(corpus.RECORD_SCHEMA)
        g = export(schema, parse_instances(
            corpus.record_instances(random.Random(7), persons).text))
        schema = parse_schema(corpus.RECORD_SCHEMA)   # a new table, its memos empty
        report, calls = _term_calls(monkeypatch, lambda: validate(schema, g))
        assert report.findings == ()
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["wdt"] == len(schema.statements)     # as each family is minted
    schema = parse_schema(corpus.RECORD_SCHEMA)
    _, minted = _term_calls(monkeypatch, lambda: expand(schema))
    assert [counts[0][ns] for ns in ("psv", "pqv")] == [minted[ns] for ns in ("psv", "pqv")]


def _renamed(g, old, new):
    """`g` with every occurrence of node `old` renamed to `new`."""
    def sub(term):
        return new if term == old else term
    return Graph([Triple(sub(t.s), t.p, sub(t.o)) for t in g])


_NOT_ADDRESSED = "node name is not content-addressed"


@pytest.mark.parametrize("fixture", ["sex-record", "name-record"])
@pytest.mark.parametrize("name", [
    lambda node: "http://elsewhere.example/s1",               # outside the s: base
    lambda node: node.value.rsplit("-", 1)[0] + "-abc",       # a short tail
    lambda node: node.value.rsplit("-", 1)[0] + "-" + "Z" * 40,   # not hex
    lambda node: node.value.rsplit("-", 1)[0],                # no tail at all
    lambda node: DEFAULT_ROOT + "entity/statement/zzz-" + node.value[-40:],  # another owner's
], ids=["elsewhere", "short", "not-hex", "no-tail", "other-owner"])
def test_a_statement_node_not_content_addressed_is_a_finding(fixture, name):
    b = load_bundle(fixture)
    node = _fixture_snode(b)
    new = Iri(name(node))
    rep = validate(b.schema, _renamed(b.graph, node, new))
    assert rep.findings == (Finding("HashMismatch", new.value, _NOT_ADDRESSED, WARNING),)
    assert rep.passed


@pytest.mark.parametrize("name", [
    "http://elsewhere.example/v1",
    DEFAULT_ROOT + "value/abc",
    DEFAULT_ROOT + "value/" + "0" * 39,
], ids=["elsewhere", "short", "39-digits"])
def test_a_value_node_not_content_addressed_is_a_finding(name):
    b = load_bundle("name-record")
    (node,) = b.graph.subjects(b.table.term("rdf", "type"), b.table.term("wikibase", "TimeValue"))
    rep = validate(b.schema, _renamed(b.graph, node, Iri(name)))
    assert rep.findings == (Finding("HashMismatch", name, _NOT_ADDRESSED, WARNING),)


def test_a_forked_statement_without_a_reference_is_a_finding():
    # one claim under two nodes: only the content-addressed one may stay silent
    b = load_bundle("name-record")
    item = b.instances.items[0]
    node = statement_node(item.iri, item.statements[1], b.table)
    assert not b.graph.objects(node, b.table.term("prov", "wasDerivedFrom"))
    fork = Iri("http://elsewhere.example/s1")
    g = b.graph.copy()
    for t in b.graph.match(node):
        g.add(Triple(fork, t.p, t.o))
    g.add(Triple(item.iri, b.table.term("p", "hasNameRecord"), fork))
    assert render_report(validate(b.schema, g)) == (
        f"WARNING HashMismatch <{fork.value}> : {_NOT_ADDRESSED}\nerrors=0 warnings=1\n")


def test_a_discard_is_seen_by_the_next_validation():
    # the first run builds the graph's indexes; the discard must drop them
    b = load_bundle("sex-record")
    g = b.graph.copy()
    stray = Triple(_fixture_snode(b), b.table.term("pq", "noSuchQualifier"), Literal("x"))
    g.add(stray)
    assert [f.code for f in validate(b.schema, g).findings] == ["UnknownProperty"]
    g.discard(stray)
    assert validate(b.schema, g).findings == ()


@pytest.mark.parametrize("drop_truthy", [False, True], ids=["alone", "with-chain-gap"])
def test_a_reference_target_holding_a_semicolon_is_a_hash_mismatch(
        drop_truthy, tmp_path, capsys):
    # `Iri` allows ';', which joins the snaks of a hash preimage's R line: the
    # node's content cannot be hashed, which is a finding, and the other
    # checks still run
    b = load_bundle("sex-record")
    lines = fixture_path("sex-record", "nt").read_text().replace(
        "/entity/manifest>", "/entity/mani;fest>").splitlines(keepends=True)
    truthy = [line for line in lines if "/prop/direct/hasSexRecord>" in line]
    assert len(truthy) == 1
    if drop_truthy:
        lines.remove(truthy[0])
    path = tmp_path / "sex-record.nt"
    path.write_text("".join(lines))
    status = main(["validate", str(fixture_path("sex-record", "wbs")), str(path)])
    node = _fixture_snode(b).value
    gap = f"ERROR ChainGap <{node}> : missing truthy edge wdt:hasSexRecord\n"
    assert capsys.readouterr().out == (
        (gap if drop_truthy else "")
        + f"WARNING HashMismatch <{node}> : content cannot be hashed: reference target "
        f"<{DEFAULT_ROOT}entity/mani;fest> contains ';'\n"
        + f"errors={int(drop_truthy)} warnings=1\n")
    assert status == int(drop_truthy)


@pytest.mark.parametrize("order", [("zeta", "alpha"), ("alpha", "zeta")])
def test_the_first_semicolon_target_by_reference_name_is_named(order):
    # two snaks of one reference node hold ';': the finding names the target
    # of the reference that sorts first by name, whatever the declaration order
    schema = parse_schema(
        "prefix ex: <http://example.org/>\nclass ex:P\nclass ex:D\n"
        "statement ex:has {\n  subject ex:P\n  object item ex:P\n"
        + "".join(f"  reference ex:{name} -> item ex:D\n" for name in order) + "}\n")
    g = export(schema, parse_instances(
        "prefix ex: <http://example.org/>\n"
        "item wd:a : ex:P {\n  ex:has -> item wd:b {\n"
        "    reference { ex:zeta -> item wd:z  ex:alpha -> item wd:a1 }\n  }\n}\n"
        "item wd:b : ex:P { }\nitem wd:z : ex:D { }\nitem wd:a1 : ex:D { }\n"))
    t = schema.namespaces
    for name in order:
        (snak,) = g.match(None, t.term("pr", name))
        g.discard(snak)
        g.add(Triple(snak.s, snak.p, Iri(snak.o.value + ";x")))
    (finding,) = validate(schema, g).by_code("HashMismatch")   # the targets are untyped too
    assert finding.detail == (f"content cannot be hashed: reference target "
                              f"<{DEFAULT_ROOT}entity/a1;x> contains ';'")


def test_a_literal_reference_target_is_a_range_violation_on_its_reference(tmp_path, capsys):
    # a target that is not an IRI is named by its reference node; with a
    # second RangeViolation the findings still sort, as every focus is text
    lines = fixture_path("occupation-record", "nt").read_text().splitlines(keepends=True)
    snaks = [i for i, line in enumerate(lines) if "/prop/reference/isDirectlyBasedOn>" in line]
    rnode = lines[snaks[0]].split()[0][1:-1]
    lines[snaks[0]] = lines[snaks[0]].replace(f"<{DEFAULT_ROOT}entity/ledger>", '"doc"')
    lines = [line for line in lines if not line.endswith("/vocab/SourceDocument> .\n")]
    path = tmp_path / "occupation-record.nt"
    path.write_text("".join(lines))
    status = main(["validate", str(fixture_path("occupation-record", "wbs")), str(path)])
    assert capsys.readouterr().out == (
        f"ERROR RangeViolation <{DEFAULT_ROOT}entity/ledger> : "
        "target of pr:isDirectlyBasedOn lacks rdf:type rec:SourceDocument\n"
        f"ERROR RangeViolation <{rnode}> : target of pr:isDirectlyBasedOn is not an item\n"
        "errors=2 warnings=0\n")
    assert status == 1


def test_a_negative_zero_int_field_is_not_canonical(tmp_path, capsys):
    # "-0" and "0" are one integer, so a node holding "-0" would carry the
    # content-addressed name of the node export writes with "0"
    lines = fixture_path("age-record", "nt").read_text().splitlines(keepends=True)
    (i,) = [i for i, line in enumerate(lines) if "#timeTimezone>" in line]
    vnode = lines[i].split()[0][1:-1]
    lines[i] = lines[i].replace('"0"^^', '"-0"^^')
    path = tmp_path / "age-record.nt"
    path.write_text("".join(lines))
    status = main(["validate", str(fixture_path("age-record", "wbs")), str(path)])
    assert capsys.readouterr().out == (
        f"ERROR ValueNodeMalformed <{vnode}> : "
        "wikibase:timeTimezone has non-canonical xsd:int lexical '-0'\n"
        "errors=1 warnings=0\n")
    assert status == 1


_DASHED = parse_schema("prefix ex: <http://example.org/>\nclass ex:P\n"
                       "statement ex:knows {\n  subject ex:P\n  object item ex:P\n}\n")


@pytest.mark.parametrize("owner,name,clean", [
    ("a-b", "a-b-{h}", True),
    ("a-b", "a-{h}", False),           # the name owner `a` would get
    ("a-b", "a-b-x-{h}", False),
    ("a", "a-b-{h}", False),           # the name owner `a-b` would get
], ids=["own", "shorter-owner", "longer-tail", "longer-owner"])
def test_an_owner_with_a_dash_in_its_local_name(owner, name, clean):
    g = export(_DASHED, parse_instances(
        f"prefix ex: <http://example.org/>\n"
        f"item wd:{owner} : ex:P {{\n  ex:knows -> item wd:{owner}\n}}\n"))
    (t,) = g.match(None, Iri(DEFAULT_ROOT + "prop/knows"), None)
    node = t.o
    assert node.value == f"{DEFAULT_ROOT}entity/statement/{owner}-{node.value[-40:]}"
    new = Iri(f"{DEFAULT_ROOT}entity/statement/" + name.format(h=node.value[-40:]))
    rep = validate(_DASHED, _renamed(g, node, new))
    assert rep.findings == (() if clean else
                            (Finding("HashMismatch", new.value, _NOT_ADDRESSED, WARNING),))


@pytest.mark.parametrize("name", [
    lambda rnode: rnode[:-8] + "00000000",                   # another statement's scope
    lambda rnode: rnode[:-8] + "0" * 40,                     # the whole statement hash
    lambda rnode: rnode.replace("reference/", "reference/0"),
    lambda rnode: "http://elsewhere.example/r1",
    lambda rnode: DEFAULT_ROOT + "reference/anything",
], ids=["other-scope", "long-scope", "long-hash", "elsewhere", "anything"])
def test_a_reference_node_not_named_by_its_snaks_and_owner_is_a_finding(name):
    g = _graph()
    (t,) = g.match(None, Iri("http://www.w3.org/ns/prov#wasDerivedFrom"), None)
    new = Iri(name(t.o.value))
    rep = validate(SCHEMA, _renamed(g, t.o, new))
    assert rep.findings == (Finding(
        "HashMismatch", new.value, f"node name does not match content name <{t.o.value}>",
        WARNING),)
    assert rep.passed


# two statements, each with a reference node holding the same one snak
_SHARED_SNAKS = parse_instances("""
prefix ex: <http://example.org/>
item wd:employee0 : ex:Employee {
  ex:hasJob -> item wd:job0 { reference { ex:taxRecord -> item wd:doc1 } }
}
item wd:employee1 : ex:Employee {
  ex:hasJob -> item wd:job0 { reference { ex:taxRecord -> item wd:doc1 } }
}
item wd:job0 : ex:Job { }
item wd:doc1 : ex:Job { }
""")


@pytest.mark.parametrize("renamed", [0, 1])
def test_of_two_reference_nodes_with_one_snak_tuple_the_renamed_one_is_a_finding(renamed):
    # both names start with one snak hash; only the one whose owner part moved is a finding
    g = export(SCHEMA, _SHARED_SNAKS)
    rnodes = sorted(t.o for t in g.match(None, Iri("http://www.w3.org/ns/prov#wasDerivedFrom")))
    assert len(rnodes) == 2 and rnodes[0][:-8] == rnodes[1][:-8]
    old = rnodes[renamed]
    new = Iri(old[:-8] + "00000000")
    rep = validate(SCHEMA, _renamed(g, old, new))
    assert rep.findings == (Finding(
        "HashMismatch", new.value, f"node name does not match content name <{old.value}>",
        WARNING),)


def test_a_reference_whose_snak_moved_is_a_finding():
    # a new target changes both content hashes: the statement's and the reference's
    g = _graph()
    pr = Iri(DEFAULT_ROOT + "prop/reference/taxRecord")
    (t,) = g.match(None, pr, None)
    g.discard(t)
    g.add(Triple(t.s, pr, Iri(DEFAULT_ROOT + "entity/job0")))
    rep = validate(SCHEMA, g)
    assert sorted((f.code, f.focus) for f in rep.findings) == sorted(
        [("HashMismatch", t.s.value), ("HashMismatch", _snode(g).value)])


# input order: a graph read from its lines in any order gives the same bytes


def _validate_and_infer(schema, text):
    """What `validate` and `infer` write for an N-Triples text."""
    g = parse_ntriples(text)
    return render_report(validate(schema, g)), serialize_canonical(infer_truthy(schema, g))


def _assert_order_free(schema, g, seed):
    """A seeded shuffle of `g`'s canonical text, never the text itself when it
    has two lines, validates and infers to its bytes."""
    text = serialize_canonical(g)
    lines = text.splitlines(keepends=True)
    rng = random.Random(seed)
    shuffled = text
    while shuffled == text and len(lines) > 1:
        rng.shuffle(lines)
        shuffled = "".join(lines)
    assert _validate_and_infer(schema, shuffled) == _validate_and_infer(schema, text), seed


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_shuffled_fixture_export_gives_the_same_bytes(name):
    b = load_bundle(name)
    _assert_order_free(b.schema, b.graph, name)


def test_shuffled_report_corpus_graphs_give_the_same_bytes():
    # the corpus starts with every fixtures.MUTATIONS graph
    labels = []
    for label, schema, g in report_corpus.graphs():
        _assert_order_free(schema, g, label)
        labels.append(label)
    assert sum(label.startswith("mutation ") for label in labels) == sum(
        map(len, MUTATIONS.values()))
