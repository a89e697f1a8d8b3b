"""Fixture corpus: clean round trips, frozen goldens, mutation recipes."""

import pytest

from wbforge.axioms import schema_axioms, serialize_axioms
from wbforge.errors import UnknownFixtureError
from wbforge.exporter import export
from wbforge.fixtures import (
    FIXTURE_NAMES,
    MUTATIONS,
    fixture_path,
    load_bundle,
    load_fixture,
)
from wbforge.rdf import parse_ntriples, serialize_canonical
from wbforge.shapes import schema_shapes, serialize_shapes
from wbforge.validator import CODES, ERROR, render_report, validate

ROOT = "http://wikibase.example/"
ST = ROOT + "entity/statement/"

# the exact report for each recipe: codes, foci, detail text, order, summary
MUTATION_REPORTS = {
    ("age-record", "DomainViolation"): (
        f"ERROR DomainViolation <{ROOT}entity/a1> : "
        "subject of p:hasAgeRecord lacks rdf:type rec:Agent\n"
        "errors=1 warnings=0\n"
    ),
    ("age-record", "RangeViolation"): (
        f"ERROR RangeViolation <{ROOT}entity/cat30s> : "
        "value of ps:hasAgeRecord lacks rdf:type rec:AgeCategory\n"
        "errors=1 warnings=0\n"
    ),
    ("age-record", "ExistenceViolation"): (
        f"ERROR ExistenceViolation <{ST}a2-8ae90918afeedb8df417fc3c6383b47a95aac8d6> : "
        "required qualifier pq:ageValue missing\n"
        f"WARNING HashMismatch <{ST}a2-8ae90918afeedb8df417fc3c6383b47a95aac8d6> : "
        "node hash 8ae90918afeedb8df417fc3c6383b47a95aac8d6 does not match "
        "content hash 6f7fef92f3b6dc283543edc53d0c22827da17b19\n"
        "errors=1 warnings=1\n"
    ),
    ("age-record", "ValueNodeMalformed"): (
        f"ERROR ValueNodeMalformed <{ROOT}value/bd0149fc13fbf2c9c76eefbb855bed446fd5e580> : "
        "missing wikibase:timePrecision\n"
        "errors=1 warnings=0\n"
    ),
    ("name-record", "FunctionalityViolation"): (
        f"ERROR FunctionalityViolation <{ST}a1-ca6dc813ceefcadf04a6513b6fe9979dbe757c49> : "
        "2 values for functional qualifier pq:atTime\n"
        "errors=1 warnings=0\n"
    ),
    ("name-record", "QualifierTypeViolation"): (
        f"WARNING HashMismatch <{ST}a1-4e56d3cf1b7220fd283a53ed5a76a41b40a344c9> : "
        "node hash 4e56d3cf1b7220fd283a53ed5a76a41b40a344c9 does not match "
        "content hash d3481c68f22d38edf697c559c399525fad9a5fae\n"
        f"ERROR QualifierTypeViolation <{ST}a1-4e56d3cf1b7220fd283a53ed5a76a41b40a344c9> : "
        "value of pq:atTime is not typed xsd:dateTime\n"
        "errors=1 warnings=1\n"
    ),
    ("sex-record", "OrphanStatement"): (
        f"ERROR OrphanStatement <{ST}orphan> : "
        "statement node has no incoming p: edge\n"
        "errors=1 warnings=0\n"
    ),
    ("sex-record", "ChainGap"): (
        f"ERROR ChainGap <{ST}a1-3403f575a73c840d6d6799e8a721e5714e6bd580> : "
        "missing truthy edge wdt:hasSexRecord\n"
        "errors=1 warnings=0\n"
    ),
    ("sex-record", "BareTruthy"): (
        f"WARNING BareTruthy <{ROOT}entity/a2> : "
        "truthy edge wdt:hasSexRecord has no reified statement\n"
        "errors=0 warnings=1\n"
    ),
    ("occupation-record", "SharedReference"): (
        f"WARNING HashMismatch <{ST}a2-074ebb9c0aebea0bb0330bf7aa80614b18028834> : "
        "node hash 074ebb9c0aebea0bb0330bf7aa80614b18028834 does not match "
        "content hash d2bfc2f46951cf16b2cedd073f0bacd0b758b799\n"
        f"ERROR SharedReference <{ROOT}reference/"
        "aabd51638601c2e097955730ff246c5c417c8eff-76013dc1> : "
        "reference derived by 2 statements\n"
        "errors=1 warnings=1\n"
    ),
    ("participant-role-record", "UnknownProperty"): (
        f"WARNING UnknownProperty <{ROOT}prop/qualifier/transcriberInitials> : "
        "pq:transcriberInitials matches no declaration\n"
        "errors=0 warnings=1\n"
    ),
    ("relationship-record", "SharedStatement"): (
        f"ERROR SharedStatement <{ST}a1-f1ca29c2e54bb724838136f3ffd9531629872934> : "
        "2 incoming p: edges\n"
        "errors=1 warnings=0\n"
    ),
    ("relationship-record", "HashMismatch"): (
        f"WARNING HashMismatch <{ST}a1-f1ca29c2e54bb724838136f3ffd9531629872934> : "
        "node hash f1ca29c2e54bb724838136f3ffd9531629872934 does not match "
        "content hash 9c012970b781fe4935b33ff15fd4a2604f14aaa9\n"
        "errors=0 warnings=1\n"
    ),
}


def test_corpus_inventory():
    assert len(FIXTURE_NAMES) == 6
    for name in FIXTURE_NAMES:
        schema, instances = load_fixture(name)
        assert schema.statements, name
        assert instances.items, name


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        load_fixture("no-such-fixture")
    with pytest.raises(UnknownFixtureError):
        fixture_path("no-such-fixture", "wbs")


def test_bundle_graph_matches_nt_golden():
    for name in FIXTURE_NAMES:
        bundle = load_bundle(name)
        golden = parse_ntriples(fixture_path(name, "nt").read_text())
        assert bundle.graph == golden, name


def test_fixtures_export_and_validate_clean():
    for name in FIXTURE_NAMES:
        bundle = load_bundle(name)
        rep = validate(bundle.schema, bundle.graph)
        assert rep.passed and rep.warnings == 0, (name, rep.findings)


def test_goldens_regenerate_byte_identically():
    for name in FIXTURE_NAMES:
        schema, instances = load_fixture(name)
        assert serialize_axioms(schema_axioms(schema), schema.namespaces) == \
            fixture_path(name, "ofn").read_text(), name
        assert serialize_shapes(schema_shapes(schema)) == \
            fixture_path(name, "shex").read_text(), name
        assert serialize_canonical(export(schema, instances)) == \
            fixture_path(name, "nt").read_text(), name


def test_mutation_manifest_covers_every_code():
    recipes = [m for muts in MUTATIONS.values() for m in muts]
    assert len(recipes) == 13
    assert {m.code for m in recipes} == set(CODES)
    for name in MUTATIONS:
        assert name in FIXTURE_NAMES


def test_each_mutation_triggers_exactly_its_code():
    for name, mutations in MUTATIONS.items():
        for mut in mutations:
            bundle = load_bundle(name)
            mutated = mut.apply(bundle)
            assert mutated != bundle.graph, (name, mut.code)
            rep = validate(bundle.schema, mutated)
            codes = {f.code for f in rep.findings}
            error_codes = {f.code for f in rep.findings if f.severity == ERROR}
            assert mut.code in codes, (name, mut.code, codes)
            assert error_codes <= {mut.code}, (name, mut.code, error_codes)
            # error mutations fail the report, warning mutations do not
            assert rep.passed == (CODES[mut.code] != ERROR), (name, mut.code)


def test_mutations_do_not_cache_state():
    # applying a recipe twice from fresh bundles gives the same graph
    name = FIXTURE_NAMES[0]
    mut = MUTATIONS[name][0]
    a = mut.apply(load_bundle(name))
    b = mut.apply(load_bundle(name))
    assert a == b
    # and the pristine bundle still validates clean afterwards
    assert validate(load_bundle(name).schema, load_bundle(name).graph).passed


def test_mutation_reports_cover_every_recipe():
    assert sorted(MUTATION_REPORTS) == sorted(
        (name, m.code) for name, ms in MUTATIONS.items() for m in ms)


@pytest.mark.parametrize("name,code", sorted(MUTATION_REPORTS))
def test_mutation_report_bytes(name, code):
    bundle = load_bundle(name)
    (mutation,) = [m for m in MUTATIONS[name] if m.code == code]
    report = render_report(validate(bundle.schema, mutation.apply(bundle)))
    assert report == MUTATION_REPORTS[(name, code)]
