"""The p:/ps:/wdt: chain walk against a brute-force reference.

`implied_truthy` reads the graph's p: and ps: triples in no particular
order. The reference here scans every triple of the graph for each
declared p: edge and takes each ps: value it finds. Both must give the
same (statement node, wdt: triple) multiset, and `infer_truthy` must
still reach a fixed point that holds every implied edge.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from generators import random_instances, random_schema
from report_corpus import _edit
from wbforge.dsl import parse_instances, parse_schema
from wbforge.expander import expand
from wbforge.exporter import export
from wbforge.fixtures import FIXTURE_NAMES, MUTATIONS, load_bundle
from wbforge.namespaces import Iri
from wbforge.rdf import Literal, Triple
from wbforge.validator import implied_truthy, infer_truthy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402


def reference_implied(expanded, g):
    """Every (node, wdt: triple) of a declared p: edge to an IRI and its ps: values."""
    triples = list(g)
    out = Counter()
    for st in expanded.statements:
        for s, p, node in triples:
            if p != st.p or not isinstance(node, Iri):
                continue
            for n, q, y in triples:
                if n == node and q == st.ps:
                    out[node, Triple(s, st.wdt, y)] += 1
    return out


def _assert_walks_agree(schema, g):
    expanded = expand(schema)
    want = reference_implied(expanded, g)
    assert Counter(implied_truthy(expanded, g)) == want
    fixed = infer_truthy(schema, g)
    assert all(t in fixed for t in g)
    assert all(t in fixed for _, t in want)
    assert infer_truthy(schema, fixed) == fixed
    return want


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_exports(name):
    b = load_bundle(name)
    assert _assert_walks_agree(b.schema, b.graph)


def _mutation_cases():
    return [pytest.param(owner, m, id=f"{owner}-{m.code}")
            for owner, mutations in MUTATIONS.items() for m in mutations]


def test_every_mutation_is_covered():
    assert len(_mutation_cases()) == 13


@pytest.mark.parametrize("owner,mutation", _mutation_cases())
def test_mutated_fixtures(owner, mutation):
    b = load_bundle(owner)
    _assert_walks_agree(b.schema, mutation.apply(b))


@pytest.mark.parametrize("seed", range(20))
def test_random_exports_and_their_edits(seed):
    rng = random.Random(3000 + seed)
    schema = random_schema(rng)
    g = export(schema, random_instances(rng, schema))
    _assert_walks_agree(schema, g)
    for _ in range(5):
        g = _edit(g, rng)
        _assert_walks_agree(schema, g)


@pytest.mark.parametrize("persons", [2, 7])
def test_record_exports(persons):
    schema = parse_schema(corpus.RECORD_SCHEMA)
    inst = parse_instances(corpus.record_instances(random.Random(persons), persons).text)
    assert _assert_walks_agree(schema, export(schema, inst))


def _props(b, local):
    """The (p, ps) IRIs of the first declaration, under `local` in place of its name."""
    st = expand(b.schema).statements[0]
    name = st.source.property_name
    return tuple(Iri(iri[:-len(name)] + local) for iri in (st.p, st.ps))


def test_edge_cases():
    b = load_bundle("sex-record")
    g = b.graph.copy()
    st = expand(b.schema).statements[0]
    p, ps = st.p, st.ps
    edge = next(t for t in g if t.p == p)
    base = edge.o.value.rsplit("/", 1)[0] + "/"
    other = Iri(base + "elsewhere")
    # a p: edge to a literal, and one to a node without a ps: edge
    g.add(Triple(edge.s, p, Literal("not a node")))
    g.add(Triple(edge.s, p, Iri(base + "no-ps-value")))
    # a second ps: value on a node a p: edge points to
    g.add(Triple(edge.o, ps, other))
    # a ps: node that no p: edge points to
    g.add(Triple(Iri(base + "unowned"), ps, other))
    # an undeclared name's p:/ps: chain
    undeclared_p, undeclared_ps = _props(b, "undeclaredProperty")
    g.add(Triple(edge.s, undeclared_p, Iri(base + "undeclared")))
    g.add(Triple(Iri(base + "undeclared"), undeclared_ps, other))
    want = _assert_walks_agree(b.schema, g)
    wdt = st.wdt
    assert want[edge.o, Triple(edge.s, wdt, other)] == 1
    assert {node for node, _ in want} == {t.o for t in b.graph if t.p == p}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_infer_reads_its_input_by_predicate_only(name):
    b = load_bundle(name)
    g = b.graph.copy()            # a graph no index of which is built yet
    infer_truthy(b.schema, g)
    by_s, by_p = g._indexes
    assert by_s is None and by_p is not None
