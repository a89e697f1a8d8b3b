"""The term views against the frozen dataclasses they replaced.

`reference_terms` keeps the earlier `Iri`, `Literal` and `Triple`. Built
from the same seeded random text, the new and the old terms must agree
on equality, sorted order, `repr`, `str` and the IRI check. The new terms
equal and hash as the plain terms a graph stores: an `Iri` as its text,
a `Literal` and a `Triple` as plain tuples of their fields. The checks at
the end pin down that no two kinds of term can meet that way.
"""

import gc
import hashlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402
import reference_terms as old  # noqa: E402
from wbforge.dsl import parse_instances, parse_schema, tokenize  # noqa: E402
from wbforge.errors import WbforgeError  # noqa: E402
from wbforge.exporter import export  # noqa: E402
from wbforge.fixtures import FIXTURE_NAMES, MUTATIONS, load_bundle  # noqa: E402
from wbforge.namespaces import RDF_TYPE, WB_STATEMENT, Iri  # noqa: E402
from wbforge.rdf import (  # noqa: E402
    XSD_STRING, Graph, Literal, Triple, parse_ntriples, render_term, serialize_canonical)
from wbforge.validator import infer_truthy  # noqa: E402

_DATATYPES = (XSD_STRING, "http://www.w3.org/2001/XMLSchema#decimal", "http://x.example/#d")


def _plain(term):
    """The plain form a graph stores `term` in: exact `str` text and plain tuples."""
    if isinstance(term, str):
        return str.__str__(term)
    return tuple(map(_plain, term))


def _text(rng: random.Random, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))


def _iri_text(rng: random.Random) -> str:
    # every text has a scheme: the reference predates the scheme rule
    if rng.random() < 0.1:
        return "urn:" + _text(rng, "a \t\n\r<>\"")    # often not an IRI
    return rng.choice(("http://x.example/", "urn:x:", "x:")) + _text(rng, "ab/#:")


def _pairs(seed: int, n: int = 150):
    """(new, old) IRIs, literals and triples built from the same text."""
    rng = random.Random(seed)
    iris, literals = [], []
    while len(iris) < n:
        text = _iri_text(rng)
        try:
            new = Iri(text)
        except WbforgeError as exc:
            with pytest.raises(WbforgeError) as ref_exc:
                old.Iri(text)
            assert str(exc) == str(ref_exc.value)
            continue
        iris.append((new, old.Iri(text)))
    for _ in range(n):
        lexical = _text(rng, "ab\"\\\n")
        if rng.random() < 0.3:
            literals.append((Literal(lexical), old.Literal(lexical)))
        else:
            dt = rng.choice(_DATATYPES)
            literals.append((Literal(lexical, Iri(dt)), old.Literal(lexical, old.Iri(dt))))
    triples = []
    for _ in range(n):
        (s, s0), (p, p0) = rng.choice(iris), rng.choice(iris)
        o, o0 = rng.choice(iris + literals)
        triples.append((Triple(s, p, o), old.Triple(s0, p0, o0)))
    return iris, literals, triples


@pytest.mark.parametrize("seed", range(4))
def test_terms_agree_with_the_dataclasses(seed):
    iris, literals, triples = _pairs(seed)
    for group in (iris, literals, triples):
        for new, ref in group:
            assert repr(new) == repr(ref)
            assert str(new) == str(ref)
            plain = _plain(new)
            assert new == plain and hash(new) == hash(plain)
        for a, a0 in group:
            for b, b0 in group:
                assert (a == b) == (a0 == b0)
                assert (a != b) == (a0 != b0)
                assert (hash(a) == hash(b)) == (hash(a0) == hash(b0))
    for new, ref in iris:
        assert new.value == ref.value and new.local_name == ref.local_name
    for group in (iris, literals):
        assert [repr(t) for t in sorted(t for t, _ in group)] == \
            [repr(t) for t in sorted(t for _, t in group)]
    assert Literal("x").datatype == XSD_STRING


@pytest.mark.parametrize("seed", range(4))
def test_kinds_of_term_never_meet(seed):
    iris, literals, triples = _pairs(seed)
    terms = [t for group in (iris, literals, triples) for t, _ in group]
    kinds = {type(t) for t in terms}
    assert kinds == {Iri, Literal, Triple}
    for a in terms:
        for b in terms:
            if type(a) is not type(b):
                assert a != b
    assert Iri("http://x.example/a") != Literal("http://x.example/a")
    assert Literal("a", Iri("http://x.example/b")) != Triple(
        Iri("http://x.example/a"), Iri("http://x.example/b"), Iri("http://x.example/c"))


def test_iri_and_literal_with_one_text_stay_apart_in_match():
    s, p = Iri("http://x.example/s"), Iri("http://x.example/p")
    iri, lit = Iri("http://x.example/o"), Literal("http://x.example/o")
    g = Graph([Triple(s, p, iri), Triple(s, p, lit)])
    assert g.match(o=iri) == [Triple(s, p, iri)]
    assert g.match(o=lit) == [Triple(s, p, lit)]
    assert g.objects(s, p) == [lit, iri]      # rendered '"' sorts before '<'
    assert len({iri, lit, Triple(s, p, iri)}) == 3


def test_terms_and_tokens_are_immutable():
    iri = Iri("http://x.example/a")
    term_fields = ((iri, "value"), (Literal("a"), "lexical"), (Literal("a"), "datatype"),
                   (Triple(iri, iri, iri), "o"), (tokenize("a")[0], "text"))
    for obj, name in term_fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert iri == Iri("http://x.example/a")


def test_an_iri_is_its_text():
    iri = Iri("http://x.example/a")
    assert isinstance(iri, str) and iri == "http://x.example/a"
    assert type(iri.value) is str and iri.value == "http://x.example/a"
    assert iri != ("http://x.example/a",)      # no longer a one-field tuple
    assert iri.local_name == "a" and repr(iri) == "Iri(value='http://x.example/a')"
    assert Iri(iri) == iri and type(Iri(iri)) is Iri


# -- what a graph stores, and what it hands out ---------------------------------

def _built_graphs():
    """(label, graph) for every way a graph is built, over the fixtures and a record export."""
    sources = [(b.name, b.schema, b.graph) for b in map(load_bundle, FIXTURE_NAMES)]
    schema = parse_schema(corpus.RECORD_SCHEMA)
    instances = parse_instances(corpus.record_instances(random.Random(1), 30).text)
    sources.append(("record", schema, export(schema, instances)))
    for label, schema, g in sources:
        yield f"{label} export", g
        yield f"{label} parse_ntriples", parse_ntriples(serialize_canonical(g))
        stripped = Graph([t for t in g if "/prop/direct/" not in t.p.value])
        yield f"{label} infer_truthy", infer_truthy(schema, stripped)
        views = list(g)
        yield f"{label} Graph(views)", Graph(views)
        added = Graph()
        for t in views:
            added.add(t)
        yield f"{label} add(view)", added


def test_a_graph_stores_exact_str_and_plain_tuples_the_collector_lets_go():
    for label, g in _built_graphs():
        assert len(g) > 0, label
        # a tuple is let go once its items are: the pass that lets a literal
        # go may reach a triple holding it first, and then the next pass does
        gc.collect()
        gc.collect()
        for t in g._triples:
            assert type(t) is tuple and len(t) == 3, (label, t)
            s, p, o = t
            assert type(s) is str and type(p) is str, (label, t)
            if type(o) is not str:
                assert type(o) is tuple and len(o) == 2, (label, t)
                assert type(o[0]) is str and type(o[1]) is str, (label, t)
            assert not gc.is_tracked(t), (label, t)


def _view_graphs():
    """The fixtures' exports and the graph of every fixture mutation."""
    for name in FIXTURE_NAMES:
        yield name, load_bundle(name).graph
    for owner, mutations in MUTATIONS.items():
        b = load_bundle(owner)
        for m in mutations:
            yield f"{owner} {m.code}", m.apply(b)


def _assert_view(t):
    assert type(t) is Triple and type(t.s) is Iri and type(t.p) is Iri
    assert type(t.p.value) is str and t.p.value == t.p
    if type(t.o) is Literal:
        assert type(t.o.lexical) is str and type(t.o.datatype) is Iri
    else:
        assert type(t.o) is Iri


def test_a_graph_hands_out_views_that_find_what_it_stores():
    graphs = list(_view_graphs())
    assert len(graphs) == len(FIXTURE_NAMES) + 13
    for label, g in graphs:
        triples = list(g)
        assert len(triples) == len(g), label
        for t in triples:
            _assert_view(t)
            assert t in g
        for t in g.match(s=triples[0].s) + g.match(p=triples[0].p) + g.match(o=triples[0].o):
            _assert_view(t)
        nodes = g.subjects(RDF_TYPE, WB_STATEMENT)
        assert nodes and all(type(n) is Iri for n in nodes), label
        assert all(type(o) in (Iri, Literal) for o in g.objects(nodes[0], RDF_TYPE))
        s, p, o = next(t for t in triples if type(t.o) is Iri)
        probe = Triple(Iri(s.value), Iri(p.value), Iri(o.value))
        assert probe in g and (s.value, p.value, o.value) in g
        h = g.copy()
        h.discard(probe)
        assert probe not in h and len(h) == len(g) - 1 and probe in g
        assert g == parse_ntriples(serialize_canonical(g)), label


def _match_lines(g):
    """The repr of every view `match`, `objects` and `subjects` give for `g`'s terms, in order."""
    triples = list(g)
    subjects = sorted({t.s for t in triples})
    predicates = sorted({t.p for t in triples})
    objects = sorted({t.o for t in triples}, key=render_term)
    lines = [repr(t) for t in g.match()]
    for s in subjects:
        lines += map(repr, g.match(s=s))
        lines += [repr(o) for p in predicates for o in g.objects(s, p)]
    for p in predicates:
        lines += map(repr, g.match(p=p))
    for o in objects:
        lines += map(repr, g.match(o=o))
        lines += map(repr, g.subjects(RDF_TYPE, o))
    return lines


# taken over the same graphs when the graph stored `NamedTuple` terms: the
# views come out in the same order, with the same repr
_MATCH_LINES = 2897
_MATCH_DIGEST = "1dcbe13a1bd63218b9276b2727b9426192ae760e63ff64e156f67019a1e7b0a2"


def test_match_order_and_view_repr_are_unchanged():
    digest = hashlib.sha256()
    n = 0
    for label, g in _view_graphs():
        lines = _match_lines(g)
        n += len(lines)
        digest.update("\n".join([label.replace(" ", "/"), *lines, ""]).encode())
    assert (n, digest.hexdigest()) == (_MATCH_LINES, _MATCH_DIGEST)
