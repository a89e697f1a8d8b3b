"""Tuple-backed terms against the frozen dataclasses they replaced.

`reference_terms` keeps the earlier `Iri`, `Literal` and `Triple`. Built
from the same seeded random text, the new and the old terms must agree
on equality, hashing, sorted order, `repr`, `str` and the IRI check.
Being tuples, the new terms also equal plain tuples of their fields;
the checks at the end pin down that no two kinds of term can meet that
way.
"""

import random

import pytest

import reference_terms as old
from wbforge.dsl import tokenize
from wbforge.errors import WbforgeError
from wbforge.namespaces import Iri
from wbforge.rdf import XSD_STRING, Graph, Literal, Triple

_DATATYPES = (XSD_STRING.value, "http://www.w3.org/2001/XMLSchema#decimal", "http://x.example/#d")


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
            assert hash(new) == hash(ref)   # so sets of terms also iterate alike
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

