"""Graph model and canonical N-Triples round trips."""

import random
from itertools import product

import pytest

from wbforge.errors import BlankNodeUnsupportedError, NtSyntaxError, WbforgeError
from wbforge.namespaces import Iri
from wbforge.rdf import (
    XSD_STRING,
    Graph,
    Literal,
    Triple,
    escape_literal,
    parse_ntriples,
    render_term,
    render_triple,
    serialize_canonical,
)

S = Iri("http://x.example/s")
P = Iri("http://x.example/p")
O = Iri("http://x.example/o")
INT = Iri("http://www.w3.org/2001/XMLSchema#int")


def test_escape_literal():
    assert escape_literal('say "hi"\n\tdone\\') == 'say \\"hi\\"\\n\\tdone\\\\'


def test_render_term_forms():
    assert render_term(O) == "<http://x.example/o>"
    assert render_term(Literal("plain")) == '"plain"'
    assert render_term(Literal("7", INT)) == f'"7"^^<{INT.value}>'


def test_graph_is_a_set():
    g = Graph()
    g.add(Triple(S, P, O))
    g.add(Triple(S, P, O))
    assert len(g) == 1
    assert Triple(S, P, O) in g
    g.discard(Triple(S, P, O))
    assert len(g) == 0
    g.discard(Triple(S, P, O))  # idempotent


def test_copy_is_independent():
    g = Graph([Triple(S, P, O)])
    h = g.copy()
    h.add(Triple(S, P, Literal("x")))
    assert len(g) == 1 and len(h) == 2
    assert g != h


def test_match_and_accessors():
    g = Graph([Triple(S, P, O), Triple(S, P, Literal("a")), Triple(O, P, S)])
    assert len(g.match()) == 3
    assert len(g.match(s=S)) == 2
    assert g.match(s=S, p=P, o=O) == [Triple(S, P, O)]
    assert g.subjects(P, S) == [O]
    assert set(g.objects(S, P)) == {O, Literal("a")}


NODES = [Iri(f"http://x.example/n{i}") for i in range(4)]
PREDICATES = [Iri(f"http://x.example/p{i}") for i in range(3)]
# an IRI and literals spelled like it must stay distinct objects
OBJECTS = NODES + [Literal("http://x.example/n0"), Literal("n1"), Literal("1", INT)]


def _scan(triples, s, p, o):
    """What `match` must return: a filter over every triple, sorted."""
    found = [t for t in triples
             if (s is None or t.s == s) and (p is None or t.p == p)
             and (o is None or t.o == o)]
    return sorted(found, key=lambda t: (t.s.value, t.p.value, render_term(t.o)))


@pytest.mark.parametrize("seed", range(20))
def test_match_agrees_with_a_full_scan(seed):
    # add, discard and copy interleaved with every wildcard pattern
    rng = random.Random(seed)
    g, triples = Graph(), set()
    for _ in range(150):
        t = Triple(rng.choice(NODES), rng.choice(PREDICATES), rng.choice(OBJECTS))
        op = rng.randrange(4)
        if op < 2:
            g.add(t)
            triples.add(t)
        elif op == 2:
            g.discard(t)
            triples.discard(t)
        else:
            h = g.copy()
            h.add(t)
            assert g.match() == _scan(triples, None, None, None)  # the copy is separate
            if rng.randrange(2):
                g, triples = h, triples | {t}
        for pattern in product((None, t.s), (None, t.p), (None, t.o)):
            assert g.match(*pattern) == _scan(triples, *pattern), pattern


def test_serialize_sorted_and_newline_terminated():
    g = Graph([Triple(O, P, S), Triple(S, P, O)])
    text = serialize_canonical(g)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines == sorted(lines)
    assert len(lines) == 2


def test_parse_serialize_round_trip():
    rng = random.Random(7)
    g = Graph()
    for i in range(40):
        o = (Literal(f'v"{i}"\n', INT) if i % 3 == 0
             else Literal(f"w{i}") if i % 3 == 1
             else Iri(f"http://x.example/o{i}"))
        g.add(Triple(Iri(f"http://x.example/s{rng.randint(0, 9)}"), P, o))
    text = serialize_canonical(g)
    assert parse_ntriples(text) == g
    assert serialize_canonical(parse_ntriples(text)) == text


def test_plain_string_stays_bare():
    # xsd:string is the implied datatype, so the round trip is byte-stable
    g = Graph([Triple(S, P, Literal("x", XSD_STRING))])
    assert serialize_canonical(g).strip().endswith('"x" .')


def test_parse_allows_comments_and_blank_lines():
    g = parse_ntriples("# header\n\n<http://x.example/s> <http://x.example/p> \"v\" .\n")
    assert len(g) == 1


def test_parse_unicode_escapes():
    g = parse_ntriples('<http://x.example/s> <http://x.example/p> "caf\\u00e9" .\n')
    assert list(g)[0].o == Literal("café")


@pytest.mark.parametrize("text", [
    '<a:\\u12> <b:c> "x" .',  # \u without 4 hex digits
    '<a:b> <b:c> "\\U00110000" .',  # above U+10FFFF
    '<a:\\uD800> <b:c> "x" .',  # surrogate code point
])
def test_parse_rejects_bad_unicode_escapes(text):
    with pytest.raises(NtSyntaxError):
        parse_ntriples(text + "\n")


# raw lone surrogates come from text decoded with surrogateescape; UTF-8 cannot
# encode them, so hashing or writing the graph would fail later

def test_parse_rejects_a_raw_lone_surrogate_in_an_iri():
    with pytest.raises(WbforgeError, match="not an absolute IRI"):
        parse_ntriples('<http://x.example/\udcff> <http://x.example/p> "x" .\n')


def test_parse_rejects_a_raw_lone_surrogate_in_a_literal():
    with pytest.raises(NtSyntaxError, match="line 2: literal holds a lone surrogate"):
        parse_ntriples('<http://x.example/s> <http://x.example/p> "x" .\n'
                       '<http://x.example/s> <http://x.example/p> "caf\ud800" .\n')


_LINE_1 = '<http://x.example/s> <http://x.example/p> "x" .\n'
_IRI_POSITIONS = {
    "subject": '{} <http://x.example/p> "x" .\n',
    "predicate": '<http://x.example/s> {} "x" .\n',
    "object": '<http://x.example/s> <http://x.example/p> {} .\n',
    "datatype": '<http://x.example/s> <http://x.example/p> "x"^^{} .\n',
}


@pytest.mark.parametrize("position", _IRI_POSITIONS)
@pytest.mark.parametrize("iriref, text", [("<>", ""), ("<http://a\\u003Eb>", "http://a>b")])
def test_an_invalid_iri_is_a_syntax_error_on_its_line(position, iriref, text):
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + _IRI_POSITIONS[position].format(iriref))
    assert info.value.line == 2
    assert str(info.value) == f"line 2: not an absolute IRI: {text!r}"


@pytest.mark.parametrize("line_2, message", [
    # an escape error already names its line
    ('<http://a\\uD800> <> "x" .\n', "escape \\uD800 is not a Unicode scalar value"),
    ('<> <http://a\\uD800> "x" .\n', "not an absolute IRI: ''"),
    ('<http://x.example/s> <http://x.example/p> "caf\ud800"^^<> .\n',
     "literal holds a lone surrogate"),
    ('<http://x.example/s> <http://x.example/p> "\\q"^^<> .\n', "not an absolute IRI: ''"),
])
def test_the_first_fault_in_a_line_is_reported_once(line_2, message):
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + line_2)
    assert str(info.value) == f"line 2: {message}"


def test_parse_rejects_blank_nodes():
    with pytest.raises(BlankNodeUnsupportedError):
        parse_ntriples("_:b <http://x.example/p> <http://x.example/o> .\n")
    with pytest.raises(BlankNodeUnsupportedError):
        parse_ntriples("<http://x.example/s> <http://x.example/p> _:b .\n")


def test_parse_rejects_language_tags_and_junk():
    with pytest.raises(NtSyntaxError):
        parse_ntriples('<http://x.example/s> <http://x.example/p> "v"@en .\n')
    with pytest.raises(NtSyntaxError):
        parse_ntriples("not a triple\n")
    with pytest.raises(NtSyntaxError):
        parse_ntriples('<http://x.example/s> <http://x.example/p> "v"\n')  # missing dot


def test_render_triple():
    assert render_triple(Triple(S, P, Literal("v"))) == \
        '<http://x.example/s> <http://x.example/p> "v" .'
