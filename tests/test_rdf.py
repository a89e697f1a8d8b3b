"""Graph model and canonical N-Triples round trips."""

import random
import re
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402
from wbforge import rdf
from wbforge.dsl import parse_instances, parse_schema
from wbforge.errors import BlankNodeUnsupportedError, NtSyntaxError, WbforgeError
from wbforge.exporter import export
from wbforge.fixtures import FIXTURE_NAMES, load_fixture
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
        assert g.subjects(t.p, t.o) == [u.s for u in _scan(triples, None, t.p, t.o)]
        for s in NODES:                   # the edge view agrees with objects()
            view = g.edges(s)
            assert set(view) == {t.p for t in triples if t.s == s}
            for p in PREDICATES:
                assert view.get(p, []) == g.objects(s, p)


@pytest.mark.parametrize("pattern, hits", [
    ((S, P, Literal("none")), 0),
    ((S, P, O), 1),
    ((None, None, Literal("1", INT)), 1),
    ((S, P, None), 4),
    ((None, P, None), 5),
])
def test_match_sorts_any_number_of_hits_as_a_full_scan(pattern, hits):
    triples = [Triple(S, P, Literal("b")), Triple(S, P, Literal("1", INT)), Triple(S, P, O),
               Triple(S, P, Literal("a")), Triple(O, P, S)]
    found = Graph(triples).match(*pattern)
    assert len(found) == hits
    assert found == _scan(triples, *pattern)


def test_match_orders_bound_patterns_and_renders_once_per_hit(monkeypatch):
    # with every object rendered as "", the order comes from (s, p) alone
    rendered = []
    monkeypatch.setattr(rdf, "render_term", lambda t: rendered.append(t) or "")
    g = Graph([Triple(n, P, O) for n in NODES] + [Triple(S, p, O) for p in PREDICATES])
    assert g.subjects(P, O) == NODES
    assert [t.p for t in g.match(S, None, O)] == PREDICATES
    assert len(g.match(None, None, O)) == len(NODES) + len(PREDICATES)
    rendered.clear()
    g.match(S)
    assert len(rendered) == len(PREDICATES)


def test_serialize_sorted_and_newline_terminated():
    g = Graph([Triple(O, P, S), Triple(S, P, O)])
    text = serialize_canonical(g)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines == sorted(lines)
    assert len(lines) == 2


def test_serialize_an_empty_graph_is_empty():
    assert serialize_canonical(Graph()) == ""


def test_serialize_one_triple_ends_in_one_newline():
    text = serialize_canonical(Graph([Triple(S, P, O)]))
    assert text == render_triple(Triple(S, P, O)) + "\n"


def _export(name: str) -> Graph:
    if name == "record":
        schema = parse_schema(corpus.RECORD_SCHEMA)
        return export(schema, parse_instances(corpus.record_instances(random.Random(3), 40).text))
    return export(*load_fixture(name))


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "record"])
def test_serialize_matches_one_line_per_sorted_triple(name):
    g = _export(name)
    assert serialize_canonical(g) == "".join(l + "\n" for l in sorted(map(render_triple, g)))


# the canonical form as rendered before the inline serializer: one
# `render_triple` per triple, with every literal translated
_FROZEN_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _frozen_render_triple(t: Triple) -> str:
    if isinstance(t.o, Iri):
        o = f"<{t.o.value}>"
    elif t.o.datatype == XSD_STRING:
        o = f'"{t.o.lexical.translate(_FROZEN_ESCAPES)}"'
    else:
        o = f'"{t.o.lexical.translate(_FROZEN_ESCAPES)}"^^<{t.o.datatype.value}>'
    return f"<{t.s.value}> <{t.p.value}> {o} ."


def _frozen_serialize(g: Graph) -> str:
    return "".join(line + "\n" for line in sorted(map(_frozen_render_triple, g)))


ESCAPE_TEXTS = ["plain", "", "a\\b", 'say "hi"', "two\nlines", "cr\rhere", "tab\there",
                'all \\ " \n \r \t of them', "\\\\", '""', "x\n\ny\t"]


@pytest.mark.parametrize("text", ESCAPE_TEXTS)
def test_serialize_escapes_literals_as_the_per_triple_form(text):
    g = Graph([Triple(S, P, Literal(text)), Triple(S, P, Literal(text, INT)),
               Triple(O, P, Literal(text + "!", INT))])
    assert serialize_canonical(g) == _frozen_serialize(g)
    for t in g:
        assert render_triple(t) == _frozen_render_triple(t)


def test_serialize_keeps_an_iri_and_a_literal_of_one_text_apart():
    g = Graph([Triple(S, P, O), Triple(S, P, Literal(O.value)),
               Triple(S, P, Literal(O.value, INT))])
    text = serialize_canonical(g)
    assert text == _frozen_serialize(g)
    assert text.count(f"<{O.value}> .") == 1 and len(text.splitlines()) == 3


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "record"])
def test_serialize_matches_the_frozen_per_triple_form(name):
    g = _export(name)
    assert serialize_canonical(g) == _frozen_serialize(g)


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
@pytest.mark.parametrize("iriref, text", [
    ("<>", ""), ("<http://a\\u003Eb>", "http://a>b"),
    ("<x>", "x"), ("<1a:b>", "1a:b"), ("<http://a\\u007Cb>", "http://a|b"),
])
def test_an_invalid_iri_is_a_syntax_error_on_its_line(position, iriref, text):
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + _IRI_POSITIONS[position].format(iriref))
    assert info.value.line == 2
    assert str(info.value) == f"line 2: not an absolute IRI: {text!r}"


@pytest.mark.parametrize("position", _IRI_POSITIONS)
@pytest.mark.parametrize("char", "{}|^`")
def test_a_raw_character_outside_iriref_is_a_syntax_error_on_its_line(position, char):
    line = _IRI_POSITIONS[position].format(f"<http://a{char}b>")
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + line)
    assert str(info.value) == f"line 2: cannot parse triple: {line.strip()!r}"


_BACKSLASH_MESSAGES = {
    "<http://a\\\\b>": "escape \\\\ is not allowed in an IRI",   # an ECHAR, refused as such
    "<http://a\\u005Cb>": "not an absolute IRI: 'http://a\\\\b'",
    "<http://a\\U0000005cb>": "not an absolute IRI: 'http://a\\\\b'",
}


@pytest.mark.parametrize("position", _IRI_POSITIONS)
@pytest.mark.parametrize("iriref", _BACKSLASH_MESSAGES)
def test_an_iri_holding_a_backslash_is_a_syntax_error(position, iriref):
    # serialize_canonical writes IRIs raw, so a backslash would read back as an escape
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + _IRI_POSITIONS[position].format(iriref))
    assert str(info.value) == f"line 2: {_BACKSLASH_MESSAGES[iriref]}"


@pytest.mark.parametrize("position", _IRI_POSITIONS)
@pytest.mark.parametrize("echar", ["t", "b", "n", "r", "f", "'", "\\"])
def test_an_echar_in_an_iri_is_a_syntax_error_on_its_line(position, echar):
    # N-Triples allows ECHAR in literals only; `\\'` would otherwise read as a
    # quote and `\\b` as U+0008 (`\\"` never gets here: a quote ends the IRIREF)
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + _IRI_POSITIONS[position].format(f"<http://x.example/a\\{echar}b>"))
    assert info.value.line == 2
    assert str(info.value) == f"line 2: escape \\{echar} is not allowed in an IRI"


@pytest.mark.parametrize("position", _IRI_POSITIONS)
@pytest.mark.parametrize("uchar", ["\\u0000", "\\u0008", "\\U0000001f"])
def test_a_uchar_spelling_a_control_character_is_refused_in_an_iri(position, uchar):
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + _IRI_POSITIONS[position].format(f"<http://x.example/a{uchar}>"))
    decoded = "http://x.example/a" + chr(int(uchar[2:], 16))
    assert info.value.line == 2
    assert str(info.value) == f"line 2: not an absolute IRI: {decoded!r}"


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


def test_repeated_iri_text_is_one_object_within_a_parse_only():
    # the stored terms: a view is built afresh on each read
    text = ('<http://x.example/s> <http://x.example/p> <http://x.example/o> .\n'
            '<http://x.example/s> <http://x.example/p> "x"^^<http://x.example/o> .\n')
    b, a = sorted(parse_ntriples(text)._triples, key=render_triple)   # the literal sorts first
    assert a[0] is b[0] and a[1] is b[1] and b[2][1] is a[2]
    again = {id(term) for t in parse_ntriples(text)._triples for term in t[:2]}
    assert not again & {id(a[0]), id(a[1])}


def test_escaped_and_plain_iri_spellings_are_one_term():
    g = parse_ntriples('<http://x.example/s> <http://x.example/p> "x"^^<http://x.example/o> .\n'
                       '<http://x.example/\\u0073> <http://x.example/\\U00000070> '
                       '"x"^^<http://x.example/\\u006f> .\n')
    assert list(g) == [Triple(S, P, Literal("x", O))]


@pytest.mark.parametrize("position", _IRI_POSITIONS)
@pytest.mark.parametrize("iriref, message", [
    ("<http://x.example/\\u0073\\q>", "bad escape \\q"),
    ("<http://x.example/\\u0073\\u12>", "bad escape \\u"),
    ("<http://x.example/s\\u0020>", "not an absolute IRI: 'http://x.example/s '"),
])
def test_a_fault_after_a_valid_use_of_its_iri_names_its_own_line(position, iriref, message):
    valid = _IRI_POSITIONS[position].format("<http://x.example/s>")
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + valid + valid + _IRI_POSITIONS[position].format(iriref))
    assert info.value.line == 4
    assert str(info.value) == f"line 4: {message}"


def test_parse_rejects_blank_nodes():
    with pytest.raises(BlankNodeUnsupportedError):
        parse_ntriples("_:b <http://x.example/p> <http://x.example/o> .\n")
    with pytest.raises(BlankNodeUnsupportedError) as info:
        parse_ntriples("<http://x.example/s> <http://x.example/p> _:b .\n")
    # a kind of syntax error: one `except NtSyntaxError` catches both
    assert isinstance(info.value, NtSyntaxError)
    assert (info.value.line, info.value.message, str(info.value)) == (
        1, "blank nodes are not supported", "line 1: blank nodes are not supported")


@pytest.mark.parametrize("lexical", ["see _:note", "see\t_:note"])
def test_literal_holding_blank_node_syntax_parses(lexical):
    g = parse_ntriples(f'<http://x.example/s> <http://x.example/p> "{lexical}" .\n')
    assert list(g)[0].o == Literal(lexical)


def test_blank_node_predicate_is_a_syntax_error():
    with pytest.raises(NtSyntaxError):
        parse_ntriples("<http://x.example/s> _:p <http://x.example/o> .\n")


def test_parse_rejects_language_tags_and_junk():
    with pytest.raises(NtSyntaxError):
        parse_ntriples('<http://x.example/s> <http://x.example/p> "v"@en .\n')
    with pytest.raises(NtSyntaxError):
        parse_ntriples("not a triple\n")
    with pytest.raises(NtSyntaxError):
        parse_ntriples('<http://x.example/s> <http://x.example/p> "v"\n')  # missing dot


# N-Triples whitespace is space and tab; no other space or break separates terms
_NOT_NT_WHITESPACE = ["\x0b", "\x0c", "\x85", "\xa0", "\u2003", "\u3000"]
_WHITESPACE_PLACES = {
    "between terms": "<http://x.example/s>{}<http://x.example/p> <http://x.example/o> .",
    "before the dot": '<http://x.example/s> <http://x.example/p> "v"{}.',
    "at the end": "<http://x.example/s> <http://x.example/p> <http://x.example/o> .{}",
}


@pytest.mark.parametrize("place", _WHITESPACE_PLACES)
@pytest.mark.parametrize("char", _NOT_NT_WHITESPACE)
def test_only_space_and_tab_are_whitespace(place, char):
    line = _WHITESPACE_PLACES[place].format(char)
    with pytest.raises(NtSyntaxError) as info:
        parse_ntriples(_LINE_1 + line + "\n")
    assert info.value.line == 2
    assert str(info.value) == f"line 2: cannot parse triple: {line!r}"
    assert len(parse_ntriples(_LINE_1 + _WHITESPACE_PLACES[place].format(" \t") + "\n")) == 2


def test_crlf_lines_read_as_lf_lines():
    text = _LINE_1 + '<http://x.example/s> <http://x.example/p> "y" .\n'
    assert parse_ntriples(text.replace("\n", "\r\n")) == parse_ntriples(text)


def test_render_triple():
    assert render_triple(Triple(S, P, Literal("v"))) == \
        '<http://x.example/s> <http://x.example/p> "v" .'


# The line patterns as they stood before the IRIREF class was spelled
# positively and the literal body unrolled, frozen as the reference the
# reader's patterns must agree with. Terms are separated by N-Triples
# whitespace, `[ \t]`: the reference once had `\s`, which also takes
# U+000B, U+000C, U+0085, U+00A0, U+2003, U+3000 and the like.
_REFERENCE_TRIPLE_RE = re.compile(
    r'^<([^\x00-\x20<>"{}|^`]*)>[ \t]+<([^\x00-\x20<>"{}|^`]*)>[ \t]+'
    r'(?:<([^\x00-\x20<>"{}|^`]*)>|"((?:[^"\\]|\\.)*)"'
    r'(?:\^\^<([^\x00-\x20<>"{}|^`]*)>|@([A-Za-z0-9-]+))?)[ \t]*\.[ \t]*$')
_REFERENCE_BLANK_NODE_RE = re.compile(
    r'^(?:_:|<([^\x00-\x20<>"{}|^`]*)>[ \t]+<([^\x00-\x20<>"{}|^`]*)>[ \t]+_:)')

# characters the patterns treat specially, plus ordinary ones either side of them
_FUZZ_ALPHABET = ['<', '>', '"', '\\', '^', '@', '{', '}', '|', ' ', '\t', '\ud800',
                  'a', 'u', '0', '.', ':', '/', '_', '-', '`', '\x00', '\x0b', '\x7f',
                  '\x85', '\xa0', '\u00e9', '\u3000', '\U0001f600']
_FUZZ_IRIS = ['<http://x.example/s>', '<urn:a>', '<>', '<a\\u0041>']
_FUZZ_TERMS = _FUZZ_IRIS + ['"v"', '""', '"a\\"b"', '"\\\\"', '"x"^^<http://x.example/d>',
                            '"x"@en', '_:b']


def _fuzz_line(rng: random.Random) -> str:
    """A triple-like line, then a few single-character edits."""
    terms = ([rng.choice(_FUZZ_IRIS), rng.choice(_FUZZ_IRIS), rng.choice(_FUZZ_TERMS)]
             if rng.randrange(4) else rng.choices(_FUZZ_TERMS, k=rng.randint(1, 4)))
    chars = list(rng.choice([" ", "\t", "  "]).join(terms)
                 + rng.choice([" .", ".", " . ", "", " ;"]))
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or not chars[i:]:
            chars.insert(i, rng.choice(_FUZZ_ALPHABET))
        elif op == 1:
            chars[i] = rng.choice(_FUZZ_ALPHABET)
        else:
            del chars[i]
    return "".join(chars)


@pytest.mark.parametrize("seed", range(4))
def test_line_patterns_agree_with_the_frozen_reference(seed):
    rng = random.Random(seed)
    matched = 0
    for _ in range(5000):
        line = _fuzz_line(rng)
        want = _REFERENCE_TRIPLE_RE.match(line)
        got = rdf._TRIPLE_RE.match(line)
        assert (got and got.groups()) == (want and want.groups()), repr(line)
        matched += got is not None
        want = _REFERENCE_BLANK_NODE_RE.match(line)
        got = rdf._BLANK_NODE_RE.match(line)
        assert (got and got.groups()) == (want and want.groups()), repr(line)
    assert 0 < matched < 5000      # the fuzz reaches both outcomes


def _brute_index(triples, i):
    # by s (0) or by p (1); patterns that bind only o are covered by
    # test_match_agrees_with_a_full_scan. An IRI and a literal do not order
    # against each other, so each bucket is sorted on its rendered text.
    return {term: sorted((t for t in triples if t[i] == term), key=render_triple)
            for term in {t[i] for t in triples}}


@pytest.mark.parametrize("seed", range(10))
def test_indexes_equal_a_brute_force_build(seed):
    # each step reads neither, one or both indexes, so an index read before
    # a change and read again after it would show up stale
    rng = random.Random(seed)
    g, triples = Graph(), set()
    for _ in range(60):
        t = Triple(rng.choice(NODES), rng.choice(PREDICATES), rng.choice(OBJECTS))
        if rng.randrange(3):
            g.add(t)
            triples.add(t)
        else:
            g.discard(t)
            triples.discard(t)
        for i in (0, 1):
            for _ in range(rng.randrange(3)):
                built = {term: sorted(hits, key=render_triple)
                         for term, hits in g._index(i).items()}
                assert built == _brute_index(triples, i)
        if rng.randrange(2):
            assert g.predicates() == {t.p for t in triples}


def test_duplicate_lines_parse_to_one_triple():
    line = '<http://x.example/s> <http://x.example/p> "v"^^<http://x.example/o> .\n'
    g = parse_ntriples(line + line + "\n" + line)
    assert list(g) == [Triple(S, P, Literal("v", O))]


def test_repeated_literal_text_is_one_object_within_a_parse_only():
    text = ('<http://x.example/s> <http://x.example/p> "a\\tb" .\n'
            '<http://x.example/o> <http://x.example/p> "a\\tb" .\n'
            '<http://x.example/s> <http://x.example/p> "a\\tb"^^<http://x.example/o> .\n')
    by_s = {}
    for s, _, o in parse_ntriples(text)._triples:      # the stored terms
        by_s.setdefault(s, []).append(o)
    (plain, typed), (other,) = sorted(by_s[S], key=render_term), by_s[O]
    assert plain == Literal("a\tb") and typed == Literal("a\tb", O)
    assert plain is other and type(plain) is tuple
    assert not any(t[2] is plain for t in parse_ntriples(text)._triples)
