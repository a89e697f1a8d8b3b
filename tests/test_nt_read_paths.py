"""`parse_ntriples`'s two ways of reading a line, and its walk over the text.

A canonical line, `<s> <p> o .` with single spaces, is read by its three
parts; every other line goes through `_TRIPLE_RE`. One space before a line
changes nothing it means and sends it down the strict loop, so each text
here is read both ways and the results compared: the same graph, or the
same error type, message and line.
"""

import random
from types import SimpleNamespace

import pytest

import nt_corpus  # puts bench/ on sys.path
import corpus  # noqa: E402
from wbforge import rdf
from wbforge.dsl import parse_instances, parse_schema
from wbforge.errors import BlankNodeUnsupportedError, NtSyntaxError, WbforgeError
from wbforge.exporter import export
from wbforge.namespaces import Iri
from wbforge.rdf import Literal, Triple, parse_ntriples, serialize_canonical


def spaced(text: str) -> str:
    """`text` with one space before every line, so no line is canonical."""
    return "\n".join(" " + line for line in text.split("\n"))


def outcome(text: str):
    """The graph `text` parses to, or the error's type, message and line."""
    try:
        return parse_ntriples(text)
    except WbforgeError as exc:
        return type(exc), str(exc), exc.line


def assert_paths_agree(text: str):
    got = outcome(text)
    assert outcome(spaced(text)) == got
    return got


def _record_export(persons: int, seed: int = 1) -> str:
    schema = parse_schema(corpus.RECORD_SCHEMA)
    instances = corpus.record_instances(random.Random(seed), persons)
    return serialize_canonical(export(schema, parse_instances(instances.text)))


def test_corpus_texts_read_alike_both_ways():
    # the six fixtures, record exports with seeds 1-3, hand-written faults and their variants
    for label, text in nt_corpus.texts():
        assert outcome(spaced(text)) == outcome(text), label


@pytest.fixture
def strict(monkeypatch) -> list[str]:
    """The lines the strict loop reads, as it reads them."""
    lines, match = [], rdf._TRIPLE_RE.match
    monkeypatch.setattr(rdf, "_TRIPLE_RE", SimpleNamespace(
        match=lambda line: lines.append(line) or match(line)))
    return lines


def test_a_canonical_export_never_reaches_the_strict_loop(strict):
    text = _record_export(5)
    g = parse_ntriples(text)
    assert strict == [] and serialize_canonical(g) == text
    assert parse_ntriples(spaced(text)) == g
    assert len(strict) == len(g)


def test_escaped_iris_stay_on_the_canonical_path(strict):
    text = r'<http://x.example/\u0041> <http://x.example/p> "x"^^<http://x.example/\u0064> .'
    g = parse_ntriples(text)
    assert strict == []
    assert list(g) == [Triple(Iri("http://x.example/A"), Iri("http://x.example/p"),
                              Literal("x", Iri("http://x.example/d")))]
    assert parse_ntriples(spaced(text)) == g and len(strict) == 1


def test_one_iri_read_three_ways_is_one_object():
    d = "http://x.example/d"
    g = parse_ntriples(f'<{d}> <http://x.example/p> "x" .\n'
                       f'<http://x.example/s> <http://x.example/p> "y"^^<{d}> .\n'
                       f'<http://x.example/s>\t<http://x.example/p>\t<{d}>\t.\n')
    (subject,) = {t[0] for t in g._triples} - {"http://x.example/s"}
    (datatype,) = [t[2][1] for t in g._triples if type(t[2]) is tuple and t[2][0] == "y"]
    (obj,) = [t[2] for t in g._triples if t[2] == d]
    assert subject == d and subject is datatype is obj


GOOD = '<http://x.example/s> <http://x.example/p> "x" .'
# each line follows GOOD, so its IRIs and the literal "x" are already in the memo
HAND_WRITTEN = {
    "tabs": '<http://x.example/s>\t<http://x.example/p>\t"x"\t.',
    "tab before the dot": '<http://x.example/s> <http://x.example/p> "x"\t.',
    "doubled space before the dot": '<http://x.example/s> <http://x.example/p> "x"  .',
    "no space before the dot": '<http://x.example/s> <http://x.example/p> "x".',
    "doubled space between terms": '<http://x.example/s>  <http://x.example/p> "x" .',
    "space after the dot": '<http://x.example/s> <http://x.example/p> "y" . ',
    "carriage return": '<http://x.example/s> <http://x.example/p> "y" .\r',
    "escaped IRI": r'<http://x.example/\u0041> <http://x.example/p> "x" .',
    "escaped datatype": r'<http://x.example/s> <http://x.example/p> "x"^^<http://x.example/\u0041> .',
    "bad escape in an IRI": r'<http://x.example/\q> <http://x.example/p> "x" .',
    "empty datatype": '<http://x.example/s> <http://x.example/p> "x"^^<> .',
    "empty subject": '<> <http://x.example/p> "x" .',
    "empty object": '<http://x.example/s> <http://x.example/p> <> .',
    "literal subject": '"x" <http://x.example/p> <http://x.example/o> .',
    "literal predicate": '<http://x.example/s> "x" <http://x.example/o> .',
    "language tag": '<http://x.example/s> <http://x.example/p> "x"@en .',
    "blank subject": '_:b <http://x.example/p> "x" .',
    "blank predicate": '<http://x.example/s> _:b "x" .',
    "blank object": '<http://x.example/s> <http://x.example/p> _:b .',
    "fourth term": '<http://x.example/s> <http://x.example/p> "x" <http://x.example/g> .',
    "fourth term after an IRI": '<http://x.example/s> <http://x.example/p> <http://x.example/o> <http://x.example/g> .',
    "two terms": '<http://x.example/s> <http://x.example/p> .',
    "one term": '<http://x.example/s> .',
    "only a dot": ' .',
    "literal holding space dot": '<http://x.example/s> <http://x.example/p> "a . b ." .',
    "literal holding quote and datatype": r'<http://x.example/s> <http://x.example/p> "a\"^^<http://x.example/d> ." .',
    "two literals": '<http://x.example/s> <http://x.example/p> "x" . "x" .',
    "IRI holding a space": '<http://x.example/s> <http://x.example/p> <http://x.example/a b> .',
    "IRI holding a bracket": '<http://x.example/a>b> <http://x.example/p> "x" .',
    "relative IRI": '<s> <http://x.example/p> "x" .',
    "lone surrogate in a literal": '<http://x.example/s> <http://x.example/p> "\ud800" .',
    "bad escape in a literal": r'<http://x.example/s> <http://x.example/p> "\q" .',
    "comment ending in space dot": '# <http://x.example/s> <http://x.example/p> "x" .',
    "comment right after the hash": '#<http://x.example/s> <http://x.example/p> "x" .',
    "blank line": '',
    "spaces only": '   ',
}


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_lines_read_alike_both_ways(name):
    assert_paths_agree(f"{GOOD}\n{HAND_WRITTEN[name]}\n{GOOD}\n")


@pytest.mark.parametrize("name, expected", [
    ("tabs", 1),
    ("literal holding space dot", 2),
    ("literal holding quote and datatype", 2),
    ("escaped IRI", 2),
    ("comment ending in space dot", 1),
    ("literal subject", (NtSyntaxError, 2)),
    ("literal predicate", (NtSyntaxError, 2)),
    ("empty subject", (NtSyntaxError, 2)),
    ("empty datatype", (NtSyntaxError, 2)),
    ("language tag", (NtSyntaxError, 2)),
    ("fourth term", (NtSyntaxError, 2)),
    ("blank object", (BlankNodeUnsupportedError, 2)),
])
def test_hand_written_lines_parse_or_fail_on_their_line(name, expected):
    got = outcome(f"{GOOD}\n{HAND_WRITTEN[name]}\n{GOOD}\n")
    if isinstance(expected, int):       # the graph's size
        assert isinstance(got, rdf.Graph) and len(got) == expected
    else:
        assert (got[0], got[2]) == expected


def test_a_line_with_a_failing_part_gets_the_strict_loop_s_fault():
    bad = '<http://x.example/s> <http://x.example/p> <http://x.example/a b> .'
    for text in (f"{bad}\n{GOOD}\n", f"{GOOD}\n{bad}\n{bad}\n"):
        with pytest.raises(NtSyntaxError) as info:
            parse_ntriples(text)
        assert info.value.message == "cannot parse triple: " + repr(bad)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("text", ["", "\n", "a", "a\n", "\n\n", "ab\ncd", "ab\n\ncd\n",
                                  "abc\nd\nefgh\n\nij\nk"])
def test_lines_are_the_lines_split_gives(block, text, monkeypatch):
    monkeypatch.setattr(rdf, "_BLOCK", block)
    assert list(rdf._lines(text)) == text.split("\n")


@pytest.fixture(scope="module")
def large_export() -> str:
    text = _record_export(1000)
    assert len(text) > 4 * rdf._BLOCK
    return text


def test_an_export_of_several_blocks_reads_alike_both_ways(large_export):
    assert list(rdf._lines(large_export)) == large_export.split("\n")
    g = assert_paths_agree(large_export)
    assert serialize_canonical(g) == large_export


def test_a_fault_in_a_later_block_names_its_absolute_line(large_export):
    lines = large_export.split("\n")
    first_cut = large_export.index("\n", rdf._BLOCK)
    last_of_block_1 = large_export.count("\n", 0, first_cut) + 1
    for line_no in (last_of_block_1, last_of_block_1 + 1, len(lines) // 2, len(lines) - 1):
        faulty = list(lines)
        faulty[line_no - 1] = faulty[line_no - 1].replace("<http", "<", 1)
        got = assert_paths_agree("\n".join(faulty))
        assert got[0] is NtSyntaxError and got[2] == line_no
