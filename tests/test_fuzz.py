"""Seeded fuzzing: malformed input ends in a `WbforgeError`, never a traceback.

Character-level edits of the six N-Triples fixtures go through the
whole read path: parse, validate, render, infer, serialize and encode
as UTF-8. Triple-level edits of the fixture graphs, which parse cleanly
but put terms where the schema expects others, must validate, render
and infer without raising at all. The CLI runs on bad paths and bad
namespace roots and must exit with status 2. The `.wbs`/`.wbi` parsers
are fuzzed by the corpus in `dsl_corpus.py`. Every case is a pure
function of its seed, so a failure replays exactly.
"""

import random

import pytest

from wbforge.cli import ROOT_ENV, main
from wbforge.errors import WbforgeError
from wbforge.fixtures import FIXTURE_NAMES, fixture_path, load_bundle, load_fixture
from wbforge.namespaces import Iri
from wbforge.rdf import (
    XSD_STRING,
    Graph,
    Literal,
    Triple,
    parse_ntriples,
    render_triple,
    serialize_canonical,
)
from wbforge.validator import infer_truthy, render_report, validate

NT_CASES_PER_FIXTURE = 500
GRAPH_CASES_PER_FIXTURE = 400

# N-Triples punctuation and escapes, whitespace, name characters, a
# non-ASCII letter and a lone surrogate (what an undecodable byte becomes)
_CHARS = '<>"\\_:.^@# \t\r\nuU0aZé\udcff'


def _mutate(text: str, rng: random.Random) -> str:
    """One to four edits: delete, insert, replace or duplicate a character."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text))
        c = rng.choice(_CHARS)
        text = (text[:i], text[:i] + c + text[i], text[:i] + c,
                text[:i] + text[i] * 2)[rng.randrange(4)] + text[i + 1:]
    return text


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_mutated_ntriples_raise_only_wbforge_errors(name):
    schema, _ = load_fixture(name)
    text = fixture_path(name, "nt").read_text(encoding="utf-8")
    for seed in range(NT_CASES_PER_FIXTURE):
        mutated = _mutate(text, random.Random(seed))
        try:
            g = parse_ntriples(mutated)
            render_report(validate(schema, g)).encode("utf-8")
            serialize_canonical(infer_truthy(schema, g)).encode("utf-8")
        except WbforgeError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name} seed {seed}: {exc!r}") from exc


def _edit_triples(g: Graph, rng: random.Random) -> Graph:
    """One to three edits, each of a triple in place: its object swapped
    between IRI and literal, or its object or subject taken from another."""
    triples = sorted(g, key=render_triple)
    datatypes = sorted({XSD_STRING} | {t.o.datatype for t in triples if isinstance(t.o, Literal)})
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(triples))
        s, p, o = triples[i]
        other = rng.choice(triples)
        kind = rng.randrange(3)
        if kind == 0 and isinstance(o, Iri):
            o = Literal(o.local_name, rng.choice(datatypes))
        elif kind == 0:
            o = other.s
        elif kind == 1:
            o = other.o
        else:
            s = other.s
        triples[i] = Triple(s, p, o)
    return Graph(triples)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_edited_graphs_validate_render_and_infer(name):
    b = load_bundle(name)
    for seed in range(GRAPH_CASES_PER_FIXTURE):
        g = _edit_triples(b.graph, random.Random(seed))
        try:
            report = validate(b.schema, g)
            render_report(report)
            infer_truthy(b.schema, g)
        except Exception as exc:
            raise AssertionError(f"{name} seed {seed}: {exc!r}") from exc
        assert all(type(f.focus) is str for f in report.findings), (name, seed)


def _argv(command: str, paths: dict[str, str]) -> list[str]:
    second = {"export": ["instances"], "validate": ["graph"], "infer": ["graph"]}
    return [command, paths["schema"]] + [paths[k] for k in second.get(command, [])]


COMMANDS = ("expand", "axioms", "shapes", "export", "validate", "infer", "check")


@pytest.fixture
def good_paths() -> dict[str, str]:
    return {"schema": str(fixture_path("age-record", "wbs")),
            "instances": str(fixture_path("age-record", "wbi")),
            "graph": str(fixture_path("age-record", "nt"))}


def _exits_2(argv: list[str], capsys) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wbforge: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("bad", ["missing", "directory"])
def test_bad_input_path_exits_2(command, bad, good_paths, tmp_path, capsys):
    bad_path = str(tmp_path / "no-such-file") if bad == "missing" else str(tmp_path)
    argv = _argv(command, good_paths)
    for k in range(1, len(argv)):
        _exits_2(argv[:k] + [bad_path] + argv[k + 1:], capsys)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_in_a_missing_directory_exits_2(command, good_paths, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    _exits_2(_argv(command, good_paths) + ["-o", str(out)], capsys)
    assert not out.parent.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("root", ["", "x", "http://x y/"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_bad_root_exits_2(command, root, via, good_paths, monkeypatch, capsys):
    argv = _argv(command, good_paths)
    if via == "flag":
        argv += ["--root", root]
    else:
        monkeypatch.setenv(ROOT_ENV, root)
    _exits_2(argv, capsys)
