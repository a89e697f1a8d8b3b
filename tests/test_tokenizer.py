"""The one-regex tokenizer against the per-pattern loop it replaced.

`reference_tokenize` is the earlier tokenizer, kept verbatim but for
building plain `(kind, text, line, col)` tuples, as tokens now are: it
tries each pattern in turn at every position. `dsl.tokenize` must give
the same token list on every input, and the same `DslSyntaxError` line,
column and message where the input has no valid token.
"""

import gc
import random
import re
import time

import pytest

from generators import random_schema
from wbforge.dsl import Token, print_schema, tokenize
from wbforge.errors import DslSyntaxError
from wbforge.fixtures import FIXTURE_NAMES, fixture_path

_NAME = r"[A-Za-z_][A-Za-z0-9_-]*"
_REFERENCE_RES = (
    ("IRIREF", re.compile(r"<[^<>\s]*>")),
    ("DATETIME", re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")),
    ("DECIMAL", re.compile(r"-?[0-9]+\.[0-9]+")),
    ("PUNCT", re.compile(r"->")),
    ("INT", re.compile(r"-?[0-9]+")),
    ("STRING", re.compile(r'"(?:[^"\\\n]|\\.)*"')),
    ("CURIE", re.compile(rf"{_NAME}:{_NAME}")),
    ("IDENT", re.compile(_NAME)),
    ("PUNCT", re.compile(r"[{}:=,]")),
)


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        for kind, rx in _REFERENCE_RES:
            m = rx.match(text, i)
            if m:
                tokens.append((kind, m.group(), line, col))
                col += m.end() - i
                i = m.end()
                break
        else:
            raise DslSyntaxError(line, col, f"a token (found {c!r})")
    tokens.append(("EOF", "", line, col))
    return tokens


def outcome(tokenizer, text: str):
    """The token list, or the error's (line, col, message)."""
    try:
        return tokenizer(text)
    except DslSyntaxError as exc:
        return (exc.line, exc.col, str(exc))


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), repr(text)


FIXTURE_TEXTS = [fixture_path(name, ext).read_text(encoding="utf-8")
                 for name in FIXTURE_NAMES for ext in ("wbs", "wbi")]


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_fixture_token_streams_match(text):
    tokens = tokenize(text)
    assert isinstance(tokens, list)
    assert tokens == reference_tokenize(text)


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_tokens_are_plain_tuples_the_collector_untracks(text):
    tokens = tokenize(text)
    assert {type(tok) for tok in tokens} == {tuple}
    gc.collect()
    assert not any(gc.is_tracked(tok) for tok in tokens)


@pytest.mark.parametrize("seed", range(30))
def test_generated_schema_token_streams_match(seed):
    assert_same(print_schema(random_schema(random.Random(seed))))


EDGE_CASES = [
    "-1.5",
    "->",
    "-1",
    "- 1",
    "a->b",
    "2020-01-01T00:00:00Z",
    "2020-01-01T00:00:00",
    "a:b",
    "a",
    "a:",
    "a : b",
    '"unterminated',
    '"line\nbreak"',
    '"esc \\" quote" x',
    "ok @ here",
    "\n\n  \t$",
    "<http://x.example/a b>",
    "x # comment",
    "x # comment\ny",
    "# only a comment",
    "",
    "\r\n\t",
    "{ } : = , ->",
    "item wd:a : ex:P { ex:v -> decimal 1e3 }",
    # each match takes the spaces in front of it: trailing spaces, a final
    # comment, an error after spaces and a CRLF line end
    "x   ",
    "   ",
    "x \t\r",
    "x  # c",
    "x #",
    "x \t # c\n  y  ",
    "  @",
    "x\n \t~",
    "a\r\n  b",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match(text):
    assert_same(text)


@pytest.mark.parametrize("text", ['"unterminated', "ok @ here", "x\n  ~"])
def test_bad_input_raises_at_the_same_position(text):
    with pytest.raises(DslSyntaxError) as ours:
        tokenize(text)
    with pytest.raises(DslSyntaxError) as ref:
        reference_tokenize(text)
    assert (ours.value.line, ours.value.col) == (ref.value.line, ref.value.col)
    assert ours.value.expected == ref.value.expected


def test_trailing_spaces_take_linear_time():
    # a scan that tried a match at each trailing space would take seconds here
    text = "x" + " \t" * 10_000
    started = time.perf_counter()
    assert_same(text)
    assert time.perf_counter() - started < 1.0


def test_mutated_fixtures_match():
    """Seeded single-character edits: same tokens, or the same error."""
    rng = random.Random(4)
    alphabet = '<>"\\#:-.{}=,\n\t aZ09_T@~'
    for _ in range(300):
        text = rng.choice(FIXTURE_TEXTS)
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        c = rng.choice(alphabet)
        if edit == "insert":
            text = text[:i] + c + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
        assert_same(text)
