"""Print what `parse_ntriples` makes of a fixed corpus of N-Triples texts.

Run it on two checkouts and compare the outputs byte for byte to show
that a change to the N-Triples reader keeps every parsed graph, every
error type and message, and the line each error names:

    PYTHONPATH=src python tests/nt_corpus.py > nt.txt

The base texts are the six fixture `.nt` files, record exports of the
benchmark schema (`bench/corpus.py`, seeds 1-3), and hand-written lines
covering escapes in IRIs and literals, empty IRIs, language tags, blank
nodes in each position and literals that look like blank nodes. Each
variant takes a seeded window of one to six lines of a base text and
applies one to four edits to it; an edit deletes, inserts or replaces
one to four characters, the inserted text drawn from a pool of escapes
and N-Triples punctuation or copied from elsewhere in the window. The output for every text is
`serialize_canonical(g)`, or the error type and message. Any exception
other than `WbforgeError` escapes.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

import corpus  # noqa: E402
from wbforge.dsl import parse_instances, parse_schema  # noqa: E402
from wbforge.errors import WbforgeError  # noqa: E402
from wbforge.exporter import export  # noqa: E402
from wbforge.fixtures import FIXTURE_NAMES, fixture_path  # noqa: E402
from wbforge.rdf import parse_ntriples, serialize_canonical  # noqa: E402

VARIANTS = 3000

# every ECHAR, UCHAR escapes of both lengths, and the escapes that must fail
_HAND_WRITTEN = r"""# escapes in IRIs and literals
<http://x.example/café> <http://x.example/p> "café" .
<http://x.example/café> <http://x.example/p> "caf\U000000e9" .
<http://x.example/café> <http://x.example/p> <http://x.example/\U0001F600> .
<http://x.example/s> <http://x.example/p> "\t\b\n\r\f\"\'\\" .
<http://x.example/s> <http://x.example/p> "a\\u0041" .
<http://x.example/s> <http://x.example/p> "A"^^<http://www.w3.org/2001/XMLSchema#int> .
<http://x.example/s> <http://x.example/p> <http://x.example/o> .
<http://x.example/s> <http://x.example/p> <http://x.example/o> .
<http://x.example/s> <http://x.example/p> "see _:note" .
<http://x.example/s> <http://x.example/p> "see	_:note" .
<http://x.example/s> <http://x.example/p> "" .
<http://x.example/s>	<http://x.example/p>	"tabs"	.
"""

# one fault each; a fault on a later line follows a line that uses the same IRI
_FAULTS = (
    r'<http://x.example/a\u12> <http://x.example/p> "x" .',
    r'<http://x.example/s> <http://x.example/p> "\u00e" .',
    r'<http://x.example/s> <http://x.example/p> "\uD800" .',
    r'<http://x.example/\uDFFF> <http://x.example/p> "x" .',
    r'<http://x.example/s> <http://x.example/p> "\U00110000" .',
    r'<http://x.example/\U00110000> <http://x.example/p> "x" .',
    r'<http://x.example/s> <http://x.example/p> "\q" .',
    r'<http://x.example/a\q> <http://x.example/p> "x" .',
    r'<http://x.example/a\\b> <http://x.example/p> "x" .',
    r'<http://x.example/a\b> <http://x.example/p> "x" .',
    r'<http://x.example/a\tb> <http://x.example/p> "x" .',
    r'<http://x.example/a b> <http://x.example/p> "x" .',
    r'<http://x.example/a>b> <http://x.example/p> "x" .',
    r'<> <http://x.example/p> "x" .',
    r'<http://x.example/s> <> "x" .',
    r'<http://x.example/s> <http://x.example/p> <> .',
    r'<http://x.example/s> <http://x.example/p> "x"^^<> .',
    r'<http://x.example/s> <http://x.example/p> "v"@en .',
    r'<http://x.example/s> <http://x.example/p> "v"@en-GB .',
    r'_:b <http://x.example/p> <http://x.example/o> .',
    r'<http://x.example/s> _:p <http://x.example/o> .',
    r'<http://x.example/s> <http://x.example/p> _:o .',
    r'<http://x.example/s> <http://x.example/p> "x"',
    r'<http://x.example/s> <http://x.example/p> "x" . junk',
    '<http://x.example/s> <http://x.example/p> "caf\ud800" .',
    '<http://x.example/\udcff> <http://x.example/p> "x" .',
)
# one IRI spelled plainly and escaped, then used again with a fault on line 4
_REPEATS = r"""<http://x.example/a> <http://x.example/p> "x"^^<http://x.example/d> .
<http://x.example/\u0061> <http://x.example/p> "x"^^<http://x.example/\u0064> .
<http://x.example/a> <http://x.example/p> <http://x.example/a> .
<http://x.example/a> <http://x.example/p> "x"^^<http://x.example/d\q> .
"""
_GOOD_LINE = '<http://x.example/s> <http://x.example/p> "x" .'

# text an edit may insert: escapes, their fragments, and N-Triples punctuation
_POOL = ("\\", "\\\\", "\\u", "\\U", "\\u0", "\\uD8", "\\t", '\\"', "\\n", "\\q",
         "\\u0041", "\\u00e9", "\\U0001F600",
         "<", ">", "<>", '"', '""', " ", "\t", "\n", "_:", "_:b", ":", ".", " .",
         "#", "@", "@en", "^^", "^^<", "> <", "u", "U", "0", "00", "e9", "D800",
         "FFFF", "x", "é", "\U0001f600")


def base_texts() -> list[tuple[str, str]]:
    out = [(f"fixture {name}.nt", fixture_path(name, "nt").read_text(encoding="utf-8"))
           for name in FIXTURE_NAMES]
    schema = parse_schema(corpus.RECORD_SCHEMA)
    for seed in (1, 2, 3):
        instances = corpus.record_instances(random.Random(seed), 2 + seed)
        out.append((f"record {seed}",
                    serialize_canonical(export(schema, parse_instances(instances.text)))))
    out.append(("hand-written", _HAND_WRITTEN))
    out.extend((f"fault {i}", f"{_GOOD_LINE}\n{fault}\n") for i, fault in enumerate(_FAULTS))
    out.append(("repeats", _REPEATS))
    out.append(("crlf", f"{_GOOD_LINE}\r\n\r\n# comment\r\n{_GOOD_LINE}\r\n"))
    return out


def _edit(text: str, rng: random.Random) -> str:
    """Delete, insert or replace one to four characters.

    Inserted text comes from the pool or, half the time, is one to four
    characters copied from elsewhere in the text.
    """
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + rng.randint(1, 4):]
    if not text or rng.random() < 0.5:
        new = rng.choice(_POOL)
    else:
        k = rng.randrange(len(text))
        new = text[k:k + rng.randint(1, 4)]
    return text[:i] + new + text[i + (rng.randint(1, 4) if kind == 2 else 0):]


def variant(text: str, rng: random.Random) -> str:
    """A window of one to six lines after one to four edits."""
    lines = text.split("\n")
    j = rng.randrange(len(lines))
    window = "\n".join(lines[j:j + rng.randint(1, 6)]) + "\n"
    for _ in range(rng.randint(1, 4)):
        window = _edit(window, rng)
    return window


def outcome(text: str) -> str:
    try:
        return serialize_canonical(parse_ntriples(text))
    except WbforgeError as exc:
        return f"{type(exc).__name__} {exc}\n"


def texts() -> list[tuple[str, str]]:
    """(label, text) for every base text and then every variant."""
    bases = base_texts()
    out = list(bases)
    for i in range(VARIANTS):
        label, text = bases[i % len(bases)]
        out.append((f"{label} variant {i}", variant(text, random.Random(i))))
    return out


def main() -> None:
    out = sys.stdout
    for label, text in texts():
        out.write(f"## {label}\n{outcome(text)}")


if __name__ == "__main__":
    main()
