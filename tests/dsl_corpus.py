"""Print what both DSL parsers make of a fixed corpus of texts.

Run it on two checkouts and compare the outputs byte for byte to show
that a change to the `.wbs`/`.wbi` parsers keeps every parse result,
every error type and message, and which of several faults is reported:

    PYTHONPATH=src python tests/dsl_corpus.py > dsl.txt

The base texts are the twelve fixture `.wbs`/`.wbi` files, the printed
`random_schema` seeds 0-39, one wide benchmark schema, one benchmark
record file, and one schema and one instance text that use the options
the others leave out. Each variant applies one or two seeded edits to a
base text: delete, insert, replace or duplicate a token, move a CURIE
to the undeclared prefix `zz:`, or duplicate a line (which reaches the
duplicate-declaration checks). Every text goes through both
parsers; the output is `print_schema(doc)` or `repr(doc)`, or the error
type and message. Any exception other than `WbforgeError` escapes.
"""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

import corpus  # noqa: E402
from generators import random_schema  # noqa: E402
from wbforge.dsl import parse_instances, parse_schema, print_schema  # noqa: E402
from wbforge.errors import WbforgeError  # noqa: E402
from wbforge.fixtures import FIXTURE_NAMES, fixture_path  # noqa: E402

VARIANTS = 4000

# a token splitter of its own, so the edits do not lean on the parser under test
_TOKEN_RE = re.compile(r'#[^\n]*|"(?:[^"\\\n]|\\.)*"|<[^<>\s]*>'
                       r"|\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z|->|[{}:=,]"
                       r'|[^\s{}:=,"<>#]+(?::[^\s{}:=,"<>#]+)?|\S')
_CURIE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*:([A-Za-z_][A-Za-z0-9_-]*)")

# keywords, punctuation and odd literals the edits may insert
_POOL = ("prefix", "flag", "class", "controlled", "statement", "subject", "object",
         "qualifier", "reference", "axioms", "item", "string", "decimal", "datetime",
         "scoped", "unscoped", "functional", "required", "unit", "precision", "tz",
         "calendar", "allow-item-qualifiers", "Domain", "Bogus", "{", "}", ":", "=",
         ",", "->", "wd:Q1", "<http://x.example/a>", "<>", '"s"', '"\\q"', "1.50",
         "007", "-3", "2.5", "2020-02-02T00:00:00Z", "ex:", "?")

# the options no fixture or generated text uses: IRIREF names, unit, tz,
# calendar, functional, unscoped, several snaks in one reference, and a
# statement on one line
_OPTIONS_SCHEMA = """\
prefix ex: <http://options.example/>
flag allow-item-qualifiers
class ex:A
controlled class <http://options.example/B>
statement ex:s {
  subject ex:A
  object decimal
  qualifier ex:q : item ex:B unscoped functional required
  qualifier ex:r : datetime scoped
  reference ex:src -> item <http://options.example/B> required
  axioms { Domain, Functionality }
}
statement ex:t { subject ex:A object item wikibase:Item }
"""
_OPTIONS_INSTANCES = """\
prefix ex: <http://options.example/>
item <http://options.example/a> : ex:A {
  ex:s -> decimal 2.5 unit wd:Metre {
    qualifier ex:q = item <http://options.example/b>
    qualifier ex:r = datetime 1850-07-01T00:00:00Z precision 11 tz -60 calendar wd:Julian
    reference { ex:src -> item wd:b ex:src -> item <http://options.example/c> }
  }
}
item wd:b : <http://options.example/B> { }
"""


def base_texts() -> list[tuple[str, str]]:
    out = [(f"fixture {name}.{ext}", fixture_path(name, ext).read_text(encoding="utf-8"))
           for name in FIXTURE_NAMES for ext in ("wbs", "wbi")]
    out.extend((f"random {seed}", print_schema(random_schema(random.Random(seed))))
               for seed in range(40))
    out.append(("wide", corpus.wide_schema(random.Random(1), 40).text))
    out.append(("record", corpus.record_instances(random.Random(1), 5).text))
    out.append(("options schema", _OPTIONS_SCHEMA))
    out.append(("options instances", _OPTIONS_INSTANCES))
    return out


def _edit(text: str, rng: random.Random) -> str:
    """One seeded edit of one token, or a duplicated line."""
    kind = rng.randrange(6)
    if kind == 5:
        lines = text.split("\n")
        j = rng.randrange(len(lines))
        return "\n".join(lines[:j + 1] + lines[j:])
    spans = [m.span() for m in _TOKEN_RE.finditer(text) if m.group()[0] != "#"]
    if not spans:
        return text
    if kind == 4:
        curies = [(a, b) for a, b in spans if _CURIE_RE.fullmatch(text, a, b)]
        if curies:
            a, b = rng.choice(curies)
            return text[:a] + "zz:" + _CURIE_RE.fullmatch(text, a, b).group(1) + text[b:]
        kind = 0
    a, b = rng.choice(spans)
    tok = text[a:b]
    if rng.random() < 0.5:
        other = rng.choice(_POOL)
    else:
        c, d = rng.choice(spans)
        other = text[c:d]
    new = ("", f"{other} {tok}", other, f"{tok} {tok}")[kind]
    return text[:a] + new + text[b:]


def mutate(text: str, rng: random.Random) -> str:
    """One or two edits, each on the text the one before it left."""
    for _ in range(rng.randint(1, 2)):
        text = _edit(text, rng)
    return text


def outcome(parse, show, text: str) -> str:
    try:
        return show(parse(text))
    except WbforgeError as exc:
        return f"{type(exc).__name__} {exc}"


def texts() -> list[tuple[str, str]]:
    """(label, text) for every base text and then every variant."""
    bases = base_texts()
    out = list(bases)
    for i in range(VARIANTS):
        label, text = bases[i % len(bases)]
        out.append((f"{label} variant {i}", mutate(text, random.Random(i))))
    return out


def main() -> None:
    out = sys.stdout
    for label, text in texts():
        out.write(f"## {label} schema\n{outcome(parse_schema, print_schema, text)}\n")
        out.write(f"## {label} instances\n{outcome(parse_instances, repr, text)}\n")


if __name__ == "__main__":
    main()
