"""Print `render_report` output for a fixed corpus of defective graphs.

Run it on two checkouts and compare the outputs byte for byte to show
that a change to the validator or exporter keeps every finding, detail
text and order:

    PYTHONPATH=src python tests/report_corpus.py > reports.txt

The corpus is every `fixtures.MUTATIONS` recipe, every defect kind of
the benchmark corpus (`bench/corpus.py`, seeds 1-3), and 100 seeded
random exported graphs, each validated clean and after five seeded
edits aimed at statement and value nodes.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterator
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

import corpus  # noqa: E402
from generators import random_instances, random_schema  # noqa: E402
from wbforge.dsl import parse_instances, parse_schema  # noqa: E402
from wbforge.exporter import export  # noqa: E402
from wbforge.fixtures import MUTATIONS, load_bundle  # noqa: E402
from wbforge.model import SchemaDocument  # noqa: E402
from wbforge.namespaces import Iri  # noqa: E402
from wbforge.rdf import (  # noqa: E402
    Graph, Literal, Triple, parse_ntriples, render_triple, serialize_canonical)
from wbforge.validator import render_report, validate  # noqa: E402

# lexical forms that are canonical for no datatype, or only for some
_ODD_LEXICALS = ("", "-0", "007", "1.50", "+3", "x", "1850-07-01T00:00:00Z", "9")


def _edit(g, rng: random.Random):
    """One seeded edit: drop, duplicate, re-type or re-spell a triple."""
    triples = sorted(g, key=render_triple)
    aimed = [t for t in triples if "/statement/" in t.s.value or "/value/" in t.s.value]
    t = rng.choice(aimed or triples)
    out = g.copy()
    kind = rng.randrange(4)
    if kind == 0:
        out.discard(t)
    elif kind == 1 and isinstance(t.o, Literal):
        out.add(Triple(t.s, t.p, Literal(rng.choice(_ODD_LEXICALS), t.o.datatype)))
    elif kind == 2 and isinstance(t.o, Literal):
        out.discard(t)
        out.add(Triple(t.s, t.p, Iri("http://fuzz.example/vocab/" + rng.choice("abc"))))
    elif kind == 3 and isinstance(t.o, Iri):
        out.discard(t)
        out.add(Triple(t.s, t.p, Literal(t.o.local_name)))
    else:
        out.discard(t)
        out.add(Triple(t.s, t.p, Literal(rng.choice(_ODD_LEXICALS),
                                         Iri("http://www.w3.org/2001/XMLSchema#int"))))
    return out


def graphs() -> Iterator[tuple[str, SchemaDocument, Graph]]:
    """(label, schema, graph) for every graph of the corpus, in report order."""
    for name, mutations in MUTATIONS.items():
        bundle = load_bundle(name)
        for m in mutations:
            yield f"mutation {name} {m.code}", bundle.schema, m.apply(bundle)

    schema = parse_schema(corpus.RECORD_SCHEMA)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        nt = serialize_canonical(export(
            schema, parse_instances(corpus.record_instances(rng, 8).text)))
        for kind in corpus.DEFECTS:
            text, _ = corpus.apply_defect(kind, nt, rng)
            yield f"defect {seed} {kind}", schema, parse_ntriples(text)

    for seed in range(100):
        rng = random.Random(seed)
        schema = random_schema(rng)
        g = export(schema, random_instances(rng, schema))
        yield f"random {seed} clean", schema, g
        for k in range(5):
            yield f"random {seed} edit {k}", schema, _edit(g, rng)


def main() -> None:
    out = sys.stdout
    for label, schema, g in graphs():
        out.write(f"## {label}\n")
        out.write(render_report(validate(schema, g)))


if __name__ == "__main__":
    main()
