"""Print the schema-side artifacts for a fixed corpus of schemas.

Run it on two checkouts and compare the outputs byte for byte to show
that a change to the axiom, shape or expansion generators keeps every
line, comment and order:

    PYTHONPATH=src python tests/artifact_corpus.py > artifacts.txt

The corpus is the six fixture schemas and the `random_schema` seeds
0-299. For each schema it prints `serialize_axioms` in all four
`exact_cardinality` x `nl_comments` modes, `serialize_shapes` and
`expansion_report`. Unlike the `.ofn`/`.shex` goldens, the random
schemas cover scoped qualifiers and date and decimal objects.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

from generators import random_schema  # noqa: E402
from wbforge.axioms import schema_axioms, serialize_axioms  # noqa: E402
from wbforge.expander import expand, expansion_report  # noqa: E402
from wbforge.fixtures import FIXTURE_NAMES, load_fixture  # noqa: E402
from wbforge.shapes import schema_shapes, serialize_shapes  # noqa: E402

RANDOM_SEEDS = range(300)


def _write_artifacts(out, label: str, schema) -> None:
    axioms = schema_axioms(schema)
    for exact in (True, False):
        for nl in (True, False):
            out.write(f"## {label} axioms exact={exact} nl={nl}\n")
            out.write(serialize_axioms(axioms, schema.namespaces,
                                       exact_cardinality=exact, nl_comments=nl))
    out.write(f"## {label} shapes\n")
    out.write(serialize_shapes(schema_shapes(schema)))
    out.write(f"## {label} expansion\n")
    out.write(expansion_report(expand(schema)))


def main() -> None:
    out = sys.stdout
    for name in FIXTURE_NAMES:
        schema, _ = load_fixture(name)
        _write_artifacts(out, f"fixture {name}", schema)
    for seed in RANDOM_SEEDS:
        _write_artifacts(out, f"random {seed}", random_schema(random.Random(seed)))


if __name__ == "__main__":
    main()
