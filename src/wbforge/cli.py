"""Command line front end.

Seven subcommands cover the pipeline: expand (property family report),
axioms (OWL functional-style text), shapes (ShExC), export (canonical
N-Triples), validate (findings report), infer (add missing truthy
edges), and check (declaration counts). All outputs are byte
deterministic. Exit status: 0 on success and passing reports, 1 when
validation found errors, 2 on usage, parse, or data errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .axioms import schema_axioms, serialize_axioms
from .dsl import parse_instances, parse_schema
from .errors import WbforgeError
from .expander import expand, expansion_report
from .exporter import export
from .namespaces import DEFAULT_ROOT
from .rdf import parse_ntriples, serialize_canonical
from .shapes import schema_shapes, serialize_shapes
from .validator import infer_truthy, render_report, render_report_tsv, validate

ROOT_ENV = "WBFORGE_ROOT"


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output", default="-", metavar="PATH",
                     help="output file, '-' for stdout (default)")
    sub.add_argument("--root", default=None, metavar="IRI",
                     help=f"instance namespace root (default ${ROOT_ENV} "
                          f"or {DEFAULT_ROOT})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbforge",
        description="schema compiler for Wikibase-style reified statements")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subs.add_parser("expand", help="print the minted property family report")
    p.add_argument("schema", help="schema file (.wbs)")
    _add_common(p)

    p = subs.add_parser("axioms", help="generate OWL functional-style axioms")
    p.add_argument("schema", help="schema file (.wbs)")
    p.add_argument("--exact-card", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="use exact-cardinality axioms (default) or min/max pairs")
    p.add_argument("--no-nl", action="store_true",
                   help="omit the origin and reading comment lines")
    _add_common(p)

    p = subs.add_parser("shapes", help="generate ShExC shapes")
    p.add_argument("schema", help="schema file (.wbs)")
    _add_common(p)

    p = subs.add_parser("export", help="export instances as canonical N-Triples")
    p.add_argument("schema", help="schema file (.wbs)")
    p.add_argument("instances", help="instance file (.wbi)")
    _add_common(p)

    p = subs.add_parser("validate", help="check an exported graph against a schema")
    p.add_argument("schema", help="schema file (.wbs)")
    p.add_argument("graph", help="N-Triples file (.nt)")
    p.add_argument("--tsv", action="store_true",
                   help="machine-readable tab-separated findings")
    _add_common(p)

    p = subs.add_parser("infer", help="add truthy edges implied by reified statements")
    p.add_argument("schema", help="schema file (.wbs)")
    p.add_argument("graph", help="N-Triples file (.nt)")
    _add_common(p)

    p = subs.add_parser("check", help="parse a schema and print declaration counts")
    p.add_argument("schema", help="schema file (.wbs)")
    _add_common(p)

    return parser


def _root(args: argparse.Namespace) -> str:
    if args.root is not None:
        return args.root
    return os.environ.get(ROOT_ENV, DEFAULT_ROOT)


def run(args: argparse.Namespace) -> int:
    root = _root(args)
    schema = parse_schema(_read(args.schema), root)

    if args.command == "expand":
        _write(expansion_report(expand(schema)), args.output)
    elif args.command == "axioms":
        text = serialize_axioms(schema_axioms(schema), schema.namespaces,
                                exact_cardinality=args.exact_card,
                                nl_comments=not args.no_nl)
        _write(text, args.output)
    elif args.command == "shapes":
        _write(serialize_shapes(schema_shapes(schema)), args.output)
    elif args.command == "export":
        instances = parse_instances(_read(args.instances), root)
        _write(serialize_canonical(export(schema, instances)), args.output)
    elif args.command == "validate":
        graph = parse_ntriples(_read(args.graph))
        report = validate(schema, graph)
        text = render_report_tsv(report) if args.tsv else render_report(report)
        _write(text, args.output)
        return 0 if report.passed else 1
    elif args.command == "infer":
        graph = parse_ntriples(_read(args.graph))
        _write(serialize_canonical(infer_truthy(schema, graph)), args.output)
    else:
        counts = (f"classes={len(schema.classes)}"
                  f" statements={len(schema.statements)}"
                  f" qualifiers={sum(len(s.qualifiers) for s in schema.statements)}"
                  f" references={sum(len(s.references) for s in schema.statements)}"
                  f" patterns={sum(len(s.patterns) for s in schema.statements)}"
                  f" flags={len(schema.flags)}")
        _write(counts + "\n", args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (OSError, UnicodeDecodeError, WbforgeError) as exc:
        print(f"wbforge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
