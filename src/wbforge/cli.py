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
import functools
import gc
import os
import stat
import sys
from collections.abc import Callable
from typing import TypeVar

from .axioms import schema_axioms, serialize_axioms
from .dsl import parse_instances, parse_schema
from .errors import BlankNodeUnsupportedError, DslSyntaxError, NtSyntaxError, WbforgeError
from .expander import expand, expansion_report
from .exporter import export
from .namespaces import DEFAULT_ROOT
from .rdf import parse_ntriples, serialize_canonical
from .shapes import schema_shapes, serialize_shapes
from .validator import infer_truthy, render_report, render_report_tsv, validate

ROOT_ENV = "WBFORGE_ROOT"
T = TypeVar("T")


def _write(text: str, path: str) -> None:
    """Write `text` as UTF-8 to stdout (`-`) or to `path`, all or nothing.

    Stdout gets the bytes through its binary buffer, after whatever its
    text layer still holds, so neither its encoding nor its newline
    setting changes them; a stdout with no buffer, such as the
    `io.StringIO` of `contextlib.redirect_stdout`, gets the text. Files
    are opened with `newline=""`, so no line end is translated on any
    platform.

    The text goes to a new file beside the one `path` names (through any
    symlink), which replaces it once the last byte is written; on a
    failure the new file is removed and `path` is left as it was. A new
    file gets the mode `open(path, "w")` gives, and an existing one keeps
    its permission bits. A device or pipe, such as /dev/null, cannot be
    replaced, so it is written in place.
    """
    if path == "-":
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    # only the last component says which file is replaced
    real = os.path.realpath(path) if os.path.islink(path) else path
    tmp = os.path.join(os.path.dirname(real), f".wbforge-{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:        # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if mode is not None:      # by path: os.fchmod is missing on Windows before 3.13
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def _not_utf8(path: str, exc: UnicodeDecodeError) -> WbforgeError:
    """The error for `path`'s first byte that is not UTF-8, placed by line.

    `read()` decodes the whole file in one call, so `exc` holds all of its
    bytes; the line counts the line ends a text-mode read knows before it.
    """
    head, byte = exc.object[:exc.start], exc.object[exc.start]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return WbforgeError(f"{path}:{line}: not UTF-8 (byte 0x{byte:02x})")


def _parse(parse: Callable[..., T], path: str, *args: str) -> T:
    """`parse` of the text of `path`; a syntax or decode error names `path` before its place."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    try:
        return parse(text, *args)
    except DslSyntaxError as exc:
        raise WbforgeError(f"{path}:{exc.line}:{exc.col}: expected {exc.expected}") from None
    except (NtSyntaxError, BlankNodeUnsupportedError) as exc:
        raise WbforgeError(f"{path}:{exc.line}: {exc.message}") from None


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
    schema = _parse(parse_schema, args.schema, root)

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
        instances = _parse(parse_instances, args.instances, root)
        try:
            graph = export(schema, instances)
        except WbforgeError as exc:
            raise WbforgeError(f"{args.instances}: {exc}") from None
        _write(serialize_canonical(graph), args.output)
    elif args.command == "validate":
        graph = _parse(parse_ntriples, args.graph)
        report = validate(schema, graph)
        text = render_report_tsv(report) if args.tsv else render_report(report)
        _write(text, args.output)
        return 0 if report.passed else 1
    elif args.command == "infer":
        graph = _parse(parse_ntriples, args.graph)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and shared by every later one: parse_args
    # fills a new Namespace each time, so no call may change the parser
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit status.

    The cyclic collector is off while the command runs: a run that
    succeeds makes no reference cycle, so every collection would walk live
    data and free nothing. The caller's setting is back on return and on
    any exception; library functions never change it.
    """
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(args)
    except (OSError, UnicodeDecodeError, WbforgeError) as exc:
        print(f"wbforge: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
