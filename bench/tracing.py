"""Per-layer spans for the benchmark, installed from outside wbforge.

`Tracer.install` replaces the layer functions that `wbforge.cli` calls,
a few public methods on the graph and document classes, and the content
hash functions with thin wrappers, and `uninstall` puts the original
objects back. Nothing under src/ is edited. Inside `Tracer.operation`
every wrapped call becomes a span (name, start, end, parent, operation
id); outside it the wrappers pass calls straight through, so the
benchmark's own output checks are never traced. Self time (a span's
duration minus the time its direct children cover) and call counts are
accumulated as spans close; the spans themselves are written out at the
end of each operation, so memory stays bounded by one operation.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, TextIO

ROOT_SPAN = "cli"                 # one per operation: the whole cli.main call

# (name, unit) of every per-layer metric, in report order. `_s` and
# `_calls` figures are means per operation; `_exp` is a log-log slope.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("rdf.match_calls", "1/op"),
    ("rdf.match_s", "s/op"),
    ("rdf.match_scanned", "1/op"),
    ("rdf.match_hit_ratio", "ratio"),
    ("rdf.add_calls", "1/op"),
    ("rdf.add_s", "s/op"),
    ("rdf.parse_ntriples_s", "s/op"),
    ("rdf.serialize_canonical_s", "s/op"),
    ("validator.validate_s", "s/op"),
    ("validator.validate_exp", "slope"),
    ("validator.infer_truthy_s", "s/op"),
    ("validator.infer_exp", "slope"),
    ("validator.render_report_s", "s/op"),
    ("validator.findings", "1/op"),
    ("model.item_calls", "1/op"),
    ("model.item_s", "s/op"),
    ("model.statement_decl_calls", "1/op"),
    ("model.statement_decl_s", "s/op"),
    ("model.class_decl_s", "s/op"),
    ("exporter.export_s", "s/op"),
    ("exporter.export_exp", "slope"),
    ("exporter.hash_calls", "1/op"),
    ("exporter.hash_s", "s/op"),
    ("dsl.tokenize_s", "s/op"),
    ("dsl.tokens_per_s", "1/s"),
    ("dsl.parse_instances_s", "s/op"),
    ("dsl.parse_instances_exp", "slope"),
    ("dsl.parse_schema_s", "s/op"),
    ("namespaces.curie_calls", "1/op"),
    ("namespaces.curie_s", "s/op"),
    ("expander.expand_s", "s/op"),
    ("axioms.schema_axioms_s", "s/op"),
    ("axioms.serialize_axioms_s", "s/op"),
    ("axioms.count", "1/op"),
    ("shapes.schema_shapes_s", "s/op"),
    ("shapes.serialize_shapes_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("trace.spans", "1/op"),
)


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0            # time covered by direct children


@dataclass
class Operation:
    id: int
    key: str
    spans: list[Span] = field(default_factory=list)


Measure = Callable[["Tracer", str, tuple, object, float], None]


def _size_sample(size: Callable[[tuple, object], int]) -> Measure:
    """Keep (input size, inclusive seconds) of each call for a scaling fit."""
    def measure(tracer: Tracer, name: str, args: tuple, result: object,
                seconds: float) -> None:
        tracer.samples[name].append((size(args, result), seconds))
    return measure


def _count(counter: str, amount: Callable[[tuple, object], int]) -> Measure:
    def measure(tracer: Tracer, name: str, args: tuple, result: object,
                seconds: float) -> None:
        tracer.counts[counter] += amount(args, result)
    return measure


def _both(*measures: Measure) -> Measure:
    def measure(tracer: Tracer, name: str, args: tuple, result: object,
                seconds: float) -> None:
        for m in measures:
            m(tracer, name, args, result, seconds)
    return measure


def targets() -> list[tuple[object, str, str, Measure | None]]:
    """(owner, attribute, span name, measure) for every wrapped callable."""
    from wbforge import cli, dsl, exporter, model, namespaces, rdf, validator

    graph_size = _size_sample(lambda a, r: len(a[1]))
    return [
        (cli, "parse_schema", "dsl.parse_schema", None),
        (cli, "parse_instances", "dsl.parse_instances",
         _size_sample(lambda a, r: len(a[0]))),
        (cli, "export", "exporter.export", _size_sample(lambda a, r: len(r))),
        (cli, "serialize_canonical", "rdf.serialize_canonical", None),
        (cli, "parse_ntriples", "rdf.parse_ntriples", None),
        (cli, "validate", "validator.validate",
         _both(graph_size, _count("findings", lambda a, r: len(r.findings)))),
        (cli, "render_report", "validator.render_report", None),
        (cli, "infer_truthy", "validator.infer_truthy", graph_size),
        (cli, "expand", "expander.expand", None),
        (cli, "expansion_report", "expander.expand", None),
        (cli, "schema_axioms", "axioms.schema_axioms",
         _count("axioms", lambda a, r: len(r))),
        (cli, "serialize_axioms", "axioms.serialize_axioms", None),
        (cli, "schema_shapes", "shapes.schema_shapes", None),
        (cli, "serialize_shapes", "shapes.serialize_shapes", None),
        (rdf.Graph, "match", "rdf.match",
         _both(_count("scanned", lambda a, r: len(a[0])),
               _count("returned", lambda a, r: len(r)))),
        (rdf.Graph, "add", "rdf.add", None),
        (model.InstanceDoc, "item", "model.item", None),
        (model.SchemaDocument, "statement_decl", "model.statement_decl", None),
        (model.SchemaDocument, "class_decl", "model.class_decl", None),
        (namespaces.NamespaceTable, "curie", "namespaces.curie", None),
        (dsl, "tokenize", "dsl.tokenize", _count("tokens", lambda a, r: len(r))),
        (exporter, "statement_hash", "exporter.hash", None),
        (exporter, "value_hash", "exporter.hash", None),
        (exporter, "reference_hash", "exporter.hash", None),
        (validator, "statement_hash", "exporter.hash", None),
        (validator, "value_hash", "exporter.hash", None),
    ]


def scaling_exponent(samples: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) on log(size).

    Only calls whose size is at least a tenth of the largest take part,
    so fixed per-call costs on tiny inputs do not flatten the fit. 0 when
    fewer than two distinct sizes remain.
    """
    if not samples:
        return 0.0
    top = max(size for size, _ in samples)
    pts = [(math.log(size), math.log(sec)) for size, sec in samples
           if size > 0 and sec > 0 and size * 10 >= top]
    xs = {x for x, _ in pts}
    if len(xs) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    def __init__(self, sink: TextIO | None = None) -> None:
        self.sink = sink          # span rows, tab-separated, if given
        self.ops = 0
        self.spans = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self._op: Operation | None = None
        self._next_id = 0

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in targets():
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, measure: Measure | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if measure is not None:
                measure(tracer, name, args, result, span.end - span.start)
            return result
        return traced

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # an exception (say, the deadline alarm) may unwind several frames
        while self._stack and self._stack.pop() is not span:
            pass
        duration = span.end - span.start
        if self._stack:
            self._stack[-1].child += duration
        self.calls[span.name] += 1
        self.self_s[span.name] += duration - span.child
        self._op.spans.append(span)

    @contextmanager
    def operation(self, key: str):
        """Trace one CLI operation under a root span named `cli`."""
        op = Operation(self.ops, key)
        self._op = op
        root = self._open(ROOT_SPAN)
        try:
            yield op
        finally:
            self._close(root)
            self._op = None
            self.ops += 1
            self.spans += len(op.spans)
            if self.sink is not None:
                self.sink.writelines(
                    f"{op.id}\t{op.key}\t{s.id}\t{'' if s.parent is None else s.parent}"
                    f"\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n" for s in op.spans)

    # -- report -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric; 0 for a layer that never ran."""
        n = max(self.ops, 1)
        calls, self_s, counts = self.calls, self.self_s, self.counts
        m = {
            "rdf.match_calls": calls["rdf.match"] / n,
            "rdf.match_scanned": counts["scanned"] / n,
            "rdf.match_hit_ratio": (counts["returned"] / counts["scanned"]
                                    if counts["scanned"] else 0.0),
            "rdf.add_calls": calls["rdf.add"] / n,
            "validator.validate_exp": scaling_exponent(self.samples["validator.validate"]),
            "validator.infer_exp": scaling_exponent(self.samples["validator.infer_truthy"]),
            "validator.findings": counts["findings"] / n,
            "model.item_calls": calls["model.item"] / n,
            "model.statement_decl_calls": calls["model.statement_decl"] / n,
            "exporter.export_exp": scaling_exponent(self.samples["exporter.export"]),
            "exporter.hash_calls": calls["exporter.hash"] / n,
            "dsl.tokens_per_s": (counts["tokens"] / self_s["dsl.tokenize"]
                                 if self_s["dsl.tokenize"] else 0.0),
            "dsl.parse_instances_exp": scaling_exponent(self.samples["dsl.parse_instances"]),
            "namespaces.curie_calls": calls["namespaces.curie"] / n,
            "axioms.count": counts["axioms"] / n,
            "cli.self_s": self_s[ROOT_SPAN] / n,
            "trace.spans": self.spans / n,
        }
        for name, _ in PER_LAYER:
            if name not in m:
                # every remaining metric is the mean self time of one span name
                m[name] = self_s[name[:-2]] / n
        return m
