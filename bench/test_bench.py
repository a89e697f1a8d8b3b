"""Tests of the benchmark itself: corpus determinism, the defect oracle, tracing.

Run from the repository root with `PYTHONPATH=src python -m pytest -q bench`.
"""

from __future__ import annotations

import json
import random
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from wbforge import (  # noqa: E402
    export,
    parse_instances,
    parse_ntriples,
    parse_schema,
    render_report,
    serialize_canonical,
    validate,
)


def _export(inst: corpus.Instances) -> str:
    schema = parse_schema(corpus.RECORD_SCHEMA)
    return serialize_canonical(export(schema, parse_instances(inst.text)))


def test_generator_is_deterministic_per_seed():
    for seed in (0, 1, 7):
        a = corpus.record_instances(random.Random(seed), 12)
        b = corpus.record_instances(random.Random(seed), 12)
        assert a == b
        assert (corpus.wide_schema(random.Random(seed), 15)
                == corpus.wide_schema(random.Random(seed), 15))
        nt = _export(a)
        assert (corpus.apply_defect("shared-reference", nt, random.Random(seed))
                == corpus.apply_defect("shared-reference", nt, random.Random(seed)))
    assert (corpus.record_instances(random.Random(1), 12)
            != corpus.record_instances(random.Random(2), 12))


def test_statement_count_matches_export():
    inst = corpus.record_instances(random.Random(3), 20)
    assert corpus.statement_count(_export(inst)) == inst.statements


def test_clean_graph_reports_nothing():
    nt = _export(corpus.record_instances(random.Random(5), 6))
    report = render_report(validate(parse_schema(corpus.RECORD_SCHEMA), parse_ntriples(nt)))
    assert report == "errors=0 warnings=0\n"
    assert corpus.report_findings(report) == frozenset()


@pytest.mark.parametrize("kind", sorted(corpus.DEFECTS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_defect_gives_exactly_its_findings(kind, seed):
    nt = _export(corpus.record_instances(random.Random(seed), 4))
    broken, expected = corpus.apply_defect(kind, nt, random.Random(seed))
    assert broken != nt and expected
    report = validate(parse_schema(corpus.RECORD_SCHEMA), parse_ntriples(broken))
    assert corpus.report_findings(render_report(report)) == expected
    assert (0 if report.passed else 1) == corpus.expected_status(expected)


def test_defect_menu_covers_every_finding_code():
    codes = set()
    nt = _export(corpus.record_instances(random.Random(0), 4))
    for kind in corpus.DEFECTS:
        codes |= {code for code, _ in corpus.apply_defect(kind, nt, random.Random(0))[1]}
    assert len(codes) == 13


def test_report_parser_rejects_inconsistent_summaries():
    line = "ERROR ChainGap <http://x/s> : missing truthy edge wdt:p\n"
    assert corpus.report_findings(line + "errors=1 warnings=0\n") == {("ChainGap", "http://x/s")}
    assert corpus.report_findings(line + "errors=0 warnings=1\n") is None
    assert corpus.report_findings("WARNING ChainGap <http://x/s> : d\nerrors=0 warnings=1\n") is None
    assert corpus.report_findings("") is None


def test_check_line_counts_declarations():
    assert corpus.check_line(corpus.RECORD_SCHEMA) == (
        "classes=3 statements=4 qualifiers=5 references=3 patterns=2 flags=0\n")


def test_uninstall_restores_original_objects():
    targets = tracing.targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr, _, _), orig in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr, _, _), orig in zip(targets, before))


def test_traced_operation_records_nested_spans(tmp_path):
    from wbforge import cli

    schema = tmp_path / "s.wbs"
    schema.write_text(corpus.RECORD_SCHEMA)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation("check") as op:
            assert cli.main(["check", str(schema), "-o", str(tmp_path / "out")]) == 0
        # outside an operation the wrappers only pass calls through
        parse_schema(corpus.RECORD_SCHEMA)
    finally:
        tracer.uninstall()
    names = [s.name for s in op.spans]
    assert names[-1] == "cli" and "dsl.parse_schema" in names and "dsl.tokenize" in names
    root = op.spans[-1]
    assert root.parent is None and all(s.parent is not None for s in op.spans[:-1])
    metrics = tracer.metrics()
    assert metrics["cli.self_s"] > 0 and metrics["dsl.parse_schema_s"] > 0
    assert metrics["rdf.match_calls"] == 0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(tracing.PER_LAYER + run.TRACE_OVERHEAD))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_deadline_miss_and_bad_output_count_as_failures(tmp_path, monkeypatch):
    schema = tmp_path / "s.wbs"
    schema.write_text(corpus.RECORD_SCHEMA)
    data = tmp_path / "i.wbi"
    data.write_text(corpus.record_instances(random.Random(0), 200).text)
    export_argv = ["export", str(schema), str(data)]
    work = run.Corpus([], [], tmp_path / "out")
    runner = run.Runner(work)
    runner.execute(run.Op("ok", ["check", str(schema)], 0,
                          lambda out: out == corpus.check_line(corpus.RECORD_SCHEMA)))
    runner.execute(run.Op("wrong", ["check", str(schema)], 0, lambda out: False))
    runner.execute(run.Op("status", ["check", str(schema)], 1, lambda out: True))
    monkeypatch.setattr(run, "DEADLINE_S", 0.001)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        runner.execute(run.Op("slow", export_argv, 0, lambda out: True))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (runner.attempted, runner.failed) == (4, 3)
