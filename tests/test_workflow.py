"""The CI workflow parses as YAML, and each of its steps does one thing.

A workflow file that does not parse runs no step at all, and the hosted
runner reports that only on its own page; this test reports it with the
rest of the suite. PyYAML is a test-only dependency: without it the test
is skipped.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_each_workflow_step_has_exactly_one_of_run_or_uses():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [(job, step) for job, spec in workflow["jobs"].items() for step in spec["steps"]]
    assert steps
    for job, step in steps:
        assert ("run" in step) != ("uses" in step), (job, step)
