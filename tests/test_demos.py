"""The three demos print the same bytes as when their output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_property_families.py":
        "c225027249275cd5e6baa91fdde36b0b47d9ff3a332904e92aaa4d1722f180f5",
    "02_export_and_validate.py":
        "ae41e6126a3aa596c870ac9e7f7be9dda911c8883e8dbc2ef0443857aed626cc",
    "03_axioms_and_shapes.py":
        "590aa7d0300bb3b820c739bb1e01aa6ffe54bf0e69d2b02b0d216e77efc9e51e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_unchanged(demo):
    env = {k: v for k, v in os.environ.items() if k != "WBFORGE_ROOT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
