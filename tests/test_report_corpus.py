"""The validator's reports over the fixed corpus in `report_corpus.py`, pinned byte for byte.

A change to this digest is a change to some finding, detail text or
order; regenerate it only when that change is intended:

    PYTHONPATH=src python tests/report_corpus.py | sha256sum
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import report_corpus

HERE = Path(__file__).resolve().parent

REPORT_CORPUS_SHA256 = "2a5735ee94055ef8e327d80bc2faea953342346bbdd98966aefe0c0fab85497a"


def test_report_corpus_is_unchanged():
    out = io.StringIO()
    with redirect_stdout(out):
        report_corpus.main()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == REPORT_CORPUS_SHA256


def test_report_corpus_is_alike_under_two_hash_seeds():
    # a graph is a set, so a report that hangs on the order of a set or of a
    # dict filled from one (of predicates, nodes or triples) moves with the
    # hash seed; within one process that order barely moves, so each run is
    # a fresh interpreter
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": str(HERE.parent / "src")}
        proc = subprocess.run([sys.executable, str(HERE / "report_corpus.py")], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == REPORT_CORPUS_SHA256
