"""The validator's reports over the fixed corpus in `report_corpus.py`, pinned byte for byte.

A change to this digest is a change to some finding, detail text or
order; regenerate it only when that change is intended:

    PYTHONPATH=src python tests/report_corpus.py | sha256sum
"""

import hashlib
import io
from contextlib import redirect_stdout

import report_corpus

REPORT_CORPUS_SHA256 = "2a5735ee94055ef8e327d80bc2faea953342346bbdd98966aefe0c0fab85497a"


def test_report_corpus_is_unchanged():
    out = io.StringIO()
    with redirect_stdout(out):
        report_corpus.main()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == REPORT_CORPUS_SHA256
