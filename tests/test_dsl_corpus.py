"""Both DSL parsers over the fixed corpus in `dsl_corpus.py`, pinned byte for byte.

A change to this digest is a change to some parse result, error type,
error message or error position, or to which of several faults a text
reports first; regenerate it only when that change is intended:

    PYTHONPATH=src python tests/dsl_corpus.py | sha256sum
"""

import hashlib
import io
from contextlib import redirect_stdout

import dsl_corpus

DSL_CORPUS_SHA256 = "062eab7baec2dbd6399a5a274087872c3eb344f01397678edd7a4903cb6e44d5"


def test_dsl_corpus_is_unchanged():
    out = io.StringIO()
    with redirect_stdout(out):
        dsl_corpus.main()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == DSL_CORPUS_SHA256
