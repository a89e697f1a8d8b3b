"""`parse_ntriples` over the fixed corpus in `nt_corpus.py`, pinned byte for byte.

A change to this digest is a change to some parsed graph, error type,
error message or error line, or to which of several faults a text
reports first; regenerate it only when that change is intended:

    PYTHONPATH=src python tests/nt_corpus.py | sha256sum
"""

import hashlib
import io
from contextlib import redirect_stdout

import nt_corpus

NT_CORPUS_SHA256 = "d12bc17120e0590f9b1e59f8eee0a65689fb107e796f283ae4e6d015e146dbf7"


def test_nt_corpus_is_unchanged():
    out = io.StringIO()
    with redirect_stdout(out):
        nt_corpus.main()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == NT_CORPUS_SHA256
