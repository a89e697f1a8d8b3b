"""The frozen-dataclass `Iri`, `Literal` and `Triple` that the tuple-backed
terms replaced, kept as the reference for `test_terms.py`.

The bodies are the earlier definitions; only the imports differ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from wbforge.errors import WbforgeError

_NOT_IN_IRI = re.compile(r'[ \t\n\r<>"]')


@dataclass(frozen=True, order=True)
class Iri:
    """An absolute IRI. Plain value object; comparison is textual."""

    value: str

    def __post_init__(self) -> None:
        v = self.value
        if not v or _NOT_IN_IRI.search(v):
            raise WbforgeError(f"not an absolute IRI: {v!r}")

    @property
    def local_name(self) -> str:
        v = self.value
        for sep in ("#", "/", ":"):
            i = v.rfind(sep)
            if i >= 0:
                return v[i + 1:]
        return v

    def __str__(self) -> str:
        return self.value


XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")


@dataclass(frozen=True, order=True)
class Literal:
    lexical: str
    datatype: Iri = XSD_STRING


Term = Iri | Literal


@dataclass(frozen=True)
class Triple:
    s: Iri
    p: Iri
    o: Term
