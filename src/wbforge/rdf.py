"""Ground RDF graphs with byte-deterministic N-Triples I/O.

The graph model is deliberately narrow: IRIs and typed literals only.
Blank nodes and language tags are rejected at parse time, which is what
makes the canonical serialization a total order on graphs: two graphs
are equal iff their canonical N-Triples bytes are equal.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import BlankNodeUnsupportedError, NtSyntaxError, WbforgeError
from .namespaces import LONE_SURROGATE, Iri

XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")


# Terms and triples are tuples of different lengths (Iri 1, Literal 2,
# Triple 3), so no two kinds compare equal or collide as keys.
class Literal(NamedTuple):
    lexical: str
    datatype: Iri = XSD_STRING


Term = Iri | Literal


class Triple(NamedTuple):
    s: Iri
    p: Iri
    o: Term


_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def escape_literal(text: str) -> str:
    return text.translate(_ESCAPES)


_UNESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_SIMPLE_UNESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(text: str, line_no: int) -> str:
    def repl(m: re.Match[str]) -> str:
        body = m.group(1)
        if len(body) > 1:         # \uXXXX or \UXXXXXXXX; a short one is a bad escape
            code = int(body[1:], 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise NtSyntaxError(line_no, f"escape \\{body} is not a Unicode scalar value")
            return chr(code)
        try:
            return _SIMPLE_UNESCAPES[body]
        except KeyError:
            raise NtSyntaxError(line_no, f"bad escape \\{body}") from None
    return _UNESCAPE.sub(repl, text)


def render_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if term.datatype == XSD_STRING:
        return f'"{escape_literal(term.lexical)}"'
    return f'"{escape_literal(term.lexical)}"^^<{term.datatype.value}>'


def render_triple(t: Triple) -> str:
    return f"<{t.s.value}> <{t.p.value}> {render_term(t.o)} ."


class Graph:
    """A set of ground triples with pattern matching."""

    def __init__(self, triples: "set[Triple] | list[Triple] | tuple[Triple, ...]" = ()) -> None:
        self._triples: set[Triple] = set(triples)
        self._index: tuple[dict[Term, list[Triple]], ...] | None = None  # by s, p, o

    def add(self, t: Triple) -> None:
        self._triples.add(t)
        self._index = None

    def discard(self, t: Triple) -> None:
        self._triples.discard(t)
        self._index = None

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self):
        return iter(self._triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def match(self, s: Iri | None = None, p: Iri | None = None,
              o: Term | None = None) -> list[Triple]:
        """Triples matching the pattern; None is a wildcard. Sorted output.

        Candidates come from the index of the first bound term in the order
        s, o, p. The indexes are built on the first match after a change,
        so a graph that is only written never builds them.
        """
        if self._index is None:
            self._index = ({}, {}, {})
            for t in self._triples:
                for index, term in zip(self._index, (t.s, t.p, t.o)):
                    index.setdefault(term, []).append(t)
        by_s, by_p, by_o = self._index
        pool = (by_s.get(s, ()) if s is not None else by_o.get(o, ()) if o is not None
                else by_p.get(p, ()) if p is not None else self._triples)
        found = [t for t in pool
                 if (s is None or t.s == s)
                 and (p is None or t.p == p)
                 and (o is None or t.o == o)]
        found.sort(key=lambda t: (t.s.value, t.p.value, render_term(t.o)))
        return found

    def subjects(self, p: Iri, o: Term) -> list[Iri]:
        return [t.s for t in self.match(None, p, o)]

    def objects(self, s: Iri, p: Iri) -> list[Term]:
        return [t.o for t in self.match(s, p, None)]


def serialize_canonical(g: Graph) -> str:
    """Canonical N-Triples: (s, p, o) sorted on rendered text, one per line.

    Plain strings stay bare (xsd:string is the implied datatype), so a
    parse/serialize round trip is byte-stable.
    """
    lines = sorted(render_triple(t) for t in g)
    return "".join(line + "\n" for line in lines)


_IRIREF = r"<([^<>\"\s]*)>"
_LITERAL = r'"((?:[^"\\]|\\.)*)"'
_TRIPLE_RE = re.compile(
    rf"^{_IRIREF}\s+{_IRIREF}\s+"
    rf"(?:{_IRIREF}|{_LITERAL}(?:\^\^{_IRIREF}|@([A-Za-z0-9-]+))?)"
    rf"\s*\.\s*$")


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples; blank lines and full-line comments are allowed."""
    g = Graph()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("_:") or re.search(r"\s_:", line):
            raise BlankNodeUnsupportedError(line_no)
        m = _TRIPLE_RE.match(line)
        if m is None:
            raise NtSyntaxError(line_no, f"cannot parse triple: {line!r}")
        s_iri, p_iri, o_iri, o_lex, o_dt, o_lang = m.groups()
        if o_lang is not None:
            raise NtSyntaxError(line_no, f"language tags are not supported: @{o_lang}")
        try:
            s = Iri(_unescape(s_iri, line_no))
            p = Iri(_unescape(p_iri, line_no))
            o: Term
            if o_iri is not None:
                o = Iri(_unescape(o_iri, line_no))
            else:
                if LONE_SURROGATE.search(o_lex):
                    raise NtSyntaxError(line_no, "literal holds a lone surrogate")
                dt = Iri(_unescape(o_dt, line_no)) if o_dt is not None else XSD_STRING
                o = Literal(_unescape(o_lex, line_no), dt)
        except NtSyntaxError:
            raise
        except WbforgeError as exc:   # an IRI rule: empty, or a forbidden character
            raise NtSyntaxError(line_no, str(exc)) from None
        g.add(Triple(s, p, o))
    return g
