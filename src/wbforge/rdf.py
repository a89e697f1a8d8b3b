"""Ground RDF graphs with byte-deterministic N-Triples I/O.

The graph model is deliberately narrow: IRIs and typed literals only.
Blank nodes and language tags are rejected at parse time, which is what
makes the canonical serialization a total order on graphs: two graphs
are equal iff their canonical N-Triples bytes are equal.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from operator import itemgetter
from typing import NamedTuple

from .errors import BlankNodeUnsupportedError, NtSyntaxError, WbforgeError
from .namespaces import IRI_EXCLUDED, LONE_SURROGATE, Iri, fixed_term

XSD_STRING = fixed_term("xsd", "string")


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
_NEEDS_ESCAPE = re.compile(r'[\\"\n\r\t]').search


def escape_literal(text: str) -> str:
    """`text` with each backslash, quote, newline, return and tab escaped.

    Almost no lexical form holds one, so the text is searched for one
    before it is translated.
    """
    return text if _NEEDS_ESCAPE(text) is None else text.translate(_ESCAPES)


def render_literal(lexical: str, datatype: Iri) -> str:
    """A literal's N-Triples form; an xsd:string literal stays bare."""
    if datatype == XSD_STRING:
        return f'"{escape_literal(lexical)}"'
    return f'"{escape_literal(lexical)}"^^<{datatype.value}>'


_UNESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_SIMPLE_UNESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(text: str, line_no: int, in_iri: bool = False) -> str:
    """Decode escapes; an IRIREF (`in_iri`) admits only the \\u and \\U forms."""
    if "\\" not in text:        # almost every term: nothing to decode
        return text

    def repl(m: re.Match[str]) -> str:
        body = m.group(1)
        if len(body) > 1:         # \uXXXX or \UXXXXXXXX; a short one is a bad escape
            code = int(body[1:], 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise NtSyntaxError(line_no, f"escape \\{body} is not a Unicode scalar value")
            return chr(code)
        if in_iri and body in _SIMPLE_UNESCAPES:
            raise NtSyntaxError(line_no, f"escape \\{body} is not allowed in an IRI")
        try:
            return _SIMPLE_UNESCAPES[body]
        except KeyError:
            raise NtSyntaxError(line_no, f"bad escape \\{body}") from None
    return _UNESCAPE.sub(repl, text)


def render_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return render_literal(*term)


def render_triple(t: Triple) -> str:
    return f"<{t.s.value}> <{t.p.value}> {render_term(t.o)} ."


# `match` sort keys for a wildcard and for a bound object. An Iri is the
# 1-tuple of its text, so it sorts as its `.value` does.
def _render_key(t: Triple) -> tuple[Iri, Iri, str]:
    return t.s, t.p, render_term(t.o)


_BOUND_O_KEY = itemgetter(0, 1)


class Graph:
    """A set of ground triples with pattern matching."""

    def __init__(self, triples: "set[Triple] | list[Triple] | tuple[Triple, ...]" = ()) -> None:
        self._triples: set[Triple] = set(triples)
        self._indexes: list[dict[Term, list[Triple]] | None] = [None, None]  # by s, by p

    def add(self, t: Triple) -> None:
        self._triples.add(t)
        self._indexes = [None, None]

    def discard(self, t: Triple) -> None:
        self._triples.discard(t)
        self._indexes = [None, None]

    def __contains__(self, t: tuple[Iri, Iri, Term]) -> bool:
        return t in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self):
        return iter(self._triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def _index(self, i: int) -> dict[Term, list[Triple]]:
        """The triples by subject (`i` 0) or by predicate (1), built on its first read.

        A change drops both indexes, and each is rebuilt only when it is
        next read, so a graph that is only written builds neither, and one
        read only by predicate never builds the subject index. Nothing in
        the library looks triples up by object alone, so there is no
        object index.
        """
        index = self._indexes[i]
        if index is None:
            index = self._indexes[i] = {}
            for t in self._triples:
                hits = index.get(t[i])
                if hits is None:
                    index[t[i]] = [t]
                else:
                    hits.append(t)
        return index

    def predicates(self) -> set[Iri]:
        """Every predicate the graph uses, read from the by-p index."""
        return set(self._index(1))

    def with_predicate(self, p: Iri) -> Iterator[Triple]:
        """Every triple whose predicate is `p`, in no particular order.

        Read straight from the by-p index: for callers whose result does
        not depend on order, so nothing is filtered, sorted or rendered.
        """
        return iter(self._index(1).get(p, ()))

    def match(self, s: Iri | None = None, p: Iri | None = None,
              o: Term | None = None) -> list[Triple]:
        """Triples matching the pattern; None is a wildcard. Sorted output.

        Candidates come from the by-s index if `s` is bound, else from the
        by-p index if `p` is, else from every triple. Two or more hits are
        sorted on `(s, p, render_term(o))`, or on `(s, p)` when `o` is
        bound: the bound positions are equal in every hit, so the order is
        the same, and a bound object is never rendered.
        """
        pool = (self._index(0).get(s, ()) if s is not None
                else self._index(1).get(p, ()) if p is not None else self._triples)
        found = [t for t in pool
                 if (s is None or t.s == s)
                 and (p is None or t.p == p)
                 and (o is None or t.o == o)]
        if len(found) > 1:
            found.sort(key=_render_key if o is None else _BOUND_O_KEY)
        return found

    def edges(self, s: Iri) -> dict[Iri, list[Term]]:
        """The objects of `s` grouped by predicate, one pass over its index entry.

        `edges(s)[p] == objects(s, p)` for every predicate `s` has, in the
        same order, and a predicate `s` lacks is absent. The view is built
        afresh on each call, so the caller owns it.
        """
        view: dict[Iri, list[Term]] = {}
        for _, p, o in self._index(0).get(s, ()):
            view.setdefault(p, []).append(o)
        for objs in view.values():
            if len(objs) > 1:
                objs.sort(key=render_term)
        return view

    def subjects(self, p: Iri, o: Term) -> list[Iri]:
        return [t.s for t in self.match(None, p, o)]

    def objects(self, s: Iri, p: Iri) -> list[Term]:
        return [t.o for t in self.match(s, p, None)]


def serialize_canonical(g: Graph) -> str:
    """Canonical N-Triples: (s, p, o) sorted on rendered text, one per line.

    Plain strings stay bare (xsd:string is the implied datatype), so a
    parse/serialize round trip is byte-stable.
    """
    lines: list[str] = []
    add = lines.append
    # each triple is rendered inline, as `render_triple` would; an Iri is
    # the 1-tuple of its text, so `s[0]` is `s.value`
    for s, p, o in g:
        if type(o) is Iri:
            add(f"<{s[0]}> <{p[0]}> <{o[0]}> .")
        else:
            add(f"<{s[0]}> <{p[0]}> {render_literal(*o)} .")
    lines.sort()
    lines.append("")          # the final newline; an empty graph gives ""
    return "\n".join(lines)


# An IRIREF is any character outside IRI_EXCLUDED (a backslash starts a
# UCHAR), spelled as a positive class as namespaces._is_iri is, and a
# literal body is unrolled to runs between escapes: the engine takes a run
# of plain characters in one loop where an alternation branches per character.
_IRIREF_ASCII = "".join(re.escape(c) for c in map(chr, range(0x80))
                        if not re.match(rf"[{IRI_EXCLUDED}]", c))
_IRIREF = rf"<([{_IRIREF_ASCII}\x80-\U0010ffff]*)>"
_LITERAL = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_TRIPLE_RE = re.compile(
    rf"^{_IRIREF}\s+{_IRIREF}\s+"
    rf"(?:{_IRIREF}|{_LITERAL}(?:\^\^{_IRIREF}|@([A-Za-z0-9-]+))?)"
    rf"\s*\.\s*$")
# a line that fails _TRIPLE_RE is a blank-node line if `_:` opens its subject or object
_BLANK_NODE_RE = re.compile(rf"^(?:_:|{_IRIREF}\s+{_IRIREF}\s+_:)")


def _new_iri(raw: str, line_no: int, iris: dict[str, Iri]) -> Iri:
    """The checked Iri an IRIREF's text spells, remembered in `iris`."""
    iri = iris[raw] = Iri(_unescape(raw, line_no, in_iri=True))
    return iri


def _new_literal(lexical: str, datatype: str | None, line_no: int, iris: dict[str, Iri],
                 literals: dict[tuple[str, str | None], Literal]) -> Literal:
    """The checked Literal a literal's raw text spells, remembered in `literals`."""
    if LONE_SURROGATE.search(lexical):
        raise NtSyntaxError(line_no, "literal holds a lone surrogate")
    dt = (XSD_STRING if datatype is None
          else iris.get(datatype) or _new_iri(datatype, line_no, iris))
    lit = literals[lexical, datatype] = tuple.__new__(
        Literal, (_unescape(lexical, line_no), dt))
    return lit


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples; blank lines and full-line comments are allowed.

    Each distinct IRIREF text, and each distinct literal text with its
    datatype text, is unescaped and checked once per call and then read
    from a memo, so repeats share one term. The graph is built once, from
    every triple read.
    """
    triples: list[Triple] = []
    iris: dict[str, Iri] = {}     # raw IRIREF text -> Iri, for this call only
    literals: dict[tuple[str, str | None], Literal] = {}   # raw (lexical, datatype)
    new = tuple.__new__
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TRIPLE_RE.match(line)
        if m is None:
            if _BLANK_NODE_RE.match(line):
                raise BlankNodeUnsupportedError(line_no)
            raise NtSyntaxError(line_no, f"cannot parse triple: {line!r}")
        s_iri, p_iri, o_iri, o_lex, o_dt, o_lang = m.groups()
        if o_lang is not None:
            raise NtSyntaxError(line_no, f"language tags are not supported: @{o_lang}")
        try:
            s = iris.get(s_iri) or _new_iri(s_iri, line_no, iris)
            p = iris.get(p_iri) or _new_iri(p_iri, line_no, iris)
            o: Term
            if o_iri is not None:
                o = iris.get(o_iri) or _new_iri(o_iri, line_no, iris)
            else:
                o = literals.get((o_lex, o_dt)) or _new_literal(o_lex, o_dt, line_no,
                                                                 iris, literals)
        except NtSyntaxError:
            raise
        except WbforgeError as exc:   # an IRI rule: empty, or a forbidden character
            raise NtSyntaxError(line_no, str(exc)) from None
        triples.append(new(Triple, (s, p, o)))
    return Graph(triples)
