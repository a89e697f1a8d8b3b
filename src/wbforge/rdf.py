"""Ground RDF graphs with byte-deterministic N-Triples I/O.

The graph model is deliberately narrow: IRIs and typed literals only.
Blank nodes and language tags are rejected at parse time, which is what
makes the canonical serialization a total order on graphs: two graphs
are equal iff their canonical N-Triples bytes are equal.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain
from typing import NamedTuple

from .errors import BlankNodeUnsupportedError, NtSyntaxError, WbforgeError
from .namespaces import IRI_ASCII, LONE_SURROGATE, Iri, fixed_term, iri_text

XSD_STRING = fixed_term("xsd", "string")


# Inside a Graph an IRI is an exact `str`, a literal a plain `(lexical,
# datatype)` tuple and a triple a plain `(s, p, o)` tuple: a `str` caches its
# hash, and the collector stops tracking a plain tuple of strings after its
# first pass, where it tracks a tuple or `str` subclass for as long as it
# lives. Code reading the stored terms tells an IRI from a literal by
# `type(o) is str`. `Iri`, `Literal` and `Triple` are the typed views the
# graph hands out; each equals and hashes as the plain term it shows, so a
# view finds and discards the stored term. No two kinds of term meet: a `str`
# never equals a tuple, and a literal has two items where a triple has three.
class Literal(NamedTuple):
    lexical: str
    datatype: Iri = Iri(XSD_STRING)   # a view's datatype is an `Iri`, as the graph's are


Term = Iri | Literal


class Triple(NamedTuple):
    s: Iri
    p: Iri
    o: Term


PlainTerm = str | tuple[str, str]             # an IRI's text, or (lexical, datatype)
PlainTriple = tuple[str, str, PlainTerm]

# the text a graph stores was checked on its way in, so a view skips the check
_iri_view = partial(str.__new__, Iri)
# an exact `str` as it is, and the text of an `Iri` as an exact `str`
_text = str.__str__


def _term_view(o: PlainTerm) -> Term:
    if type(o) is str:
        return _iri_view(o)
    return tuple.__new__(Literal, (o[0], _iri_view(o[1])))


def _view(t: PlainTriple) -> Triple:
    s, p, o = t
    return tuple.__new__(Triple, (_iri_view(s), _iri_view(p), _term_view(o)))


def _stored(t: Triple | PlainTriple) -> PlainTriple:
    """`t`, a view or already plain, as a graph stores it."""
    s, p, o = t
    if isinstance(o, str):
        o = _text(o)
    else:
        lexical, datatype = o
        o = (_text(lexical), _text(datatype))
    return (_text(s), _text(p), o)


_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_NEEDS_ESCAPE = re.compile(r'[\\"\n\r\t]').search


def escape_literal(text: str) -> str:
    """`text` with each backslash, quote, newline, return and tab escaped.

    Almost no lexical form holds one, so the text is searched for one
    before it is translated.
    """
    return text if _NEEDS_ESCAPE(text) is None else text.translate(_ESCAPES)


def render_literal(lexical: str, datatype: str) -> str:
    """A literal's N-Triples form; an xsd:string literal stays bare."""
    if datatype == XSD_STRING:
        return f'"{escape_literal(lexical)}"'
    return f'"{escape_literal(lexical)}"^^<{datatype}>'


_UNESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_SIMPLE_UNESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(text: str, in_iri: bool = False) -> str:
    """Decode escapes; an IRIREF (`in_iri`) admits only the \\u and \\U forms."""
    if "\\" not in text:        # almost every term: nothing to decode
        return text

    def repl(m: re.Match[str]) -> str:
        body = m.group(1)
        if len(body) > 1:         # \uXXXX or \UXXXXXXXX; a short one is a bad escape
            code = int(body[1:], 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise WbforgeError(f"escape \\{body} is not a Unicode scalar value")
            return chr(code)
        if in_iri and body in _SIMPLE_UNESCAPES:
            raise WbforgeError(f"escape \\{body} is not allowed in an IRI")
        try:
            return _SIMPLE_UNESCAPES[body]
        except KeyError:
            raise WbforgeError(f"bad escape \\{body}") from None
    return _UNESCAPE.sub(repl, text)


def render_term(term: Term | PlainTerm) -> str:
    if isinstance(term, str):
        return f"<{term}>"
    return render_literal(*term)


def render_triple(t: Triple | PlainTriple) -> str:
    s, p, o = t
    return f"<{s}> <{p}> {render_term(o)} ."


# `match`'s sort key, over stored triples, whose IRIs are their text
def _render_key(t: PlainTriple) -> tuple[str, str, str]:
    return t[0], t[1], render_term(t[2])


class Graph:
    """A set of ground triples with pattern matching.

    The graph stores its triples plain (see `Literal`). `add`, `discard`,
    `in` and `Graph(...)` take views or plain triples; `__iter__`, `match`,
    `subjects` and `objects` hand out views. `edges`, `with_predicate` and
    `predicates` give the stored terms, for the library's own readers.
    """

    def __init__(self, triples: Iterable[Triple | PlainTriple] = ()) -> None:
        self._triples: set[PlainTriple] = set(map(_stored, triples))
        self._indexes: list[dict[str, list[PlainTriple]] | None] = [None, None]  # by s, by p

    @classmethod
    def of_plain(cls, triples: set[PlainTriple]) -> Graph:
        """A graph whose store is `triples`, each already plain, taken as it is."""
        g = cls()
        g._triples = triples
        return g

    def add(self, t: Triple | PlainTriple) -> None:
        self._triples.add(_stored(t))
        self._indexes = [None, None]

    def discard(self, t: Triple | PlainTriple) -> None:
        self._triples.discard(t)      # a view equals and hashes as the stored triple
        self._indexes = [None, None]

    def __contains__(self, t: Triple | PlainTriple) -> bool:
        return t in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return map(_view, self._triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def copy(self) -> Graph:
        return Graph.of_plain(set(self._triples))

    def _index(self, i: int) -> dict[str, list[PlainTriple]]:
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

    def predicates(self) -> set[str]:
        """Every predicate the graph uses, read from the by-p index."""
        return set(self._index(1))

    def with_predicate(self, p: str) -> Iterator[PlainTriple]:
        """Every stored triple whose predicate is `p`, in no particular order.

        Read straight from the by-p index: for callers whose result does
        not depend on order, so nothing is filtered, sorted or rendered.
        """
        return iter(self._index(1).get(p, ()))

    def _match(self, s: str | None, p: str | None, o: Term | PlainTerm | None
               ) -> list[PlainTriple]:
        """The stored triples `match` shows, sorted on `(s, p, render_term(o))`.

        Candidates come from the by-s index if `s` is bound, else from
        every triple: callers look up one subject at a time, while the
        library's own readers go through `edges` and `with_predicate`.
        """
        pool = self._index(0).get(s, ()) if s is not None else self._triples
        found = [t for t in pool
                 if (s is None or t[0] == s)
                 and (p is None or t[1] == p)
                 and (o is None or t[2] == o)]
        found.sort(key=_render_key)
        return found

    def match(self, s: Iri | None = None, p: Iri | None = None,
              o: Term | None = None) -> list[Triple]:
        """Triples matching the pattern; None is a wildcard. Sorted output."""
        return list(map(_view, self._match(s, p, o)))

    def edges(self, s: str) -> dict[str, list[PlainTerm]]:
        """The stored objects of `s` grouped by predicate, one pass over its index entry.

        `edges(s)[p] == objects(s, p)` for every predicate `s` has, in the
        same order, and a predicate `s` lacks is absent. The dict is built
        afresh on each call, so the caller owns it.
        """
        view: dict[str, list[PlainTerm]] = {}
        for _, p, o in self._index(0).get(s, ()):
            view.setdefault(p, []).append(o)
        for objs in view.values():
            if len(objs) > 1:
                objs.sort(key=render_term)
        return view

    def subjects(self, p: Iri, o: Term) -> list[Iri]:
        return [_iri_view(t[0]) for t in self._match(None, p, o)]

    def objects(self, s: Iri, p: Iri) -> list[Term]:
        return [_term_view(t[2]) for t in self._match(s, p, None)]


def serialize_canonical(g: Graph) -> str:
    """Canonical N-Triples: (s, p, o) sorted on rendered text, one per line.

    Plain strings stay bare (xsd:string is the implied datatype), so a
    parse/serialize round trip is byte-stable.
    """
    lines: list[str] = []
    add = lines.append
    # each stored triple is rendered inline, as `render_triple` would
    for s, p, o in g._triples:
        if type(o) is str:
            add(f"<{s}> <{p}> <{o}> .")
        else:
            add(f"<{s}> <{p}> {render_literal(*o)} .")
    lines.sort()
    lines.append("")          # the final newline; an empty graph gives ""
    return "\n".join(lines)


# An IRIREF's text is IRI_ASCII, a backslash (it starts a UCHAR) and every
# character above ASCII, and a literal's text is unrolled to runs between
# escapes: the engine takes a run of plain characters in one loop where an
# alternation branches per character.
_IRIREF = rf"<([{IRI_ASCII}\\\x80-\U0010ffff]*)>"
_LITERAL = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
# terms are separated by N-Triples whitespace, space and tab, and by nothing else
_TRIPLE_RE = re.compile(
    rf"^{_IRIREF}[ \t]+{_IRIREF}[ \t]+"
    rf"(?:{_IRIREF}|{_LITERAL}(?:\^\^{_IRIREF}|@([A-Za-z0-9-]+))?)"
    rf"[ \t]*\.[ \t]*$")
# a line that fails _TRIPLE_RE is a blank-node line if `_:` opens its subject or object
_BLANK_NODE_RE = re.compile(rf"^(?:_:|{_IRIREF}[ \t]+{_IRIREF}[ \t]+_:)")
# a literal as a whole term of a canonical line: no language tag
_LITERAL_PART = re.compile(rf"{_LITERAL}(?:\^\^{_IRIREF})?").fullmatch


def _term(part: str, terms: dict[str, PlainTerm]) -> PlainTerm:
    """The term a canonical line's part spells, checked and remembered in `terms`.

    `<…>` is an IRI, and `"…"` or `"…"^^<…>` a literal, whose datatype is
    read through `terms` as well. A part that is neither, or that fails its
    check, raises `WbforgeError` and enters no memo. `iri_text` refuses
    every character `_IRIREF` refuses, so a line whose parts all pass is
    one `_TRIPLE_RE` takes.
    """
    if part[:1] == "<" and part[-1:] == ">":
        term: PlainTerm = iri_text(_unescape(part[1:-1], in_iri=True))
    else:
        m = _LITERAL_PART(part)
        if m is None:
            raise WbforgeError(f"not a term: {part!r}")
        lexical, datatype = m.groups()
        if LONE_SURROGATE.search(lexical):
            raise WbforgeError("literal holds a lone surrogate")
        dt = XSD_STRING if datatype is None else (
            terms.get(dt_part := f"<{datatype}>") or _term(dt_part, terms))
        term = (_unescape(lexical), dt)
    terms[part] = term
    return term


# `parse_ntriples` reads its text a block of about this many characters at a
# time, each cut at a newline, so it never holds a list of every line
_BLOCK = 1 << 20


def _blocks(text: str) -> Iterator[str]:
    """`text` in pieces of about `_BLOCK` characters, each cut at a newline."""
    start = 0
    while (end := text.find("\n", start + _BLOCK)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def _lines(text: str) -> Iterator[str]:
    """The lines `text.split("\\n")` gives, split one block at a time."""
    return chain.from_iterable(block.split("\n") for block in _blocks(text))


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples; blank lines and full-line comments are allowed.

    Every term is read by `_term` and remembered, by the text that spells
    it, in one per-call memo, so each distinct term is unescaped and
    checked once. A canonical line, `<s> <p> o .` with single spaces as
    `export` writes it, is cut into its three parts and each is looked up
    there. Every other line, and every line with a part that fails or a
    subject or predicate that is not an IRI, goes through `_TRIPLE_RE`, the
    one definition of a line and the only place a fault is raised; from its
    groups each term is spelled as a canonical line spells it and looked up
    in the same memo. A line may end in a carriage return, so CRLF text
    reads as well.
    """
    triples: set[PlainTriple] = set()
    add = triples.add
    terms: dict[str, PlainTerm] = {}   # a term's canonical spelling -> term, this call only
    for line_no, raw in enumerate(_lines(text), start=1):
        if raw[-2:] == " .":
            parts = raw[:-2].split(" ", 2)
            if len(parts) == 3:
                s_raw, p_raw, o_raw = parts
                try:
                    s = terms.get(s_raw) or _term(s_raw, terms)
                    p = terms.get(p_raw) or _term(p_raw, terms)
                    o = terms.get(o_raw) or _term(o_raw, terms)
                except WbforgeError:
                    pass              # the strict loop reads the line and raises its fault
                else:
                    if type(s) is str and type(p) is str:
                        add((s, p, o))
                        continue
        line = raw.strip(" \t\r")
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
        o_raw = (f"<{o_iri}>" if o_iri is not None else
                 f'"{o_lex}"' if o_dt is None else f'"{o_lex}"^^<{o_dt}>')
        try:
            s = terms.get(s_raw := f"<{s_iri}>") or _term(s_raw, terms)
            p = terms.get(p_raw := f"<{p_iri}>") or _term(p_raw, terms)
            o = terms.get(o_raw) or _term(o_raw, terms)
        except WbforgeError as exc:   # a bad escape, a lone surrogate, or an IRI rule
            raise NtSyntaxError(line_no, str(exc)) from None
        add((s, p, o))
    return Graph.of_plain(triples)
