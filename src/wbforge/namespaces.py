"""IRIs and the namespace table shared by every stage of the toolchain.

A Wikibase-style graph spreads one property name over a family of
namespaces (direct claim, statement edge, statement value, qualifier,
qualifier value, reference). The table below derives all of them from a
single root so the whole pipeline can be rebased with one switch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DuplicateDeclarationError, UnknownPrefixError, WbforgeError

DEFAULT_ROOT = "http://wikibase.example/"

# prefix -> path under the instance root
_ROOT_RELATIVE = {
    "wd": "entity/",
    "s": "entity/statement/",
    "wdt": "prop/direct/",
    "p": "prop/",
    "ps": "prop/statement/",
    "psv": "prop/statement/value/",
    "pq": "prop/qualifier/",
    "pqv": "prop/qualifier/value/",
    "pr": "prop/reference/",
    "ref": "reference/",
    "v": "value/",
}

_ABSOLUTE = {
    "wikibase": "http://wikiba.se/ontology#",
    "prov": "http://www.w3.org/ns/prov#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
}

# fixed prefixes in canonical emission order
FIXED_PREFIX_ORDER = (
    "wikibase", "wd", "wdt", "p", "ps", "psv", "pq", "pqv", "pr",
    "prov", "s", "ref", "v", "xsd", "rdf", "rdfs", "owl",
)

PROPERTY_NAMESPACES = ("wdt", "p", "ps", "psv", "pq", "pqv", "pr")

# lone surrogates come from undecodable bytes (argv and the environment decode
# with surrogateescape) and cannot be written as UTF-8, so no term may hold one
LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")
# outside both N-Triples IRIREF and RFC 3987; an Iri also refuses a raw
# backslash, which would read back as an escape
IRI_EXCLUDED = r'\x00-\x20<>"{}|^`'
# An absolute IRI: a scheme and a colon, then no excluded character, backslash
# or lone surrogate. The characters are spelled as a positive class, the ASCII
# ones IRI_EXCLUDED leaves and every non-surrogate above, which the regex engine
# tests faster per character than the negated class. The N-Triples reader's
# IRIREF takes IRI_ASCII and a backslash, which starts an escape there.
IRI_ASCII = "".join(re.escape(c) for c in map(chr, range(0x80))
                    if not re.match(rf'[{IRI_EXCLUDED}\\]', c))
_is_iri = re.compile(
    rf'[A-Za-z][A-Za-z0-9+.-]*:[{IRI_ASCII}\x80-\ud7ff\ue000-\U0010ffff]*').fullmatch


def iri_text(text: str) -> str:
    """`text` itself if it is an absolute IRI, else a `WbforgeError`.

    The one IRI check: `Iri` runs it, and so do the fixed terms and the
    IRIs the N-Triples reader reads, which a graph keeps as exact `str`.
    The names export mints are built from checked bases and IRIs, so they
    need no check of their own.
    """
    if _is_iri(text) is None:
        raise WbforgeError(f"not an absolute IRI: {text!r}")
    return text


def local_name(iri: str) -> str:
    """The text after an IRI's last '#', or else its last '/', or else its scheme's ':'."""
    i = iri.rfind("#")
    if i < 0:
        i = iri.rfind("/")
    if i < 0:
        i = iri.rfind(":")        # every IRI has a scheme, so this one is found
    return iri[i + 1:]


class Iri(str):
    """An absolute IRI: a `str` that passed `iri_text`, equal to and hashed as its text.

    The type of the names a parsed model holds (items, classes, units,
    calendars, snak targets) and of the terms the graph's views hand out.
    A graph stores an IRI as an exact `str`, which the collector never
    tracks; the fixed vocabulary (`fixed_term`) and each property family
    `expand_statement` mints are that exact text from the start.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> Iri:
        return str.__new__(cls, iri_text(value))

    @property
    def value(self) -> str:
        """The text as an exact `str`."""
        return str.__str__(self)

    @property
    def local_name(self) -> str:
        return local_name(self)

    def __repr__(self) -> str:
        return f"Iri(value={str.__repr__(self)})"


def _check_iri(text: str, what: str) -> None:
    try:
        iri_text(text)
    except WbforgeError as exc:
        raise WbforgeError(f"{what} is {exc}") from None


def _fixed_bindings(root: str) -> dict[str, str]:
    if not root.endswith(("/", "#")):
        raise WbforgeError(f"namespace root must end in '/' or '#': {root!r}")
    _check_iri(root, "namespace root")
    out = dict(_ABSOLUTE)
    for prefix, rel in _ROOT_RELATIVE.items():
        out[prefix] = root + rel
    return out


def _bind(bases: dict[str, str], prefix: str, base: str) -> None:
    """Bind a user prefix in `bases`: no shadowing, and an IRI base ending in '/' or '#'."""
    if prefix in bases:
        raise DuplicateDeclarationError(f"prefix {prefix}:")
    if not base.endswith(("/", "#")):
        raise WbforgeError(f"prefix base must end in '/' or '#': {prefix}: <{base}>")
    _check_iri(base, f"prefix {prefix}: base")
    bases[prefix] = base


@dataclass(frozen=True)
class NamespaceTable:
    """Fixed Wikibase namespaces plus user-declared prefixes.

    User prefixes may not shadow the fixed set, and every base must be
    an IRI ending in '/' or '#' so local names concatenate unambiguously.
    """

    root: str = DEFAULT_ROOT
    user: tuple[tuple[str, str], ...] = ()
    _bases: dict[str, str] = field(init=False, repr=False, compare=False)
    _terms: dict[tuple[str, str], Iri] = field(init=False, repr=False, compare=False)
    _curies: dict[str, str | None] = field(init=False, repr=False, compare=False)
    # base -> its first prefix, built on the first `curie` miss
    _prefix_of_base: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bases = _fixed_bindings(self.root)
        for prefix, base in self.user:
            _bind(bases, prefix, base)
        self._start(bases)

    def _start(self, bases: dict[str, str]) -> None:
        # past the frozen __setattr__: the bindings, and empty memos
        self.__dict__.update(_bases=bases, _terms={}, _curies={}, _prefix_of_base={})

    def with_prefix(self, prefix: str, base: str) -> NamespaceTable:
        """This table plus one user prefix; only the new base is checked."""
        bases = dict(self._bases)
        _bind(bases, prefix, base)
        table = object.__new__(NamespaceTable)
        table.__dict__.update(root=self.root, user=self.user + ((prefix, base),))
        table._start(bases)
        return table

    def base(self, prefix: str) -> str:
        try:
            return self._bases[prefix]
        except KeyError:
            raise UnknownPrefixError(prefix) from None

    def term(self, prefix: str, local: str) -> Iri:
        """`local` under `prefix`, minted and checked once per table.

        For the property family terms that every statement repeats, and
        the CURIEs of a parsed document; the memo keeps each term asked
        for, and no term whose IRI is invalid. A term under a fixed prefix
        is the same under every table: `fixed_term` gives it without one.
        """
        iri = self._terms.get((prefix, local))
        if iri is None:
            iri = self._terms[prefix, local] = Iri(self.base(prefix) + local)
        return iri

    def prefixes(self) -> list[tuple[str, str]]:
        """All bindings, fixed first in canonical order, then user order."""
        out = [(p, self._bases[p]) for p in FIXED_PREFIX_ORDER]
        out.extend(self.user)
        return out

    def curie(self, iri: str) -> str | None:
        """Compress to prefix:local under the longest matching base.

        A local part holds no '/', '#' or ':', and every base ends in '/'
        or '#', so the one base that can compress an IRI is its text up to
        the last '/' or '#'; a base bound twice compresses under its first
        prefix. Remembered per table: callers ask about predicates, classes
        and schema terms, never per-node IRIs, so the memo stays small.
        """
        try:
            return self._curies[iri]
        except KeyError:
            pass
        cut = max(iri.rfind("/"), iri.rfind("#")) + 1
        local = iri[cut:]
        curie = None
        if local and ":" not in local:
            prefix_of_base = self._prefix_of_base
            if not prefix_of_base:
                # built here, not in __post_init__: with_prefix makes a table
                # for every prefix line of a document
                for prefix, base in self._bases.items():
                    prefix_of_base.setdefault(base, prefix)
            prefix = prefix_of_base.get(iri[:cut])
            if prefix is not None:
                curie = f"{prefix}:{local}"
        self._curies[iri] = curie
        return curie

    def split(self, iri: str) -> tuple[str, str] | None:
        """(prefix, local) under the longest matching base, if any."""
        c = self.curie(iri)
        if c is None:
            return None
        prefix, _, local = c.partition(":")
        return prefix, local


def expand_iri(text: str, table: NamespaceTable) -> Iri:
    """Resolve '<absolute>' or 'prefix:local' to an Iri.

    Absolute IRIs are passed through unchanged (idempotent); anything
    unbracketed must be a CURIE under a known prefix, and resolves through
    the table's term memo, so each distinct CURIE is minted once.
    """
    if text.startswith("<") and text.endswith(">"):
        return Iri(text[1:-1])
    prefix, sep, local = text.partition(":")
    if not sep:
        raise UnknownPrefixError(text)
    return table.term(prefix, local)


def curie_or_iri(iri: str, table: NamespaceTable) -> str:
    """`prefix:local` where the table can compress `iri`, else `<iri>`."""
    c = table.curie(iri)
    return c if c is not None else f"<{iri}>"


def fixed_term(prefix: str, local: str) -> str:
    """`local` under a fixed prefix, which every table binds alike and none may rebind.

    Checked, and the exact `str` a graph stores: the fixed vocabulary is
    graph-side text, not a model name.
    """
    return iri_text(_ABSOLUTE[prefix] + local)


RDF_TYPE = fixed_term("rdf", "type")
WB_ITEM = fixed_term("wikibase", "Item")
WB_STATEMENT = fixed_term("wikibase", "Statement")
WB_REFERENCE = fixed_term("wikibase", "Reference")
PROV_WAS_DERIVED_FROM = fixed_term("prov", "wasDerivedFrom")
