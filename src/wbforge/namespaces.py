"""IRIs and the namespace table shared by every stage of the toolchain.

A Wikibase-style graph spreads one property name over a family of
namespaces (direct claim, statement edge, statement value, qualifier,
qualifier value, reference). The table below derives all of them from a
single root so the whole pipeline can be rebased with one switch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

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
_NOT_IN_IRI = re.compile(r'[ \t\n\r<>"\ud800-\udfff]')


class _IriFields(NamedTuple):
    value: str


class Iri(_IriFields):
    """An absolute IRI; comparison is textual. A tuple, so it equals `(value,)`."""

    __slots__ = ()

    def __new__(cls, value: str) -> Iri:
        if not value or _NOT_IN_IRI.search(value):
            raise WbforgeError(f"not an absolute IRI: {value!r}")
        return tuple.__new__(cls, (value,))

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


def _check_iri(text: str, what: str) -> None:
    try:
        Iri(text)
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

    def __post_init__(self) -> None:
        bases = _fixed_bindings(self.root)
        for prefix, base in self.user:
            if prefix in bases:
                raise DuplicateDeclarationError(f"prefix {prefix}:")
            if not base.endswith(("/", "#")):
                raise WbforgeError(
                    f"prefix base must end in '/' or '#': {prefix}: <{base}>")
            _check_iri(base, f"prefix {prefix}: base")
            bases[prefix] = base
        object.__setattr__(self, "_bases", bases)
        object.__setattr__(self, "_terms", {})

    def with_prefix(self, prefix: str, base: str) -> NamespaceTable:
        return NamespaceTable(self.root, self.user + ((prefix, base),))

    def base(self, prefix: str) -> str:
        try:
            return self._bases[prefix]
        except KeyError:
            raise UnknownPrefixError(prefix) from None

    def term(self, prefix: str, local: str) -> Iri:
        """`local` under `prefix`, minted and checked once per table.

        For the vocabulary and property family terms that every statement
        repeats, and the CURIEs of a parsed document; the memo keeps each
        term asked for, and no term whose IRI is invalid.
        """
        try:
            return self._terms[prefix, local]
        except KeyError:
            iri = self._terms[prefix, local] = Iri(self.base(prefix) + local)
            return iri

    def prefixes(self) -> list[tuple[str, str]]:
        """All bindings, fixed first in canonical order, then user order."""
        out = [(p, self._bases[p]) for p in FIXED_PREFIX_ORDER]
        out.extend(self.user)
        return out

    def curie(self, iri: Iri) -> str | None:
        """Compress to prefix:local under the longest matching base."""
        best: tuple[str, str] | None = None
        for prefix, base in self._bases.items():
            if iri.value.startswith(base) and (best is None or len(base) > len(best[1])):
                best = (prefix, base)
        if best is None:
            return None
        local = iri.value[len(best[1]):]
        if not local or any(c in local for c in "/#:"):
            return None
        return f"{best[0]}:{local}"

    def split(self, iri: Iri) -> tuple[str, str] | None:
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


def curie_or_iri(iri: Iri, table: NamespaceTable) -> str:
    """`prefix:local` where the table can compress `iri`, else `<iri>`."""
    c = table.curie(iri)
    return c if c is not None else f"<{iri.value}>"


def namespaced_property(name: str, ns: str, table: NamespaceTable) -> Iri:
    """Place a bare property local name into one of the family namespaces."""
    if ns not in PROPERTY_NAMESPACES:
        raise WbforgeError(f"not a property namespace: {ns!r}")
    return table.term(ns, name)


# well-known term helpers

def wikibase(table: NamespaceTable, local: str) -> Iri:
    return table.term("wikibase", local)


def xsd(table: NamespaceTable, local: str) -> Iri:
    return table.term("xsd", local)


def rdf_type(table: NamespaceTable) -> Iri:
    return table.term("rdf", "type")


def prov_was_derived_from(table: NamespaceTable) -> Iri:
    return table.term("prov", "wasDerivedFrom")
