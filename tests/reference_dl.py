"""The frozen-dataclass DL nodes that the tuple-backed nodes in
`wbforge.dl` replaced, kept as the reference for `test_dl.py`, and a
converter from the new nodes to them.

The class bodies are the earlier definitions; only the imports differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from wbforge import dl
from wbforge.model import Datatype
from wbforge.namespaces import Iri


@dataclass(frozen=True)
class Role:
    iri: Iri
    inverse: bool = False


@dataclass(frozen=True)
class Top:
    pass


TOP = Top()


@dataclass(frozen=True)
class Named:
    iri: Iri


@dataclass(frozen=True)
class DataRange:
    datatype: Datatype


@dataclass(frozen=True)
class Some:
    role: Role
    filler: "ClassExpr"


@dataclass(frozen=True)
class All:
    role: Role
    filler: "ClassExpr"


@dataclass(frozen=True)
class MaxCard:
    n: int
    role: Role
    filler: "ClassExpr"


@dataclass(frozen=True)
class MinCard:
    n: int
    role: Role
    filler: "ClassExpr"


@dataclass(frozen=True)
class ExactCard:
    n: int
    role: Role
    filler: "ClassExpr"


ClassExpr = Top | Named | DataRange | Some | All | MaxCard | MinCard | ExactCard


@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class SubPropertyChain:
    chain: tuple[Role, ...]
    sup: Role


DlAxiom = SubClassOf | SubPropertyChain


@dataclass(frozen=True)
class AnnotatedAxiom:
    """A DL axiom with its citation key, NL reading, and source declaration."""

    axiom: DlAxiom
    origin: str                   # catalog key, e.g. "Ax9" or "Pattern:Domain"
    nl: str                       # one-sentence reading with names substituted
    decl: str                     # e.g. "hasJob", "hasJob/atTime"


# each new node class -> the reference class of the same name
_REFERENCE = {getattr(dl, cls.__name__): cls
              for cls in (Role, Top, Named, DataRange, Some, All, MaxCard, MinCard,
                          ExactCard, SubClassOf, SubPropertyChain, AnnotatedAxiom)}


def to_reference(node):
    """The reference form of a `wbforge.dl` node, its children converted too.

    The `kind` tag has no counterpart and is dropped; an `Iri`, a
    `Datatype`, a count or a string is kept as it is.
    """
    if isinstance(node, tuple) and type(node) in _REFERENCE:
        fields = {name: to_reference(getattr(node, name))
                  for name in node._fields if name != "kind"}
        return _REFERENCE[type(node)](**fields)
    if type(node) is tuple:                           # a role chain
        return tuple(to_reference(item) for item in node)
    return node
