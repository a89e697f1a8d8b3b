"""Description-logic axiom AST.

Small closed vocabulary: subclass axioms over class expressions built
from Top, named classes, datatype ranges, existential/universal
restrictions and cardinalities, plus role-chain inclusion axioms. Roles
are named properties or their single inverse; class expressions never
contain chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Datatype
from .namespaces import Iri


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
