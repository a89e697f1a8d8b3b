"""Description-logic axiom AST.

Small closed vocabulary: subclass axioms over class expressions built
from Top, named classes, datatype ranges, existential/universal
restrictions and cardinalities, plus role-chain inclusion axioms. Roles
are named properties or their single inverse; class expressions never
contain chains.

Every node is a `NamedTuple`, so the serializer's merge of equal axioms
hashes and compares whole trees in C. A tuple equals any tuple with the
same items, so each DL node ends in a `kind` field holding its class
name, which no caller passes: without it `Some(r, f)` would equal
`All(r, f)`, and `MinCard(1, r, f)` would equal `MaxCard(1, r, f)`.
`AnnotatedAxiom` is never a key and carries no tag.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Datatype


class Role(NamedTuple):
    iri: str
    inverse: bool = False
    kind: str = "Role"


class Top(NamedTuple):
    kind: str = "Top"


TOP = Top()


class Named(NamedTuple):
    iri: str
    kind: str = "Named"


class DataRange(NamedTuple):
    datatype: Datatype
    kind: str = "DataRange"


class Some(NamedTuple):
    role: Role
    filler: "ClassExpr"
    kind: str = "Some"


class All(NamedTuple):
    role: Role
    filler: "ClassExpr"
    kind: str = "All"


class MaxCard(NamedTuple):
    n: int
    role: Role
    filler: "ClassExpr"
    kind: str = "MaxCard"


class MinCard(NamedTuple):
    n: int
    role: Role
    filler: "ClassExpr"
    kind: str = "MinCard"


class ExactCard(NamedTuple):
    n: int
    role: Role
    filler: "ClassExpr"
    kind: str = "ExactCard"


ClassExpr = Top | Named | DataRange | Some | All | MaxCard | MinCard | ExactCard


class SubClassOf(NamedTuple):
    sub: ClassExpr
    sup: ClassExpr
    kind: str = "SubClassOf"


class SubPropertyChain(NamedTuple):
    chain: tuple[Role, ...]
    sup: Role
    kind: str = "SubPropertyChain"


DlAxiom = SubClassOf | SubPropertyChain


class AnnotatedAxiom(NamedTuple):
    """A DL axiom with its citation key, NL reading, and source declaration."""

    axiom: DlAxiom
    origin: str                   # catalog key, e.g. "Ax9" or "Pattern:Domain"
    nl: str                       # one-sentence reading with names substituted
    decl: str                     # e.g. "hasJob", "hasJob/atTime"
