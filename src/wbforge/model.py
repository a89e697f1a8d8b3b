"""Schema and instance document model.

Schema documents declare classes and statement blocks; statement blocks
declare a subject class, an object value type (item class or literal
datatype), qualifiers, references, and optional axiom patterns.
Instance documents hold items and the statement data to be exported.
All types are immutable value objects so documents hash and compare
structurally.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import MalformedValueError
from .namespaces import DEFAULT_ROOT, Iri, NamespaceTable


class Datatype(Enum):
    STRING = "string"
    DECIMAL = "decimal"
    DATETIME = "datetime"
    INT = "int"                   # metadata fields only, not a declarable type

    @property
    def xsd_local(self) -> str:
        return {"string": "string", "decimal": "decimal",
                "datetime": "dateTime", "int": "int"}[self.value]


class AxiomPattern(Enum):
    DOMAIN = "Domain"
    RANGE = "Range"
    SCOPED_DOMAIN = "ScopedDomain"
    SCOPED_RANGE = "ScopedRange"
    FUNCTIONALITY = "Functionality"
    INVERSE_FUNCTIONALITY = "InverseFunctionality"
    SCOPED_FUNCTIONALITY = "ScopedFunctionality"
    QUALIFIED_FUNCTIONALITY = "QualifiedFunctionality"
    QUALIFIED_SCOPED_FUNCTIONALITY = "QualifiedScopedFunctionality"
    INVERSE_QUALIFIED_SCOPED_FUNCTIONALITY = "InverseQualifiedScopedFunctionality"
    EXISTENTIAL = "Existential"
    INVERSE_EXISTENTIAL = "InverseExistential"


PATTERN_BY_NAME = {p.value: p for p in AxiomPattern}


# declared value types ---------------------------------------------------

@dataclass(frozen=True)
class ValueType:
    """The declared value of a statement object or a qualifier: a literal
    datatype or an item of a class."""

    datatype: Datatype | None = None
    item_class: Iri | None = None

    def __post_init__(self) -> None:
        if (self.datatype is None) == (self.item_class is None):
            raise ValueError("exactly one of datatype/item_class must be set")


@dataclass(frozen=True)
class QualifierDecl:
    name: str                     # local name, minted under pq:/pqv:
    qtype: ValueType
    scoped: bool = False          # scoped range vs global range axioms
    required: bool = False        # at least one value; at most one always holds


@dataclass(frozen=True)
class ReferenceDecl:
    name: str                     # local name, minted under pr:
    target_class: Iri
    required: bool = False


@dataclass(frozen=True)
class ClassDecl:
    iri: Iri
    controlled: bool = False      # parsed and printed; nothing else reads it


@dataclass(frozen=True)
class StatementDecl:
    property_iri: Iri             # declared name; the local part mints the family
    subject_class: Iri
    object_spec: ValueType
    qualifiers: tuple[QualifierDecl, ...] = ()
    references: tuple[ReferenceDecl, ...] = ()
    patterns: tuple[AxiomPattern, ...] = ()

    @property
    def property_name(self) -> str:
        return self.property_iri.local_name


@dataclass(frozen=True)
class SchemaDocument:
    namespaces: NamespaceTable = field(default_factory=NamespaceTable)
    flags: tuple[str, ...] = ()
    classes: tuple[ClassDecl, ...] = ()
    statements: tuple[StatementDecl, ...] = ()
    _class_by_iri: dict[Iri, ClassDecl] = field(init=False, repr=False, compare=False)
    _statement_by_name: dict[str, StatementDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # reversed, so the first declaration of a name wins
        object.__setattr__(self, "_class_by_iri", {c.iri: c for c in reversed(self.classes)})
        object.__setattr__(self, "_statement_by_name",
                           {s.property_name: s for s in reversed(self.statements)})

    def class_decl(self, iri: Iri) -> ClassDecl | None:
        return self._class_by_iri.get(iri)

    def statement_decl(self, property_name: str) -> StatementDecl | None:
        return self._statement_by_name.get(property_name)


# instance values --------------------------------------------------------

# canonical lexical forms, matched whole; the value classes and the validator share them
CANONICAL_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?")
CANONICAL_DATETIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
CANONICAL_INT = re.compile(r"-?(0|[1-9][0-9]*)")


def is_canonical(datatype: Datatype, lexical: str) -> bool:
    """Whether `lexical` is the canonical form of a `datatype` value."""
    if datatype is Datatype.DECIMAL:
        return CANONICAL_DECIMAL.fullmatch(lexical) is not None and lexical != "-0"
    if datatype is Datatype.DATETIME:
        return CANONICAL_DATETIME.fullmatch(lexical) is not None
    if datatype is Datatype.INT:
        return CANONICAL_INT.fullmatch(lexical) is not None
    return True


DEFAULT_PRECISION = 11            # day precision
DEFAULT_TIMEZONE = 0
DEFAULT_CALENDAR = Iri(DEFAULT_ROOT + "entity/ProlepticGregorian")
DEFAULT_UNIT = Iri(DEFAULT_ROOT + "entity/One")


@dataclass(frozen=True)
class ItemRef:
    iri: Iri


@dataclass(frozen=True)
class StringValue:
    text: str


@dataclass(frozen=True)
class DecimalValue:
    amount: str                   # canonical lexical form, kept textual
    unit: Iri = DEFAULT_UNIT

    def __post_init__(self) -> None:
        if not is_canonical(Datatype.DECIMAL, self.amount):
            raise MalformedValueError("decimal", self.amount)


@dataclass(frozen=True)
class DateTimeValue:
    iso: str                      # UTC, second resolution, Z suffix
    precision: int = DEFAULT_PRECISION
    timezone: int = DEFAULT_TIMEZONE
    calendar: Iri = DEFAULT_CALENDAR

    def __post_init__(self) -> None:
        if not is_canonical(Datatype.DATETIME, self.iso):
            raise MalformedValueError("datetime", self.iso)


Value = ItemRef | StringValue | DecimalValue | DateTimeValue


class ValueKind(NamedTuple):
    """One kind of metadata value node (Ax19-Ax30, AxQ-*).

    `fields` lists (wikibase: local name, value attribute, field datatype
    or None for an IRI) in the order the content hash joins them. The
    first field holds the value the ps:/pq: literal repeats.
    """

    node_class: str               # wikibase: local name of the node class
    value_type: type
    tag: str                      # leads the value node's hash preimage
    fields: tuple[tuple[str, str, Datatype | None], ...]
    origins: tuple[str, ...]      # cited by the node's shape and ValueNodeMalformed


# keyed by the literal datatype whose values carry a node
VALUE_KINDS: dict[Datatype, ValueKind] = {
    Datatype.DATETIME: ValueKind("TimeValue", DateTimeValue, "T", (
        ("timeValue", "iso", Datatype.DATETIME),
        ("timePrecision", "precision", Datatype.INT),
        ("timeTimezone", "timezone", Datatype.INT),
        ("timeCalendarModel", "calendar", None),
    ), ("Ax19", "Ax23", "Ax27")),
    Datatype.DECIMAL: ValueKind("QuantityValue", DecimalValue, "N", (
        ("quantityValue", "amount", Datatype.DECIMAL),
        ("quantityUnit", "unit", None),
    ), ("AxQ-val-dom", "AxQ-val-range", "AxQ-unit-range")),
}

# origin keys of the typed ps:/pq: edge sets, cited by axioms and shapes:
# the edge's domain, its range scoped to item-anchored statements or not,
# and for node-carrying datatypes the value edge's domain and range. The
# decimal set has one range axiom either way.
TYPED_ORIGINS: dict[Datatype, dict[str, str]] = {
    Datatype.STRING: {"dom": "Ax32", "scoped": "Ax33", "unscoped": "Ax34"},
    Datatype.DATETIME: {"dom": "Ax13", "scoped": "Ax14", "unscoped": "Ax15",
                        "value_dom": "Ax16", "value_range": "Ax17"},
    Datatype.DECIMAL: {"dom": "AxQ-pq-dom",
                       **dict.fromkeys(("scoped", "unscoped"), "AxQ-pq-range"),
                       "func": "AxQ-pq-func", "value_dom": "AxQ-pqv-dom",
                       "value_range": "AxQ-pqv-range", "value_func": "AxQ-pqv-func"},
}


# by exact class: the value classes have no subclasses
_KIND_BY_TYPE = {kind.value_type: kind for kind in VALUE_KINDS.values()}


def value_kind(value: Value) -> ValueKind | None:
    """The value node kind of `value`; None for items and strings."""
    return _KIND_BY_TYPE.get(type(value))


def needed_value_kinds(decls: Iterable[StatementDecl]) -> list[ValueKind]:
    """The value node kinds that some object or qualifier of `decls` carries."""
    datatypes = {v.datatype for d in decls
                 for v in (d.object_spec, *(q.qtype for q in d.qualifiers))}
    return [kind for dt, kind in VALUE_KINDS.items() if dt in datatypes]


@dataclass(frozen=True)
class QualifierData:
    name: str
    value: Value


@dataclass(frozen=True)
class SnakData:
    name: str                     # reference property local name
    target: Iri


@dataclass(frozen=True)
class RefData:
    snaks: tuple[SnakData, ...]


@dataclass(frozen=True)
class StatementData:
    property: str                 # statement property local name
    value: Value
    qualifiers: tuple[QualifierData, ...] = ()
    references: tuple[RefData, ...] = ()


@dataclass(frozen=True)
class ItemData:
    iri: Iri
    type_class: Iri
    statements: tuple[StatementData, ...] = ()


@dataclass(frozen=True)
class InstanceDoc:
    namespaces: NamespaceTable = field(default_factory=NamespaceTable)
    items: tuple[ItemData, ...] = ()
    _by_iri: dict[Iri, ItemData] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # reversed, so the first item with a given IRI wins
        object.__setattr__(self, "_by_iri", {it.iri: it for it in reversed(self.items)})

    def item(self, iri: Iri) -> ItemData | None:
        return self._by_iri.get(iri)
