"""Schema and instance document model.

Schema documents declare classes and statement blocks; statement blocks
declare a subject class, an object value type (item class or literal
datatype), qualifiers, references, and optional axiom patterns.
Instance documents hold items and the statement data to be exported.
All types are immutable value objects so documents hash and compare
structurally. The schema types and `InstanceDoc` are frozen dataclasses;
the records an instance document holds (items, statements, values) are
`NamedTuple`s, each equal only to a record of its own class.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from functools import cached_property
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, TypeVar

from .errors import MalformedValueError
from .namespaces import DEFAULT_ROOT, Iri, NamespaceTable, fixed_term


class Datatype(Enum):
    STRING = "string"
    DECIMAL = "decimal"
    DATETIME = "datetime"
    INT = "int"                   # metadata fields only, not a declarable type

    # members are singletons and compare by identity, so object's hash (in C)
    # agrees with ==; Enum.__hash__ is a Python-level call on every dict lookup
    __hash__ = object.__hash__


# the xsd: type of each Datatype's literals, by name and by IRI
XSD_NAME: dict[Datatype, str] = {
    Datatype.STRING: "xsd:string", Datatype.DECIMAL: "xsd:decimal",
    Datatype.DATETIME: "xsd:dateTime", Datatype.INT: "xsd:int"}
XSD: dict[Datatype, str] = {dt: fixed_term(*name.split(":")) for dt, name in XSD_NAME.items()}


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

    @cached_property
    def property_name(self) -> str:
        # worked out on first use and kept in the instance's __dict__, which
        # the frozen dataclass's equality, hash and repr never read
        return self.property_iri.local_name


@dataclass(frozen=True)
class SchemaDocument:
    namespaces: NamespaceTable = field(default_factory=NamespaceTable)
    flags: tuple[str, ...] = ()
    classes: tuple[ClassDecl, ...] = ()
    statements: tuple[StatementDecl, ...] = ()
    _class_by_iri: dict[Iri, ClassDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # reversed, so the first declaration of an IRI wins
        object.__setattr__(self, "_class_by_iri", {c.iri: c for c in reversed(self.classes)})

    def class_decl(self, iri: Iri) -> ClassDecl | None:
        return self._class_by_iri.get(iri)

    def statement_decl(self, property_name: str) -> StatementDecl | None:
        """The first declaration of `property_name`, or None."""
        return next((s for s in self.statements if s.property_name == property_name), None)


# instance values --------------------------------------------------------

# canonical lexical forms, matched whole; the value classes and the validator share them
CANONICAL_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?")
CANONICAL_DATETIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
CANONICAL_INT = re.compile(r"-?(0|[1-9][0-9]*)")


# The most digits an integer field may have. Python refuses to convert a
# longer digit string once it passes the interpreter's limit, which
# PYTHONINTMAXSTRDIGITS sets to 0 (none) or at least 640; so the bound is
# wbforge's own, at that lowest limit, and no setting changes an outcome.
MAX_INT_DIGITS = 640


def within_int_bound(lexical: str) -> bool:
    """Whether an integer's digit string has at most `MAX_INT_DIGITS` digits."""
    return len(lexical.lstrip("-")) <= MAX_INT_DIGITS


def bounded_int(lexical: str) -> int | None:
    """The value of an integer's digit string, or None past `MAX_INT_DIGITS` digits."""
    return int(lexical) if within_int_bound(lexical) else None


def is_canonical(datatype: Datatype, lexical: str) -> bool:
    """Whether `lexical` is the canonical form of a `datatype` value."""
    if datatype is Datatype.DECIMAL:
        return CANONICAL_DECIMAL.fullmatch(lexical) is not None and lexical != "-0"
    if datatype is Datatype.DATETIME:
        return CANONICAL_DATETIME.fullmatch(lexical) is not None
    if datatype is Datatype.INT:
        return CANONICAL_INT.fullmatch(lexical) is not None and lexical != "-0"
    return True


DEFAULT_PRECISION = 11            # day precision
DEFAULT_TIMEZONE = 0
DEFAULT_CALENDAR = Iri(DEFAULT_ROOT + "entity/ProlepticGregorian")
DEFAULT_UNIT = Iri(DEFAULT_ROOT + "entity/One")


# An instance record is a NamedTuple: building one makes one tuple, and it
# hashes as the tuple of its fields, in C. A tuple equals any tuple of equal
# items, so `_record` makes a record equal only to a record of its own
# class: `ItemRef(x)` never equals `StringValue(x)`, nor a record a plain tuple.
def _record_eq(self: tuple, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record_ne(self: tuple, other: object) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


_R = TypeVar("_R", bound=type)


def _record(cls: _R) -> _R:
    cls.__eq__, cls.__ne__ = _record_eq, _record_ne
    return cls


@_record
class ItemRef(NamedTuple):
    iri: Iri


@_record
class StringValue(NamedTuple):
    text: str


# `NamedTuple` refuses a `__new__` in a class body, so a checked record's
# fields lie in a base of its own, and the record's `__new__` checks them;
# `_replace` builds through `_make`, which goes through that `__new__` too.
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class _DecimalFields(NamedTuple):
    amount: str                   # canonical lexical form, kept textual
    unit: Iri


@_record
class DecimalValue(_DecimalFields):
    __slots__ = ()

    def __new__(cls, amount: str, unit: Iri = DEFAULT_UNIT) -> DecimalValue:
        if not is_canonical(Datatype.DECIMAL, amount):
            raise MalformedValueError("decimal", amount)
        return tuple.__new__(cls, (amount, unit))

    _make = _checked_make


class _DateTimeFields(NamedTuple):
    iso: str                      # UTC, second resolution, Z suffix
    precision: int
    timezone: int
    calendar: Iri


@_record
class DateTimeValue(_DateTimeFields):
    __slots__ = ()

    def __new__(cls, iso: str, precision: int = DEFAULT_PRECISION,
                timezone: int = DEFAULT_TIMEZONE,
                calendar: Iri = DEFAULT_CALENDAR) -> DateTimeValue:
        if not is_canonical(Datatype.DATETIME, iso):
            raise MalformedValueError("datetime", iso)
        return tuple.__new__(cls, (iso, precision, timezone, calendar))

    _make = _checked_make


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
    class_iri: str                # the wikibase: node class
    predicates: tuple[str, ...]   # the wikibase: field predicates, in `fields` order
    xsds: tuple[str | None, ...]  # per field: its xsd: type, or None for an IRI
    read: Callable[[Value], tuple]    # a value's field values (two or more), in order


def _value_kind(node_class: str, value_type: type, tag: str,
                fields: tuple[tuple[str, str, Datatype | None], ...],
                origins: tuple[str, ...]) -> ValueKind:
    return ValueKind(node_class, value_type, tag, fields, origins,
                     fixed_term("wikibase", node_class),
                     tuple(fixed_term("wikibase", local) for local, _, _ in fields),
                     tuple(None if dt is None else XSD[dt] for _, _, dt in fields),
                     attrgetter(*(attr for _, attr, _ in fields)))


# keyed by the literal datatype whose values carry a node
VALUE_KINDS: dict[Datatype, ValueKind] = {
    Datatype.DATETIME: _value_kind("TimeValue", DateTimeValue, "T", (
        ("timeValue", "iso", Datatype.DATETIME),
        ("timePrecision", "precision", Datatype.INT),
        ("timeTimezone", "timezone", Datatype.INT),
        ("timeCalendarModel", "calendar", None),
    ), ("Ax19", "Ax23", "Ax27")),
    Datatype.DECIMAL: _value_kind("QuantityValue", DecimalValue, "N", (
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


# by the literal type of the value a node holds, and by a model value's exact class
KIND_BY_XSD: dict[str, ValueKind] = {XSD[dt]: kind for dt, kind in VALUE_KINDS.items()}
KIND_BY_TYPE: dict[type, ValueKind] = {kind.value_type: kind for kind in VALUE_KINDS.values()}


def needed_value_kinds(decls: Iterable[StatementDecl]) -> list[ValueKind]:
    """The value node kinds that some object or qualifier of `decls` carries."""
    datatypes = {v.datatype for d in decls
                 for v in (d.object_spec, *(q.qtype for q in d.qualifiers))}
    return [kind for dt, kind in VALUE_KINDS.items() if dt in datatypes]


@_record
class QualifierData(NamedTuple):
    name: str
    value: Value


@_record
class SnakData(NamedTuple):
    name: str                     # reference property local name
    target: Iri


@_record
class RefData(NamedTuple):
    snaks: tuple[SnakData, ...]


@_record
class StatementData(NamedTuple):
    property: str                 # statement property local name
    value: Value
    qualifiers: tuple[QualifierData, ...] = ()
    references: tuple[RefData, ...] = ()


@_record
class ItemData(NamedTuple):
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
