"""The frozen-dataclass instance records that the tuple-backed records in
`wbforge.model` replaced, kept as the reference for `test_records.py`,
and a converter from the new records to them.

The class bodies are the earlier definitions; only the imports differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from wbforge import model
from wbforge.errors import MalformedValueError
from wbforge.model import (
    DEFAULT_CALENDAR, DEFAULT_PRECISION, DEFAULT_TIMEZONE, DEFAULT_UNIT, Datatype, is_canonical)
from wbforge.namespaces import Iri


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


# each record class, and the dataclass it replaced
REFERENCE: dict[type, type] = {
    cls: globals()[cls.__name__]
    for cls in (model.ItemRef, model.StringValue, model.DecimalValue, model.DateTimeValue,
                model.QualifierData, model.SnakData, model.RefData, model.StatementData,
                model.ItemData)}


def to_reference(value):
    """`value` in the earlier form: a record and each record inside it as
    its dataclass, a plain tuple item by item, anything else as it is."""
    cls = REFERENCE.get(type(value))
    if cls is not None:
        return cls(*map(to_reference, value))
    if type(value) is tuple:
        return tuple(map(to_reference, value))
    return value
