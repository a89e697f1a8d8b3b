"""Seeded random schema and instance generators for the property tests.

Everything is a pure function of the supplied random.Random, so every
test case re-seeds and a failure replays exactly. Generated documents
stay inside the guarantees the toolchain makes: unique statement
property names, unique qualifier/reference names per declaration,
canonical literal forms, every referenced item declared.
"""

from __future__ import annotations

import random

from wbforge.model import (
    AxiomPattern,
    ClassDecl,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemData,
    ItemRef,
    QualifierData,
    QualifierDecl,
    RefData,
    ReferenceDecl,
    SchemaDocument,
    SnakData,
    StatementData,
    StatementDecl,
    StringValue,
    Value,
    ValueType,
)
from wbforge.namespaces import Iri, NamespaceTable

FUZZ_BASE = "http://fuzz.example/vocab/"

_WORDS = ("cooper", "midwife", "ledger", "parish", "notary", "witness",
          "estate", "manifest", "baptism", "godparent", "laundress", "census")

_DATATYPES = (Datatype.STRING, Datatype.DECIMAL, Datatype.DATETIME)


def random_decimal(rng: random.Random) -> DecimalValue:
    whole = rng.randint(0, 9999)
    text = str(whole)
    if rng.random() < 0.5:
        # canonical: fraction may not end in 0
        digits = [str(rng.randint(0, 9)) for _ in range(rng.randint(0, 3))]
        digits.append(str(rng.randint(1, 9)))
        text += "." + "".join(digits)
    if whole and rng.random() < 0.3:
        text = "-" + text
    return DecimalValue(text)


def random_datetime(rng: random.Random) -> DateTimeValue:
    iso = (f"{rng.randint(1492, 2099):04d}-{rng.randint(1, 12):02d}-"
           f"{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:"
           f"{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}Z")
    precision = rng.choice((9, 10, 11, 11, 14))
    timezone = rng.choice((0, 0, 0, 60, -300))
    return DateTimeValue(iso, precision, timezone)


def random_string(rng: random.Random) -> StringValue:
    text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.15:
        text += rng.choice(('"', "\\", "\n", "\t"))
    return StringValue(text)


def random_literal(rng: random.Random, datatype: Datatype) -> Value:
    if datatype is Datatype.STRING:
        return random_string(rng)
    if datatype is Datatype.DECIMAL:
        return random_decimal(rng)
    return random_datetime(rng)


def random_schema(rng: random.Random) -> SchemaDocument:
    table = NamespaceTable().with_prefix("ex", FUZZ_BASE)
    classes = tuple(
        ClassDecl(Iri(f"{FUZZ_BASE}Cls{i}"), controlled=rng.random() < 0.3)
        for i in range(rng.randint(2, 5)))
    class_iris = [c.iri for c in classes]

    statements: list[StatementDecl] = []
    used_item_qualifier = False
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            object_spec = ValueType(item_class=rng.choice(class_iris))
        else:
            object_spec = ValueType(rng.choice(_DATATYPES))

        qualifiers: list[QualifierDecl] = []
        for j in range(rng.randint(0, 3)):
            if rng.random() < 0.25:
                qtype = ValueType(item_class=rng.choice(class_iris))
                used_item_qualifier = True
            else:
                qtype = ValueType(rng.choice(_DATATYPES))
            qualifiers.append(QualifierDecl(
                f"q{i}x{j}", qtype,
                scoped=rng.random() < 0.4,
                required=rng.random() < 0.3))

        references = tuple(
            ReferenceDecl(f"r{i}x{j}", rng.choice(class_iris),
                          required=rng.random() < 0.4)
            for j in range(rng.randint(0, 2)))

        pool = [p for p in AxiomPattern
                if not (object_spec.datatype is not None
                        and p is AxiomPattern.INVERSE_EXISTENTIAL)]
        patterns = tuple(rng.sample(pool, rng.randint(0, 3)))

        statements.append(StatementDecl(
            Iri(f"{FUZZ_BASE}stmt{i}"), rng.choice(class_iris), object_spec,
            tuple(qualifiers), references, patterns))

    flags = ("allow-item-qualifiers",) if used_item_qualifier else ()
    return SchemaDocument(table, flags, classes, tuple(statements))


def random_instances(rng: random.Random, schema: SchemaDocument) -> InstanceDoc:
    """Instances that export cleanly: required parts present, targets declared."""
    table = schema.namespaces
    wd = table.base("wd")
    by_class: dict[Iri, list[Iri]] = {}
    roster: list[tuple[Iri, Iri]] = []
    for k, c in enumerate(schema.classes):
        members = [Iri(f"{wd}i{k}x{n}") for n in range(rng.randint(1, 3))]
        by_class[c.iri] = members
        roster.extend((m, c.iri) for m in members)

    def value_of(vtype: ValueType) -> Value:
        if vtype.item_class is not None:
            return ItemRef(rng.choice(by_class[vtype.item_class]))
        return random_literal(rng, vtype.datatype)

    pending: dict[Iri, list[StatementData]] = {iri: [] for iri, _ in roster}
    for decl in schema.statements:
        for subject in by_class[decl.subject_class]:
            for _ in range(rng.randint(0, 2)):
                value = value_of(decl.object_spec)
                qualifiers = tuple(
                    QualifierData(q.name, value_of(q.qtype))
                    for q in decl.qualifiers
                    if q.required or rng.random() < 0.5)
                references = tuple(
                    RefData((SnakData(r.name, rng.choice(by_class[r.target_class])),))
                    for r in decl.references
                    if r.required or rng.random() < 0.4)
                pending[subject].append(StatementData(
                    decl.property_name, value, qualifiers, references))

    items = tuple(ItemData(iri, cls, tuple(pending[iri])) for iri, cls in roster)
    return InstanceDoc(table, items)
