"""Bundled example modules: historical person-record schemas.

Six self-contained record modules (age, name, sex, occupation,
participant role, relationship) ship as schema/instance file pairs,
each with frozen golden outputs next to it. They drive the test suite
and double as worked examples. Each module also carries a manifest of
targeted graph mutations together with the finding code the checker
must report for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .dsl import parse_instances, parse_schema
from .errors import UnknownFixtureError
from .exporter import export, statement_node, value_node
from .model import VALUE_KINDS, Datatype, DateTimeValue, InstanceDoc, SchemaDocument
from .namespaces import (
    Iri, NamespaceTable, namespaced_property, prov_was_derived_from, rdf_type, wikibase, xsd)
from .rdf import Graph, Literal, Triple

_DIR = Path(__file__).parent / "fixtures"

FIXTURE_NAMES = (
    "age-record",
    "name-record",
    "sex-record",
    "occupation-record",
    "participant-role-record",
    "relationship-record",
)


def fixture_path(name: str, extension: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise UnknownFixtureError(name)
    return _DIR / f"{name}.{extension}"


def load_fixture(name: str) -> tuple[SchemaDocument, InstanceDoc]:
    schema = parse_schema(fixture_path(name, "wbs").read_text())
    instances = parse_instances(fixture_path(name, "wbi").read_text())
    return schema, instances


@dataclass(frozen=True)
class FixtureBundle:
    name: str
    schema: SchemaDocument
    instances: InstanceDoc
    graph: Graph

    @property
    def table(self) -> NamespaceTable:
        return self.schema.namespaces


def load_bundle(name: str) -> FixtureBundle:
    schema, instances = load_fixture(name)
    return FixtureBundle(name, schema, instances, export(schema, instances))


@dataclass(frozen=True)
class Mutation:
    """One targeted graph edit and the finding code it must provoke."""

    code: str
    description: str
    apply: Callable[[FixtureBundle], Graph]


def _wd(bundle: FixtureBundle, local: str) -> Iri:
    return Iri(bundle.table.base("wd") + local)


def _vocab(bundle: FixtureBundle, local: str) -> Iri:
    return Iri("http://records.example/vocab/" + local)


def _snode(bundle: FixtureBundle, item_local: str, stmt_index: int = 0) -> Iri:
    item = bundle.instances.item(_wd(bundle, item_local))
    return statement_node(item.iri, item.statements[stmt_index], bundle.table)


def _without(bundle: FixtureBundle, *triples: Triple) -> Graph:
    g = bundle.graph.copy()
    for t in triples:
        g.discard(t)
    return g


def _with(bundle: FixtureBundle, *triples: Triple) -> Graph:
    g = bundle.graph.copy()
    for t in triples:
        g.add(t)
    return g


def _mut_domain(b: FixtureBundle) -> Graph:
    return _without(b, Triple(_wd(b, "a1"), rdf_type(b.table), _vocab(b, "Agent")))


def _mut_range(b: FixtureBundle) -> Graph:
    return _without(b, Triple(_wd(b, "cat30s"), rdf_type(b.table),
                              _vocab(b, "AgeCategory")))


def _mut_existence(b: FixtureBundle) -> Graph:
    node = _snode(b, "a2")
    return _without(b, Triple(node, namespaced_property("ageValue", "pq", b.table),
                              Literal("31", xsd(b.table, "decimal"))))


def _mut_value_node(b: FixtureBundle) -> Graph:
    vnode = value_node(DateTimeValue("1850-07-01T00:00:00Z", 9), b.table)
    precision = next(local for local, attr, _ in VALUE_KINDS[Datatype.DATETIME].fields
                     if attr == "precision")
    return _without(b, Triple(vnode, wikibase(b.table, precision),
                              Literal("9", xsd(b.table, "int"))))


def _mut_functionality(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(node, namespaced_property("atTime", "pq", b.table),
                           Literal("1851-02-04T00:00:00Z", xsd(b.table, "dateTime"))))


def _mut_qualifier_type(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 1)
    return _with(b, Triple(node, namespaced_property("atTime", "pq", b.table),
                           Literal("yesterday", xsd(b.table, "string"))))


def _mut_orphan(b: FixtureBundle) -> Graph:
    node = Iri(b.table.base("s") + "orphan")
    return _with(b, Triple(node, rdf_type(b.table),
                           Iri(b.table.base("wikibase") + "Statement")))


def _mut_chain_gap(b: FixtureBundle) -> Graph:
    return _without(b, Triple(_wd(b, "a1"),
                              namespaced_property("hasSexRecord", "wdt", b.table),
                              _wd(b, "male")))


def _mut_bare_truthy(b: FixtureBundle) -> Graph:
    return _with(b, Triple(_wd(b, "a2"),
                           namespaced_property("hasSexRecord", "wdt", b.table),
                           _wd(b, "female")))


def _mut_shared_reference(b: FixtureBundle) -> Graph:
    donor = _snode(b, "a1")
    taker = _snode(b, "a2")
    ref = b.graph.objects(donor, prov_was_derived_from(b.table))[0]
    return _with(b, Triple(taker, prov_was_derived_from(b.table), ref))


def _mut_shared_statement(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(_wd(b, "a2"),
                           namespaced_property("mentionedWith", "p", b.table), node))


def _mut_hash_mismatch(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(node, namespaced_property("note", "pq", b.table),
                           Literal("checked against the index", xsd(b.table, "string"))))


def _mut_unknown_property(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(node,
                           namespaced_property("transcriberInitials", "pq", b.table),
                           Literal("M.L.", xsd(b.table, "string"))))


# fixture name -> mutations the checker must answer with exactly one code;
# together the manifests cover every finding code once
MUTATIONS: dict[str, tuple[Mutation, ...]] = {
    "age-record": (
        Mutation("DomainViolation",
                 "drop the subject's declared class", _mut_domain),
        Mutation("RangeViolation",
                 "drop the object category's declared class", _mut_range),
        Mutation("ExistenceViolation",
                 "delete the required ageValue qualifier edge", _mut_existence),
        Mutation("ValueNodeMalformed",
                 "delete timePrecision from a date value node", _mut_value_node),
    ),
    "name-record": (
        Mutation("FunctionalityViolation",
                 "second value on the functional atTime qualifier", _mut_functionality),
        Mutation("QualifierTypeViolation",
                 "string literal on the date qualifier", _mut_qualifier_type),
    ),
    "sex-record": (
        Mutation("OrphanStatement",
                 "typed statement node with no owning edge", _mut_orphan),
        Mutation("ChainGap",
                 "delete the truthy direct edge", _mut_chain_gap),
        Mutation("BareTruthy",
                 "direct edge with no reified statement", _mut_bare_truthy),
    ),
    "occupation-record": (
        Mutation("SharedReference",
                 "second statement derives the same reference", _mut_shared_reference),
    ),
    "participant-role-record": (
        Mutation("UnknownProperty",
                 "qualifier edge no declaration covers", _mut_unknown_property),
    ),
    "relationship-record": (
        Mutation("SharedStatement",
                 "second item edge claims the statement node", _mut_shared_statement),
        Mutation("HashMismatch",
                 "extra declared note qualifier added after export", _mut_hash_mismatch),
    ),
}
