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
from .model import VALUE_KINDS, XSD, Datatype, DateTimeValue, InstanceDoc, SchemaDocument
from .namespaces import PROV_WAS_DERIVED_FROM, RDF_TYPE, WB_STATEMENT, Iri, NamespaceTable
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
    schema = parse_schema(fixture_path(name, "wbs").read_text(encoding="utf-8"))
    instances = parse_instances(fixture_path(name, "wbi").read_text(encoding="utf-8"))
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
    return _without(b, Triple(_wd(b, "a1"), RDF_TYPE, _vocab(b, "Agent")))


def _mut_range(b: FixtureBundle) -> Graph:
    return _without(b, Triple(_wd(b, "cat30s"), RDF_TYPE,
                              _vocab(b, "AgeCategory")))


def _mut_existence(b: FixtureBundle) -> Graph:
    node = _snode(b, "a2")
    return _without(b, Triple(node, b.table.term("pq", "ageValue"),
                              Literal("31", XSD[Datatype.DECIMAL])))


def _mut_value_node(b: FixtureBundle) -> Graph:
    vnode = value_node(DateTimeValue("1850-07-01T00:00:00Z", 9), b.table)
    kind = VALUE_KINDS[Datatype.DATETIME]
    precision = next(pred for pred, (_, attr, _) in zip(kind.predicates, kind.fields)
                     if attr == "precision")
    return _without(b, Triple(vnode, precision, Literal("9", XSD[Datatype.INT])))


def _mut_functionality(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(node, b.table.term("pq", "atTime"),
                           Literal("1851-02-04T00:00:00Z", XSD[Datatype.DATETIME])))


def _mut_qualifier_type(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 1)
    return _with(b, Triple(node, b.table.term("pq", "atTime"),
                           Literal("yesterday", XSD[Datatype.STRING])))


def _mut_orphan(b: FixtureBundle) -> Graph:
    node = Iri(b.table.base("s") + "orphan")
    return _with(b, Triple(node, RDF_TYPE, WB_STATEMENT))


def _mut_chain_gap(b: FixtureBundle) -> Graph:
    return _without(b, Triple(_wd(b, "a1"),
                              b.table.term("wdt", "hasSexRecord"),
                              _wd(b, "male")))


def _mut_bare_truthy(b: FixtureBundle) -> Graph:
    return _with(b, Triple(_wd(b, "a2"),
                           b.table.term("wdt", "hasSexRecord"),
                           _wd(b, "female")))


def _mut_shared_reference(b: FixtureBundle) -> Graph:
    donor = _snode(b, "a1")
    taker = _snode(b, "a2")
    ref = b.graph.objects(donor, PROV_WAS_DERIVED_FROM)[0]
    return _with(b, Triple(taker, PROV_WAS_DERIVED_FROM, ref))


def _mut_shared_statement(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(_wd(b, "a2"),
                           b.table.term("p", "mentionedWith"), node))


def _mut_hash_mismatch(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(node, b.table.term("pq", "note"),
                           Literal("checked against the index", XSD[Datatype.STRING])))


def _mut_unknown_property(b: FixtureBundle) -> Graph:
    node = _snode(b, "a1", 0)
    return _with(b, Triple(node,
                           b.table.term("pq", "transcriberInitials"),
                           Literal("M.L.", XSD[Datatype.STRING])))


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
