"""Tuple-backed DL nodes against the frozen dataclasses they replaced.

`reference_dl` keeps the earlier node classes. Over the six fixtures
and 300 random schemas, the axioms `schema_axioms` generates must fall
into the same classes of equal nodes in both forms, and the serializer
must stack the same comments above each line as the earlier merge did.
Being tuples, the new nodes equal any tuple of the same items; the
`kind` tag each node ends in keeps nodes of different kinds apart, and
the checks below pin down the pairs that would otherwise meet.
"""

import copy
import pickle
import random

import pytest

import reference_dl as ref
from generators import random_schema
from wbforge.axioms import schema_axioms, serialize_axioms
from wbforge.dl import (
    TOP,
    All,
    AnnotatedAxiom,
    DataRange,
    ExactCard,
    MaxCard,
    MinCard,
    Named,
    Role,
    Some,
    SubClassOf,
    SubPropertyChain,
    Top,
)
from wbforge.fixtures import FIXTURE_NAMES, load_fixture
from wbforge.model import Datatype
from wbforge.namespaces import Iri

_NODE_CLASSES = (Role, Top, Named, DataRange, Some, All, MaxCard, MinCard, ExactCard,
                 SubClassOf, SubPropertyChain)


def _reachable(node):
    """The node and every DL node below it, depth first."""
    yield node
    for value in node:
        if type(value) in _NODE_CLASSES:
            yield from _reachable(value)
        elif type(value) is tuple:                    # a role chain
            for role in value:
                yield from _reachable(role)


def _merge_groups(text: str) -> list[list[str]]:
    """The comment lines stacked above each axiom line of serialized output."""
    lines = text.splitlines()
    groups, stack = [], []
    for line in lines[lines.index("Ontology(") + 1:-1]:
        if line.startswith("# "):
            stack.append(line)
        else:
            groups.append(stack)
            stack = []
    assert not stack
    return groups


def _reference_merge_groups(anns: list[ref.AnnotatedAxiom]) -> list[list[str]]:
    """The earlier serializer's merge, keyed on the reference axioms."""
    notes: dict = {}
    for ann in anns:
        notes.setdefault(ann.axiom, []).append(ann)
    return [[f"# {a.origin} | {a.decl} | {a.nl}" for a in group] for group in notes.values()]


def _check_against_reference(doc) -> None:
    anns = schema_axioms(doc)
    refs = [ref.to_reference(a) for a in anns]
    assert _merge_groups(serialize_axioms(anns, doc.namespaces)) == \
        _reference_merge_groups(refs)
    # equality partitions every reachable node the same way in both forms
    nodes = [n for a in anns for n in _reachable(a.axiom)]
    ref_nodes = [ref.to_reference(n) for n in nodes]
    assert len(set(nodes)) == len(set(ref_nodes)) == len(set(zip(nodes, ref_nodes)))
    for node in nodes:
        assert node.kind == type(node).__name__


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_axioms_merge_as_the_dataclasses_did(name):
    schema, _ = load_fixture(name)
    _check_against_reference(schema)


@pytest.mark.parametrize("start", range(0, 300, 50))
def test_random_schema_axioms_merge_as_the_dataclasses_did(start):
    for seed in range(start, start + 50):
        _check_against_reference(random_schema(random.Random(seed)))


_R = Role(Iri("http://example.org/r"))
_F = Named(Iri("http://example.org/F"))
_XSD_DECIMAL = Iri("http://www.w3.org/2001/XMLSchema#decimal")

_APART = [
    (Some(_R, _F), All(_R, _F)),
    (MinCard(1, _R, _F), MaxCard(1, _R, _F)),
    (MinCard(1, _R, _F), ExactCard(1, _R, _F)),
    (MaxCard(1, _R, _F), ExactCard(1, _R, _F)),
    (Named(_XSD_DECIMAL), DataRange(Datatype.DECIMAL)),
    (_R, Role(_R.iri, True)),
    (TOP, _F),
    (TOP, Named(_XSD_DECIMAL)),
    (SubClassOf(_F, Some(_R, _F)), SubClassOf(_F, All(_R, _F))),
    (SubClassOf(TOP, MinCard(1, _R, DataRange(Datatype.DECIMAL))),
     SubClassOf(TOP, MaxCard(1, _R, DataRange(Datatype.DECIMAL)))),
]


@pytest.mark.parametrize("a, b", _APART, ids=lambda n: type(n).__name__)
def test_nodes_of_different_kinds_stay_apart(a, b):
    assert a != b and not a == b
    assert ref.to_reference(a) != ref.to_reference(b)
    assert len({a: 1, b: 2}) == 2


def _tree():
    r = Role(Iri("http://example.org/r"))
    inv = Role(Iri("http://example.org/s"), True)
    return [SubClassOf(Some(inv, Some(r, TOP)), Named(Iri("http://example.org/A"))),
            SubClassOf(TOP, ExactCard(1, r, DataRange(Datatype.DATETIME))),
            SubPropertyChain((r, inv), Role(Iri("http://example.org/t"))),
            AnnotatedAxiom(SubClassOf(TOP, All(r, TOP)), "Ax1", "a.", "d")]


def test_equal_nodes_built_apart_are_equal_and_hash_equal():
    for a, b in zip(_tree(), _tree()):
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert ref.to_reference(a) == ref.to_reference(b)
    assert Top() == TOP and hash(Top()) == hash(TOP)


def test_constructors_keep_their_fields_and_defaults():
    assert Role(_R.iri).inverse is False
    assert Role._fields == ("iri", "inverse", "kind")
    assert ExactCard._fields == ("n", "role", "filler", "kind")
    assert AnnotatedAxiom._fields == ("axiom", "origin", "nl", "decl")
    assert all(cls._field_defaults["kind"] == cls.__name__ for cls in _NODE_CLASSES)
    assert TOP == Top() == ("Top",)


def test_datatype_hashes_as_an_object():
    for dt in Datatype:
        assert hash(dt) == object.__hash__(dt)
        assert pickle.loads(pickle.dumps(dt)) is dt
        assert copy.deepcopy(dt) is dt
        assert {dt: 1}[Datatype(dt.value)] == 1
