"""Tuple-backed instance records against the frozen dataclasses they replaced.

`reference_model` keeps the earlier record classes. Over the instance
texts of the DSL corpus that parse and the `random_instances` of seeds
0-49, each record must have its dataclass's fields, `repr` and hash, and
equality must sort the records into the same classes in both forms. Being
tuples, the records would equal any tuple of the same items; the checks
at the end pin down that a record equals only a record of its own class.
"""

import functools
import inspect
import pickle
import random
from dataclasses import fields

import pytest

import dsl_corpus
import reference_model as ref
from generators import random_instances, random_schema
from wbforge.dsl import parse_instances
from wbforge.errors import MalformedValueError, WbforgeError
from wbforge.model import (
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemData,
    ItemRef,
    QualifierData,
    RefData,
    SnakData,
    StatementData,
    StringValue,
)
from wbforge.namespaces import Iri

_RECORD_CLASSES = tuple(ref.REFERENCE)


@functools.cache
def _docs() -> dict[str, InstanceDoc]:
    """Every corpus text that parses as instances, and seeds 0-49 of `random_instances`."""
    docs = {}
    for label, text in dsl_corpus.texts():
        try:
            docs[label] = parse_instances(text)
        except WbforgeError:
            pass
    for seed in range(50):
        rng = random.Random(seed)
        docs[f"random {seed}"] = random_instances(rng, random_schema(rng))
    return docs


def _records(value):
    """`value`'s records, depth first: the record itself and those inside it."""
    if type(value) in ref.REFERENCE:
        yield value
    if isinstance(value, tuple):
        for part in value:
            yield from _records(part)


@functools.cache
def _all_records() -> list:
    return [r for doc in _docs().values() for r in _records(doc.items)]


def test_the_corpus_reaches_every_record_class():
    assert len(_docs()) > 50
    assert {type(r) for r in _all_records()} == set(_RECORD_CLASSES)


@pytest.mark.parametrize("cls", _RECORD_CLASSES, ids=lambda c: c.__name__)
def test_each_class_keeps_its_fields_and_defaults(cls):
    old = ref.REFERENCE[cls]
    assert cls._fields == tuple(f.name for f in fields(old))

    def params(c):
        return [(p.name, p.default) for p in inspect.signature(c).parameters.values()]
    assert params(cls) == params(old)
    assert cls.__subclasses__() == []


def test_records_agree_with_the_dataclasses():
    records = _all_records()
    refs = [ref.to_reference(r) for r in records]
    for new, old in zip(records, refs):
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        assert [ref.to_reference(getattr(new, name)) for name in new._fields] == \
            [getattr(old, f.name) for f in fields(old)]
    # equality partitions the records the same way in both forms
    assert len(set(records)) == len(set(refs)) == len(set(zip(records, refs)))
    for doc in _docs().values():
        assert repr(doc.items) == repr(ref.to_reference(doc.items))


def test_equality_agrees_pair_by_pair():
    records = _all_records()
    rng = random.Random(0)
    # each record against its neighbour (often one inside it or beside it)
    # and against a random other
    pairs = list(zip(records, records[1:]))
    pairs += [(a, rng.choice(records)) for a in records]
    pairs += [(a, a) for a in records[::7]]
    for a, b in pairs:
        a0, b0 = ref.to_reference(a), ref.to_reference(b)
        assert (a == b) == (a0 == b0)
        assert (a != b) == (a0 != b0)
        assert (hash(a) == hash(b)) == (hash(a0) == hash(b0))


def test_records_are_read_only():
    for record in {type(r): r for r in _all_records()}.values():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_a_pickle_round_trip_gives_back_an_equal_record():
    for doc in _docs().values():
        for item in doc.items:
            back = pickle.loads(pickle.dumps(item))
            assert back == item and repr(back) == repr(item)
            assert [type(r) for r in _records(back)] == [type(r) for r in _records(item)]


_LEXICALS = ["0", "-0", "1", "-1", "1.5", "1.50", "-0.5", "-0.0", "007", "1.", ".5", "x", "",
             "2009-01-01T00:00:00Z", "2009-01-01", "2009-01-01T00:00:00", "20090-01-01T00:00:00Z",
             "2009-01-01T00:00:00Z ", "1850-07-01T00:00:00Z"]


# each checked class, its dataclass, and a canonical value of it
_CHECKED = [(DecimalValue, ref.DecimalValue, ("1",)),
            (DateTimeValue, ref.DateTimeValue, ("2009-01-01T00:00:00Z", 9))]


@pytest.mark.parametrize("lexical", _LEXICALS)
def test_non_canonical_values_are_refused_as_before(lexical):
    for cls, old, good in _CHECKED:
        args = (lexical, *good[1:])
        try:
            expected = repr(old(*args))
        except MalformedValueError as exc:
            with pytest.raises(MalformedValueError) as got:
                cls(*args)
            assert str(got.value) == str(exc)
            # `_replace` goes through the same check
            with pytest.raises(MalformedValueError):
                cls(*good)._replace(**{cls._fields[0]: lexical})
        else:
            assert repr(cls(*args)) == expected


_X = Iri("http://example.org/x")
_Y = Iri("http://example.org/y")

# records of two classes whose fields are equal, which plain tuples would merge
_APART = [
    (ItemRef(_X), StringValue(_X)),
    (ItemRef(_X), RefData(_X)),
    (StringValue("a"), RefData("a")),
    (QualifierData("p", _X), SnakData("p", _X)),
    (QualifierData("p", ItemRef(_X)), SnakData("p", ItemRef(_X))),
    (DecimalValue("1", _X), QualifierData("1", _X)),
    (DecimalValue("1", _X), SnakData("1", _X)),
    (DateTimeValue("2009-01-01T00:00:00Z", 11, 0, _X),
     StatementData("2009-01-01T00:00:00Z", 11, 0, _X)),
    (RefData((SnakData("p", _X),)), StringValue((SnakData("p", _X),))),
]


@pytest.mark.parametrize("a, b", _APART, ids=lambda r: type(r).__name__)
def test_records_of_two_classes_stay_apart(a, b):
    assert tuple(a) == tuple(b) and hash(a) == hash(b)
    assert a != b and b != a and not a == b and not b == a
    assert len({a: 1, b: 2}) == 2


def test_no_record_equals_a_plain_tuple():
    for record in _all_records()[:5000]:
        plain = tuple(record)
        assert record != plain and plain != record
        assert not record == plain and not plain == record
        assert len({record: 1, plain: 2}) == 2
    assert ItemRef(_X) != _X and _X != ItemRef(_X)
    assert StringValue("a") != "a"
