"""Namespace table: derivation from the root, curie compression, prefixes."""

import pytest

from wbforge.errors import DuplicateDeclarationError, UnknownPrefixError, WbforgeError
from wbforge.namespaces import (
    DEFAULT_ROOT,
    FIXED_PREFIX_ORDER,
    Iri,
    NamespaceTable,
    expand_iri,
    namespaced_property,
    prov_was_derived_from,
    rdf_type,
    wikibase,
    xsd,
)


def test_iri_rejects_garbage():
    for bad in ("", "has space", "<http://x.example/>", "http://x\n.example/"):
        with pytest.raises(WbforgeError):
            Iri(bad)
    for c in " \t\n\r<>\"":
        for bad in (c, c + "http://x.example/", "http://x.exa" + c + "mple/", "http://x.example/" + c):
            with pytest.raises(WbforgeError):
                Iri(bad)
    assert Iri("http://x.example/a-b_c#d?e=f").value == "http://x.example/a-b_c#d?e=f"


def test_iri_rejects_lone_surrogates_only():
    for c in ("\ud800", "\udcff", "\udfff"):
        with pytest.raises(WbforgeError):
            Iri("http://x.example/" + c)
    for c in ("\ud7ff", "\ue000", "\U0001f600"):   # either side of the range, an astral char
        assert Iri("http://x.example/" + c).value.endswith(c)


def test_iri_local_name():
    assert Iri("http://x.example/path/Leaf").local_name == "Leaf"
    assert Iri("http://wikiba.se/ontology#Item").local_name == "Item"
    assert Iri("urn:sha:abc").local_name == "abc"


def test_default_bases_derive_from_root():
    t = NamespaceTable()
    assert t.base("wd") == DEFAULT_ROOT + "entity/"
    assert t.base("s") == DEFAULT_ROOT + "entity/statement/"
    assert t.base("psv") == DEFAULT_ROOT + "prop/statement/value/"
    assert t.base("wikibase") == "http://wikiba.se/ontology#"


def test_rebased_root_moves_all_derived_namespaces():
    t = NamespaceTable("http://my.example/base/")
    assert t.base("pqv") == "http://my.example/base/prop/qualifier/value/"
    assert t.base("ref") == "http://my.example/base/reference/"
    # absolute families do not move
    assert t.base("xsd") == "http://www.w3.org/2001/XMLSchema#"


def test_root_must_end_in_separator():
    with pytest.raises(WbforgeError):
        NamespaceTable("http://my.example/base")


def test_curie_prefers_longest_base():
    t = NamespaceTable()
    assert t.curie(Iri(DEFAULT_ROOT + "prop/statement/age")) == "ps:age"
    assert t.curie(Iri(DEFAULT_ROOT + "prop/statement/value/age")) == "psv:age"
    assert t.curie(Iri(DEFAULT_ROOT + "entity/statement/q1-abc")) == "s:q1-abc"


def test_curie_refuses_structured_locals():
    t = NamespaceTable()
    assert t.curie(Iri(DEFAULT_ROOT + "prop/statement/value/deep/leaf")) is None
    assert t.curie(Iri("http://elsewhere.example/x")) is None
    assert t.curie(Iri(DEFAULT_ROOT + "entity/")) is None


def test_split():
    t = NamespaceTable()
    assert t.split(Iri(DEFAULT_ROOT + "prop/qualifier/atTime")) == ("pq", "atTime")
    assert t.split(Iri("http://elsewhere.example/x")) is None


def test_user_prefix_round_trip_and_shadowing():
    t = NamespaceTable().with_prefix("rec", "http://records.example/vocab/")
    assert t.curie(Iri("http://records.example/vocab/Agent")) == "rec:Agent"
    with pytest.raises(DuplicateDeclarationError):
        t.with_prefix("wdt", "http://records.example/other/")
    with pytest.raises(WbforgeError):
        t.with_prefix("bad", "http://records.example/no-separator")


def test_prefixes_fixed_order_then_user():
    t = NamespaceTable().with_prefix("rec", "http://records.example/vocab/")
    listed = [p for p, _ in t.prefixes()]
    assert tuple(listed[:len(FIXED_PREFIX_ORDER)]) == FIXED_PREFIX_ORDER
    assert listed[-1] == "rec"


def test_expand_iri():
    t = NamespaceTable()
    assert expand_iri("<http://x.example/a>", t) == Iri("http://x.example/a")
    assert expand_iri("wd:employee", t) == Iri(DEFAULT_ROOT + "entity/employee")
    with pytest.raises(UnknownPrefixError):
        expand_iri("nope:x", t)
    with pytest.raises(UnknownPrefixError):
        expand_iri("noseparator", t)


def test_namespaced_property():
    t = NamespaceTable()
    assert namespaced_property("hasJob", "pq", t) == Iri(DEFAULT_ROOT + "prop/qualifier/hasJob")
    with pytest.raises(WbforgeError):
        namespaced_property("hasJob", "wd", t)


def test_minted_terms_are_memoised_per_table():
    t = NamespaceTable()
    first = namespaced_property("hasJob", "ps", t)
    assert namespaced_property("hasJob", "ps", t) is first
    assert wikibase(t, "Item") is wikibase(t, "Item")
    assert xsd(t, "decimal") is t.term("xsd", "decimal")
    assert rdf_type(t) == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    assert prov_was_derived_from(t) == Iri("http://www.w3.org/ns/prov#wasDerivedFrom")
    assert t.term("wd", "One") == Iri(DEFAULT_ROOT + "entity/One")


def test_memo_leaves_equality_and_hash_alone():
    used, fresh = NamespaceTable(), NamespaceTable()
    wikibase(used, "Statement")
    namespaced_property("hasJob", "pq", used)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1


def test_with_prefix_does_not_share_the_memo():
    parent = NamespaceTable()
    minted = namespaced_property("hasJob", "p", parent)
    child = parent.with_prefix("ex", "http://v.example/")
    again = namespaced_property("hasJob", "p", child)
    assert again == minted and again is not minted
    assert child.term("ex", "Person") == Iri("http://v.example/Person")
    with pytest.raises(UnknownPrefixError):
        parent.term("ex", "Person")
    rebased = NamespaceTable("http://other.example/")
    assert namespaced_property("hasJob", "p", rebased) == Iri("http://other.example/prop/hasJob")


def test_memo_keeps_the_namespace_and_iri_checks():
    t = NamespaceTable()
    t.term("wd", "hasJob")            # a minted non-property term must not open the door
    for ns in ("wd", "wikibase", "s", "xsd"):
        with pytest.raises(WbforgeError):
            namespaced_property("hasJob", ns, t)
    with pytest.raises(UnknownPrefixError):
        t.term("nope", "x")
    for _ in range(2):                # a failed mint is not remembered
        with pytest.raises(WbforgeError):
            namespaced_property("has job", "p", t)


def test_expand_iri_resolves_curies_through_the_memo():
    t = NamespaceTable()
    assert expand_iri("wd:employee", t) is expand_iri("wd:employee", t)
    assert expand_iri("wd:employee", t) is t.term("wd", "employee")
    for _ in range(2):                # an invalid IRI is refused each time, never kept
        with pytest.raises(WbforgeError, match="not an absolute IRI"):
            t.term("wd", "a b")
        with pytest.raises(WbforgeError, match="not an absolute IRI"):
            expand_iri("wd:a b", t)
    assert ("wd", "a b") not in t._terms


@pytest.mark.parametrize("base", ['http://x"y/', "http://x y/", "http://x/\udcff/", "http://x<y/"])
def test_prefix_base_must_be_an_iri(base):
    with pytest.raises(WbforgeError) as info:
        NamespaceTable().with_prefix("bad", base)
    assert str(info.value) == f"prefix bad: base is not an absolute IRI: {base!r}"


@pytest.mark.parametrize("root", ["http://x y/", "http://x/\udcff/", "http://x<y/"])
def test_root_must_be_an_iri(root):
    with pytest.raises(WbforgeError, match="namespace root is not an absolute IRI") as info:
        NamespaceTable(root)
    assert repr(root) in str(info.value)
