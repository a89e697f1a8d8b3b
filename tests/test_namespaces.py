"""Namespace table: derivation from the root, curie compression, prefixes."""

from pathlib import Path

import pytest

import wbforge
from wbforge import namespaces
from wbforge.dsl import parse_schema
from wbforge.errors import DuplicateDeclarationError, UnknownPrefixError, WbforgeError
from wbforge.fixtures import FIXTURE_NAMES, load_bundle
from wbforge.namespaces import (
    DEFAULT_ROOT,
    FIXED_PREFIX_ORDER,
    Iri,
    NamespaceTable,
    expand_iri,
)


def test_iri_rejects_garbage():
    for bad in ("", "has space", "<http://x.example/>", "http://x\n.example/"):
        with pytest.raises(WbforgeError):
            Iri(bad)
    for c in "".join(map(chr, range(0x21))) + "<>\"\\":   # U+0000-U+0020 and four more
        for bad in (c, c + "http://x.example/", "http://x.exa" + c + "mple/", "http://x.example/" + c):
            with pytest.raises(WbforgeError):
                Iri(bad)
    assert Iri("http://x.example/a-b_c#d?e=f").value == "http://x.example/a-b_c#d?e=f"


def test_iri_requires_a_scheme():
    for bad in ("x", "/x", "//x.example/", ":x", "1a:x", "+a:x", "a b:x", "a_b:x", "é:x"):
        with pytest.raises(WbforgeError, match="not an absolute IRI"):
            Iri(bad)
    for good in ("a:", "urn:x", "H:x", "a1+b.c-d:x", "http://x.example/a:b"):
        assert Iri(good).value == good


def test_iri_refuses_the_characters_n_triples_excludes():
    for c in "{}|^`":
        for bad in ("http://x.example/" + c, "http://x.exa" + c + "mple/", c + "http://x.example/"):
            with pytest.raises(WbforgeError, match="not an absolute IRI"):
                Iri(bad)


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


def test_minted_terms_are_local_names_under_their_base():
    t = NamespaceTable()
    assert t.term("pq", "hasJob") == Iri(DEFAULT_ROOT + "prop/qualifier/hasJob")
    assert type(t.term("ps", "hasJob")) is Iri
    assert t.term("wd", "One") == Iri(DEFAULT_ROOT + "entity/One")


def test_memo_leaves_equality_and_hash_alone():
    used, fresh = NamespaceTable(), NamespaceTable()
    used.term("wikibase", "Statement")
    used.term("pq", "hasJob")
    assert used.curie(used.term("wikibase", "Statement")) == "wikibase:Statement"
    assert used.curie(Iri("http://elsewhere.example/x")) is None
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1


def test_with_prefix_does_not_share_the_memo():
    parent = NamespaceTable()
    minted = parent.term("p", "hasJob")
    person = Iri("http://v.example/Person")
    assert parent.curie(person) is None and parent.split(person) is None
    child = parent.with_prefix("ex", "http://v.example/")
    assert child.curie(person) == "ex:Person" and child.split(person) == ("ex", "Person")
    assert parent.curie(person) is None
    again = child.term("p", "hasJob")
    assert again == minted and again is not minted
    assert child.term("ex", "Person") == Iri("http://v.example/Person")
    with pytest.raises(UnknownPrefixError):
        parent.term("ex", "Person")
    rebased = NamespaceTable("http://other.example/")
    assert rebased.term("p", "hasJob") == Iri("http://other.example/prop/hasJob")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_curie_memo_answers_as_a_fresh_table(name):
    bundle = load_bundle(name)
    root, user = bundle.table.root, bundle.table.user
    a = bundle.table.term("rdf", "type")
    iris = sorted({t.p for t in bundle.graph} | {t.o for t in bundle.graph if t.p == a})
    expected = {iri: (NamespaceTable(root, user).curie(iri), NamespaceTable(root, user).split(iri))
                for iri in iris}
    used = NamespaceTable(root, user)
    for _ in range(2):                # the first call fills the memo, the second reads it
        assert {iri: (used.curie(iri), used.split(iri)) for iri in iris} == expected
    assert any(c is not None for c, _ in expected.values())


def test_memo_keeps_the_namespace_and_iri_checks():
    t = NamespaceTable()
    with pytest.raises(UnknownPrefixError):
        t.term("nope", "x")
    for _ in range(2):                # a failed mint is not remembered
        with pytest.raises(WbforgeError):
            t.term("p", "has job")


def test_expand_iri_resolves_curies_through_term():
    t = NamespaceTable()
    assert expand_iri("wd:employee", t) == t.term("wd", "employee")
    assert type(expand_iri("wd:employee", t)) is Iri
    for _ in range(2):                # an invalid IRI is refused each time
        with pytest.raises(WbforgeError, match="not an absolute IRI"):
            t.term("wd", "a b")
        with pytest.raises(WbforgeError, match="not an absolute IRI"):
            expand_iri("wd:a b", t)


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


def test_local_name_takes_the_text_after_the_first_separator_kind_found():
    # '#' wins over a later '/', '/' over ':', and a scheme's ':' always exists
    assert Iri("http://x.example/a#b/c").local_name == "b/c"
    assert Iri("http://x.example/a:b/c").local_name == "c"
    assert Iri("urn:isbn:0451450523").local_name == "0451450523"
    assert Iri("urn:x").local_name == "x"
    assert Iri("tag:").local_name == ""


def _longest_base_curie(table: NamespaceTable, iri: Iri) -> str | None:
    """`curie` as a scan over every base, keeping the longest one that matches.

    `prefixes()` lists the fixed bindings, then the user ones in declaration
    order. Two fixed bases never coincide, and user bindings come after the
    fixed ones here as in the table, so among equal bases the first one
    listed is the first one bound, and the strict `>` keeps it.
    """
    best = None
    for prefix, base in table.prefixes():
        if iri.value.startswith(base) and (best is None or len(base) > len(best[1])):
            best = (prefix, base)
    if best is None:
        return None
    local = iri.value[len(best[1]):]
    if not local or any(c in local for c in "/#:"):
        return None
    return f"{best[0]}:{local}"


_USER_BASES = (
    ("ex", "http://example.org/"),
    ("exv", "http://example.org/vocab#"),             # ends in '#', under ex:
    ("deep", "http://example.org/vocab#part/"),        # a '/' base under a '#' base
    ("mywd", DEFAULT_ROOT + "entity/"),                # equal to the fixed wd: base
    ("ex2", "http://example.org/"),                    # equal to an earlier user base
    ("colon", "http://example.org/a:b/"),              # a ':' inside the base
)
_LOCALS = ("", "a", "Agent", "x-1", "a:b", "a/b", "a#b", "a/", "a#", ":", "/", "#",
           "p:q/r", "é")


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("root", [DEFAULT_ROOT, "http://kb.example/kb#"])
def test_curie_and_split_agree_with_the_longest_base_scan(seed, root):
    import random

    rng = random.Random(seed)
    table = NamespaceTable(root, _USER_BASES)
    bases = [base for _, base in table.prefixes()]
    iris = {Iri(base + local) for base in bases for local in _LOCALS}
    iris |= {Iri(base[:-1]) for base in bases}                  # a base without its separator
    for _ in range(200):
        base = rng.choice(bases)
        local = "".join(rng.choice(("a", "b", "7", ":", "/", "#", "-", ".", "~"))
                        for _ in range(rng.randrange(6)))
        iris.add(Iri(rng.choice(("", "http://elsewhere.example/")) + base + local))
    iris |= {Iri("urn:x:y"), Iri("http://elsewhere.example/z"), Iri("http:")}
    fresh = NamespaceTable(root, _USER_BASES)
    for iri in sorted(iris, key=lambda i: rng.random()):
        want = _longest_base_curie(fresh, iri)
        assert table.curie(iri) == want, iri
        assert table.curie(iri) == want, iri          # again, from the memo
        assert table.split(iri) == (None if want is None else tuple(want.split(":", 1)))
    assert table.curie(Iri(DEFAULT_ROOT + "entity/x")) == (
        "wd:x" if root == DEFAULT_ROOT else "mywd:x")   # the first prefix of a base wins
    assert table.curie(Iri("http://example.org/x")) == "ex:x"
    assert table.curie(Iri("http://example.org/vocab#x")) == "exv:x"
    assert table.curie(Iri(root + "prop/statement/x")) == "ps:x"
    assert table.curie(Iri(root + "prop/x")) == "p:x"


def test_curie_builds_its_base_map_on_the_first_miss():
    # a table that is only extended (one per prefix line) never builds it
    t = NamespaceTable()
    t = t.with_prefix("ex", "http://example.org/").with_prefix("rec", "http://rec.example/")
    assert t._prefix_of_base == {}
    assert t.curie(Iri("http://rec.example/Person")) == "rec:Person"
    assert t._prefix_of_base["http://rec.example/"] == "rec"
    assert t.with_prefix("x", "http://x.example/")._prefix_of_base == {}


def test_each_fixed_base_is_spelled_in_namespaces_only():
    # a base that is the same under two roots is fixed; other modules take
    # its terms from `fixed_term` and the constants built with it
    bases = {base for (_, base), (_, other) in zip(
        NamespaceTable().prefixes(), NamespaceTable("http://other.example/").prefixes())
        if base == other}
    assert len(bases) == 6
    src = Path(wbforge.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spelled = sorted(base for base in bases if base in text)
        if path.name == "namespaces.py":
            assert all(text.count(base) == 1 for base in bases)
        else:
            assert spelled == [], path.name


def test_a_parse_with_prefix_lines_builds_the_fixed_bindings_once(monkeypatch):
    # each prefix line extends the table, checking only its own base
    calls = []

    def counted(root, _fixed=namespaces._fixed_bindings):
        calls.append(root)
        return _fixed(root)
    monkeypatch.setattr(namespaces, "_fixed_bindings", counted)
    doc = parse_schema("prefix ex: <http://example.org/>\n"
                       "prefix rec: <http://rec.example/vocab#>\n"
                       "class ex:Person\n")
    assert calls == [DEFAULT_ROOT]
    user = (("ex", "http://example.org/"), ("rec", "http://rec.example/vocab#"))
    whole = NamespaceTable(DEFAULT_ROOT, user)
    assert doc.namespaces == whole and doc.namespaces.prefixes() == whole.prefixes()
