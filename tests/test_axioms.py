"""Axiom generation and the functional-style serializer.

The reference output in golden/axioms_reference.ofn was transcribed by
hand before the generator existed; byte equality against it is the
contract for the whole serialization pipeline.
"""

from dataclasses import dataclass
from pathlib import Path

import pytest

from wbforge.axioms import (
    CATALOG,
    instantiate_pattern,
    nl_approximation,
    schema_axioms,
    serialize_axioms,
)
from wbforge.dl import (
    TOP, All, AnnotatedAxiom, ExactCard, MaxCard, MinCard, Named, Role, Some, SubClassOf)
from wbforge.dsl import parse_schema
from wbforge.errors import PatternInapplicableError
from wbforge.model import AxiomPattern
from wbforge.namespaces import Iri, NamespaceTable

GOLDEN = Path(__file__).parent / "golden" / "axioms_reference.ofn"

GOLDEN_SCHEMA = """prefix ex: <http://example.org/>
class ex:Employee
class ex:Job
statement ex:hasJob {
  subject ex:Employee
  object item ex:Job
  qualifier ex:atTime : datetime
  qualifier ex:note : string
  reference ex:taxRecord -> item ex:Job
}
"""

PATTERNED = """prefix ex: <http://example.org/>
class ex:Employee
class ex:Job
statement ex:hasJob {
  subject ex:Employee
  object item ex:Job
  axioms { Domain, Range, Existential, InverseExistential }
}
"""


def _doc(text: str):
    return parse_schema(text)


def test_golden_byte_identity():
    doc = _doc(GOLDEN_SCHEMA)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    assert out == GOLDEN.read_text()


def test_every_origin_key_is_cataloged():
    doc = _doc(GOLDEN_SCHEMA +
               "statement ex:worksAt {\n"
               "  subject ex:Employee\n"
               "  object item ex:Job\n"
               "  qualifier ex:amount : decimal scoped required\n"
               "  axioms { Domain, Range, Existential, InverseExistential }\n"
               "}\n")
    for ax in schema_axioms(doc):
        key = ax.origin
        if key.startswith("Pattern:"):
            assert key.removeprefix("Pattern:") in {p.value for p in AxiomPattern}
        else:
            assert key in CATALOG, key
        assert ax.nl.endswith(".")
        assert ax.decl


def test_duplicate_axioms_merge_with_stacked_comments():
    doc = _doc(GOLDEN_SCHEMA)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    # pq:atTime domain is asserted by Ax8, Ax12 and Ax13; one axiom line,
    # three stacked comment lines, at the first occurrence
    block = [l for l in out.splitlines() if "pq:atTime owl:Thing ) wikibase:Statement" in l]
    assert len(block) == 1
    lines = out.splitlines()
    i = lines.index("SubClassOf( ObjectSomeValuesFrom( pq:atTime owl:Thing ) wikibase:Statement )")
    assert [l.split(" | ")[0] for l in lines[i - 3:i]] == ["# Ax8", "# Ax12", "# Ax13"]


def _ex(name: str) -> Named:
    return Named(Iri(f"http://example.org/{name}"))


def _card() -> ExactCard:
    return ExactCard(1, Role(Iri("http://example.org/r")), _ex("B"))


@pytest.mark.parametrize("exact, nl", [(True, True), (True, False), (False, True)])
def test_a_repeated_axiom_collapses_onto_its_first_line(exact, nl):
    # each axiom is built anew, so only equality, not identity, links a repeat
    stream = [(SubClassOf(_ex("A"), _ex("B")), "o1"),
              (SubClassOf(_ex("A"), _card()), "o2"),
              (SubClassOf(_ex("C"), _ex("B")), "o3"),
              (SubClassOf(_ex("A"), _ex("B")), "o4"),
              (SubClassOf(_ex("A"), _card()), "o5"),
              (SubClassOf(_ex("A"), _ex("B")), "o6")]
    anns = [AnnotatedAxiom(axiom, origin, f"reading {origin}.", "d") for axiom, origin in stream]
    doc = _doc("prefix ex: <http://example.org/>\n")
    out = serialize_axioms(anns, doc.namespaces, exact_cardinality=exact, nl_comments=nl)
    body = out.splitlines()[out.splitlines().index("Ontology(") + 1:-1]

    def notes(*origins):
        return [f"# {o} | d | reading {o}." for o in origins] if nl else []

    card = (["SubClassOf( ex:A ObjectExactCardinality( 1 ex:r ex:B ) )"] if exact else
            ["SubClassOf( ex:A ObjectMinCardinality( 1 ex:r ex:B ) )",
             "SubClassOf( ex:A ObjectMaxCardinality( 1 ex:r ex:B ) )"])
    assert body == (notes("o1", "o4", "o6") + ["SubClassOf( ex:A ex:B )"]
                    + notes("o2", "o5") + card
                    + notes("o3") + ["SubClassOf( ex:C ex:B )"])


def test_comment_layout():
    doc = _doc(GOLDEN_SCHEMA)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    lines = out.splitlines()
    assert lines[-1] == ")"
    body = lines[lines.index("Ontology(") + 1:-1]
    for comment, axiom in zip(body, body[1:]):
        if comment.startswith("# ") and not axiom.startswith("# "):
            origin, decl, nl = comment[2:].split(" | ", 2)
            assert origin and decl and nl.endswith(".")


def test_no_nl_mode_strips_comments():
    doc = _doc(GOLDEN_SCHEMA)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces, nl_comments=False)
    assert not any(l.startswith("# ") for l in out.splitlines())
    # same axiom lines as the commented form
    golden_axioms = [l for l in GOLDEN.read_text().splitlines() if not l.startswith("# ")]
    assert [l for l in out.splitlines()] == golden_axioms


def test_exact_cardinality_split():
    doc = _doc(GOLDEN_SCHEMA)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces, exact_cardinality=False)
    assert "ExactCardinality" not in out
    lines = out.splitlines()
    mins = [l for l in lines if "MinCardinality( 1 ps:hasJob" in l]
    maxs = [l for l in lines if "MaxCardinality( 1 ps:hasJob" in l]
    assert len(mins) == 1 and len(maxs) == 1
    # the pair sits together under one shared Ax7 comment block
    i = lines.index(mins[0])
    assert lines[i - 1].startswith("# Ax7 | hasJob")
    assert lines[i + 1] == maxs[0]
    # data cardinalities split into the Data* constructor family
    assert "DataMinCardinality( 1 wikibase:timeValue xsd:dateTime )" in out
    assert "DataMaxCardinality( 1 wikibase:timeValue xsd:dateTime )" in out


def test_patterns_emit_origin_lines():
    doc = _doc(PATTERNED)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    assert "# Pattern:Domain | hasJob | " in out
    assert "# Pattern:InverseExistential | hasJob | " in out
    # Domain pattern ties the declared subject class to the family
    assert "SubClassOf( ObjectSomeValuesFrom( wdt:hasJob owl:Thing ) ex:Employee )" in out


def test_pattern_axiom_counts():
    doc = _doc(PATTERNED)
    decl = doc.statements[0]
    table = doc.namespaces
    sizes = {
        AxiomPattern.DOMAIN: 2,
        AxiomPattern.RANGE: 2,
        AxiomPattern.FUNCTIONALITY: 2,
        AxiomPattern.EXISTENTIAL: 2,
        AxiomPattern.INVERSE_EXISTENTIAL: 2,
    }
    for pattern, expected in sizes.items():
        axs = instantiate_pattern(pattern, decl, table)
        assert len(axs) == expected, pattern
        assert all(a.origin == f"Pattern:{pattern.value}" for a in axs)
    # every pattern instantiates on an item-valued statement
    for pattern in AxiomPattern:
        assert instantiate_pattern(pattern, decl, table)


def test_inverse_existential_rejected_on_data_objects():
    doc = _doc("prefix ex: <http://example.org/>\nclass ex:A\n"
               "statement ex:born { subject ex:A object datetime }")
    decl = doc.statements[0]
    with pytest.raises(PatternInapplicableError):
        instantiate_pattern(AxiomPattern.INVERSE_EXISTENTIAL, decl, doc.namespaces)
    # the other eleven all render
    for pattern in AxiomPattern:
        if pattern is AxiomPattern.INVERSE_EXISTENTIAL:
            continue
        assert instantiate_pattern(pattern, decl, doc.namespaces), pattern


def test_nl_approximation_substitutes_names():
    doc = _doc(PATTERNED)
    decl = doc.statements[0]
    nl = nl_approximation(AxiomPattern.DOMAIN, decl)
    assert "hasJob" in nl and "Employee" in nl
    assert nl.endswith(".")
    # the caveat rides on the instantiated axioms, not the bare template
    axs = instantiate_pattern(AxiomPattern.INVERSE_EXISTENTIAL, decl, doc.namespaces)
    assert all(a.nl.endswith(" Effective only together with a Domain pattern.")
               for a in axs)


def test_data_object_statement_gets_value_functionality():
    text = ("prefix ex: <http://example.org/>\nclass ex:A\n"
            "statement ex:note { subject ex:A object string }")
    doc = _doc(text)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    assert "# AxFunc | note | " in out
    assert "DataMaxCardinality( 1 ps:note xsd:string )" in out
    # no inverse-side corollaries for data objects
    assert "ObjectInverseOf( wdt:note )" not in out


def test_decimal_object_carries_quantity_node_axioms():
    text = ("prefix ex: <http://example.org/>\nclass ex:A\n"
            "statement ex:height { subject ex:A object decimal }")
    doc = _doc(text)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    assert "psv:height" in out
    assert "wikibase:quantityValue" in out and "wikibase:quantityUnit" in out
    # the decimal set carries its own functionality; no extra AxFunc
    assert "# AxFunc" not in out


def test_required_qualifier_emits_existence_axiom():
    text = ("prefix ex: <http://example.org/>\nclass ex:A\n"
            "statement ex:rec { subject ex:A object item ex:A\n"
            "  qualifier ex:v : string required }")
    doc = _doc(text)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    assert "# AxReq | rec/v | " in out
    assert "SubClassOf( wikibase:Statement DataMinCardinality( 1 pq:v xsd:string ) )" in out


def test_scoped_qualifier_range_attaches_to_statement_class():
    text = ("prefix ex: <http://example.org/>\nclass ex:A\n"
            "statement ex:rec { subject ex:A object item ex:A\n"
            "  qualifier ex:t : datetime scoped }")
    doc = _doc(text)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    # scoped range: fillers of the inverse chain through p:rec, with the
    # datatype in class position (kept literally; see Ax14 catalog note)
    assert ("SubClassOf( ObjectSomeValuesFrom( ObjectInverseOf( pq:t ) "
            "ObjectSomeValuesFrom( ObjectInverseOf( p:rec ) wikibase:Item ) ) "
            "xsd:dateTime )") in out
    # and the unscoped global range is absent
    assert "SubClassOf( owl:Thing ObjectAllValuesFrom( pq:t wikibase:TimeValue ) )" not in out


def test_serializer_is_deterministic():
    doc = _doc(GOLDEN_SCHEMA)
    a = serialize_axioms(schema_axioms(doc), doc.namespaces)
    b = serialize_axioms(schema_axioms(doc), doc.namespaces)
    assert a == b


@dataclass(frozen=True)
class _Unknown:
    """A class expression the renderer has no form for."""


def test_an_unknown_class_expression_is_a_type_error():
    employee = Iri("http://example.org/Employee")
    axiom = SubClassOf(Named(employee), Some(Role(employee), _Unknown()))
    with pytest.raises(TypeError, match="unknown class expression"):
        serialize_axioms([AnnotatedAxiom(axiom, "X", "x.", "d")], NamespaceTable())


_R = Role(Iri("http://example.org/r"))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("sub, sup", [
    (_Unknown(), _ex("A")),
    (_ex("A"), _Unknown()),
    (_ex("A"), Some(_R, _Unknown())),
    (_ex("A"), All(_R, _Unknown())),
    (_ex("A"), MinCard(1, _R, _Unknown())),
    (_ex("A"), MaxCard(1, _R, _Unknown())),
    # split into its min/max pair when not exact
    (_ex("A"), ExactCard(1, _R, _Unknown())),
    (Some(_R, Some(_R, _Unknown())), TOP),
])
def test_an_unknown_node_is_the_same_type_error_wherever_it_sits(sub, sup, exact):
    axiom = AnnotatedAxiom(SubClassOf(sub, sup), "X", "x.", "d")
    with pytest.raises(TypeError) as exc:
        serialize_axioms([axiom], NamespaceTable(), exact_cardinality=exact)
    assert str(exc.value) == "unknown class expression: _Unknown()"


VALUE_NODES = """prefix ex: <http://example.org/>
class ex:A
statement ex:a {
  subject ex:A
  object decimal
  qualifier ex:t1 : datetime
  qualifier ex:t2 : datetime
}
statement ex:b {
  subject ex:A
  object item ex:A
  qualifier ex:t3 : datetime
  qualifier ex:n : decimal
}
"""
TIME_NODE_KEYS = [f"Ax{i}" for i in range(19, 31)]
QUANTITY_NODE_KEYS = [f"AxQ-{f}-{k}" for f in ("val", "unit")
                      for k in ("dom", "range", "exist", "func")]


def test_each_value_node_axiom_is_one_line_with_a_comment_per_use():
    doc = _doc(VALUE_NODES)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces)
    lines = out.splitlines()
    for keys, uses in ((TIME_NODE_KEYS, ["a/t1", "a/t2", "b/t3"]),
                       (QUANTITY_NODE_KEYS, ["a", "b/n"])):
        for key in keys:
            at = [i for i, line in enumerate(lines) if line.startswith(f"# {key} | ")]
            # the comments stand together, in declaration order, above one axiom line
            assert at == list(range(at[0], at[0] + len(uses))), key
            assert [lines[i].split(" | ")[1] for i in at] == uses
            end = at[-1] + 1
            while lines[end].startswith("# "):
                end += 1
            assert lines.count(lines[end]) == 1


def test_each_use_of_a_value_node_set_holds_the_same_axioms():
    doc = _doc(VALUE_NODES)
    axioms = schema_axioms(doc)
    for keys, uses in ((TIME_NODE_KEYS, ["a/t1", "a/t2", "b/t3"]),
                       (QUANTITY_NODE_KEYS, ["a", "b/n"])):
        for key in keys:
            found = [a for a in axioms if a.origin == key]
            assert [a.decl for a in found] == uses
            assert all(a.axiom is found[0].axiom and a.nl is found[0].nl for a in found)


CALENDAR = Iri("http://wikiba.se/ontology#timeCalendarModel")


@pytest.mark.parametrize("alternate", [False, True])
def test_runs_under_different_roots_each_get_their_own_calendar_item(alternate):
    roots = ["http://one.example/", "http://two.example/"]
    docs = [parse_schema(VALUE_NODES, root) for root in roots]
    fresh = [schema_axioms(doc) for doc in docs]
    order = [0, 1, 0, 1] if alternate else [1, 1, 0, 0]
    for k in order:
        axioms = schema_axioms(docs[k])
        assert axioms == fresh[k]
        item = Named(Iri(roots[k] + "entity/Item"))
        by_origin = {a.origin: a.axiom for a in axioms}
        assert by_origin["Ax26"] == SubClassOf(TOP, All(Role(CALENDAR), item))
        assert by_origin["Ax30"] == SubClassOf(TOP, ExactCard(1, Role(CALENDAR), item))
        out = serialize_axioms(axioms, docs[k].namespaces)
        assert f"Prefix( wd: = <{roots[k]}entity/> )" in out
        assert "SubClassOf( owl:Thing ObjectAllValuesFrom( wikibase:timeCalendarModel wd:Item ) )" in out


COLLIDING = """prefix ex: <http://example.org/>
class ex:A
class xsd:decimal
statement ex:p {
  subject ex:A
  object item xsd:decimal
  qualifier ex:r : decimal required
  axioms { ScopedRange, Existential }
}
"""


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("nl", [True, False])
def test_axioms_of_different_kinds_with_equal_fields_keep_their_lines(exact, nl):
    # All/Some over one role and filler, and the AxReq MinCard against the
    # decimal set's MaxCard: each pair would merge if its nodes compared equal
    doc = _doc(COLLIDING)
    out = serialize_axioms(schema_axioms(doc), doc.namespaces,
                           exact_cardinality=exact, nl_comments=nl)
    blocks = [
        ["# AxQ-pq-func | p/r | A wikibase:Statement carries at most one pq:r value.",
         "SubClassOf( wikibase:Statement DataMaxCardinality( 1 pq:r xsd:decimal ) )"],
        ["# AxReq | p/r | A wikibase:Statement carries at least one pq:r value "
         "(required flag; DSL extension).",
         "SubClassOf( wikibase:Statement DataMinCardinality( 1 pq:r xsd:decimal ) )"],
        ["# Pattern:ScopedRange | p | A p Statement that is about a A always refers to "
         "a decimal.",
         "SubClassOf( ex:A ObjectAllValuesFrom( wdt:p xsd:decimal ) )"],
        ["# Pattern:Existential | p | A p Statement refers to at least one decimal.",
         "SubClassOf( ex:A ObjectSomeValuesFrom( wdt:p xsd:decimal ) )"],
    ]
    lines = out.splitlines()
    for comment, axiom in blocks:
        assert lines.count(axiom) == 1
        i = lines.index(axiom)
        # one comment, so no other axiom merged into this line
        above = lines[i - 2:i] if nl else lines[i - 1:i]
        assert not above[0].startswith("# ")
        assert above[1:] == ([comment] if nl else [])
