"""Axiom generation for expanded statement declarations.

Every declaration expands into a fixed library of subclass and
role-chain axioms over the minted property family: the reification core
(domains, ranges, the exactly-one cardinalities, the p-then-ps chain
and its four direct-property corollaries), per-qualifier sets keyed by
value type, per-reference provenance axioms, and the twelve optional
named patterns that specialize wikibase:Item to the declared subject
and object classes. Each generated axiom is annotated with a stable
origin key, a one-sentence reading, and the declaration it came from;
the serializer merges logically equal axioms and stacks their comments.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .dl import (
    All,
    AnnotatedAxiom,
    ClassExpr,
    DataRange,
    DlAxiom,
    ExactCard,
    MaxCard,
    MinCard,
    Named,
    Role,
    Some,
    SubClassOf,
    SubPropertyChain,
    TOP,
    Top,
)
from .errors import PatternInapplicableError
from .expander import ExpandedStatement, expand, expand_statement
from .model import (
    TYPED_ORIGINS,
    VALUE_KINDS,
    XSD_NAME,
    AxiomPattern,
    Datatype,
    QualifierDecl,
    ReferenceDecl,
    SchemaDocument,
    StatementDecl,
    ValueType,
)
from .namespaces import (
    PROV_WAS_DERIVED_FROM, WB_ITEM, WB_REFERENCE, WB_STATEMENT, NamespaceTable)

# origin key -> generic reading, used by finding explanations
CATALOG: dict[str, str] = {
    "Ax1": "the domain of the p: edge is wikibase:Item",
    "Ax2": "the range of the p: edge is wikibase:Statement",
    "Ax3+4": "the inverse of the p: edge has exactly one filler",
    "Ax5": "the domain of the ps: edge is wikibase:Statement",
    "Ax6": "the range of the ps: edge is wikibase:Item",
    "Ax7": "the ps: edge has exactly one filler",
    "Ax8": "the domain of every pq: edge is wikibase:Statement",
    "Ax9": "the p: edge chained with the ps: edge entails the wdt: edge",
    "Ax9-c1": "the domain of the wdt: edge is wikibase:Item",
    "Ax9-c2": "wdt: fillers within wikibase:Item imply an item subject",
    "Ax9-c3": "the range of the wdt: edge is wikibase:Item",
    "Ax9-c4": "items reached by wdt: from items are items",
    "Ax10": "scoped range of a pq: edge under item-anchored statements",
    "Ax11": "unscoped range of a pq: edge",
    "Ax12": "the domain of a pq: edge is wikibase:Statement",
    "Ax13": "the domain of a date pq: edge is wikibase:Statement",
    "Ax14": "scoped range of a date pq: edge is xsd:dateTime",
    "Ax15": "unscoped range of a date pq: edge is wikibase:TimeValue",
    "Ax16": "the domain of a date pqv: edge is wikibase:Statement",
    "Ax17": "the range of a date pqv: edge is wikibase:TimeValue",
    "Ax18": "a wikibase:TimeValue serves exactly one statement",
    "Ax19": "the domain of wikibase:timeValue is wikibase:TimeValue",
    "Ax20": "the domain of wikibase:timePrecision is wikibase:TimeValue",
    "Ax21": "the domain of wikibase:timeTimezone is wikibase:TimeValue",
    "Ax22": "the domain of wikibase:timeCalendarModel is wikibase:TimeValue",
    "Ax23": "the range of wikibase:timeValue is xsd:dateTime",
    "Ax24": "the range of wikibase:timePrecision is xsd:int",
    "Ax25": "the range of wikibase:timeTimezone is xsd:int",
    "Ax26": "the range of wikibase:timeCalendarModel is wd:Item",
    "Ax27": "wikibase:timeValue has exactly one filler",
    "Ax28": "wikibase:timePrecision has exactly one filler",
    "Ax29": "wikibase:timeTimezone has exactly one filler",
    "Ax30": "wikibase:timeCalendarModel has exactly one filler",
    "Ax31": "a date pq: assertion is accompanied by a pqv: value node",
    "Ax32": "the domain of a string pq: edge is wikibase:Statement",
    "Ax33": "scoped range of a string pq: edge is xsd:string",
    "Ax34": "unscoped range of a string pq: edge is xsd:string",
    "AxQ-pq-dom": "the domain of a quantity pq: edge is wikibase:Statement",
    "AxQ-pq-range": "on statements, a quantity pq: edge ranges over xsd:decimal",
    "AxQ-pq-func": "a statement carries at most one quantity pq: value",
    "AxQ-pqv-dom": "the domain of a quantity pqv: edge is wikibase:Statement",
    "AxQ-pqv-range": "on statements, a quantity pqv: edge ranges over wikibase:QuantityValue",
    "AxQ-pqv-func": "a statement carries at most one quantity pqv: value",
    "AxQ-val-dom": "the domain of wikibase:quantityValue is wikibase:QuantityValue",
    "AxQ-val-range": "on quantity nodes, wikibase:quantityValue ranges over xsd:decimal",
    "AxQ-val-exist": "a quantity node carries a wikibase:quantityValue",
    "AxQ-val-func": "a quantity node carries at most one wikibase:quantityValue",
    "AxQ-unit-dom": "the domain of wikibase:quantityUnit is wikibase:QuantityValue",
    "AxQ-unit-range": "on quantity nodes, wikibase:quantityUnit ranges over wikibase:Item",
    "AxQ-unit-exist": "a quantity node carries a wikibase:quantityUnit",
    "AxQ-unit-func": "a quantity node carries at most one wikibase:quantityUnit",
    "Ax49": "whatever derives a reference is a wikibase:Statement",
    "Ax50": "statements derive only wikibase:Reference nodes",
    "Ax51": "the domain of a pr: edge is wikibase:Reference",
    "Ax52": "pr: fillers on statement-derived references are items",
    "Ax53": "unscoped range of a pr: edge is wikibase:Item",
    "AxRef-sd": "items anchor the statements whose references carry the pr: edge",
    "Ax54": "a reference is derived from exactly one statement",
    "AxFunc": "at-most-one value, declared by the functional flag (DSL extension)",
    "AxReq": "at-least-one value, declared by the required flag (DSL extension)",
}

_PATTERN_NL = {
    AxiomPattern.DOMAIN: "A {P} Statement is always about a {S}.",
    AxiomPattern.RANGE: "A {P} Statement always refers to a {O}.",
    AxiomPattern.SCOPED_DOMAIN:
        "A {P} Statement that refers to a {O}, is always about a {S}.",
    AxiomPattern.SCOPED_RANGE:
        "A {P} Statement that is about a {S} always refers to a {O}.",
    AxiomPattern.FUNCTIONALITY: "A {P} Statement refers to at most one Item.",
    AxiomPattern.INVERSE_FUNCTIONALITY: "A {P} Statement is about at most one Item.",
    AxiomPattern.SCOPED_FUNCTIONALITY: "A {P} Statement is about at most one {S}.",
    AxiomPattern.QUALIFIED_FUNCTIONALITY: "A {P} Statement refers to at most one {O}.",
    AxiomPattern.QUALIFIED_SCOPED_FUNCTIONALITY:
        "A {P} Statement about a {S} refers to at most one {O}.",
    AxiomPattern.INVERSE_QUALIFIED_SCOPED_FUNCTIONALITY:
        "A {P} Statement that refers to a {O} is about at most one {S}.",
    AxiomPattern.EXISTENTIAL: "A {P} Statement refers to at least one {O}.",
    AxiomPattern.INVERSE_EXISTENTIAL: "A {P} Statement is about at least one {S}.",
}


# an axiom set's (axiom, origin, reading) forms, by the builder that made them
_Forms = dict[Callable[["_Env"], Iterator[AnnotatedAxiom]], list[tuple[DlAxiom, str, str]]]


class _Env:
    """Per-declaration naming context shared by the generator functions.

    The fixed classes are alike under every table. `forms` belongs to one
    run and is shared by all of its declarations (see `_once`).
    """

    item, statement, reference = Named(WB_ITEM), Named(WB_STATEMENT), Named(WB_REFERENCE)
    time_value = Named(VALUE_KINDS[Datatype.DATETIME].class_iri)
    quantity_value = Named(VALUE_KINDS[Datatype.DECIMAL].class_iri)
    prov = Role(PROV_WAS_DERIVED_FROM)

    def __init__(self, st: ExpandedStatement, table: NamespaceTable, forms: _Forms) -> None:
        self.st, self.decl = st, st.source
        self.table = table
        self.forms = forms
        self.p, self.ps, self.wdt = Role(st.p), Role(st.ps), Role(st.wdt)
        self.psv = None if st.psv is None else Role(st.psv)

    def role_name(self, role: Role) -> str:
        return _render_role(role, self.table)

    def class_name(self, expr: ClassExpr) -> str:
        return _render_class(expr, self.table)


def _inv(role: Role) -> Role:
    return Role(role.iri, not role.inverse)


def _domain(e: _Env, role: Role, cls: ClassExpr, key: str, decl_id: str) -> AnnotatedAxiom:
    return AnnotatedAxiom(SubClassOf(Some(role, TOP), cls), key,
                          f"The domain of {e.role_name(role)} is {e.class_name(cls)}.", decl_id)


def _global_range(e: _Env, role: Role, cls: ClassExpr, key: str, decl_id: str,
                  inverse: bool = False) -> AnnotatedAxiom:
    """TOP below All(role, cls), or with `inverse` its form Some(role-, TOP) below cls."""
    axiom = SubClassOf(Some(_inv(role), TOP), cls) if inverse else SubClassOf(TOP, All(role, cls))
    how = ", written with the inverse" if inverse else ""
    return AnnotatedAxiom(axiom, key, f"The range of {e.role_name(role)} is "
                          f"{e.class_name(cls)}{how}.", decl_id)


def _ranges_over(e: _Env, cls: ClassExpr, role: Role, filler: ClassExpr, key: str,
                 decl_id: str) -> AnnotatedAxiom:
    return AnnotatedAxiom(SubClassOf(cls, All(role, filler)), key,
                          f"On a {e.class_name(cls)}, {e.role_name(role)} ranges over "
                          f"{e.class_name(filler)}.", decl_id)


def _core_axioms(e: _Env) -> Iterator[AnnotatedAxiom]:
    """Reification core: Ax1-8, the chain, and its wdt: corollaries.

    Fillers stay at wikibase:Item here; declared classes only enter via
    the named patterns. Data-valued objects skip the Item-range half
    (Ax6/Ax7 and the inverse corollaries), which the substituted value
    sets replace.
    """
    decl = e.decl
    name = decl.property_name
    p_n, ps_n, wdt_n = e.role_name(e.p), e.role_name(e.ps), e.role_name(e.wdt)
    data_valued = decl.object_spec.datatype is not None
    yield _domain(e, e.p, e.item, "Ax1", name)
    yield _global_range(e, e.p, e.statement, "Ax2", name)
    yield AnnotatedAxiom(SubClassOf(TOP, ExactCard(1, _inv(e.p), e.statement)), "Ax3+4",
                         f"The inverse of {p_n} has exactly one wikibase:Statement filler.",
                         name)
    yield _domain(e, e.ps, e.statement, "Ax5", name)
    if not data_valued:
        yield _global_range(e, e.ps, e.item, "Ax6", name)
        yield AnnotatedAxiom(SubClassOf(TOP, ExactCard(1, e.ps, e.item)), "Ax7",
                             f"{ps_n} has exactly one wikibase:Item filler.", name)
    for qname, (_, pq, _) in e.st.qualifiers.items():
        yield _domain(e, Role(pq), e.statement, "Ax8", f"{name}/{qname}")
    yield AnnotatedAxiom(SubPropertyChain((e.p, e.ps), e.wdt), "Ax9",
                         f"The chain {p_n} then {ps_n} entails {wdt_n}.", name)
    yield _domain(e, e.wdt, e.item, "Ax9-c1", name)
    ax9_c2_filler = DataRange(decl.object_spec.datatype) if data_valued else e.item
    yield AnnotatedAxiom(
        SubClassOf(Some(e.wdt, ax9_c2_filler), e.item), "Ax9-c2",
        f"Anything with a {wdt_n} filler in {e.class_name(ax9_c2_filler)} is a wikibase:Item.",
        name)
    if not data_valued:
        yield _global_range(e, e.wdt, e.item, "Ax9-c3", name, inverse=True)
        yield AnnotatedAxiom(
            SubClassOf(Some(_inv(e.wdt), e.item), e.item), "Ax9-c4",
            f"Anything that is a {wdt_n} filler of a wikibase:Item is a wikibase:Item.", name)


def _once(e: _Env, build: Callable[[_Env], Iterator[AnnotatedAxiom]],
          decl_id: str) -> list[AnnotatedAxiom]:
    """`build`'s axioms under `decl_id`, for a set whose axioms and readings
    depend only on the table: built on the run's first use, then reused."""
    forms = e.forms.get(build)
    if forms is None:
        forms = e.forms[build] = [(a.axiom, a.origin, a.nl) for a in build(e)]
    return [AnnotatedAxiom(axiom, origin, nl, decl_id) for axiom, origin, nl in forms]


# The sets below go through `_once`, so they carry no declaration id of their
# own; several uses of one set merge at serialization.

def _time_node_axioms(e: _Env) -> Iterator[AnnotatedAxiom]:
    # the calendar model ranges over wd:Item, unlike the quantity unit
    kind, wd_item = VALUE_KINDS[Datatype.DATETIME], Named(e.table.term("wd", "Item"))
    fields = [(Role(pred), wd_item if dt is None else DataRange(dt))
              for pred, (_, _, dt) in zip(kind.predicates, kind.fields)]
    for i, (role, _) in enumerate(fields):
        yield _domain(e, role, e.time_value, f"Ax{19 + i}", "")
    for i, (role, rng) in enumerate(fields):
        yield _global_range(e, role, rng, f"Ax{23 + i}", "")
    for i, (role, rng) in enumerate(fields):
        yield AnnotatedAxiom(
            SubClassOf(TOP, ExactCard(1, role, rng)), f"Ax{27 + i}",
            f"{e.role_name(role)} has exactly one {e.class_name(rng)} filler.", "")


def _quantity_node_axioms(e: _Env) -> Iterator[AnnotatedAxiom]:
    qv, kind = e.quantity_value, VALUE_KINDS[Datatype.DECIMAL]
    # origin keys AxQ-val-* and AxQ-unit-*, one per field in table order
    for key, pred, (f, _, dt) in zip(("val", "unit"), kind.predicates, kind.fields):
        role, rng = Role(pred), e.item if dt is None else DataRange(dt)
        yield _domain(e, role, qv, f"AxQ-{key}-dom", "")
        yield _ranges_over(e, qv, role, rng, f"AxQ-{key}-range", "")
        yield AnnotatedAxiom(SubClassOf(qv, Some(role, rng)), f"AxQ-{key}-exist",
                             f"A wikibase:QuantityValue carries a wikibase:{f}.", "")
        yield AnnotatedAxiom(SubClassOf(qv, MaxCard(1, role, rng)), f"AxQ-{key}-func",
                             f"A wikibase:QuantityValue carries at most one wikibase:{f}.", "")


def _derivation_axioms(e: _Env) -> Iterator[AnnotatedAxiom]:
    yield AnnotatedAxiom(SubClassOf(Some(e.prov, e.reference), e.statement), "Ax49",
                         f"Whatever derives a wikibase:Reference via {e.role_name(e.prov)} "
                         "is a wikibase:Statement.", "")
    yield _ranges_over(e, e.statement, e.prov, e.reference, "Ax50", "")


def _reference_owner_axiom(e: _Env) -> Iterator[AnnotatedAxiom]:
    yield AnnotatedAxiom(
        SubClassOf(e.reference, ExactCard(1, _inv(e.prov), e.statement)), "Ax54",
        "A wikibase:Reference is derived from exactly one wikibase:Statement.", "")


def _filler(e: _Env, vtype: ValueType, scoped: bool) -> ClassExpr:
    """The range filler of a pq:/ps: edge; an unscoped date edge ranges over its node."""
    if vtype.item_class is not None:
        return Named(vtype.item_class)
    if vtype.datatype is Datatype.DATETIME and not scoped:
        return e.time_value
    return DataRange(vtype.datatype)


def _range_axiom(e: _Env, edge: Role, filler: ClassExpr, scoped: bool, key: str,
                 decl_id: str) -> AnnotatedAxiom:
    edge_n, filler_n = e.role_name(edge), e.class_name(filler)
    if scoped:
        return AnnotatedAxiom(SubClassOf(Some(_inv(edge), Some(_inv(e.p), e.item)), filler),
                              key, f"The scoped range of {edge_n} under items is {filler_n}.",
                              decl_id)
    return AnnotatedAxiom(SubClassOf(TOP, All(edge, filler)), key,
                          f"The unscoped range of {edge_n} is {filler_n}.", decl_id)


def _at_most_one(e: _Env, edge: Role, filler: ClassExpr, decl_id: str) -> AnnotatedAxiom:
    return AnnotatedAxiom(SubClassOf(e.statement, MaxCard(1, edge, filler)), "AxFunc",
                          f"A wikibase:Statement carries at most one {e.role_name(edge)} "
                          "value (functional flag; DSL extension).", decl_id)


def _typed_edge_axioms(e: _Env, edge: Role, value_edge: Role | None, vtype: ValueType,
                       scoped: bool, decl_id: str) -> Iterator[AnnotatedAxiom]:
    """Type-specific set for a pq:/pqv: pair, reused for ps:/psv: by substitution."""
    datatype = vtype.datatype
    keys = TYPED_ORIGINS[datatype]
    yield _domain(e, edge, e.statement, keys["dom"], decl_id)
    if datatype is Datatype.DECIMAL:
        dt_range, qv = DataRange(datatype), e.quantity_value
        yield _ranges_over(e, e.statement, edge, dt_range, keys["unscoped"], decl_id)
        yield AnnotatedAxiom(SubClassOf(e.statement, MaxCard(1, edge, dt_range)), keys["func"],
                             f"A wikibase:Statement carries at most one {e.role_name(edge)} "
                             "value.", decl_id)
        yield _domain(e, value_edge, e.statement, keys["value_dom"], decl_id)
        yield _ranges_over(e, e.statement, value_edge, qv, keys["value_range"], decl_id)
        yield AnnotatedAxiom(SubClassOf(e.statement, MaxCard(1, value_edge, qv)),
                             keys["value_func"], f"A wikibase:Statement carries at most one "
                             f"{e.role_name(value_edge)} value.", decl_id)
        yield from _once(e, _quantity_node_axioms, decl_id)
        return
    yield _range_axiom(e, edge, _filler(e, vtype, scoped), scoped,
                       keys["scoped" if scoped else "unscoped"], decl_id)
    if datatype is Datatype.DATETIME:
        tv, value_n = e.time_value, e.role_name(value_edge)
        yield _domain(e, value_edge, e.statement, keys["value_dom"], decl_id)
        yield _global_range(e, value_edge, tv, keys["value_range"], decl_id)
        yield AnnotatedAxiom(SubClassOf(tv, ExactCard(1, _inv(value_edge), e.statement)), "Ax18",
                             f"A wikibase:TimeValue is the {value_n} filler of exactly one "
                             "wikibase:Statement.", decl_id)
        yield from _once(e, _time_node_axioms, decl_id)
        yield AnnotatedAxiom(SubClassOf(Some(edge, DataRange(datatype)), Some(value_edge, tv)),
                             "Ax31", f"A {e.role_name(edge)} xsd:dateTime assertion is "
                             f"accompanied by a {value_n} value node.", decl_id)


def _qualifier_axioms(e: _Env, q: QualifierDecl) -> Iterator[AnnotatedAxiom]:
    """Generic domain/range pair, the value-type set, then flag axioms."""
    decl_id = f"{e.decl.property_name}/{q.name}"
    _, pq_iri, pqv_iri = e.st.qualifiers[q.name]
    pq, vtype = Role(pq_iri), q.qtype
    yield _domain(e, pq, e.statement, "Ax12", decl_id)
    yield _range_axiom(e, pq, _filler(e, vtype, q.scoped), q.scoped,
                       "Ax10" if q.scoped else "Ax11", decl_id)
    if vtype.datatype in TYPED_ORIGINS:
        pqv = None if pqv_iri is None else Role(pqv_iri)
        yield from _typed_edge_axioms(e, pq, pqv, vtype, q.scoped, decl_id)
    # the decimal set already carries its own functionality axiom
    if vtype.datatype is not Datatype.DECIMAL:
        yield _at_most_one(e, pq, _filler(e, vtype, True), decl_id)
    if q.required:
        yield AnnotatedAxiom(
            SubClassOf(e.statement, MinCard(1, pq, _filler(e, vtype, True))), "AxReq",
            f"A wikibase:Statement carries at least one {e.role_name(pq)} value "
            "(required flag; DSL extension).", decl_id)


def _statement_value_axioms(e: _Env) -> Iterator[AnnotatedAxiom]:
    """Data-valued objects reuse the qualifier sets with ps:/psv: substituted."""
    vtype, name = e.decl.object_spec, e.decl.property_name
    if vtype.datatype is None:
        return
    yield from _typed_edge_axioms(e, e.ps, e.psv, vtype, False, name)
    if vtype.datatype is not Datatype.DECIMAL:
        yield _at_most_one(e, e.ps, _filler(e, vtype, True), name)


def _reference_axioms(e: _Env, r: ReferenceDecl) -> Iterator[AnnotatedAxiom]:
    decl_id = f"{e.decl.property_name}/{r.name}"
    pr = Role(e.st.references[r.name][1])
    pr_n, p_n = e.role_name(pr), e.role_name(e.p)
    yield from _once(e, _derivation_axioms, decl_id)
    yield _domain(e, pr, e.reference, "Ax51", decl_id)
    yield AnnotatedAxiom(
        SubClassOf(Some(_inv(pr), Some(_inv(e.prov), Some(_inv(e.p), TOP))), e.item), "Ax52",
        f"A {pr_n} filler on a reference derived from a statement is a wikibase:Item.",
        decl_id)
    yield _range_axiom(e, pr, e.item, False, "Ax53", decl_id)
    yield AnnotatedAxiom(
        SubClassOf(Some(e.p, Some(e.prov, Some(pr, TOP))), e.item), "AxRef-sd",
        f"An item whose {p_n} statement derives a reference carrying {pr_n} is a "
        "wikibase:Item.", decl_id)
    yield from _once(e, _reference_owner_axiom, decl_id)


def nl_approximation(pattern: AxiomPattern, decl: StatementDecl) -> str:
    """The pattern sentence with declaration names substituted."""
    vtype = decl.object_spec
    obj = vtype.datatype.value if vtype.item_class is None else vtype.item_class.local_name
    return _PATTERN_NL[pattern].format(
        P=decl.property_name, S=decl.subject_class.local_name, O=obj)


def instantiate_pattern(pattern: AxiomPattern, decl: StatementDecl,
                        table: NamespaceTable) -> list[AnnotatedAxiom]:
    """The pattern's axiom set with Sub/Obj bound to the declared classes.

    Data-valued objects instantiate with the datatype range; only
    InverseExistential has no usable form there (its subject position
    would be a datatype) and is rejected.
    """
    return _pattern_axioms(_Env(expand_statement(decl, table), table, {}), pattern)


def _pattern_axioms(e: _Env, pattern: AxiomPattern) -> list[AnnotatedAxiom]:
    decl = e.decl
    if pattern is AxiomPattern.INVERSE_EXISTENTIAL and decl.object_spec.datatype is not None:
        raise PatternInapplicableError(pattern.value, decl.property_name)
    sub: ClassExpr = Named(decl.subject_class)
    obj = _filler(e, decl.object_spec, True)
    P = AxiomPattern
    match pattern:
        case P.DOMAIN:
            axioms = [SubClassOf(Some(e.p, TOP), sub), SubClassOf(Some(e.wdt, TOP), sub)]
        case P.RANGE:
            axioms = [SubClassOf(TOP, All(e.ps, obj)), SubClassOf(TOP, All(e.wdt, obj))]
        case P.SCOPED_DOMAIN:
            axioms = [SubClassOf(Some(e.p, Some(e.ps, obj)), sub),
                      SubClassOf(Some(e.wdt, obj), sub)]
        case P.SCOPED_RANGE:
            axioms = [SubClassOf(sub, All(e.wdt, obj))]
        case P.FUNCTIONALITY:
            axioms = [SubClassOf(TOP, MaxCard(1, e.p, TOP)),
                      SubClassOf(TOP, MaxCard(1, e.wdt, TOP))]
        case P.INVERSE_FUNCTIONALITY:
            axioms = [SubClassOf(TOP, MaxCard(1, _inv(e.ps), TOP)),
                      SubClassOf(TOP, MaxCard(1, _inv(e.wdt), TOP))]
        case P.SCOPED_FUNCTIONALITY:
            axioms = [SubClassOf(sub, MaxCard(1, e.p, TOP)),
                      SubClassOf(sub, MaxCard(1, e.wdt, TOP))]
        case P.QUALIFIED_FUNCTIONALITY:
            axioms = [SubClassOf(TOP, MaxCard(1, e.p, TOP)),
                      SubClassOf(TOP, MaxCard(1, e.wdt, obj)),
                      SubClassOf(TOP, MaxCard(1, e.ps, obj))]
        case P.QUALIFIED_SCOPED_FUNCTIONALITY:
            axioms = [SubClassOf(sub, MaxCard(1, e.p, TOP)),
                      SubClassOf(sub, MaxCard(1, e.wdt, obj)),
                      SubClassOf(sub, MaxCard(1, e.ps, obj))]
        case P.INVERSE_QUALIFIED_SCOPED_FUNCTIONALITY:
            axioms = [SubClassOf(obj, MaxCard(1, _inv(e.ps), TOP)),
                      SubClassOf(obj, MaxCard(1, _inv(e.wdt), sub)),
                      SubClassOf(e.statement, MaxCard(1, _inv(e.p), sub))]
        case P.EXISTENTIAL:
            axioms = [SubClassOf(sub, Some(e.p, TOP)), SubClassOf(sub, Some(e.wdt, obj))]
        case P.INVERSE_EXISTENTIAL:
            axioms = [SubClassOf(obj, Some(_inv(e.ps), TOP)),
                      SubClassOf(obj, Some(_inv(e.wdt), sub))]
    nl = nl_approximation(pattern, decl)
    if pattern is P.INVERSE_EXISTENTIAL:
        nl += " Effective only together with a Domain pattern."
    origin = f"Pattern:{pattern.value}"
    return [AnnotatedAxiom(ax, origin, nl, decl.property_name)
            for ax in axioms]


def schema_axioms(doc: SchemaDocument) -> list[AnnotatedAxiom]:
    """Full annotated axiom list in declaration order."""
    out: list[AnnotatedAxiom] = []
    forms: _Forms = {}
    for st in expand(doc).statements:
        e = _Env(st, doc.namespaces, forms)
        out.extend(_core_axioms(e))
        for q in e.decl.qualifiers:
            out.extend(_qualifier_axioms(e, q))
        out.extend(_statement_value_axioms(e))
        for r in e.decl.references:
            out.extend(_reference_axioms(e, r))
        for pattern in e.decl.patterns:
            out.extend(_pattern_axioms(e, pattern))
    return out


# serialization -----------------------------------------------------------

def _render_role(role: Role, table: NamespaceTable) -> str:
    name = table.curie(role.iri) or f"<{role.iri}>"
    return f"ObjectInverseOf( {name} )" if role.inverse else name


def _render_class(expr: ClassExpr, table: NamespaceTable) -> str:
    return _CLASS_FORMS.get(type(expr), _unknown)(expr, table)


def _unknown(expr: object, table: NamespaceTable) -> str:
    raise TypeError(f"unknown class expression: {expr!r}")


def _restriction(keyword: str) -> Callable[[Some | All, NamespaceTable], str]:
    """The form of a Some or All node; its Object/Data family follows its filler."""
    def form(expr: Some | All, table: NamespaceTable) -> str:
        filler = expr.filler
        family = "Data" if type(filler) is DataRange else "Object"
        return (f"{family}{keyword}( {_render_role(expr.role, table)} "
                f"{_render_class(filler, table)} )")
    return form


def _cardinality(keyword: str) -> Callable[[MinCard | MaxCard | ExactCard, NamespaceTable], str]:
    """The form of a cardinality node; one over owl:Thing is written unqualified."""
    def form(expr: MinCard | MaxCard | ExactCard, table: NamespaceTable) -> str:
        filler, role = expr.filler, _render_role(expr.role, table)
        if type(filler) is Top:
            return f"Object{keyword}( {expr.n} {role} )"
        family = "Data" if type(filler) is DataRange else "Object"
        return f"{family}{keyword}( {expr.n} {role} {_render_class(filler, table)} )"
    return form


# node type -> its OWL functional-style text
_CLASS_FORMS: dict[type, Callable[[ClassExpr, NamespaceTable], str]] = {
    Top: lambda expr, table: "owl:Thing",
    Named: lambda expr, table: table.curie(expr.iri) or f"<{expr.iri}>",
    DataRange: lambda expr, table: XSD_NAME[expr.datatype],
    Some: _restriction("SomeValuesFrom"),
    All: _restriction("AllValuesFrom"),
    MinCard: _cardinality("MinCardinality"),
    MaxCard: _cardinality("MaxCardinality"),
    ExactCard: _cardinality("ExactCardinality"),
}


def _render_axiom(axiom: DlAxiom, table: NamespaceTable,
                  exact_cardinality: bool) -> list[str]:
    if isinstance(axiom, SubPropertyChain):
        chain = " ".join(_render_role(r, table) for r in axiom.chain)
        return [f"SubObjectPropertyOf( ObjectPropertyChain( {chain} ) "
                f"{_render_role(axiom.sup, table)} )"]
    sub, sup = _render_class(axiom.sub, table), axiom.sup
    if not exact_cardinality and isinstance(sup, ExactCard):
        # the succinct exact form split into its min/max pair
        lo = MinCard(sup.n, sup.role, sup.filler)
        hi = MaxCard(sup.n, sup.role, sup.filler)
        return [f"SubClassOf( {sub} {_render_class(c, table)} )" for c in (lo, hi)]
    return [f"SubClassOf( {sub} {_render_class(sup, table)} )"]


def serialize_axioms(axioms: list[AnnotatedAxiom], table: NamespaceTable,
                     exact_cardinality: bool = True, nl_comments: bool = True) -> str:
    """OWL functional-style text: prefix block, then one axiom per line.

    Entries keep first-occurrence order; logically equal axioms collapse
    to a single line with all their origin comments stacked above it.
    """
    notes: dict[DlAxiom, list[AnnotatedAxiom]] = {}
    for ann in axioms:
        notes.setdefault(ann.axiom, []).append(ann)

    lines = [f"Prefix( {prefix}: = <{base}> )" for prefix, base in table.prefixes()]
    lines += ["", "Ontology("]
    for axiom, anns in notes.items():
        if nl_comments:
            for a in anns:
                lines.append(f"# {a.origin} | {a.decl} | {a.nl}")
        lines += _render_axiom(axiom, table, exact_cardinality)
    lines.append(")")
    return "\n".join(lines) + "\n"
