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
from .model import (
    TYPED_ORIGINS,
    VALUE_KINDS,
    AxiomPattern,
    Datatype,
    QualifierDecl,
    ReferenceDecl,
    SchemaDocument,
    StatementDecl,
    ValueType,
)
from .namespaces import (
    NamespaceTable, curie_or_iri, namespaced_property, prov_was_derived_from, wikibase)

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


class _Env:
    """Per-declaration naming context shared by the generator functions."""

    def __init__(self, decl: StatementDecl, table: NamespaceTable) -> None:
        self.decl = decl
        self.table = table
        name = decl.property_name
        self.p = Role(namespaced_property(name, "p", table))
        self.ps = Role(namespaced_property(name, "ps", table))
        self.psv = Role(namespaced_property(name, "psv", table))
        self.wdt = Role(namespaced_property(name, "wdt", table))
        self.item = Named(wikibase(table, "Item"))
        self.statement = Named(wikibase(table, "Statement"))
        self.reference = Named(wikibase(table, "Reference"))
        self.time_value = Named(wikibase(table, VALUE_KINDS[Datatype.DATETIME].node_class))
        self.quantity_value = Named(wikibase(table, VALUE_KINDS[Datatype.DECIMAL].node_class))
        self.wd_item = Named(table.term("wd", "Item"))
        self.prov = Role(prov_was_derived_from(table))

    def pq(self, qname: str) -> Role:
        return Role(namespaced_property(qname, "pq", self.table))

    def pqv(self, qname: str) -> Role:
        return Role(namespaced_property(qname, "pqv", self.table))

    def pr(self, rname: str) -> Role:
        return Role(namespaced_property(rname, "pr", self.table))

    def wb(self, local: str) -> Role:
        return Role(wikibase(self.table, local))

    def role_name(self, role: Role) -> str:
        return curie_or_iri(role.iri, self.table)

    def class_name(self, expr: ClassExpr) -> str:
        return _render_class(expr, self.table)


def _inv(role: Role) -> Role:
    return Role(role.iri, not role.inverse)


def _domain(role: Role, cls: ClassExpr) -> DlAxiom:
    return SubClassOf(Some(role, TOP), cls)


def _global_range(role: Role, cls: ClassExpr) -> DlAxiom:
    return SubClassOf(TOP, All(role, cls))


def core_statement_axioms(decl: StatementDecl, table: NamespaceTable) -> list[AnnotatedAxiom]:
    """Reification core: Ax1-8, the chain, and its wdt: corollaries.

    Fillers stay at wikibase:Item here; declared classes only enter via
    the named patterns. Data-valued objects skip the Item-range half
    (Ax6/Ax7 and the inverse corollaries), which the substituted value
    sets replace.
    """
    e = _Env(decl, table)
    name = decl.property_name
    p_n, ps_n, wdt_n = e.role_name(e.p), e.role_name(e.ps), e.role_name(e.wdt)
    data_valued = decl.object_spec.datatype is not None
    out = [
        AnnotatedAxiom(_domain(e.p, e.item), "Ax1",
                       f"The domain of {p_n} is wikibase:Item.", name),
        AnnotatedAxiom(_global_range(e.p, e.statement), "Ax2",
                       f"The range of {p_n} is wikibase:Statement.", name),
        AnnotatedAxiom(SubClassOf(TOP, ExactCard(1, _inv(e.p), e.statement)), "Ax3+4",
                       f"The inverse of {p_n} has exactly one wikibase:Statement filler.",
                       name),
        AnnotatedAxiom(_domain(e.ps, e.statement), "Ax5",
                       f"The domain of {ps_n} is wikibase:Statement.", name),
    ]
    if not data_valued:
        out.append(AnnotatedAxiom(_global_range(e.ps, e.item), "Ax6",
                                  f"The range of {ps_n} is wikibase:Item.", name))
        out.append(AnnotatedAxiom(SubClassOf(TOP, ExactCard(1, e.ps, e.item)), "Ax7",
                                  f"{ps_n} has exactly one wikibase:Item filler.", name))
    for q in decl.qualifiers:
        pq_n = e.role_name(e.pq(q.name))
        out.append(AnnotatedAxiom(_domain(e.pq(q.name), e.statement), "Ax8",
                                  f"The domain of {pq_n} is wikibase:Statement.",
                                  f"{name}/{q.name}"))
    out.append(AnnotatedAxiom(SubPropertyChain((e.p, e.ps), e.wdt), "Ax9",
                              f"The chain {p_n} then {ps_n} entails {wdt_n}.", name))
    out.append(AnnotatedAxiom(_domain(e.wdt, e.item), "Ax9-c1",
                              f"The domain of {wdt_n} is wikibase:Item.", name))
    ax9_c2_filler = DataRange(decl.object_spec.datatype) if data_valued else e.item
    c2_name = e.class_name(ax9_c2_filler)
    out.append(AnnotatedAxiom(
        SubClassOf(Some(e.wdt, ax9_c2_filler), e.item), "Ax9-c2",
        f"Anything with a {wdt_n} filler in {c2_name} is a wikibase:Item.", name))
    if not data_valued:
        out.append(AnnotatedAxiom(
            SubClassOf(Some(_inv(e.wdt), TOP), e.item), "Ax9-c3",
            f"The range of {wdt_n} is wikibase:Item, written with the inverse.", name))
        out.append(AnnotatedAxiom(
            SubClassOf(Some(_inv(e.wdt), e.item), e.item), "Ax9-c4",
            f"Anything that is a {wdt_n} filler of a wikibase:Item is a wikibase:Item.",
            name))
    return out


def _time_node_axioms(e: _Env, decl_id: str) -> list[AnnotatedAxiom]:
    # value-node metadata axioms are independent of the qualifier name;
    # duplicates across several date qualifiers merge at serialization
    # the calendar model ranges over wd:Item, unlike the quantity unit
    fields = [(f, e.wd_item if dt is None else DataRange(dt))
              for f, _, dt in VALUE_KINDS[Datatype.DATETIME].fields]
    out: list[AnnotatedAxiom] = []
    for i, (f, _) in enumerate(fields):
        out.append(AnnotatedAxiom(_domain(e.wb(f), e.time_value), f"Ax{19 + i}",
                                  f"The domain of wikibase:{f} is wikibase:TimeValue.",
                                  decl_id))
    for i, (f, rng) in enumerate(fields):
        out.append(AnnotatedAxiom(
            _global_range(e.wb(f), rng), f"Ax{23 + i}",
            f"The range of wikibase:{f} is {e.class_name(rng)}.", decl_id))
    for i, (f, rng) in enumerate(fields):
        out.append(AnnotatedAxiom(
            SubClassOf(TOP, ExactCard(1, e.wb(f), rng)), f"Ax{27 + i}",
            f"wikibase:{f} has exactly one {e.class_name(rng)} filler.", decl_id))
    return out


def _quantity_node_axioms(e: _Env, decl_id: str) -> list[AnnotatedAxiom]:
    out: list[AnnotatedAxiom] = []
    # origin keys AxQ-val-* and AxQ-unit-*, one per field in table order
    for key, (f, _, dt) in zip(("val", "unit"), VALUE_KINDS[Datatype.DECIMAL].fields):
        rng = e.item if dt is None else DataRange(dt)
        qv = e.quantity_value
        rng_n = e.class_name(rng)
        out.extend([
            AnnotatedAxiom(_domain(e.wb(f), qv), f"AxQ-{key}-dom",
                           f"The domain of wikibase:{f} is wikibase:QuantityValue.",
                           decl_id),
            AnnotatedAxiom(SubClassOf(qv, All(e.wb(f), rng)), f"AxQ-{key}-range",
                           f"On a wikibase:QuantityValue, wikibase:{f} ranges over {rng_n}.",
                           decl_id),
            AnnotatedAxiom(SubClassOf(qv, Some(e.wb(f), rng)), f"AxQ-{key}-exist",
                           f"A wikibase:QuantityValue carries a wikibase:{f}.", decl_id),
            AnnotatedAxiom(SubClassOf(qv, MaxCard(1, e.wb(f), rng)), f"AxQ-{key}-func",
                           f"A wikibase:QuantityValue carries at most one wikibase:{f}.",
                           decl_id),
        ])
    return out


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
    return AnnotatedAxiom(_global_range(edge, filler), key,
                          f"The unscoped range of {edge_n} is {filler_n}.", decl_id)


def _at_most_one(e: _Env, edge: Role, filler: ClassExpr, decl_id: str) -> AnnotatedAxiom:
    return AnnotatedAxiom(SubClassOf(e.statement, MaxCard(1, edge, filler)), "AxFunc",
                          f"A wikibase:Statement carries at most one {e.role_name(edge)} "
                          "value (functional flag; DSL extension).", decl_id)


def _typed_edge_axioms(e: _Env, edge: Role, value_edge: Role, vtype: ValueType,
                       scoped: bool, decl_id: str) -> list[AnnotatedAxiom]:
    """Type-specific set for a pq:/pqv: pair, reused for ps:/psv: by substitution."""
    datatype = vtype.datatype
    keys = TYPED_ORIGINS[datatype]
    edge_n, value_n = e.role_name(edge), e.role_name(value_edge)
    out = [AnnotatedAxiom(_domain(edge, e.statement), keys["dom"],
                          f"The domain of {edge_n} is wikibase:Statement.", decl_id)]
    if datatype is Datatype.DECIMAL:
        dt_range, qv = DataRange(datatype), e.quantity_value
        out.extend([
            AnnotatedAxiom(SubClassOf(e.statement, All(edge, dt_range)), keys["unscoped"],
                           f"On a wikibase:Statement, {edge_n} ranges over xsd:decimal.",
                           decl_id),
            AnnotatedAxiom(SubClassOf(e.statement, MaxCard(1, edge, dt_range)), keys["func"],
                           f"A wikibase:Statement carries at most one {edge_n} value.",
                           decl_id),
            AnnotatedAxiom(_domain(value_edge, e.statement), keys["value_dom"],
                           f"The domain of {value_n} is wikibase:Statement.", decl_id),
            AnnotatedAxiom(SubClassOf(e.statement, All(value_edge, qv)), keys["value_range"],
                           f"On a wikibase:Statement, {value_n} ranges over "
                           "wikibase:QuantityValue.", decl_id),
            AnnotatedAxiom(SubClassOf(e.statement, MaxCard(1, value_edge, qv)),
                           keys["value_func"],
                           f"A wikibase:Statement carries at most one {value_n} value.",
                           decl_id),
        ])
        return out + _quantity_node_axioms(e, decl_id)

    out.append(_range_axiom(e, edge, _filler(e, vtype, scoped), scoped,
                            keys["scoped" if scoped else "unscoped"], decl_id))
    if datatype is Datatype.DATETIME:
        tv = e.time_value
        out.extend([
            AnnotatedAxiom(_domain(value_edge, e.statement), keys["value_dom"],
                           f"The domain of {value_n} is wikibase:Statement.", decl_id),
            AnnotatedAxiom(_global_range(value_edge, tv), keys["value_range"],
                           f"The range of {value_n} is wikibase:TimeValue.", decl_id),
            AnnotatedAxiom(SubClassOf(tv, ExactCard(1, _inv(value_edge), e.statement)), "Ax18",
                           f"A wikibase:TimeValue is the {value_n} filler of exactly one "
                           "wikibase:Statement.", decl_id),
            *_time_node_axioms(e, decl_id),
            AnnotatedAxiom(SubClassOf(Some(edge, DataRange(datatype)), Some(value_edge, tv)),
                           "Ax31", f"A {edge_n} xsd:dateTime assertion is accompanied by a "
                           f"{value_n} value node.", decl_id),
        ])
    return out


def qualifier_axioms(decl: StatementDecl, q: QualifierDecl,
                     table: NamespaceTable) -> list[AnnotatedAxiom]:
    """Generic domain/range pair, the value-type set, then flag axioms."""
    e = _Env(decl, table)
    decl_id = f"{decl.property_name}/{q.name}"
    pq = e.pq(q.name)
    vtype = q.qtype
    out = [AnnotatedAxiom(_domain(pq, e.statement), "Ax12",
                          f"The domain of {e.role_name(pq)} is wikibase:Statement.", decl_id),
           _range_axiom(e, pq, _filler(e, vtype, q.scoped), q.scoped,
                        "Ax10" if q.scoped else "Ax11", decl_id)]
    if vtype.datatype in TYPED_ORIGINS:
        out.extend(_typed_edge_axioms(e, pq, e.pqv(q.name), vtype, q.scoped, decl_id))
    # the decimal set already carries its own functionality axiom
    if vtype.datatype is not Datatype.DECIMAL:
        out.append(_at_most_one(e, pq, _filler(e, vtype, True), decl_id))
    if q.required:
        out.append(AnnotatedAxiom(
            SubClassOf(e.statement, MinCard(1, pq, _filler(e, vtype, True))), "AxReq",
            f"A wikibase:Statement carries at least one {e.role_name(pq)} value "
            "(required flag; DSL extension).", decl_id))
    return out


def statement_value_axioms(decl: StatementDecl, table: NamespaceTable) -> list[AnnotatedAxiom]:
    """Data-valued objects reuse the qualifier sets with ps:/psv: substituted."""
    vtype = decl.object_spec
    if vtype.datatype is None:
        return []
    e = _Env(decl, table)
    out = _typed_edge_axioms(e, e.ps, e.psv, vtype, False, decl.property_name)
    if vtype.datatype is not Datatype.DECIMAL:
        out.append(_at_most_one(e, e.ps, _filler(e, vtype, True), decl.property_name))
    return out


def reference_axioms(decl: StatementDecl, r: ReferenceDecl,
                     table: NamespaceTable) -> list[AnnotatedAxiom]:
    e = _Env(decl, table)
    decl_id = f"{decl.property_name}/{r.name}"
    pr = e.pr(r.name)
    pr_n, p_n = e.role_name(pr), e.role_name(e.p)
    prov_n = e.role_name(e.prov)
    return [
        AnnotatedAxiom(SubClassOf(Some(e.prov, e.reference), e.statement), "Ax49",
                       f"Whatever derives a wikibase:Reference via {prov_n} is a "
                       "wikibase:Statement.", decl_id),
        AnnotatedAxiom(SubClassOf(e.statement, All(e.prov, e.reference)), "Ax50",
                       f"On a wikibase:Statement, {prov_n} ranges over "
                       "wikibase:Reference.", decl_id),
        AnnotatedAxiom(_domain(pr, e.reference), "Ax51",
                       f"The domain of {pr_n} is wikibase:Reference.", decl_id),
        AnnotatedAxiom(
            SubClassOf(Some(_inv(pr), Some(_inv(e.prov), Some(_inv(e.p), TOP))), e.item),
            "Ax52",
            f"A {pr_n} filler on a reference derived from a statement is a "
            "wikibase:Item.", decl_id),
        AnnotatedAxiom(_global_range(pr, e.item), "Ax53",
                       f"The unscoped range of {pr_n} is wikibase:Item.", decl_id),
        AnnotatedAxiom(
            SubClassOf(Some(e.p, Some(e.prov, Some(pr, TOP))), e.item), "AxRef-sd",
            f"An item whose {p_n} statement derives a reference carrying {pr_n} is a "
            "wikibase:Item.", decl_id),
        AnnotatedAxiom(
            SubClassOf(e.reference, ExactCard(1, _inv(e.prov), e.statement)), "Ax54",
            "A wikibase:Reference is derived from exactly one wikibase:Statement.",
            decl_id),
    ]


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
    e = _Env(decl, table)
    if pattern is AxiomPattern.INVERSE_EXISTENTIAL and decl.object_spec.datatype is not None:
        raise PatternInapplicableError(pattern.value, decl.property_name)
    sub: ClassExpr = Named(decl.subject_class)
    obj = _filler(e, decl.object_spec, True)
    P = AxiomPattern
    axiom_sets: dict[AxiomPattern, list[DlAxiom]] = {
        P.DOMAIN: [
            SubClassOf(Some(e.p, TOP), sub),
            SubClassOf(Some(e.wdt, TOP), sub),
        ],
        P.RANGE: [
            SubClassOf(TOP, All(e.ps, obj)),
            SubClassOf(TOP, All(e.wdt, obj)),
        ],
        P.SCOPED_DOMAIN: [
            SubClassOf(Some(e.p, Some(e.ps, obj)), sub),
            SubClassOf(Some(e.wdt, obj), sub),
        ],
        P.SCOPED_RANGE: [
            SubClassOf(sub, All(e.wdt, obj)),
        ],
        P.FUNCTIONALITY: [
            SubClassOf(TOP, MaxCard(1, e.p, TOP)),
            SubClassOf(TOP, MaxCard(1, e.wdt, TOP)),
        ],
        P.INVERSE_FUNCTIONALITY: [
            SubClassOf(TOP, MaxCard(1, _inv(e.ps), TOP)),
            SubClassOf(TOP, MaxCard(1, _inv(e.wdt), TOP)),
        ],
        P.SCOPED_FUNCTIONALITY: [
            SubClassOf(sub, MaxCard(1, e.p, TOP)),
            SubClassOf(sub, MaxCard(1, e.wdt, TOP)),
        ],
        P.QUALIFIED_FUNCTIONALITY: [
            SubClassOf(TOP, MaxCard(1, e.p, TOP)),
            SubClassOf(TOP, MaxCard(1, e.wdt, obj)),
            SubClassOf(TOP, MaxCard(1, e.ps, obj)),
        ],
        P.QUALIFIED_SCOPED_FUNCTIONALITY: [
            SubClassOf(sub, MaxCard(1, e.p, TOP)),
            SubClassOf(sub, MaxCard(1, e.wdt, obj)),
            SubClassOf(sub, MaxCard(1, e.ps, obj)),
        ],
        P.INVERSE_QUALIFIED_SCOPED_FUNCTIONALITY: [
            SubClassOf(obj, MaxCard(1, _inv(e.ps), TOP)),
            SubClassOf(obj, MaxCard(1, _inv(e.wdt), sub)),
            SubClassOf(e.statement, MaxCard(1, _inv(e.p), sub)),
        ],
        P.EXISTENTIAL: [
            SubClassOf(sub, Some(e.p, TOP)),
            SubClassOf(sub, Some(e.wdt, obj)),
        ],
        P.INVERSE_EXISTENTIAL: [
            SubClassOf(obj, Some(_inv(e.ps), TOP)),
            SubClassOf(obj, Some(_inv(e.wdt), sub)),
        ],
    }
    nl = nl_approximation(pattern, decl)
    if pattern is P.INVERSE_EXISTENTIAL:
        nl += " Effective only together with a Domain pattern."
    origin = f"Pattern:{pattern.value}"
    return [AnnotatedAxiom(ax, origin, nl, decl.property_name)
            for ax in axiom_sets[pattern]]


def schema_axioms(doc: SchemaDocument) -> list[AnnotatedAxiom]:
    """Full annotated axiom list in declaration order."""
    table = doc.namespaces
    out: list[AnnotatedAxiom] = []
    for decl in doc.statements:
        out.extend(core_statement_axioms(decl, table))
        for q in decl.qualifiers:
            out.extend(qualifier_axioms(decl, q, table))
        out.extend(statement_value_axioms(decl, table))
        for r in decl.references:
            out.extend(reference_axioms(decl, r, table))
        for pattern in decl.patterns:
            out.extend(instantiate_pattern(pattern, decl, table))
    return out


# serialization -----------------------------------------------------------

def _render_role(role: Role, table: NamespaceTable) -> str:
    if role.inverse:
        return f"ObjectInverseOf( {curie_or_iri(role.iri, table)} )"
    return curie_or_iri(role.iri, table)


def _render_card(kind: str, n: int, role: Role, filler: ClassExpr,
                 table: NamespaceTable) -> str:
    family = "Data" if isinstance(filler, DataRange) else "Object"
    head = f"{family}{kind}Cardinality( {n} {_render_role(role, table)}"
    if isinstance(filler, Top):
        return head + " )"
    return f"{head} {_render_class(filler, table)} )"


def _render_class(expr: ClassExpr, table: NamespaceTable) -> str:
    if isinstance(expr, Top):
        return "owl:Thing"
    if isinstance(expr, Named):
        return curie_or_iri(expr.iri, table)
    if isinstance(expr, DataRange):
        return f"xsd:{expr.datatype.xsd_local}"
    if isinstance(expr, Some):
        family = "Data" if isinstance(expr.filler, DataRange) else "Object"
        return (f"{family}SomeValuesFrom( {_render_role(expr.role, table)} "
                f"{_render_class(expr.filler, table)} )")
    if isinstance(expr, All):
        family = "Data" if isinstance(expr.filler, DataRange) else "Object"
        return (f"{family}AllValuesFrom( {_render_role(expr.role, table)} "
                f"{_render_class(expr.filler, table)} )")
    if isinstance(expr, MaxCard):
        return _render_card("Max", expr.n, expr.role, expr.filler, table)
    if isinstance(expr, MinCard):
        return _render_card("Min", expr.n, expr.role, expr.filler, table)
    if isinstance(expr, ExactCard):
        return _render_card("Exact", expr.n, expr.role, expr.filler, table)
    raise TypeError(f"unknown class expression: {expr!r}")


def _render_axiom(axiom: DlAxiom, table: NamespaceTable,
                  exact_cardinality: bool) -> list[str]:
    if isinstance(axiom, SubPropertyChain):
        chain = " ".join(_render_role(r, table) for r in axiom.chain)
        return [f"SubObjectPropertyOf( ObjectPropertyChain( {chain} ) "
                f"{_render_role(axiom.sup, table)} )"]
    sub, sup = axiom.sub, axiom.sup
    if not exact_cardinality and isinstance(sup, ExactCard):
        # the succinct exact form split into its min/max pair
        lo = MinCard(sup.n, sup.role, sup.filler)
        hi = MaxCard(sup.n, sup.role, sup.filler)
        return [f"SubClassOf( {_render_class(sub, table)} {_render_class(c, table)} )"
                for c in (lo, hi)]
    return [f"SubClassOf( {_render_class(sub, table)} {_render_class(sup, table)} )"]


def serialize_axioms(axioms: list[AnnotatedAxiom], table: NamespaceTable,
                     exact_cardinality: bool = True, nl_comments: bool = True) -> str:
    """OWL functional-style text: prefix block, then one axiom per line.

    Entries keep first-occurrence order; logically equal axioms collapse
    to a single line with all their origin comments stacked above it.
    """
    order: list[DlAxiom] = []
    notes: dict[DlAxiom, list[AnnotatedAxiom]] = {}
    for ann in axioms:
        if ann.axiom not in notes:
            notes[ann.axiom] = []
            order.append(ann.axiom)
        notes[ann.axiom].append(ann)

    lines = [f"Prefix( {prefix}: = <{base}> )" for prefix, base in table.prefixes()]
    lines += ["", "Ontology("]
    for axiom in order:
        if nl_comments:
            lines.extend(f"# {a.origin} | {a.decl} | {a.nl}" for a in notes[axiom])
        lines.extend(_render_axiom(axiom, table, exact_cardinality))
    lines.append(")")
    return "".join(line + "\n" for line in lines)
