"""Schema (.wbs) and instance (.wbi) document parsing and printing.

Both grammars are line-oriented block languages with `#` comments.
Parsing is a single recursive descent over a shared token stream;
semantic checks (declared classes, unique names, feature flags) run
after the syntactic pass so declaration order never matters. The
printer emits one canonical layout, so print(parse(print(x))) is a
fixpoint byte-for-byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    DslSyntaxError,
    DuplicateDeclarationError,
    FeatureDisabledError,
    MalformedValueError,
    UnknownClassError,
    WbforgeError,
)
from .model import (
    AxiomPattern,
    ClassDecl,
    DataObject,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemClass,
    ItemData,
    ItemRef,
    ObjectSpec,
    PATTERN_BY_NAME,
    QualifierData,
    QualifierDecl,
    QualifierType,
    RefData,
    ReferenceDecl,
    SchemaDocument,
    SnakData,
    StatementDecl,
    StatementData,
    StringValue,
    Value,
)
from .namespaces import DEFAULT_ROOT, Iri, NamespaceTable, expand_iri

ITEM_QUALIFIER_FLAG = "allow-item-qualifiers"
KNOWN_FLAGS = (ITEM_QUALIFIER_FLAG,)


# tokenizer ---------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str                     # IRIREF CURIE IDENT STRING DATETIME DECIMAL INT PUNCT EOF
    text: str
    line: int
    col: int


_NAME = r"[A-Za-z_][A-Za-z0-9_-]*"
_TOKEN_RES: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("IRIREF", re.compile(r"<[^<>\s]*>")),
    ("DATETIME", re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")),
    ("DECIMAL", re.compile(r"-?\d+\.\d+")),
    ("PUNCT", re.compile(r"->")),
    ("INT", re.compile(r"-?\d+")),
    ("STRING", re.compile(r'"(?:[^"\\\n]|\\.)*"')),
    ("CURIE", re.compile(rf"{_NAME}:{_NAME}")),
    ("IDENT", re.compile(_NAME)),
    ("PUNCT", re.compile(r"[{}:=,]")),
)

_STRING_UNESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        for kind, rx in _TOKEN_RES:
            m = rx.match(text, i)
            if m:
                tokens.append(Token(kind, m.group(), line, col))
                col += m.end() - i
                i = m.end()
                break
        else:
            raise DslSyntaxError(line, col, f"a token (found {c!r})")
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _decode_string(tok: Token) -> str:
    body = tok.text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            esc = body[i + 1] if i + 1 < len(body) else ""
            if esc not in _STRING_UNESCAPES:
                raise DslSyntaxError(tok.line, tok.col, f"a valid escape (found \\{esc})")
            out.append(_STRING_UNESCAPES[esc])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


class _Stream:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def at_ident(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text in words

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def expect_ident(self, word: str) -> Token:
        tok = self.peek()
        if not (tok.kind == "IDENT" and tok.text == word):
            raise DslSyntaxError(tok.line, tok.col, f"'{word}'")
        return self.next()

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not (tok.kind == "PUNCT" and tok.text == text):
            raise DslSyntaxError(tok.line, tok.col, f"'{text}'")
        return self.next()

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(tok.line, tok.col, what)
        return self.next()


# schema parsing ----------------------------------------------------------

_DATATYPE_KEYWORDS = {"string": Datatype.STRING, "decimal": Datatype.DECIMAL,
                      "datetime": Datatype.DATETIME}


def _parse_prefix_decl(ts: _Stream, table: NamespaceTable) -> NamespaceTable:
    ts.expect_ident("prefix")
    name = ts.expect("IDENT", "a prefix name")
    ts.expect_punct(":")
    iriref = ts.expect("IRIREF", "an IRI in angle brackets")
    return table.with_prefix(name.text, iriref.text[1:-1])


def _expand_ref(tok: Token, table: NamespaceTable) -> Iri:
    try:
        return expand_iri(tok.text, table)
    except WbforgeError as exc:
        raise DslSyntaxError(tok.line, tok.col, f"a resolvable name ({exc})") from None


def _parse_class_ref(ts: _Stream, table: NamespaceTable) -> tuple[Iri, Token]:
    tok = ts.peek()
    if tok.kind not in ("CURIE", "IRIREF"):
        raise DslSyntaxError(tok.line, tok.col, "a class name")
    ts.next()
    return _expand_ref(tok, table), tok


def _parse_qualifier_decl(ts: _Stream, table: NamespaceTable) -> tuple[QualifierDecl, Token]:
    ts.expect_ident("qualifier")
    name_tok = ts.expect("CURIE", "a qualifier name")
    ts.expect_punct(":")
    tok = ts.peek()
    item_tok: Token | None = None
    if tok.kind == "IDENT" and tok.text in _DATATYPE_KEYWORDS:
        ts.next()
        qtype = QualifierType(datatype=_DATATYPE_KEYWORDS[tok.text])
    elif tok.kind == "IDENT" and tok.text == "item":
        ts.next()
        cls, item_tok = _parse_class_ref(ts, table)
        qtype = QualifierType(item_class=cls)
    else:
        raise DslSyntaxError(tok.line, tok.col, "a qualifier type")
    scoped = False
    if ts.at_ident("scoped", "unscoped"):
        scoped = ts.next().text == "scoped"
    if ts.at_ident("functional"):
        ts.next()
    required = False
    if ts.at_ident("required"):
        ts.next()
        required = True
    name = _expand_ref(name_tok, table).local_name
    decl = QualifierDecl(name, qtype, scoped=scoped, required=required)
    return decl, item_tok if item_tok is not None else name_tok


def _parse_statement_decl(
    ts: _Stream, table: NamespaceTable,
) -> tuple[StatementDecl, list[tuple[Iri, Token]], list[Token]]:
    """Returns the decl, class references to check later, item-qualifier sites."""
    ts.expect_ident("statement")
    prop_tok = ts.expect("CURIE", "a statement property name")
    prop_iri = _expand_ref(prop_tok, table)
    ts.expect_punct("{")

    subject: Iri | None = None
    object_spec: ObjectSpec | None = None
    qualifiers: list[QualifierDecl] = []
    references: list[ReferenceDecl] = []
    patterns: list[AxiomPattern] = []
    class_refs: list[tuple[Iri, Token]] = []
    item_qualifier_sites: list[Token] = []

    while not ts.at_punct("}"):
        tok = ts.peek()
        if ts.at_ident("subject"):
            ts.next()
            cls, cls_tok = _parse_class_ref(ts, table)
            if subject is not None:
                raise DuplicateDeclarationError(f"subject in statement {prop_tok.text}")
            subject = cls
            class_refs.append((cls, cls_tok))
        elif ts.at_ident("object"):
            ts.next()
            if object_spec is not None:
                raise DuplicateDeclarationError(f"object in statement {prop_tok.text}")
            otok = ts.peek()
            if otok.kind == "IDENT" and otok.text in _DATATYPE_KEYWORDS:
                ts.next()
                object_spec = DataObject(_DATATYPE_KEYWORDS[otok.text])
            elif otok.kind == "IDENT" and otok.text == "item":
                ts.next()
                cls, cls_tok = _parse_class_ref(ts, table)
                object_spec = ItemClass(cls)
                class_refs.append((cls, cls_tok))
            else:
                raise DslSyntaxError(otok.line, otok.col, "an object spec")
        elif ts.at_ident("qualifier"):
            q, site = _parse_qualifier_decl(ts, table)
            if any(existing.name == q.name for existing in qualifiers):
                raise DuplicateDeclarationError(f"qualifier {q.name}")
            if q.qtype.item_class is not None:
                class_refs.append((q.qtype.item_class, site))
                item_qualifier_sites.append(site)
            qualifiers.append(q)
        elif ts.at_ident("reference"):
            ts.next()
            name_tok = ts.expect("CURIE", "a reference name")
            ts.expect_punct("->")
            ts.expect_ident("item")
            target, target_tok = _parse_class_ref(ts, table)
            required = False
            if ts.at_ident("required"):
                ts.next()
                required = True
            name = _expand_ref(name_tok, table).local_name
            if any(existing.name == name for existing in references):
                raise DuplicateDeclarationError(f"reference {name}")
            references.append(ReferenceDecl(name, target, required=required))
            class_refs.append((target, target_tok))
        elif ts.at_ident("axioms"):
            ts.next()
            ts.expect_punct("{")
            while True:
                ptok = ts.expect("IDENT", "an axiom pattern name")
                if ptok.text not in PATTERN_BY_NAME:
                    raise DslSyntaxError(ptok.line, ptok.col, "an axiom pattern name")
                pattern = PATTERN_BY_NAME[ptok.text]
                if pattern not in patterns:
                    patterns.append(pattern)
                if ts.at_punct(","):
                    ts.next()
                    continue
                break
            ts.expect_punct("}")
        else:
            raise DslSyntaxError(
                tok.line, tok.col,
                "'subject', 'object', 'qualifier', 'reference', 'axioms' or '}'")
    close = ts.peek()
    if subject is None:
        raise DslSyntaxError(close.line, close.col, "a subject declaration")
    if object_spec is None:
        raise DslSyntaxError(close.line, close.col, "an object declaration")
    ts.next()
    decl = StatementDecl(prop_iri, subject, object_spec,
                         tuple(qualifiers), tuple(references), tuple(patterns))
    return decl, class_refs, item_qualifier_sites


def parse_schema(text: str, root: str = DEFAULT_ROOT) -> SchemaDocument:
    ts = _Stream(tokenize(text))
    table = NamespaceTable(root)
    flags: list[str] = []
    classes: list[ClassDecl] = []
    statements: list[StatementDecl] = []
    class_refs: list[tuple[Iri, Token]] = []
    item_qualifier_sites: list[Token] = []

    while ts.peek().kind != "EOF":
        tok = ts.peek()
        if ts.at_ident("prefix"):
            table = _parse_prefix_decl(ts, table)
        elif ts.at_ident("flag"):
            ts.next()
            ftok = ts.expect("IDENT", "a feature flag name")
            if ftok.text not in KNOWN_FLAGS:
                raise DslSyntaxError(ftok.line, ftok.col, "a known feature flag")
            if ftok.text in flags:
                raise DuplicateDeclarationError(f"flag {ftok.text}")
            flags.append(ftok.text)
        elif ts.at_ident("class", "controlled"):
            controlled = False
            if ts.at_ident("controlled"):
                ts.next()
                controlled = True
            ts.expect_ident("class")
            iri, _ = _parse_class_ref(ts, table)
            if any(c.iri == iri for c in classes):
                raise DuplicateDeclarationError(f"class {iri}")
            classes.append(ClassDecl(iri, controlled=controlled))
        elif ts.at_ident("statement"):
            decl, refs, iq_sites = _parse_statement_decl(ts, table)
            if any(s.property_name == decl.property_name for s in statements):
                raise DuplicateDeclarationError(f"statement {decl.property_name}")
            statements.append(decl)
            class_refs.extend(refs)
            item_qualifier_sites.extend(iq_sites)
        else:
            raise DslSyntaxError(
                tok.line, tok.col,
                "'prefix', 'flag', 'class', 'controlled' or 'statement'")

    if item_qualifier_sites and ITEM_QUALIFIER_FLAG not in flags:
        raise FeatureDisabledError(ITEM_QUALIFIER_FLAG)
    generic_item = Iri(table.base("wikibase") + "Item")
    declared = {c.iri for c in classes}
    for iri, tok in class_refs:
        if iri not in declared and iri != generic_item:
            raise UnknownClassError(tok.text)
    return SchemaDocument(table, tuple(flags), tuple(classes), tuple(statements))


# instance parsing --------------------------------------------------------

def _parse_value(ts: _Stream, table: NamespaceTable) -> Value:
    tok = ts.peek()
    if ts.at_ident("item"):
        ts.next()
        target_tok = ts.peek()
        if target_tok.kind not in ("CURIE", "IRIREF"):
            raise DslSyntaxError(target_tok.line, target_tok.col, "an item name")
        ts.next()
        return ItemRef(_expand_ref(target_tok, table))
    if ts.at_ident("string"):
        ts.next()
        s = ts.expect("STRING", "a quoted string")
        return StringValue(_decode_string(s))
    if ts.at_ident("decimal"):
        ts.next()
        num = ts.peek()
        if num.kind not in ("DECIMAL", "INT"):
            raise DslSyntaxError(num.line, num.col, "a decimal amount")
        ts.next()
        unit = Iri(table.base("wd") + "One")
        if ts.at_ident("unit"):
            ts.next()
            utok = ts.expect("CURIE", "a unit item")
            unit = _expand_ref(utok, table)
        try:
            return DecimalValue(num.text, unit)
        except MalformedValueError:
            raise DslSyntaxError(num.line, num.col,
                                 "a canonical decimal (no leading/trailing zeros)") from None
    if ts.at_ident("datetime"):
        ts.next()
        dtok = ts.expect("DATETIME", "an ISO dateTime like 2009-01-01T00:00:00Z")
        precision, tz = 11, 0
        calendar = Iri(table.base("wd") + "ProlepticGregorian")
        if ts.at_ident("precision"):
            ts.next()
            precision = int(ts.expect("INT", "a precision integer").text)
        if ts.at_ident("tz"):
            ts.next()
            tz = int(ts.expect("INT", "a timezone offset in minutes").text)
        if ts.at_ident("calendar"):
            ts.next()
            ctok = ts.expect("CURIE", "a calendar item")
            calendar = _expand_ref(ctok, table)
        return DateTimeValue(dtok.text, precision, tz, calendar)
    raise DslSyntaxError(tok.line, tok.col, "'item', 'string', 'decimal' or 'datetime'")


def _parse_statement_data(ts: _Stream, table: NamespaceTable) -> StatementData:
    prop_tok = ts.expect("CURIE", "a statement property name")
    prop = _expand_ref(prop_tok, table).local_name
    ts.expect_punct("->")
    value = _parse_value(ts, table)
    qualifiers: list[QualifierData] = []
    references: list[RefData] = []
    if ts.at_punct("{"):
        ts.next()
        while not ts.at_punct("}"):
            tok = ts.peek()
            if ts.at_ident("qualifier"):
                ts.next()
                name_tok = ts.expect("CURIE", "a qualifier name")
                ts.expect_punct("=")
                qvalue = _parse_value(ts, table)
                qualifiers.append(
                    QualifierData(_expand_ref(name_tok, table).local_name, qvalue))
            elif ts.at_ident("reference"):
                ts.next()
                ts.expect_punct("{")
                snaks: list[SnakData] = []
                while not ts.at_punct("}"):
                    snak_tok = ts.expect("CURIE", "a reference property name")
                    ts.expect_punct("->")
                    ts.expect_ident("item")
                    target_tok = ts.peek()
                    if target_tok.kind not in ("CURIE", "IRIREF"):
                        raise DslSyntaxError(target_tok.line, target_tok.col, "an item name")
                    ts.next()
                    snaks.append(SnakData(_expand_ref(snak_tok, table).local_name,
                                          _expand_ref(target_tok, table)))
                brace = ts.expect_punct("}")
                if not snaks:
                    raise DslSyntaxError(brace.line, brace.col, "at least one snak")
                references.append(RefData(tuple(snaks)))
            else:
                raise DslSyntaxError(tok.line, tok.col, "'qualifier', 'reference' or '}'")
        ts.next()
    return StatementData(prop, value, tuple(qualifiers), tuple(references))


def parse_instances(text: str, root: str = DEFAULT_ROOT) -> InstanceDoc:
    ts = _Stream(tokenize(text))
    table = NamespaceTable(root)
    items: list[ItemData] = []
    while ts.peek().kind != "EOF":
        tok = ts.peek()
        if ts.at_ident("prefix"):
            table = _parse_prefix_decl(ts, table)
        elif ts.at_ident("item"):
            ts.next()
            id_tok = ts.peek()
            if id_tok.kind not in ("CURIE", "IRIREF"):
                raise DslSyntaxError(id_tok.line, id_tok.col, "an item name")
            ts.next()
            iri = _expand_ref(id_tok, table)
            ts.expect_punct(":")
            cls_tok = ts.peek()
            if cls_tok.kind not in ("CURIE", "IRIREF"):
                raise DslSyntaxError(cls_tok.line, cls_tok.col, "a class name")
            ts.next()
            type_class = _expand_ref(cls_tok, table)
            ts.expect_punct("{")
            statements: list[StatementData] = []
            while not ts.at_punct("}"):
                statements.append(_parse_statement_data(ts, table))
            ts.next()
            if any(it.iri == iri for it in items):
                raise DuplicateDeclarationError(f"item {iri}")
            items.append(ItemData(iri, type_class, tuple(statements)))
        else:
            raise DslSyntaxError(tok.line, tok.col, "'prefix' or 'item'")
    return InstanceDoc(table, tuple(items))


# printing ----------------------------------------------------------------

def _curie(iri: Iri, table: NamespaceTable) -> str:
    c = table.curie(iri)
    if c is None:
        raise WbforgeError(f"no declared prefix covers {iri}")
    return c


def _print_statement(decl: StatementDecl, table: NamespaceTable) -> list[str]:
    prop_curie = _curie(decl.property_iri, table)
    prefix = prop_curie.partition(":")[0]
    lines = [f"statement {prop_curie} {{"]
    lines.append(f"  subject {_curie(decl.subject_class, table)}")
    if isinstance(decl.object_spec, ItemClass):
        lines.append(f"  object item {_curie(decl.object_spec.iri, table)}")
    else:
        lines.append(f"  object {decl.object_spec.datatype.value}")
    for q in decl.qualifiers:
        if q.qtype.datatype is not None:
            qtype = q.qtype.datatype.value
        else:
            qtype = f"item {_curie(q.qtype.item_class, table)}"
        suffix = (" scoped" if q.scoped else "") + (" required" if q.required else "")
        lines.append(f"  qualifier {prefix}:{q.name} : {qtype}{suffix}")
    for r in decl.references:
        suffix = " required" if r.required else ""
        lines.append(f"  reference {prefix}:{r.name} -> item "
                     f"{_curie(r.target_class, table)}{suffix}")
    if decl.patterns:
        names = ", ".join(p.value for p in decl.patterns)
        lines.append(f"  axioms {{ {names} }}")
    lines.append("}")
    return lines


def print_schema(doc: SchemaDocument) -> str:
    """Canonical text form; a parse of the output equals the document."""
    sections: list[list[str]] = []
    if doc.namespaces.user:
        sections.append([f"prefix {p}: <{base}>" for p, base in doc.namespaces.user])
    if doc.flags:
        sections.append([f"flag {f}" for f in doc.flags])
    if doc.classes:
        sections.append([
            ("controlled class " if c.controlled else "class ")
            + _curie(c.iri, doc.namespaces)
            for c in doc.classes])
    for decl in doc.statements:
        sections.append(_print_statement(decl, doc.namespaces))
    return "\n\n".join("\n".join(s) for s in sections) + "\n" if sections else ""
