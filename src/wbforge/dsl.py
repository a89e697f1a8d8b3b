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
from typing import NamedTuple

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
    DEFAULT_PRECISION,
    DEFAULT_TIMEZONE,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemData,
    ItemRef,
    PATTERN_BY_NAME,
    QualifierData,
    QualifierDecl,
    RefData,
    ReferenceDecl,
    SchemaDocument,
    SnakData,
    StatementDecl,
    StatementData,
    StringValue,
    Value,
    ValueType,
)
from .namespaces import DEFAULT_ROOT, LONE_SURROGATE, Iri, NamespaceTable, expand_iri, wikibase

ITEM_QUALIFIER_FLAG = "allow-item-qualifiers"
KNOWN_FLAGS = (ITEM_QUALIFIER_FLAG,)


# tokenizer ---------------------------------------------------------------

class Token(NamedTuple):
    kind: str                     # IRIREF CURIE IDENT STRING DATETIME DECIMAL INT PUNCT EOF
    text: str
    line: int
    col: int


_NAME = r"[A-Za-z_][A-Za-z0-9_-]*"
# (group, pattern) in priority order: the first alternative that matches wins.
# Newlines, spaces and comments make no token. ERROR takes any other
# character, so the matches tile the whole text.
_TOKEN_PATTERNS = (
    ("NEWLINE", r"\n"),
    ("SPACE", r"[ \t\r]+"),
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\s]*>"),
    ("DATETIME", r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z"),
    ("DECIMAL", r"-?\d+\.\d+"),
    ("INT", r"-?\d+"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("CURIE", rf"{_NAME}:{_NAME}"),
    ("IDENT", _NAME),
    ("PUNCT", r"->|[{}:=,]"),
    ("ERROR", r"."),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{group}>{rx})" for group, rx in _TOKEN_PATTERNS))

_STRING_UNESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_STRING_ESCAPE = re.compile(r"\\(.)")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "NEWLINE":
            line += 1
            col = 1
        elif group != "COMMENT":  # col stays: a newline follows, or EOF keeps its column
            lexeme = m.group()
            if group == "ERROR":
                raise DslSyntaxError(line, col, f"a token (found {lexeme!r})")
            if group != "SPACE":
                tokens.append(Token(group, lexeme, line, col))
            col += len(lexeme)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _decode_string(tok: Token) -> str:
    body = tok.text[1:-1]
    if LONE_SURROGATE.search(body):
        raise DslSyntaxError(tok.line, tok.col, "a string without lone surrogates")

    def unescape(m: re.Match[str]) -> str:
        try:
            return _STRING_UNESCAPES[m.group(1)]
        except KeyError:
            raise DslSyntaxError(tok.line, tok.col,
                                 f"a valid escape (found \\{m.group(1)})") from None
    return _STRING_ESCAPE.sub(unescape, body)


_NAME_KINDS = ("CURIE", "IRIREF")
_CURIE = ("CURIE",)
_WORD = ("IDENT", "PUNCT")


class _Stream:
    """Keyword and punctuation texts belong to one token kind each, so
    `at` and `accept` compare the text alone."""

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

    def at(self, *words: str) -> bool:
        return self._tokens[self._pos].text in words

    def accept(self, word: str) -> bool:
        """Step over `word` if it comes next."""
        if self._tokens[self._pos].text == word:
            self._pos += 1
            return True
        return False

    def error(self, what: str) -> DslSyntaxError:
        tok = self._tokens[self._pos]
        return DslSyntaxError(tok.line, tok.col, what)

    def expect(self, kinds: tuple[str, ...], what: str = "", text: str | None = None) -> Token:
        """The next token, which must have a kind in `kinds` (and the text `text`)."""
        tok = self._tokens[self._pos]
        if tok.kind not in kinds or text is not None and tok.text != text:
            raise self.error(what or f"'{text}'")
        self._pos += 1            # never EOF: no caller expects it
        return tok


def _resolve(tok: Token, table: NamespaceTable) -> Iri:
    try:
        return expand_iri(tok.text, table)
    except WbforgeError as exc:
        raise DslSyntaxError(tok.line, tok.col, f"a resolvable name ({exc})") from None


def _parse_name(ts: _Stream, table: NamespaceTable, what: str,
                kinds: tuple[str, ...] = _NAME_KINDS) -> Iri:
    return _resolve(ts.expect(kinds, what), table)


def _parse_prefix_decl(ts: _Stream, table: NamespaceTable) -> NamespaceTable:
    name = ts.expect(("IDENT",), "a prefix name")
    ts.expect(_WORD, text=":")
    iriref = ts.expect(("IRIREF",), "an IRI in angle brackets")
    return table.with_prefix(name.text, iriref.text[1:-1])


def _declare(decls: dict, kind: str, key: object, value: object) -> None:
    if key in decls:
        raise DuplicateDeclarationError(f"{kind} {key}")
    decls[key] = value


# schema parsing ----------------------------------------------------------

_DATATYPE_KEYWORDS = {"string": Datatype.STRING, "decimal": Datatype.DECIMAL,
                      "datetime": Datatype.DATETIME}

# (class, name token) for each class a declaration uses, checked at the end
_ClassRefs = list[tuple[Iri, Token]]


def _parse_class(ts: _Stream, table: NamespaceTable, class_refs: _ClassRefs) -> Iri:
    tok = ts.peek()
    iri = _parse_name(ts, table, "a class name")
    class_refs.append((iri, tok))
    return iri


def _parse_type(ts: _Stream, table: NamespaceTable, what: str,
                class_refs: _ClassRefs) -> ValueType:
    """A datatype keyword or `item <class>`."""
    datatype = _DATATYPE_KEYWORDS.get(ts.peek().text)
    if datatype is not None:
        ts.next()
        return ValueType(datatype)
    if ts.accept("item"):
        return ValueType(item_class=_parse_class(ts, table, class_refs))
    raise ts.error(what)


def _parse_statement_decl(ts: _Stream, table: NamespaceTable,
                          class_refs: _ClassRefs) -> StatementDecl:
    prop_tok = ts.expect(_CURIE, "a statement property name")
    prop_iri = _resolve(prop_tok, table)
    ts.expect(_WORD, text="{")
    subject: Iri | None = None
    object_spec: ValueType | None = None
    qualifiers: dict[str, QualifierDecl] = {}
    references: dict[str, ReferenceDecl] = {}
    patterns: dict[AxiomPattern, None] = {}
    # a qualifier or reference name resolves after the rest of its clause; of
    # two faults in one clause, which is reported is observable, so keep it
    while not ts.at("}"):
        if ts.accept("subject"):
            cls = _parse_class(ts, table, class_refs)
            if subject is not None:
                raise DuplicateDeclarationError(f"subject in statement {prop_tok.text}")
            subject = cls
        elif ts.accept("object"):
            if object_spec is not None:
                raise DuplicateDeclarationError(f"object in statement {prop_tok.text}")
            object_spec = _parse_type(ts, table, "an object spec", class_refs)
        elif ts.accept("qualifier"):
            name_tok = ts.expect(_CURIE, "a qualifier name")
            ts.expect(_WORD, text=":")
            qtype = _parse_type(ts, table, "a qualifier type", class_refs)
            scoped = ts.at("scoped", "unscoped") and ts.next().text == "scoped"
            ts.accept("functional")   # accepted and inert: every qualifier is functional
            required = ts.accept("required")
            name = _resolve(name_tok, table).local_name
            _declare(qualifiers, "qualifier", name,
                     QualifierDecl(name, qtype, scoped=scoped, required=required))
        elif ts.accept("reference"):
            name_tok = ts.expect(_CURIE, "a reference name")
            ts.expect(_WORD, text="->")
            ts.expect(_WORD, text="item")
            target = _parse_class(ts, table, class_refs)
            required = ts.accept("required")
            name = _resolve(name_tok, table).local_name
            _declare(references, "reference", name,
                     ReferenceDecl(name, target, required=required))
        elif ts.accept("axioms"):
            ts.expect(_WORD, text="{")
            while True:
                ptok = ts.next()
                if ptok.text not in PATTERN_BY_NAME:
                    raise DslSyntaxError(ptok.line, ptok.col, "an axiom pattern name")
                patterns[PATTERN_BY_NAME[ptok.text]] = None
                if not ts.accept(","):
                    break
            ts.expect(_WORD, text="}")
        else:
            raise ts.error("'subject', 'object', 'qualifier', 'reference', 'axioms' or '}'")
    if subject is None:
        raise ts.error("a subject declaration")
    if object_spec is None:
        raise ts.error("an object declaration")
    ts.next()
    return StatementDecl(prop_iri, subject, object_spec, tuple(qualifiers.values()),
                         tuple(references.values()), tuple(patterns))


def parse_schema(text: str, root: str = DEFAULT_ROOT) -> SchemaDocument:
    ts = _Stream(tokenize(text))
    table = NamespaceTable(root)
    flags: dict[str, None] = {}
    classes: dict[Iri, ClassDecl] = {}
    statements: dict[str, StatementDecl] = {}
    class_refs: _ClassRefs = []
    while ts.peek().kind != "EOF":
        if ts.accept("prefix"):
            table = _parse_prefix_decl(ts, table)
        elif ts.accept("flag"):
            ftok = ts.expect(("IDENT",), "a feature flag name")
            if ftok.text not in KNOWN_FLAGS:
                raise DslSyntaxError(ftok.line, ftok.col, "a known feature flag")
            _declare(flags, "flag", ftok.text, None)
        elif ts.at("class", "controlled"):
            controlled = ts.accept("controlled")
            ts.expect(_WORD, text="class")
            iri = _parse_name(ts, table, "a class name")
            _declare(classes, "class", iri, ClassDecl(iri, controlled=controlled))
        elif ts.accept("statement"):
            decl = _parse_statement_decl(ts, table, class_refs)
            _declare(statements, "statement", decl.property_name, decl)
        else:
            raise ts.error("'prefix', 'flag', 'class', 'controlled' or 'statement'")

    if ITEM_QUALIFIER_FLAG not in flags and any(
            q.qtype.item_class is not None for s in statements.values() for q in s.qualifiers):
        raise FeatureDisabledError(ITEM_QUALIFIER_FLAG)
    item = wikibase(table, "Item")
    for iri, tok in class_refs:
        if iri not in classes and iri != item:
            raise UnknownClassError(tok.text)
    return SchemaDocument(table, tuple(flags), tuple(classes.values()),
                          tuple(statements.values()))


# instance parsing --------------------------------------------------------

def _parse_value(ts: _Stream, table: NamespaceTable) -> Value:
    if ts.accept("item"):
        return ItemRef(_parse_name(ts, table, "an item name"))
    if ts.accept("string"):
        return StringValue(_decode_string(ts.expect(("STRING",), "a quoted string")))
    if ts.accept("decimal"):
        num = ts.expect(("DECIMAL", "INT"), "a decimal amount")
        unit = (_parse_name(ts, table, "a unit item", _CURIE) if ts.accept("unit")
                else table.term("wd", "One"))
        try:
            return DecimalValue(num.text, unit)
        except MalformedValueError:
            raise DslSyntaxError(num.line, num.col,
                                 "a canonical decimal (no leading/trailing zeros)") from None
    if ts.accept("datetime"):
        dtok = ts.expect(("DATETIME",), "an ISO dateTime like 2009-01-01T00:00:00Z")
        precision = (int(ts.expect(("INT",), "a precision integer").text)
                     if ts.accept("precision") else DEFAULT_PRECISION)
        tz = (int(ts.expect(("INT",), "a timezone offset in minutes").text)
              if ts.accept("tz") else DEFAULT_TIMEZONE)
        calendar = (_parse_name(ts, table, "a calendar item", _CURIE) if ts.accept("calendar")
                    else table.term("wd", "ProlepticGregorian"))
        return DateTimeValue(dtok.text, precision, tz, calendar)
    raise ts.error("'item', 'string', 'decimal' or 'datetime'")


def _parse_statement_data(ts: _Stream, table: NamespaceTable) -> StatementData:
    prop = _parse_name(ts, table, "a statement property name", _CURIE).local_name
    ts.expect(_WORD, text="->")
    value = _parse_value(ts, table)
    qualifiers: list[QualifierData] = []
    references: list[RefData] = []
    # as in a schema, a qualifier or snak name resolves after the rest of its clause
    if ts.accept("{"):
        while not ts.accept("}"):
            if ts.accept("qualifier"):
                name_tok = ts.expect(_CURIE, "a qualifier name")
                ts.expect(_WORD, text="=")
                qvalue = _parse_value(ts, table)
                qualifiers.append(QualifierData(_resolve(name_tok, table).local_name, qvalue))
            elif ts.accept("reference"):
                ts.expect(_WORD, text="{")
                snaks: list[SnakData] = []
                while not ts.at("}"):
                    snak_tok = ts.expect(_CURIE, "a reference property name")
                    ts.expect(_WORD, text="->")
                    ts.expect(_WORD, text="item")
                    target_tok = ts.expect(_NAME_KINDS, "an item name")
                    snaks.append(SnakData(_resolve(snak_tok, table).local_name,
                                          _resolve(target_tok, table)))
                if not snaks:
                    raise ts.error("at least one snak")
                ts.next()
                references.append(RefData(tuple(snaks)))
            else:
                raise ts.error("'qualifier', 'reference' or '}'")
    return StatementData(prop, value, tuple(qualifiers), tuple(references))


def parse_instances(text: str, root: str = DEFAULT_ROOT) -> InstanceDoc:
    ts = _Stream(tokenize(text))
    table = NamespaceTable(root)
    items: dict[Iri, ItemData] = {}
    while ts.peek().kind != "EOF":
        if ts.accept("prefix"):
            table = _parse_prefix_decl(ts, table)
        elif ts.accept("item"):
            iri = _parse_name(ts, table, "an item name")
            ts.expect(_WORD, text=":")
            type_class = _parse_name(ts, table, "a class name")
            ts.expect(_WORD, text="{")
            statements: list[StatementData] = []
            while not ts.accept("}"):
                statements.append(_parse_statement_data(ts, table))
            _declare(items, "item", iri, ItemData(iri, type_class, tuple(statements)))
        else:
            raise ts.error("'prefix' or 'item'")
    return InstanceDoc(table, tuple(items.values()))


# printing ----------------------------------------------------------------

def _curie(iri: Iri, table: NamespaceTable) -> str:
    c = table.curie(iri)
    if c is None:
        raise WbforgeError(f"no declared prefix covers {iri}")
    return c


def _print_type(vtype: ValueType, table: NamespaceTable) -> str:
    if vtype.datatype is not None:
        return vtype.datatype.value
    return f"item {_curie(vtype.item_class, table)}"


def _print_statement(decl: StatementDecl, table: NamespaceTable) -> list[str]:
    prop_curie = _curie(decl.property_iri, table)
    prefix = prop_curie.partition(":")[0]
    lines = [f"statement {prop_curie} {{"]
    lines.append(f"  subject {_curie(decl.subject_class, table)}")
    lines.append(f"  object {_print_type(decl.object_spec, table)}")
    for q in decl.qualifiers:
        suffix = (" scoped" if q.scoped else "") + (" required" if q.required else "")
        lines.append(f"  qualifier {prefix}:{q.name} : {_print_type(q.qtype, table)}{suffix}")
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
