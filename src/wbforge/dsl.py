"""Schema (.wbs) and instance (.wbi) document parsing and printing.

Both grammars are line-oriented block languages with `#` comments, read
by one recursive descent over token texts alone: an instance file's
come from one C-level scan (`_texts`), a schema's from `tokenize`. A
token's kind is worked out from its text, and a fault's line and column,
by `tokenize`, only once a parse fails. Semantic checks (declared
classes, unique names, feature flags) run after the syntactic pass so
declaration order never matters. The printer emits one canonical
layout, so print(parse(print(x))) is a fixpoint byte-for-byte.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import TypeVar

from .errors import (
    DslSyntaxError,
    DuplicateDeclarationError,
    FeatureDisabledError,
    MalformedValueError,
    PatternInapplicableError,
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
    MAX_INT_DIGITS,
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
    bounded_int,
)
from .namespaces import DEFAULT_ROOT, LONE_SURROGATE, WB_ITEM, Iri, NamespaceTable, expand_iri

ITEM_QUALIFIER_FLAG = "allow-item-qualifiers"
KNOWN_FLAGS = (ITEM_QUALIFIER_FLAG,)

_Doc = TypeVar("_Doc", SchemaDocument, InstanceDoc)


# tokenizer ---------------------------------------------------------------

# A token is a plain `(kind, text, line, col)` tuple: kind is one of IRIREF
# CURIE IDENT STRING DATETIME DECIMAL INT PUNCT EOF. `tokenize` is the one
# definition of a token's position. The parsers read token texts alone and
# work out a position only for a fault, from `tokenize`.
Token = tuple[str, str, int, int]


_NAME = r"[A-Za-z_][A-Za-z0-9_-]*"
# (group, pattern) in priority order: the first alternative that matches wins.
# Each match takes the run of spaces in front of it, so there is one match
# per token, newline or comment. No alternative starts on a space, so the
# run is never handed back to start a token. Newlines and comments make no
# token. ERROR takes any other character but a space, so the matches tile
# the text up to its trailing spaces.
# Numerals are ASCII: `\d` would take any Unicode decimal digit.
_TOKEN_PATTERNS = (
    ("NEWLINE", r"\n"),
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\s]*>"),
    ("DATETIME", r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z"),
    ("DECIMAL", r"-?[0-9]+\.[0-9]+"),
    ("INT", r"-?[0-9]+"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("CURIE", rf"{_NAME}:{_NAME}"),
    ("IDENT", _NAME),
    ("PUNCT", r"->|[{}:=,]"),
    ("ERROR", r"[^ \t\r\n]"),
)
_SPACES = " \t\r"
_TOKEN_RE = re.compile(
    f"[{_SPACES}]*(?:" + "|".join(f"(?P<{group}>{rx})" for group, rx in _TOKEN_PATTERNS) + ")")
# The same tiling with newlines among the leading spaces, and the token
# alternatives in one group, so a comment's match gives "" to `findall`.
# No token holds a raw newline. Names, the most common tokens, are tried
# first, then punctuation: alternatives that cannot match at one place may
# be tried in any order, and only DATETIME, DECIMAL and INT overlap.
_TEXT_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*|("
    + "|".join([rf"{_NAME}(?::{_NAME})?", dict(_TOKEN_PATTERNS)["PUNCT"]]
               + [rx for group, rx in _TOKEN_PATTERNS
                  if group not in ("NEWLINE", "COMMENT", "CURIE", "IDENT", "PUNCT")])
    + "))")

_STRING_UNESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_STRING_ESCAPE = re.compile(r"\\(.)")


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending in EOF; columns count from 1.

    EOF's column counts trailing spaces, but a final comment leaves it at
    the comment's start. The scan stops before the trailing spaces: no
    match can start there, and trying each start would take time
    quadratic in their number.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip(_SPACES))):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind != "COMMENT":
            if kind == "ERROR":
                raise DslSyntaxError(line, m.start(kind) - line_start + 1,
                                     f"a token (found {m.group(kind)!r})")
            tokens.append((kind, m.group(kind), line, m.start(kind) - line_start + 1))
    # `m` is the last match: after a comment only trailing spaces can follow
    end = m.start("COMMENT") if m is not None and m.lastgroup == "COMMENT" else len(text)
    tokens.append(("EOF", "", line, end - line_start + 1))
    return tokens


def _texts(text: str) -> list[str]:
    """The token texts of `text`, ending in EOF's "", in one scan in C.

    Where `tokenize` raises no error they are its tokens' texts; where it
    does, a bad character is a text of its own, of kind ERROR. Like
    `tokenize`, the scan stops before the trailing spaces and newlines.
    """
    texts = list(filter(None, _TEXT_RE.findall(text, 0, len(text.rstrip(" \t\r\n")))))
    texts.append("")
    return texts


class _Fault(WbforgeError):
    """A syntax fault, `(token index, what was expected)`, not yet given a position."""


_NAME_KINDS = ("CURIE", "IRIREF")
_CURIE = ("CURIE",)


class _Stream:
    """A parse's token texts, read in order, and what it works out from them.

    A text's kind depends on the text alone, so keywords and punctuation
    are checked by text, and `kinds` keeps each distinct text's kind, its
    `_TOKEN_RE` match, once `expect` or `check` has needed it. Each name
    resolves once per parse: a prefix declaration only adds a binding,
    never rebinds one, and a name that fails to resolve ends the parse, so
    a memo hit is the IRI under every later table. A fault is a `_Fault` at
    a token index; `_parse` gives it its line and column.
    """

    def __init__(self, texts: list[str], table: NamespaceTable) -> None:
        self.texts = texts
        self.pos = 0
        self.table = table
        self.kinds = {"": "EOF"}          # "" matches no token pattern
        self.names: dict[str, tuple[str, Iri]] = {}     # text -> (kind, IRI)
        self.locals: dict[str, str] = {}                # CURIE text -> local name

    def peek(self) -> str:
        return self.texts[self.pos]

    def next(self) -> int:
        """The index of the next token, stepped over even at EOF: a caller
        that may be there checks the token before it reads on."""
        self.pos += 1
        return self.pos - 1

    def at(self, *words: str) -> bool:
        return self.texts[self.pos] in words

    def accept(self, word: str) -> bool:
        """Step over `word` if it comes next."""
        if self.texts[self.pos] == word:
            self.pos += 1
            return True
        return False

    def error(self, what: str) -> _Fault:
        return _Fault(self.pos, what)

    def kind(self, text: str) -> str:
        """The kind of `text`, not yet in `kinds`: a caller reads the memo first."""
        kind = self.kinds[text] = _TOKEN_RE.match(text).lastgroup
        return kind

    def check(self, i: int, kinds: tuple[str, ...], what: str) -> None:
        """The token at `i` must have a kind in `kinds`."""
        text = self.texts[i]
        if (self.kinds.get(text) or self.kind(text)) not in kinds:
            raise _Fault(i, what)

    def expect(self, kinds: tuple[str, ...], what: str) -> int:
        """The index of the next token, which must have a kind in `kinds`."""
        i = self.pos
        text = self.texts[i]
        if (self.kinds.get(text) or self.kind(text)) not in kinds:
            raise _Fault(i, what)
        self.pos = i + 1          # never EOF: no caller expects it
        return i

    def expect_word(self, word: str) -> None:
        if self.texts[self.pos] != word:
            raise self.error(f"'{word}'")
        self.pos += 1

    def iri(self, i: int) -> Iri:
        """The IRI of the name at `i`, whose kind has been checked."""
        text = self.texts[i]
        hit = self.names.get(text)
        if hit is None:
            try:
                iri = expand_iri(text, self.table)
            except WbforgeError as exc:
                raise _Fault(i, f"a resolvable name ({exc})") from None
            hit = self.names[text] = (self.kinds[text], iri)
        return hit[1]

    def name(self, what: str, kinds: tuple[str, ...] = _NAME_KINDS) -> Iri:
        """The IRI of the next token, a name of a kind in `kinds`."""
        hit = self.names.get(self.texts[self.pos])
        if hit is None or hit[0] not in kinds:
            return self.iri(self.expect(kinds, what))
        self.pos += 1
        return hit[1]

    def local_name(self, i: int) -> str:
        """The local name of the CURIE at `i`, whose kind has been checked."""
        text = self.texts[i]
        local = self.locals.get(text)
        if local is None:
            local = self.locals[text] = self.iri(i).local_name
        return local


def _parse(parse: Callable[[_Stream], _Doc], texts: list[str], text: str, root: str) -> _Doc:
    """`parse` over `texts`, the token texts of `text`, with a fault placed
    at its token's position.

    `tokenize(text)` runs on every fault, before it is raised: a bad
    character raises there, so it is reported ahead of any other fault, as
    when the text was tokenized before parsing.
    """
    try:
        return parse(_Stream(texts, NamespaceTable(root)))
    except WbforgeError as exc:
        fault = exc
    try:
        placed = tokenize(text)
        if type(fault) is _Fault:
            i, what = fault.args
            raise DslSyntaxError(placed[i][2], placed[i][3], what)
        raise fault
    finally:
        # what is raised holds this frame in its traceback: were the frame to
        # hold the fault in turn, the two would form a cycle
        del fault


def _decode_string(ts: _Stream, i: int) -> str:
    body = ts.texts[i][1:-1]
    if LONE_SURROGATE.search(body):
        raise _Fault(i, "a string without lone surrogates")
    if "\\" not in body:
        return body

    def unescape(m: re.Match[str]) -> str:
        try:
            return _STRING_UNESCAPES[m.group(1)]
        except KeyError:
            raise _Fault(i, f"a valid escape (found \\{m.group(1)})") from None
    return _STRING_ESCAPE.sub(unescape, body)


def _parse_prefix_decl(ts: _Stream) -> None:
    name = ts.texts[ts.expect(("IDENT",), "a prefix name")]
    ts.expect_word(":")
    i = ts.expect(("IRIREF",), "an IRI in angle brackets")
    try:
        ts.table = ts.table.with_prefix(name, ts.texts[i][1:-1])
    except DuplicateDeclarationError:
        raise
    except WbforgeError as exc:
        raise _Fault(i, f"a valid prefix base ({exc})") from None


def _declare(decls: dict, kind: str, key: object, value: object) -> None:
    if key in decls:
        raise DuplicateDeclarationError(f"{kind} {key}")
    decls[key] = value


# schema parsing ----------------------------------------------------------

_DATATYPE_KEYWORDS = {"string": Datatype.STRING, "decimal": Datatype.DECIMAL,
                      "datetime": Datatype.DATETIME}

# (class, name text) for each class a declaration uses, checked at the end
_ClassRefs = list[tuple[Iri, str]]


def _parse_class(ts: _Stream, class_refs: _ClassRefs) -> Iri:
    text = ts.peek()
    iri = ts.name("a class name")
    class_refs.append((iri, text))
    return iri


def _parse_type(ts: _Stream, what: str, class_refs: _ClassRefs) -> ValueType:
    """A datatype keyword or `item <class>`."""
    datatype = _DATATYPE_KEYWORDS.get(ts.peek())
    if datatype is not None:
        ts.next()
        return ValueType(datatype)
    if ts.accept("item"):
        return ValueType(item_class=_parse_class(ts, class_refs))
    raise ts.error(what)


def _parse_statement_decl(ts: _Stream, class_refs: _ClassRefs) -> StatementDecl:
    prop_text = ts.peek()
    prop_iri = ts.name("a statement property name", _CURIE)
    ts.expect_word("{")
    subject: Iri | None = None
    object_spec: ValueType | None = None
    qualifiers: dict[str, QualifierDecl] = {}
    references: dict[str, ReferenceDecl] = {}
    patterns: dict[AxiomPattern, None] = {}
    # a qualifier or reference name resolves after the rest of its clause; of
    # two faults in one clause, which is reported is observable, so keep it
    while not ts.at("}"):
        if ts.accept("subject"):
            cls = _parse_class(ts, class_refs)
            if subject is not None:
                raise DuplicateDeclarationError(f"subject in statement {prop_text}")
            subject = cls
        elif ts.accept("object"):
            if object_spec is not None:
                raise DuplicateDeclarationError(f"object in statement {prop_text}")
            object_spec = _parse_type(ts, "an object spec", class_refs)
        elif ts.accept("qualifier"):
            name_at = ts.expect(_CURIE, "a qualifier name")
            ts.expect_word(":")
            qtype = _parse_type(ts, "a qualifier type", class_refs)
            scoped = ts.at("scoped", "unscoped") and ts.texts[ts.next()] == "scoped"
            ts.accept("functional")   # accepted and inert: every qualifier is functional
            required = ts.accept("required")
            name = ts.local_name(name_at)
            _declare(qualifiers, "qualifier", name,
                     QualifierDecl(name, qtype, scoped=scoped, required=required))
        elif ts.accept("reference"):
            name_at = ts.expect(_CURIE, "a reference name")
            ts.expect_word("->")
            ts.expect_word("item")
            target = _parse_class(ts, class_refs)
            required = ts.accept("required")
            name = ts.local_name(name_at)
            _declare(references, "reference", name,
                     ReferenceDecl(name, target, required=required))
        elif ts.accept("axioms"):
            ts.expect_word("{")
            while True:
                i = ts.next()
                pattern = PATTERN_BY_NAME.get(ts.texts[i])
                if pattern is None:
                    raise _Fault(i, "an axiom pattern name")
                patterns[pattern] = None
                if not ts.accept(","):
                    break
            ts.expect_word("}")
        else:
            raise ts.error("'subject', 'object', 'qualifier', 'reference', 'axioms' or '}'")
    if subject is None:
        raise ts.error("a subject declaration")
    if object_spec is None:
        raise ts.error("an object declaration")
    ts.next()
    decl = StatementDecl(prop_iri, subject, object_spec, tuple(qualifiers.values()),
                         tuple(references.values()), tuple(patterns))
    # no axiom set fits it, so every subcommand refuses it; checked once the
    # block is closed, since the `axioms` clause may come before `object`
    if object_spec.datatype is not None and AxiomPattern.INVERSE_EXISTENTIAL in patterns:
        raise PatternInapplicableError(AxiomPattern.INVERSE_EXISTENTIAL.value,
                                       decl.property_name)
    return decl


def _parse_schema(ts: _Stream) -> SchemaDocument:
    flags: dict[str, None] = {}
    classes: dict[Iri, ClassDecl] = {}
    statements: dict[str, StatementDecl] = {}
    class_refs: _ClassRefs = []
    while ts.peek():              # EOF's text is ""
        if ts.accept("prefix"):
            _parse_prefix_decl(ts)
        elif ts.accept("flag"):
            i = ts.expect(("IDENT",), "a feature flag name")
            if ts.texts[i] not in KNOWN_FLAGS:
                raise _Fault(i, "a known feature flag")
            _declare(flags, "flag", ts.texts[i], None)
        elif ts.at("class", "controlled"):
            controlled = ts.accept("controlled")
            ts.expect_word("class")
            iri = ts.name("a class name")
            _declare(classes, "class", iri, ClassDecl(iri, controlled=controlled))
        elif ts.accept("statement"):
            decl = _parse_statement_decl(ts, class_refs)
            _declare(statements, "statement", decl.property_name, decl)
        else:
            raise ts.error("'prefix', 'flag', 'class', 'controlled' or 'statement'")

    if ITEM_QUALIFIER_FLAG not in flags and any(
            q.qtype.item_class is not None for s in statements.values() for q in s.qualifiers):
        raise FeatureDisabledError(ITEM_QUALIFIER_FLAG)
    for iri, text in class_refs:
        if iri not in classes and iri != WB_ITEM:
            raise UnknownClassError(text)
    return SchemaDocument(ts.table, tuple(flags), tuple(classes.values()),
                          tuple(statements.values()))


def parse_schema(text: str, root: str = DEFAULT_ROOT) -> SchemaDocument:
    return _parse(_parse_schema, [tok[1] for tok in tokenize(text)], text, root)


# instance parsing --------------------------------------------------------

def _parse_int(ts: _Stream, what: str) -> int:
    i = ts.expect(("INT",), what)
    value = bounded_int(ts.texts[i])
    if value is None:
        raise _Fault(i, f"{what} of at most {MAX_INT_DIGITS} digits")
    return value


# A value's default unit and calendar, resolved once per instance parse:
# each lies under `wd:`, which no prefix declaration can rebind.
_Defaults = tuple[Iri, Iri]


def _item_value(ts: _Stream, defaults: _Defaults) -> ItemRef:
    return ItemRef(ts.name("an item name"))


def _string_value(ts: _Stream, defaults: _Defaults) -> StringValue:
    return StringValue(_decode_string(ts, ts.expect(("STRING",), "a quoted string")))


def _decimal_value(ts: _Stream, defaults: _Defaults) -> DecimalValue:
    num = ts.expect(("DECIMAL", "INT"), "a decimal amount")
    unit = ts.name("a unit item", _CURIE) if ts.accept("unit") else defaults[0]
    try:
        return DecimalValue(ts.texts[num], unit)
    except MalformedValueError:
        raise _Fault(num, "a canonical decimal (no leading/trailing zeros)") from None


def _datetime_value(ts: _Stream, defaults: _Defaults) -> DateTimeValue:
    iso = ts.texts[ts.expect(("DATETIME",), "an ISO dateTime like 2009-01-01T00:00:00Z")]
    precision = (_parse_int(ts, "a precision integer")
                 if ts.accept("precision") else DEFAULT_PRECISION)
    tz = (_parse_int(ts, "a timezone offset in minutes")
          if ts.accept("tz") else DEFAULT_TIMEZONE)
    calendar = ts.name("a calendar item", _CURIE) if ts.accept("calendar") else defaults[1]
    return DateTimeValue(iso, precision, tz, calendar)


# the value parser after each value keyword
_VALUES: dict[str, Callable[[_Stream, _Defaults], Value]] = {
    "item": _item_value, "string": _string_value,
    "decimal": _decimal_value, "datetime": _datetime_value}


def _parse_value(ts: _Stream, defaults: _Defaults) -> Value:
    parse = _VALUES.get(ts.texts[ts.pos])
    if parse is None:
        raise ts.error("'item', 'string', 'decimal' or 'datetime'")
    ts.pos += 1
    return parse(ts, defaults)


def _parse_statement_data(ts: _Stream, defaults: _Defaults) -> StatementData:
    """One statement, its fixed runs of tokens read by index.

    A name found in the `locals` or `names` memo has been checked for the
    kinds its place takes (a `locals` text is a CURIE, a `names` text a
    CURIE or IRIREF) and resolved; any other name is checked where it
    stands. As in a schema, a qualifier or snak name resolves after the
    rest of its clause, so of two faults in one clause the same is reported.
    """
    texts, locals_, names = ts.texts, ts.locals, ts.names
    i = ts.pos
    # `NAME ->`: the property name resolves before the arrow is checked
    prop = locals_.get(texts[i])
    if prop is None:
        prop = ts.local_name(ts.expect(_CURIE, "a statement property name"))
    if texts[i + 1] != "->":
        raise _Fault(i + 1, "'->'")
    ts.pos = i + 2
    value = _parse_value(ts, defaults)
    j = ts.pos
    if texts[j] != "{":
        return StatementData(prop, value)
    qualifiers: list[QualifierData] = []
    references: list[RefData] = []
    j += 1
    while (word := texts[j]) != "}":
        if word == "qualifier":
            # `qualifier NAME =`
            name = locals_.get(texts[j + 1])
            if name is None:
                ts.check(j + 1, _CURIE, "a qualifier name")
            if texts[j + 2] != "=":
                raise _Fault(j + 2, "'='")
            ts.pos = j + 3
            qvalue = _parse_value(ts, defaults)
            qualifiers.append(QualifierData(name or ts.local_name(j + 1), qvalue))
            j = ts.pos
        elif word == "reference":
            # `reference {`, then one or more `NAME -> item NAME`
            if texts[j + 1] != "{":
                raise _Fault(j + 1, "'{'")
            j += 2
            snaks: list[SnakData] = []
            while texts[j] != "}":
                snak = locals_.get(texts[j])
                if snak is None:
                    ts.check(j, _CURIE, "a reference property name")
                if texts[j + 1] != "->":
                    raise _Fault(j + 1, "'->'")
                if texts[j + 2] != "item":
                    raise _Fault(j + 2, "'item'")
                target = names.get(texts[j + 3])
                if target is None:
                    ts.check(j + 3, _NAME_KINDS, "an item name")
                snaks.append(SnakData(snak or ts.local_name(j),
                                      target[1] if target else ts.iri(j + 3)))
                j += 4
            if not snaks:
                raise _Fault(j, "at least one snak")
            references.append(RefData(tuple(snaks)))
            j += 1
        else:
            raise _Fault(j, "'qualifier', 'reference' or '}'")
    ts.pos = j + 1
    return StatementData(prop, value, tuple(qualifiers), tuple(references))


def _parse_instances(ts: _Stream) -> InstanceDoc:
    defaults = (ts.table.term("wd", "One"), ts.table.term("wd", "ProlepticGregorian"))
    items: dict[Iri, ItemData] = {}
    while ts.peek():              # EOF's text is ""
        if ts.accept("prefix"):
            _parse_prefix_decl(ts)
        elif ts.accept("item"):
            iri = ts.name("an item name")
            ts.expect_word(":")
            type_class = ts.name("a class name")
            ts.expect_word("{")
            statements: list[StatementData] = []
            while ts.texts[ts.pos] != "}":
                statements.append(_parse_statement_data(ts, defaults))
            ts.pos += 1
            _declare(items, "item", iri, ItemData(iri, type_class, tuple(statements)))
        else:
            raise ts.error("'prefix' or 'item'")
    return InstanceDoc(ts.table, tuple(items.values()))


def parse_instances(text: str, root: str = DEFAULT_ROOT) -> InstanceDoc:
    return _parse(_parse_instances, _texts(text), text, root)


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
