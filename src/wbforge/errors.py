"""Exception types raised across the toolchain."""

from __future__ import annotations


class WbforgeError(Exception):
    """Base class for all errors raised by this package."""


class UnknownPrefixError(WbforgeError):
    def __init__(self, prefix: str) -> None:
        super().__init__(f"unknown prefix {prefix!r}")
        self.prefix = prefix


class DslSyntaxError(WbforgeError):
    """Syntax error in a schema or instance document, with source position."""

    def __init__(self, line: int, col: int, expected: str) -> None:
        super().__init__(f"line {line}, col {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class NtSyntaxError(WbforgeError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class BlankNodeUnsupportedError(WbforgeError):
    # the canonical graph model is ground; blank nodes are rejected, not skolemized
    def __init__(self, line: int) -> None:
        self.message = "blank nodes are not supported"
        super().__init__(f"line {line}: {self.message}")
        self.line = line


class DuplicateDeclarationError(WbforgeError):
    def __init__(self, name: str) -> None:
        super().__init__(f"duplicate declaration of {name}")
        self.name = name


class UnknownClassError(WbforgeError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown class {name}")
        self.name = name


class FeatureDisabledError(WbforgeError):
    def __init__(self, feature: str) -> None:
        super().__init__(f"feature {feature!r} is not enabled in this schema")
        self.feature = feature


class MalformedValueError(WbforgeError):
    def __init__(self, kind: str, lexical: str) -> None:
        super().__init__(f"malformed {kind} value: {lexical!r}")
        self.kind = kind
        self.lexical = lexical


class PreimageDelimiterError(WbforgeError):
    # '|' and ';' split a statement hash preimage; inside an IRI they could merge two statements
    def __init__(self, iri: str) -> None:
        super().__init__(f"reference target <{iri}> contains '|' or ';'")
        self.iri = iri


class ReferenceNameCollisionError(WbforgeError):
    # a reference name holds 32 bits of its statement's hash, so two statements
    # citing the same snaks can mint one name; export refuses that merge
    def __init__(self, name: str, first: str, second: str) -> None:
        super().__init__(f"reference node <{name}> would be shared by a statement "
                         f"of <{first}> and one of <{second}>")
        self.name = name
        self.first = first
        self.second = second


class UnresolvedNameError(WbforgeError):
    def __init__(self, name: str, detail: str = "") -> None:
        msg = f"name {name!r} does not resolve against the schema"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.name = name


class TypeMismatchError(WbforgeError):
    def __init__(self, name: str, expected: str, got: str) -> None:
        super().__init__(f"{name}: expected {expected}, got {got}")
        self.name = name
        self.expected = expected
        self.got = got


class MissingRequiredError(WbforgeError):
    def __init__(self, name: str) -> None:
        super().__init__(f"required {name} is missing")
        self.name = name


class PatternInapplicableError(WbforgeError):
    def __init__(self, pattern: str, decl: str) -> None:
        super().__init__(f"pattern {pattern} is not applicable to {decl}")
        self.pattern = pattern
        self.decl = decl


class UnknownFixtureError(WbforgeError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown fixture {name!r}")
        self.name = name


class UnknownCodeError(WbforgeError):
    def __init__(self, code: str) -> None:
        super().__init__(f"unknown finding code {code!r}")
        self.code = code
