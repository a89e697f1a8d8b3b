"""The schema-side artifacts over the fixed corpus in `artifact_corpus.py`, pinned byte for byte.

A change to this digest is a change to some axiom, comment, shape or
expansion row, or to their order; regenerate it only when that change
is intended:

    PYTHONPATH=src python tests/artifact_corpus.py | sha256sum
"""

import hashlib
import io
from contextlib import redirect_stdout

import artifact_corpus
from wbforge.validator import CODES, ValidationReport, explain

ARTIFACT_CORPUS_SHA256 = "93efa5a3e74cab80b8c92f2708d9bf5c4b7cbfe84ed886c890e7840f7290be7f"

# explain() for every code on an empty report, in CODES order
EXPLAIN_TEXTS = """\
BareTruthy (WARNING, 0 finding(s)): a truthy direct edge has no reified statement behind it.
  Ax9 | the p: edge chained with the ps: edge entails the wdt: edge
ChainGap (ERROR, 0 finding(s)): a reified statement is missing its truthy direct edge.
  Ax9 | the p: edge chained with the ps: edge entails the wdt: edge
DomainViolation (ERROR, 0 finding(s)): a statement subject lacks the declared subject class.
  Ax1 | the domain of the p: edge is wikibase:Item
  Ax9-c1 | the domain of the wdt: edge is wikibase:Item
  Pattern:Domain | named axiom pattern chosen in the schema
ExistenceViolation (ERROR, 0 finding(s)): a mandatory value, qualifier, or reference is absent.
  Ax7 | the ps: edge has exactly one filler
  AxReq | at-least-one value, declared by the required flag (DSL extension)
FunctionalityViolation (ERROR, 0 finding(s)): an at-most-one property carries several values.
  Ax7 | the ps: edge has exactly one filler
  AxFunc | at-most-one value, declared by the functional flag (DSL extension)
HashMismatch (WARNING, 0 finding(s)): a node name no longer matches its content hash.
  (integrity check; not tied to a generated axiom)
OrphanStatement (ERROR, 0 finding(s)): a statement node has no owning item.
  Ax3+4 | the inverse of the p: edge has exactly one filler
QualifierTypeViolation (ERROR, 0 finding(s)): a qualifier value does not fit its declaration.
  Ax10 | scoped range of a pq: edge under item-anchored statements
  Ax11 | unscoped range of a pq: edge
RangeViolation (ERROR, 0 finding(s)): a statement or reference value lacks the declared class or type.
  Ax6 | the range of the ps: edge is wikibase:Item
  Ax50 | statements derive only wikibase:Reference nodes
  Ax53 | unscoped range of a pr: edge is wikibase:Item
  Pattern:Range | named axiom pattern chosen in the schema
SharedReference (ERROR, 0 finding(s)): a reference node is derived from several statements.
  Ax54 | a reference is derived from exactly one statement
SharedStatement (ERROR, 0 finding(s)): a statement node is claimed by several item edges.
  Ax3+4 | the inverse of the p: edge has exactly one filler
UnknownProperty (WARNING, 0 finding(s)): a family property matches no declaration.
  (integrity check; not tied to a generated axiom)
ValueNodeMalformed (ERROR, 0 finding(s)): a metadata value node has missing or ill-typed fields.
  Ax19 | the domain of wikibase:timeValue is wikibase:TimeValue
  Ax23 | the range of wikibase:timeValue is xsd:dateTime
  Ax27 | wikibase:timeValue has exactly one filler
  AxQ-val-dom | the domain of wikibase:quantityValue is wikibase:QuantityValue
  AxQ-val-range | on quantity nodes, wikibase:quantityValue ranges over xsd:decimal
  AxQ-unit-range | on quantity nodes, wikibase:quantityUnit ranges over wikibase:Item
"""


def test_artifact_corpus_is_unchanged():
    out = io.StringIO()
    with redirect_stdout(out):
        artifact_corpus.main()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == ARTIFACT_CORPUS_SHA256


def test_explain_texts_are_unchanged():
    empty = ValidationReport(())
    assert "".join(explain(empty, code) for code in CODES) == EXPLAIN_TEXTS
