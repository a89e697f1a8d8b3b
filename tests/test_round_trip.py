"""Round-trip invariants over the N-Triples and DSL outcome corpora.

Every text in `nt_corpus.texts()` that `parse_ntriples` accepts reads
back as the same graph after `serialize_canonical`, and serializing
that graph again gives the same bytes. Every text in
`dsl_corpus.texts()` that `parse_schema` accepts prints to a schema
text that parses to the same document and prints the same again.
"""

import dsl_corpus
import nt_corpus
from wbforge.dsl import parse_schema, print_schema
from wbforge.errors import WbforgeError
from wbforge.rdf import parse_ntriples, serialize_canonical


def _accepted(parse, texts):
    for label, text in texts:
        try:
            yield label, parse(text)
        except WbforgeError:
            pass


def test_canonical_n_triples_read_back_as_the_same_graph():
    count = 0
    for label, g in _accepted(parse_ntriples, nt_corpus.texts()):
        text = serialize_canonical(g)
        again = parse_ntriples(text)
        assert again == g, label
        assert serialize_canonical(again) == text, label
        count += 1
    assert count > 700       # 769 when written; guards the corpus reaching the accept path


def test_print_schema_is_a_fixed_point():
    count = 0
    for label, doc in _accepted(parse_schema, dsl_corpus.texts()):
        text = print_schema(doc)
        again = parse_schema(text)
        assert again == doc, label
        assert print_schema(again) == text, label
        count += 1
    assert count > 150       # 184 when written
