"""wbforge: a schema compiler for Wikibase-style reified statements.

From one statement declaration the toolchain mints the whole property
family (direct, statement, value, qualifier, reference namespaces) and
produces aligned artifacts: OWL axioms with origin annotations, ShExC
shapes, deterministic content-addressed RDF exports, and a validator
that reports violations in terms of the generated axioms.
"""

from .axioms import (
    CATALOG,
    instantiate_pattern,
    nl_approximation,
    schema_axioms,
    serialize_axioms,
)
from .dsl import parse_instances, parse_schema, print_schema
from .errors import (
    DslSyntaxError,
    MalformedValueError,
    MissingRequiredError,
    PatternInapplicableError,
    TypeMismatchError,
    UnknownCodeError,
    UnknownFixtureError,
    UnresolvedNameError,
    WbforgeError,
)
from .expander import ExpandedSchema, ExpandedStatement, expand, expansion_report
from .exporter import (
    canonical_content,
    export,
    reference_hash,
    statement_hash,
    statement_node,
    value_hash,
    value_node,
)
from .fixtures import FIXTURE_NAMES, MUTATIONS, load_bundle, load_fixture
from .model import (
    AxiomPattern,
    Datatype,
    DateTimeValue,
    DecimalValue,
    InstanceDoc,
    ItemRef,
    QualifierDecl,
    ReferenceDecl,
    SchemaDocument,
    StatementDecl,
    StringValue,
    ValueType,
)
from .namespaces import DEFAULT_ROOT, Iri, NamespaceTable
from .rdf import Graph, Literal, Triple, parse_ntriples, serialize_canonical
from .shapes import schema_shapes, serialize_shapes
from .validator import (
    Finding,
    ValidationReport,
    explain,
    infer_truthy,
    render_report,
    render_report_tsv,
    validate,
)

__version__ = "0.1.0"
