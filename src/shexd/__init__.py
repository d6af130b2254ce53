"""Shape-expression validation for RDF graphs.

Parse a schema and some data, ask whether nodes satisfy shapes, get back a
verifiable global typing witness, or search for minimal repairs when they do
not.
"""

from .engine import (
    CertainTyping,
    GlobalTypingWitness,
    compute_certain_typing,
    check_compatible,
    check_gtw_extra,
    flooding_validation,
    reference_validate,
    verify_global_typing_witness,
    witness_to_json,
)
from .errors import (
    BagTooLargeError,
    DuplicateShapeLabelError,
    IncompatibleInitialTypingError,
    NotSingleOccurrenceError,
    ParseError,
    SchemaJsonError,
    SearchBudgetExceededError,
    ShexdError,
    UndefinedShapeReferenceError,
    UnknownNodeError,
    UnknownPrefixError,
    ValidationError,
    WellDefinednessError,
)
from .matching import (
    brute_match,
    candidate_witnesses,
    check_local_witness,
    edge_matches,
    interval,
    local_witnesses,
    matching_consumers,
    propagation,
    value_satisfies,
)
from .rdf_graph import Graph, Triple, build_graph, parse_data, to_ntriples
from .repair import EditSet, RepairResult, enumerate_repairs, is_repair, is_valid_after
from .schema_model import (
    Schema,
    check_well_defined,
    dependency_graph,
    negated_shapes,
    triple_consumers,
    unfold_repetitions,
)
from .shexc import json_to_schema, parse_schema, schema_to_json, schema_to_shexc

__all__ = [name for name in dir() if not name.startswith("_")]
