"""Shape-expression validation for RDF graphs.

Parse a schema and some data, ask whether nodes satisfy shapes, get back a
verifiable global typing witness, or search for minimal repairs when they do
not.
"""

from importlib import import_module as _import_module

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
from .schema_model import (
    Schema,
    check_well_defined,
    dependency_graph,
    negated_shapes,
    triple_consumers,
    unfold_repetitions,
)
from .shexc import json_to_schema, parse_schema, schema_to_json, schema_to_shexc

# The repair search loads on first use, so validate and check-schema start
# without compiling it.
_REPAIR_NAMES = ("EditSet", "RepairResult", "enumerate_repairs", "is_repair", "is_valid_after")


def __getattr__(name: str):
    if name == "repair" or name in _REPAIR_NAMES:
        repair = _import_module(".repair", __name__)
        return repair if name == "repair" else getattr(repair, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + ["repair", *_REPAIR_NAMES]
