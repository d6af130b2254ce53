from __future__ import annotations

import random

import pytest

from shexd import (
    build_graph,
    flooding_validation,
    json_to_schema,
    parse_data,
    parse_schema,
    schema_to_json,
    schema_to_shexc,
)
from shexd.errors import (
    DuplicateShapeLabelError,
    ParseError,
    SchemaJsonError,
    UndefinedShapeReferenceError,
    UnknownPrefixError,
)
from shexd.randgen import random_instance
from shexd.rdf_graph import BLANK, XSD, XSD_INTEGER, XSD_STRING, DirectedProperty, Iri, Literal
from shexd.schema_model import (
    DatatypeSet,
    Empty,
    ExplicitSet,
    Group,
    NodeKind,
    Repetition,
    ShapeRef,
    SomeOf,
    TripleConstraint,
    iter_triple_constraints,
)

from conftest import DATA, IS

FOAF = "http://xmlns.com/foaf/0.1/"
PREAMBLE = (
    "PREFIX is: <http://issuetracker.example/ns#>\n"
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)


def test_parse_tester_shape():
    schema = parse_schema(PREAMBLE + "<TesterShape> { foaf:name xsd:string, is:role IRI }")
    expr = schema.shapes["TesterShape"].expr
    assert isinstance(expr, Group) and len(expr.children) == 2
    name_tc, role_tc = expr.children
    assert name_tc == TripleConstraint(1, DirectedProperty(FOAF + "name"), (DatatypeSet(XSD_STRING),))
    assert role_tc == TripleConstraint(2, DirectedProperty(IS + "role"), (NodeKind("IRI"),))


def test_parse_client_shape():
    schema = parse_schema(PREAMBLE + "<ClientShape> { is:clientNumber xsd:integer }")
    sd = schema.shapes["ClientShape"]
    assert not sd.closed_fwd and not sd.closed_inv and sd.extra == ()
    assert sd.expr == TripleConstraint(
        1, DirectedProperty(IS + "clientNumber"), (DatatypeSet(XSD_INTEGER),)
    )


def test_parse_explicit_interval():
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { e:p @<T> [2;4] }\n<T> { }")
    expr = schema.shapes["S"].expr
    assert isinstance(expr, Repetition) and (expr.lo, expr.hi) == (2, 4)
    assert isinstance(expr.child, TripleConstraint)
    assert expr.child.value_class == (ShapeRef("T"),)


def test_parse_sugar_cardinalities():
    schema = parse_schema(
        "PREFIX e: <http://e/>\n<S> { e:a e:T *, e:b e:T +, e:c e:T ?, e:d e:T [1;*] }"
    )
    cards = [
        (c.lo, c.hi) for c in schema.shapes["S"].expr.children
    ]
    assert cards == [(0, None), (1, None), (0, 1), (1, None)]


def test_parse_value_set_and_negation():
    schema = parse_schema(
        PREAMBLE
        + "<P> { is:experience (is:senior is:junior) }\n"
        + "<L> { is:reportedBy !@<P> * }"
    )
    p_tc = schema.shapes["P"].expr
    assert p_tc.value_class == (ExplicitSet((Iri(IS + "senior"), Iri(IS + "junior"))),)
    l_rep = schema.shapes["L"].expr
    assert l_rep.child.value_class == (ShapeRef("P", negated=True),)


def test_parse_inverse_constraint_and_conjunction():
    schema = parse_schema(
        PREAMBLE + "<I> { ^is:affectedBy @<U> AND @<C> + }\n<U> { }\n<C> { }"
    )
    rep = schema.shapes["I"].expr
    tc = rep.child
    assert tc.dprop == DirectedProperty(IS + "affectedBy", inverse=True)
    assert tc.value_class == (ShapeRef("U"), ShapeRef("C"))


def test_parse_modifiers():
    schema = parse_schema(
        "PREFIX e: <http://e/>\n<S> CLOSED ^CLOSED EXTRA e:p ^e:q { e:p e:T }"
    )
    sd = schema.shapes["S"]
    assert sd.closed_fwd and sd.closed_inv
    assert sd.extra == (
        DirectedProperty("http://e/p"),
        DirectedProperty("http://e/q", inverse=True),
    )


def test_parse_empty_shape_forms():
    schema = parse_schema("PREFIX e: <http://e/>\n<A> { }\n<B> { EmptyShape }")
    assert schema.shapes["A"].expr == Empty()
    assert schema.shapes["B"].expr == Empty()


def test_comma_binds_tighter_than_bar():
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { e:a e:T, e:b e:T | e:c e:T }")
    expr = schema.shapes["S"].expr
    assert isinstance(expr, SomeOf)
    assert isinstance(expr.children[0], Group)
    assert isinstance(expr.children[1], TripleConstraint)


def test_corpus_schema_shape_inventory():
    schema = parse_schema((DATA / "issues.shex").read_text())
    assert sorted(schema.shapes) == [
        "ClientShape",
        "IssueShape",
        "LowImpactIssueShape",
        "ProgrammerShape",
        "TesterShape",
        "UserShape",
    ]
    issue = schema.shapes["IssueShape"]
    assert issue.extra == (DirectedProperty(IS + "reproducedBy"),)
    assert [tc.tc_id for tc in iter_triple_constraints(issue.expr)] == [1, 2, 3, 4]


def test_tc_ids_are_stable_across_reparses():
    text = (DATA / "issues.shex").read_text()
    first = parse_schema(text)
    second = parse_schema(text)
    assert first.shapes == second.shapes


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateShapeLabelError):
        parse_schema("PREFIX e: <http://e/>\n<S> { }\n<S> { }")


def test_undefined_reference_rejected():
    with pytest.raises(UndefinedShapeReferenceError):
        parse_schema("PREFIX e: <http://e/>\n<S> { e:p @<Missing> }")


def test_unknown_prefix_rejected():
    with pytest.raises(UnknownPrefixError):
        parse_schema("<S> { e:p IRI }")


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_schema("PREFIX e: <http://e/>\n<S> { e:p }")
    assert err.value.line == 2


def test_negative_cardinality_rejected():
    with pytest.raises(ParseError):
        parse_schema("PREFIX e: <http://e/>\n<S> { e:p e:T [-1;2] }")
    with pytest.raises(ParseError):
        parse_schema("PREFIX e: <http://e/>\n<S> { e:p e:T [3;1] }")



_E = "PREFIX e: <http://e/>\n"

# Every error the compact-syntax parser raises: (input, class, message, line, column).
SCHEMA_ERRORS = [
    ("<S> { } $", ParseError, "unexpected character '$'", 1, 9),
    (_E + "<S> e:p IRI }", ParseError, "expected '{', found 'e:p'", 2, 5),
    ("PREFIX e <http://e/>", ParseError, "malformed prefix declaration", 1, 8),
    ("<S> { }\n@prefix", ParseError, "malformed prefix declaration", 2, 8),
    ("PREFIX e: e:x", ParseError, "prefix declaration needs an <IRI>", 1, 11),
    ("<S> { }\n<S> { }", DuplicateShapeLabelError, "shape <S> defined twice", None, None),
    ("e:S { }", ParseError, "expected a shape label, found 'e:S'", 1, 1),
    (_E + "@foo <S> { }", ParseError, "expected a shape label, found '@foo'", 2, 1),
    (_E + "<S> { e:p @e:T }", ParseError, "unexpected character ':'", 2, 13),
    (_E + "<S> { e:p !<T> }", ParseError, "expected '@', found '<T>'", 2, 12),
    (_E + "<S> EXTRA { e:p IRI }", ParseError, "EXTRA needs at least one property", 2, 11),
    (_E + "<S> { e:p IRI [x;2] }", ParseError, "expected a minimum cardinality", 2, 16),
    (_E + "<S> { e:p IRI [1;x] }", ParseError, "expected a maximum cardinality or '*'", 2, 18),
    (_E + "<S> { e:p IRI [1 2] }", ParseError, "expected ';', found '2'", 2, 18),
    (_E + "<S> { e:p IRI [-1;2] }", ParseError, "cardinalities must be natural numbers", 2, 16),
    (_E + "<S> { e:p IRI [1;-2] }", ParseError, "cardinalities must be natural numbers", 2, 16),
    (_E + "<S> { e:p IRI [3;1] }", ParseError, "cardinality [3;1] has min > max", 2, 16),
    (_E + "<S> { e:p FOO }", ParseError, "unexpected keyword 'FOO' in value class", 2, 11),
    (_E + "<S> { e:p () }", ParseError, "empty value set", 2, 14),
    (_E + '<S> { e:p ("a"^^"b") }', ParseError, "expected an IRI, found '\"b\"'", 2, 17),
    (_E + "<S> { x:p IRI }", UnknownPrefixError, "undeclared prefix 'x'", 2, 7),
    (_E + "<S> { ^ IRI }", ParseError, "expected an IRI, found 'IRI'", 2, 9),
    (_E + "<S> { ( e:p IRI }", ParseError, "expected ')', found '}'", 2, 17),
    (_E + "<S> { e:p @<T> }", UndefinedShapeReferenceError,
     "<S> references undefined shape <T>", None, None),
]


@pytest.mark.parametrize(
    "text,error,message,line,column", SCHEMA_ERRORS, ids=[r[0] for r in SCHEMA_ERRORS]
)
def test_schema_parse_errors_are_pinned(text, error, message, line, column):
    with pytest.raises(error) as err:
        parse_schema(text)
    exc = err.value
    assert type(exc) is error
    if line is not None:
        message += f" (line {line}, column {column})"
    assert (str(exc), getattr(exc, "line", None), getattr(exc, "column", None)) == (
        message, line, column
    )


def _json_shape(expr='{"kind": "empty"}', extra="[]"):
    return (
        '{"shapes": {"S": {"closed": false, "closedInv": false, '
        f'"extra": {extra}, "expr": {expr}}}}}}}'
    )


def _json_tc(value_class='[{"type": "nodekind", "kind": "IRI"}]', tc_id="1"):
    return (
        f'{{"kind": "tc", "id": {tc_id}, "property": "http://e/p", '
        f'"valueClass": {value_class}}}'
    )


def _json_values(*values):
    return _json_tc('[{"type": "values", "values": [%s]}]' % ", ".join(values))


_TC = "$.shapes.S.expr"

# Every error ``json_to_schema`` raises: (input, class, message, path).
JSON_ERRORS = [
    ("not json", SchemaJsonError,
     "not valid JSON: Expecting value: line 1 column 1 (char 0)", "$"),
    ("[]", SchemaJsonError, "missing key 'shapes'", "$"),
    ('{"shapes": []}', SchemaJsonError, "shapes must be an object", "$.shapes"),
    ('{"shapes": {"S": {"closedInv": false, "extra": [], "expr": {"kind": "empty"}}}}',
     SchemaJsonError, "missing key 'closed'", "$.shapes.S"),
    (_json_shape(extra='"^http://e/q"'), SchemaJsonError, "extra must be a list", "$.shapes.S"),
    (_json_shape(extra='[""]'), SchemaJsonError, "expected a property string",
     "$.shapes.S.extra[0]"),
    (_json_shape(extra="[3]"), SchemaJsonError, "expected a property string",
     "$.shapes.S.extra[0]"),
    (_json_shape('{"kind": "wat"}'), SchemaJsonError, "unknown expression kind 'wat'", _TC),
    (_json_shape("{}"), SchemaJsonError, "missing key 'kind'", _TC),
    (_json_shape(_json_tc("[]")), SchemaJsonError, "valueClass must be a non-empty list", _TC),
    (_json_shape(_json_tc("{}")), SchemaJsonError, "valueClass must be a non-empty list", _TC),
    (_json_shape(_json_tc(tc_id="0")), SchemaJsonError, "tc id must be a positive integer", _TC),
    (_json_shape(_json_tc(tc_id='"1"')), SchemaJsonError, "tc id must be a positive integer",
     _TC),
    (_json_shape(_json_tc('[{"type": "nodekind", "kind": "Foo"}]')), SchemaJsonError,
     "unknown node kind 'Foo'", _TC + ".valueClass[0]"),
    (_json_shape(_json_tc('[{"type": "wat"}]')), SchemaJsonError,
     "unknown constraint type 'wat'", _TC + ".valueClass[0]"),
    (_json_shape(_json_values()), SchemaJsonError, "value set needs a non-empty list",
     _TC + ".valueClass[0]"),
    (_json_shape(_json_values('{"type": "bnode"}')), SchemaJsonError,
     "unknown value type 'bnode'", _TC + ".valueClass[0].values[0]"),
    (_json_shape(_json_values('{"type": "literal", "lexical": "x"}')), SchemaJsonError,
     "missing key 'datatype'", _TC + ".valueClass[0].values[0]"),
    (_json_shape('{"kind": "group", "exprs": []}'), SchemaJsonError,
     "exprs must be a non-empty list", _TC),
    (_json_shape('{"kind": "someOf", "exprs": {}}'), SchemaJsonError,
     "exprs must be a non-empty list", _TC),
    (_json_shape('{"kind": "repeat", "min": "0", "max": 1, "expr": {"kind": "empty"}}'),
     SchemaJsonError, "cardinalities must be integers or '*'", _TC),
    (_json_shape('{"kind": "repeat", "min": 0, "max": "many", "expr": {"kind": "empty"}}'),
     SchemaJsonError, "cardinalities must be integers or '*'", _TC),
    (_json_shape('{"kind": "repeat", "min": 3, "max": 1, "expr": {"kind": "empty"}}'),
     SchemaJsonError, "cardinality [3;1] has min > max", _TC),
    (_json_shape('{"kind": "repeat", "min": 0, "max": 1}'), SchemaJsonError,
     "missing key 'expr'", _TC),
    (_json_shape(_json_tc('[{"type": "shape", "label": "T"}]')),
     UndefinedShapeReferenceError, "<S> references undefined shape <T>", None),
]


@pytest.mark.parametrize(
    "text,error,message,path", JSON_ERRORS, ids=[f"json{i}" for i in range(len(JSON_ERRORS))]
)
def test_json_schema_errors_are_pinned(text, error, message, path):
    with pytest.raises(error) as err:
        json_to_schema(text)
    exc = err.value
    assert type(exc) is error
    if path is not None:
        message += f" (at {path})"
    assert (str(exc), getattr(exc, "path", None)) == (message, path)


# The corpus schemas, one that writes every term form, then the schemas of
# ``random_instance`` for seeds 0-499.
ROUND_TRIP = ["issues.shex", "issues_noextra.shex", "boolean.shex", "terms.shex"] + [
    pytest.param(seed, id=f"seed{seed}") for seed in range(500)
]


def _round_trip_schema(name):
    if isinstance(name, int):
        return random_instance(random.Random(name))[0]
    return parse_schema((DATA / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_json_round_trip_corpus(name):
    schema = _round_trip_schema(name)
    again = json_to_schema(schema_to_json(schema))
    assert again.shapes == schema.shapes


def test_json_round_trip_preserves_modifiers():
    schema = parse_schema(
        "PREFIX e: <http://e/>\n<S> CLOSED EXTRA ^e:q { e:p (e:v 4 \"s\" _b) [0;3] }"
    )
    again = json_to_schema(schema_to_json(schema))
    assert again.shapes == schema.shapes
    doc = schema_to_json(schema)
    assert '"^http://e/q"' in doc


def test_json_kind_empty():
    schema = parse_schema("<E> { }")
    assert '"kind": "empty"' in schema_to_json(schema)


def test_json_unbounded_max_is_star():
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { e:p e:T [2;*] }")
    assert '"max": "*"' in schema_to_json(schema)


@pytest.mark.parametrize(
    "mutate,path_bit",
    [
        ('{"shapes": []}', "$.shapes"),
        ('{"shapes": {"S": {"closed": false, "closedInv": false, "extra": [], '
         '"expr": {"kind": "wat"}}}}', "$.shapes.S.expr"),
        ('{"shapes": {"S": {"closed": false, "closedInv": false, "extra": [], '
         '"expr": {"kind": "repeat", "min": 3, "max": 1, '
         '"expr": {"kind": "empty"}}}}}', "$.shapes.S.expr"),
        ("not json", "$"),
    ],
)
def test_json_errors_carry_paths(mutate, path_bit):
    with pytest.raises(SchemaJsonError) as err:
        json_to_schema(mutate)
    assert err.value.path.startswith(path_bit[: len(err.value.path)]) or path_bit in str(err.value)


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_reparse_of_emitted_shexc_is_identity(name):
    schema = _round_trip_schema(name)
    again = parse_schema(schema_to_shexc(schema))
    assert again.shapes == schema.shapes


def test_value_sets_read_every_term_form():
    schema = parse_schema((DATA / "terms.shex").read_text(encoding="utf-8"))
    values = iter_triple_constraints(schema.shapes["Terms"].expr)[0].value_class[0].values
    assert values == (
        Literal("15/12/2015", XSD + "date"),
        Literal("42", XSD_INTEGER),
        Literal("-7", XSD_INTEGER),
        Literal("+5", XSD_INTEGER),
        Literal('tab\t "quoted" back\\slash \u00e9 \U0001F600'),
        Literal("chat", lang="fr"),
        Literal("colour", lang="en-GB"),
        BLANK,
        Iri("http://example.org/v"),
    )
    emitted = schema_to_shexc(schema)
    for form in ('"chat"@fr', "-7", "+5", "_b", "CLOSED ^CLOSED", "[2;5]", "?", "<Empty> { }"):
        assert form in emitted


def test_a_unicode_escape_in_a_value_set_matches_its_data_literal():
    schema = parse_schema('PREFIX e: <http://e/>\n<S> { e:p ("caf\\u00e9") }')
    graph = build_graph(parse_data('<http://e/a> <http://e/p> "caf\u00e9" .', fmt="nt"))
    assert flooding_validation(schema, graph, [("http://e/a", "S", "+")]).typing


def test_a_json_language_tag_survives_compact_syntax():
    tc = _json_tc(
        '[{"type": "values", "values": [{"type": "literal", "lexical": "chat", '
        '"datatype": "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString", "lang": "fr"}]}]'
    )
    schema = json_to_schema(_json_shape(tc))
    emitted = schema_to_shexc(schema)
    assert '("chat"@fr)' in emitted
    assert parse_schema(emitted).shapes == schema.shapes
