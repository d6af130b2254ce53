from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexd import (
    brute_match,
    candidate_witnesses,
    check_local_witness,
    edge_matches,
    interval,
    matching_consumers,
    propagation,
    unfold_repetitions,
    value_satisfies,
)
from shexd.errors import BagTooLargeError, NotSingleOccurrenceError
from shexd.matching import (
    EMPTY_INTERVAL,
    Interval,
    bag_matches,
    candidate_count,
)
from shexd.randgen import random_bag, random_expr
from shexd.rdf_graph import (
    BLANK,
    XSD_INTEGER,
    XSD_STRING,
    DirectedProperty,
    Iri,
    Literal,
)
from shexd.schema_model import (
    ByConstraint,
    DatatypeSet,
    Empty,
    ExplicitSet,
    ExtraSlot,
    Group,
    NodeKind,
    OpenSlot,
    Repetition,
    ShapeDefinition,
    ShapeRef,
    SomeOf,
    TripleConstraint,
    compile_membership,
)

from conftest import EX, IS


def edge_of(graph, node, prop, target, inverse=False):
    for e in graph.neighbourhood(node):
        if e.dprop == DirectedProperty(prop, inverse) and e.target == target:
            return e
    raise AssertionError(f"no such edge {prop} -> {target}")


@pytest.fixture(scope="module")
def issue_shape(issues_schema):
    return issues_schema.shapes["IssueShape"]


# --- value_satisfies ---------------------------------------------------------

def test_string_literal_satisfies_string_datatype():
    assert value_satisfies(Literal("Ren Traore"), DatatypeSet(XSD_STRING))


def test_iri_in_explicit_set():
    members = ExplicitSet((Iri(IS + "senior"), Iri(IS + "junior")))
    assert value_satisfies(Iri(IS + "senior"), members)
    assert not value_satisfies(Iri(IS + "integration"), members)


def test_integer_literal_is_not_an_iri():
    assert not value_satisfies(Literal("1", XSD_INTEGER), NodeKind("IRI"))


@pytest.mark.parametrize(
    "value,kind,expected",
    [
        (Iri("http://e/x"), "IRI", True),
        (BLANK, "BNode", True),
        (Literal("x"), "Literal", True),
        (Iri("http://e/x"), "NonLiteral", True),
        (BLANK, "NonLiteral", True),
        (Literal("x"), "NonLiteral", False),
        (BLANK, "Literal", False),
    ],
)
def test_node_kinds(value, kind, expected):
    assert value_satisfies(value, NodeKind(kind)) is expected


def test_blank_constant_in_explicit_set():
    assert value_satisfies(BLANK, ExplicitSet((Iri("http://e/x"), BLANK)))
    assert not value_satisfies(BLANK, ExplicitSet((Iri("http://e/x"),)))


def test_lexical_comparison_only():
    assert not value_satisfies(Literal("01", XSD_INTEGER), ExplicitSet((Literal("1", XSD_INTEGER),)))


def test_shape_constraint_is_rejected_here():
    with pytest.raises(TypeError):
        value_satisfies(Iri("http://e/x"), ShapeRef("S"))


# --- edge_matches ------------------------------------------------------------

def test_edge1_matches_c1(issues_graph, issue_shape):
    edge1 = edge_of(issues_graph, EX + "issue1", IS + "reportedBy", EX + "fatima")
    assert edge_matches(edge1, ByConstraint(1), issue_shape, issues_graph)


def test_reproduced_edges_match_c2_c3_and_extra(issues_graph, issue_shape):
    for who in ("ren", "noa", "emin"):
        edge = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + who)
        assert edge_matches(edge, ByConstraint(2), issue_shape, issues_graph)
        assert edge_matches(edge, ByConstraint(3), issue_shape, issues_graph)
        assert edge_matches(edge, ExtraSlot(DirectedProperty(IS + "reproducedBy")), issue_shape, issues_graph)


def test_due_date_matches_no_constraint(issues_graph, issue_shape):
    edge5 = next(
        e for e in issues_graph.neighbourhood(EX + "issue1") if e.dprop.prop == IS + "dueDate"
    )
    for tc_id in (1, 2, 3, 4):
        assert not edge_matches(edge5, ByConstraint(tc_id), issue_shape, issues_graph)


def test_open_is_never_matched(issues_graph, issue_shape):
    edge1 = edge_of(issues_graph, EX + "issue1", IS + "reportedBy", EX + "fatima")
    with pytest.raises(TypeError):
        edge_matches(edge1, OpenSlot(), issue_shape, issues_graph)


# --- matching_consumers -------------------------------------------------------

def test_unmentioned_property_gets_open(issues_graph, issue_shape):
    edge5 = next(
        e for e in issues_graph.neighbourhood(EX + "issue1") if e.dprop.prop == IS + "dueDate"
    )
    assert matching_consumers(edge5, issue_shape, issues_graph) == [OpenSlot()]


def test_reproduced_edge_consumer_order(issues_graph, issue_shape):
    edge4 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "emin")
    assert matching_consumers(edge4, issue_shape, issues_graph) == [
        ByConstraint(2),
        ByConstraint(3),
        ExtraSlot(DirectedProperty(IS + "reproducedBy")),
    ]


def test_inverse_edge_matches_only_c4(issues_graph, issue_shape):
    edge6 = edge_of(issues_graph, EX + "issue1", IS + "affectedBy", EX + "emin", inverse=True)
    assert matching_consumers(edge6, issue_shape, issues_graph) == [ByConstraint(4)]


def test_mentioned_but_unmatchable_property_gets_nothing(issues_schema, issues_graph):
    # fatima's clientNumber edge against a shape wanting a string there
    schema = __import__("shexd").parse_schema(
        "PREFIX is: <http://issuetracker.example/ns#>\n"
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
        "<S> { is:clientNumber xsd:string }"
    )
    edge = edge_of(issues_graph, EX + "fatima", IS + "clientNumber", '"1"^^<http://www.w3.org/2001/XMLSchema#integer>')
    assert matching_consumers(edge, schema.shapes["S"], issues_graph) == []


# --- candidate enumeration -----------------------------------------------------

def test_issue1_has_27_candidates(issues_graph, issue_shape):
    assert candidate_count(EX + "issue1", issue_shape, issues_graph) == 27
    assert sum(1 for _ in candidate_witnesses(EX + "issue1", issue_shape, issues_graph)) == 27


def test_empty_neighbourhood_yields_one_empty_candidate(issues_schema):
    from shexd.rdf_graph import Graph, Iri as _Iri
    from shexd.schema_model import Empty as _Empty, ShapeDefinition

    # triple-built graphs have no isolated nodes, so fabricate one
    g = Graph(())
    g._values["http://e/island"] = _Iri("http://e/island")
    g._adjacency["http://e/island"] = ()
    cands = list(candidate_witnesses("http://e/island", ShapeDefinition(expr=_Empty()), g))
    assert cands == [{}]
    assert check_local_witness({}, "http://e/island", ShapeDefinition(expr=_Empty()), g)
    assert not check_local_witness({}, "http://e/island", issues_schema.shapes["ClientShape"], g)


def test_fatima_client_candidates(issues_graph, issues_schema):
    cands = list(
        candidate_witnesses(EX + "fatima", issues_schema.shapes["ClientShape"], issues_graph)
    )
    assert len(cands) == 1
    by_key = cands[0]
    assignments = Counter(type(v).__name__ for v in by_key.values())
    assert assignments == Counter({"OpenSlot": 3, "ByConstraint": 1})


def test_candidate_count_is_product_of_list_sizes(issues_graph, issues_schema):
    for label in issues_schema.shapes:
        for node in (EX + "issue1", EX + "fatima", EX + "ren"):
            product = 1
            for e in issues_graph.neighbourhood(node):
                product *= len(matching_consumers(e, issues_schema.shapes[label], issues_graph))
            assert candidate_count(node, issues_schema.shapes[label], issues_graph) == product
            assert sum(
                1 for _ in candidate_witnesses(node, issues_schema.shapes[label], issues_graph)
            ) == product


# --- unfolding -----------------------------------------------------------------

def _tc(i):
    return TripleConstraint(i, DirectedProperty("http://e/p"), (NodeKind("IRI"),))


def test_unfold_bounded_compound_repetition():
    inner = Group((_tc(1), _tc(2)))
    unfolded = unfold_repetitions(Repetition(inner, 2, 4))
    assert unfolded == Group((inner, inner, Repetition(inner, 0, 1), Repetition(inner, 0, 1)))


def test_unfold_keeps_tc_repetitions():
    rep = Repetition(_tc(1), 3, 7)
    assert unfold_repetitions(rep) == rep


def test_unfold_keeps_allowed_compound_forms():
    for card in ((0, 1), (0, None), (1, None)):
        rep = Repetition(Group((_tc(1), _tc(2))), *card)
        assert unfold_repetitions(rep) == rep


def test_unfold_unbounded_tail():
    inner = Group((_tc(1), _tc(2)))
    unfolded = unfold_repetitions(Repetition(inner, 2, None))
    assert unfolded == Group((inner, inner, Repetition(inner, 0, None)))


def test_unfold_degenerate_zero():
    assert unfold_repetitions(Repetition(Group((_tc(1),)), 0, 0)) == Empty()


# --- interval -------------------------------------------------------------------

def test_interval_single_tc():
    assert interval(_tc(1), Counter({1: 3})) == Interval(3, 3)


def test_interval_issue_shape_expr(issues_schema):
    expr = issues_schema.shapes["IssueShape"].expr
    assert interval(expr, Counter({1: 1, 2: 1, 3: 2, 4: 1})).contains(1)


def test_interval_rejects_surplus_c1(issues_schema):
    expr = issues_schema.shapes["IssueShape"].expr
    iv = interval(expr, Counter({1: 2, 2: 1, 3: 1, 4: 1}))
    assert not iv.contains(1)
    assert brute_match(expr, Counter({1: 2, 2: 1, 3: 1, 4: 1})) is False


def test_interval_unknown_symbol_is_empty():
    assert interval(_tc(1), Counter({9: 1})) == EMPTY_INTERVAL


def test_interval_requires_single_occurrence():
    dup = Group((_tc(1), _tc(1)))
    with pytest.raises(NotSingleOccurrenceError):
        interval(dup, Counter({1: 2}))


def test_interval_someof_is_minkowski_sum():
    expr = SomeOf((_tc(1), _tc(2)))
    assert interval(expr, Counter({1: 1, 2: 1})) == Interval(2, 2)
    assert not interval(expr, Counter({1: 1, 2: 1})).contains(1)


def test_interval_empty_expr():
    assert interval(Empty(), Counter()).contains(0)
    assert interval(Empty(), Counter()).hi is None
    assert interval(Empty(), Counter({1: 1})) == EMPTY_INTERVAL


# --- brute matching ---------------------------------------------------------------

def test_brute_single_symbol():
    assert brute_match(_tc(1), Counter({1: 1}))
    assert not brute_match(_tc(1), Counter({1: 2}))
    assert not brute_match(_tc(1), Counter())


def test_brute_issue_shape_bag(issues_schema):
    expr = issues_schema.shapes["IssueShape"].expr
    assert brute_match(expr, Counter({1: 1, 2: 1, 3: 2, 4: 1}))


def test_brute_someof_leaves_no_leftover():
    expr = SomeOf((_tc(1), _tc(2)))
    assert not brute_match(expr, Counter({1: 1, 2: 1}))
    assert brute_match(expr, Counter({1: 1}))


def test_brute_handles_duplicated_ids_after_unfolding():
    inner = Group((_tc(1), _tc(2)))
    unfolded = unfold_repetitions(Repetition(inner, 2, 4))
    assert compile_membership(unfolded) is None
    for total in (2, 3, 4):
        assert brute_match(unfolded, Counter({1: total, 2: total}))
    assert not brute_match(unfolded, Counter({1: 1, 2: 1}))
    assert not brute_match(unfolded, Counter({1: 5, 2: 5}))
    assert not brute_match(unfolded, Counter({1: 3, 2: 2}))


def test_brute_bag_too_large():
    with pytest.raises(BagTooLargeError):
        brute_match(_tc(1), Counter({1: 40}))
    assert brute_match(Repetition(_tc(1), 0, None), Counter({1: 40}), bound=64)


def test_bag_matches_uses_fallback_for_duplicates():
    shape = ShapeDefinition(expr=Repetition(Group((_tc(1), _tc(2))), 2, 3))
    assert shape.membership is None
    assert bag_matches(shape, Counter({1: 2, 2: 2}))
    assert not bag_matches(shape, Counter({1: 1, 2: 1}))


def test_memoized_bag_matches_agrees_with_the_oracles():
    # Each bag is asked twice under each of two bounds, against shapes on
    # the interval path and one on the exhaustive path (every id doubled).
    # The interval path also gets the expression beside an Empty under a
    # choice and under a group, as boolean.shex's <Vars> has it, and one bag
    # in four holds an id the expression lacks. Every verdict on the
    # interval path is checked against interval() and brute_match() both.
    rng = random.Random(61018)
    raised = 0
    for _ in range(150):
        expr = random_expr(rng, alphabet=4, depth=3)
        bags = [random_bag(rng, expr, total_max=6) for _ in range(3)]
        bags.append(bags[0] + Counter({99: 1}))  # 99 is no constraint id of expr
        doubled = ShapeDefinition(expr=Group((expr, expr)))
        shapes = [ShapeDefinition(expr=e) for e in
                  (expr, SomeOf((expr, Empty())), Group((Empty(), expr)))]
        for shape in shapes + [doubled]:
            assert (shape.membership is not None) == (shape is not doubled)
            for bound in (16, 3):
                for bag in bags * 2:
                    if shape.membership is None and sum(bag.values()) > bound:
                        with pytest.raises(BagTooLargeError):
                            bag_matches(shape, bag, bound)
                        raised += 1
                        continue
                    if shape.membership is not None:
                        expected = interval(shape.expr, bag).contains(1)
                        assert expected == brute_match(shape.expr, bag, 16)
                    else:
                        expected = brute_match(shape.expr, bag, bound)
                    assert bag_matches(shape, bag, bound) == expected
    assert raised > 100


def test_bag_memo_never_answers_over_the_bound():
    bag = Counter({1: 2, 2: 2})
    answered = ShapeDefinition(expr=Repetition(Group((_tc(1), _tc(2))), 2, 3))
    assert answered.membership is None
    assert bag_matches(answered, bag, 16)
    assert answered.bag_verdicts == {((1, 2), (2, 2)): True}
    with pytest.raises(BagTooLargeError):
        bag_matches(answered, bag, 3)
    raised_first = ShapeDefinition(expr=answered.expr)
    with pytest.raises(BagTooLargeError):
        bag_matches(raised_first, bag, 3)
    assert raised_first.bag_verdicts == {}
    assert bag_matches(raised_first, bag, 4)
    # zero counts name the same bag; the interval path ignores the bound
    single = ShapeDefinition(expr=Repetition(_tc(1), 0, None))
    assert bag_matches(single, Counter({1: 40, 2: 0}), 4)
    assert single.bag_verdicts == {((1, 40),): True}


# --- interval vs brute equivalence -------------------------------------------------

def test_randomized_interval_brute_agreement_seeded():
    rng = random.Random(424242)
    for _ in range(250):
        expr = random_expr(rng)
        bag = random_bag(rng, expr)
        assert interval(expr, bag).contains(1) == brute_match(expr, bag)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_interval_brute_agreement_property(seed):
    rng = random.Random(seed)
    expr = random_expr(rng, alphabet=5, depth=3)
    bag = random_bag(rng, expr, total_max=8)
    assert interval(expr, bag).contains(1) == brute_match(expr, bag)


# --- check_local_witness -------------------------------------------------------

def paper_witness(graph, variant=None):
    """Example 1's assignment over issue1's neighbourhood, keyed by edge id."""
    issue1 = EX + "issue1"
    e1 = edge_of(graph, issue1, IS + "reportedBy", EX + "fatima")
    e2 = edge_of(graph, issue1, IS + "reproducedBy", EX + "ren")
    e3 = edge_of(graph, issue1, IS + "reproducedBy", EX + "noa")
    e4 = edge_of(graph, issue1, IS + "reproducedBy", EX + "emin")
    e5 = next(e for e in graph.neighbourhood(issue1) if e.dprop.prop == IS + "dueDate")
    e6 = edge_of(graph, issue1, IS + "affectedBy", EX + "emin", inverse=True)
    witness = {
        e1.id: ByConstraint(1),
        e2.id: ByConstraint(2),
        e3.id: ByConstraint(3),
        e4.id: ByConstraint(3),
        e5.id: OpenSlot(),
        e6.id: ByConstraint(4),
    }
    if variant:
        witness.update({k(graph).id if callable(k) else k: v for k, v in variant.items()})
    return witness


def test_example_local_witness_is_valid(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    assert check_local_witness(w, EX + "issue1", issue_shape, issues_graph)


def test_extra_variant_is_also_valid(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    e4 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "emin")
    w[e4.id] = ExtraSlot(DirectedProperty(IS + "reproducedBy"))
    assert check_local_witness(w, EX + "issue1", issue_shape, issues_graph)


def test_extra_on_wrong_property_fails(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    e5 = next(e for e in issues_graph.neighbourhood(EX + "issue1") if e.dprop.prop == IS + "dueDate")
    w[e5.id] = ExtraSlot(DirectedProperty(IS + "reproducedBy"))
    assert not check_local_witness(w, EX + "issue1", issue_shape, issues_graph)


def test_open_on_mentioned_property_fails(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    e2 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "ren")
    w[e2.id] = OpenSlot()
    assert not check_local_witness(w, EX + "issue1", issue_shape, issues_graph)


def test_expression_part_rejects_missing_c2(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    e2 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "ren")
    w[e2.id] = ByConstraint(3)  # nothing consumes C2 now
    assert not check_local_witness(w, EX + "issue1", issue_shape, issues_graph)


def test_partial_witness_fails(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    w.popitem()
    assert not check_local_witness(w, EX + "issue1", issue_shape, issues_graph)


def test_extra_hiding_value_only_constraint_fails(issues_graph):
    schema = __import__("shexd").parse_schema(
        "PREFIX is: <http://issuetracker.example/ns#>\n"
        "PREFIX ex: <http://example.org/>\n"
        "<S> EXTRA is:reproducedBy { is:reproducedBy (ex:ren) }"
    )
    sd = schema.shapes["S"]
    issue1 = EX + "issue1"
    witness = {}
    for e in issues_graph.neighbourhood(issue1):
        if e.dprop.prop == IS + "reproducedBy":
            witness[e.id] = ExtraSlot(DirectedProperty(IS + "reproducedBy"))
        else:
            witness[e.id] = OpenSlot()
    # the ren edge fully satisfies the value-only constraint, so EXTRA may not eat it
    assert not check_local_witness(witness, issue1, sd, issues_graph)
    ren_edge = edge_of(issues_graph, issue1, IS + "reproducedBy", EX + "ren")
    witness[ren_edge.id] = ByConstraint(1)
    assert check_local_witness(witness, issue1, sd, issues_graph)


def test_closed_shape_forbids_forward_open(issues_graph):
    schema = __import__("shexd").parse_schema(
        "PREFIX is: <http://issuetracker.example/ns#>\n"
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
        "<C> CLOSED { is:clientNumber xsd:integer }\n"
        "<O> { is:clientNumber xsd:integer }"
    )
    fatima = EX + "fatima"
    for label, expected in (("C", False), ("O", True)):
        sd = schema.shapes[label]
        found = any(
            check_local_witness(c, fatima, sd, issues_graph)
            for c in candidate_witnesses(fatima, sd, issues_graph)
        )
        assert found is expected


# --- propagation ----------------------------------------------------------------

def test_propagation_of_example_witness(issues_graph, issue_shape):
    w = paper_witness(issues_graph)
    prop = propagation(w, issues_graph, issue_shape)
    assert prop == frozenset(
        {
            (EX + "fatima", "UserShape", "+"),
            (EX + "fatima", "ClientShape", "+"),
            (EX + "ren", "TesterShape", "+"),
            (EX + "noa", "ProgrammerShape", "+"),
            (EX + "emin", "ProgrammerShape", "+"),
            (EX + "emin", "UserShape", "+"),
        }
    )


def test_propagation_of_open_and_extra_only_is_empty(issues_graph, issue_shape):
    issue1 = EX + "issue1"
    witness = {}
    for e in issues_graph.neighbourhood(issue1):
        if e.dprop.prop == IS + "reproducedBy" and not e.dprop.inverse:
            witness[e.id] = ExtraSlot(DirectedProperty(IS + "reproducedBy"))
        else:
            witness[e.id] = OpenSlot()
    assert propagation(witness, issues_graph, issue_shape) == frozenset()


def test_propagation_carries_negative_sign(issues_schema, issues_graph):
    low = issues_schema.shapes["LowImpactIssueShape"]
    issue1 = EX + "issue1"
    witness = {}
    for e in issues_graph.neighbourhood(issue1):
        if e.dprop == DirectedProperty(IS + "reportedBy"):
            witness[e.id] = ByConstraint(1)
        elif e.dprop == DirectedProperty(IS + "reproducedBy"):
            witness[e.id] = ByConstraint(2)
        else:
            witness[e.id] = OpenSlot()
    prop = propagation(witness, issues_graph, low)
    assert (EX + "fatima", "ClientShape", "-") in prop
