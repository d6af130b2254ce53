from __future__ import annotations

import random
import time

import pytest

from shexd import (
    check_compatible,
    check_gtw_extra,
    compute_certain_typing,
    flooding_validation,
    parse_schema,
    reference_validate,
    verify_global_typing_witness,
    witness_to_json,
)
from shexd.engine import (
    TUC,
    CertainTyping,
    GlobalTypingWitness,
    backtrack,
    check_request,
    copy_proof,
    maximal_typing_validation,
)
from shexd.errors import (
    IncompatibleInitialTypingError,
    SearchBudgetExceededError,
    UnknownNodeError,
    ValidationError,
    WellDefinednessError,
)
from shexd.randgen import random_instance
from shexd.repair import enumerate_repairs
from shexd.rdf_graph import DirectedProperty, Graph, Iri, Triple
from shexd.schema_model import ByConstraint, ExtraSlot, OpenSlot

from conftest import EX, IS, load_graph, load_schema

ANNOTATED = frozenset(
    {
        (EX + "issue1", "IssueShape", "+"),
        (EX + "issue2", "IssueShape", "+"),
        (EX + "ren", "TesterShape", "+"),
        (EX + "noa", "ProgrammerShape", "+"),
        (EX + "shristi", "ProgrammerShape", "+"),
        (EX + "fatima", "UserShape", "+"),
        (EX + "fatima", "ClientShape", "+"),
        (EX + "emin", "UserShape", "+"),
        (EX + "emin", "ClientShape", "+"),
    }
)
TYPING0 = [(EX + "issue1", "IssueShape", "+"), (EX + "issue2", "IssueShape", "+")]


# --- certain typing -----------------------------------------------------------

def test_certain_typing_running_example(issues_schema, issues_graph):
    certain = compute_certain_typing(issues_graph, issues_schema)
    entries = certain.decided_entries()
    assert (EX + "ren", "TesterShape", "+") in entries
    assert (EX + "noa", "ProgrammerShape", "+") in entries
    assert (EX + "shristi", "ProgrammerShape", "+") in entries
    assert (EX + "emin", "ProgrammerShape", "-") in entries
    assert (EX + "fatima", "ClientShape", "+") in entries
    assert (EX + "emin", "ClientShape", "+") in entries


def test_certain_typing_totality(issues_schema, issues_graph, issues_certain):
    entries = issues_certain.decided_entries()
    decided = {(n, s) for n, s, _ in entries}
    for node in issues_graph.nodes:
        for label in issues_certain.negated:
            assert (node, label) in decided
    signs = {}
    for n, s, sign in entries:
        assert signs.setdefault((n, s), sign) == sign


def test_certain_typing_empty_without_negation(boolean_schema, boolean_graph):
    certain = compute_certain_typing(boolean_graph, boolean_schema)
    assert certain.negated == frozenset()
    assert certain.decided_entries() == frozenset()


def test_certain_typing_is_on_demand(issues_schema, issues_graph):
    certain = CertainTyping(issues_schema, issues_graph)
    assert certain.sign(EX + "ren", "TesterShape") is True
    assert len(certain._memo) < len(issues_graph.nodes) * len(certain.negated)


def test_certain_typing_dies_without_the_cycle_collector(issues_schema, issues_graph):
    # it holds the request's graph, which must go with the request, not at
    # the next collection
    import gc
    import weakref

    gc.disable()
    try:
        certain = CertainTyping(issues_schema, issues_graph)
        certain.decided_entries()
        ref = weakref.ref(certain)
        del certain
        assert ref() is None
    finally:
        gc.enable()


def test_certain_region_labels_only(issues_certain):
    with pytest.raises(ValueError):
        issues_certain.sign(EX + "issue1", "IssueShape")


# --- check_compatible ----------------------------------------------------------

def test_check_compatible_contradiction():
    assert not check_compatible([("a", "S", "+")], [("a", "S", "-")])
    assert check_compatible([("a", "S", "+")], [("b", "S", "-")])
    assert check_compatible([("a", "S", "+")], [("a", "S", "+")])
    assert check_compatible([], [("a", "S", "-")])


def test_example_witness_propagation_conflicts_with_certain(
    issues_schema, issues_graph, issues_certain
):
    from test_matching import paper_witness

    from shexd.matching import propagation

    prop = propagation(
        paper_witness(issues_graph), issues_graph, issues_schema.shapes["IssueShape"]
    )
    certain_entries = issues_certain.decided_entries()
    assert not check_compatible(prop, certain_entries)  # emin is certainly no programmer


# --- check_gtw_extra -------------------------------------------------------------

def test_gtw_extra_accepts_emin_extra(issues_schema, issues_graph, issues_certain):
    from test_matching import edge_of, paper_witness

    w = paper_witness(issues_graph)
    e4 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "emin")
    w[e4.id] = ExtraSlot(DirectedProperty(IS + "reproducedBy"))
    assert check_gtw_extra(issues_schema, "IssueShape", w, issues_certain, issues_graph)


def test_gtw_extra_rejects_extra_on_certain_tester(issues_schema, issues_graph, issues_certain):
    from test_matching import edge_of, paper_witness

    w = paper_witness(issues_graph)
    e2 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "ren")
    w[e2.id] = ExtraSlot(DirectedProperty(IS + "reproducedBy"))
    assert not check_gtw_extra(issues_schema, "IssueShape", w, issues_certain, issues_graph)


def test_gtw_extra_vacuous_without_extra(issues_schema, issues_graph, issues_certain):
    from test_matching import paper_witness

    w = paper_witness(issues_graph)
    assert check_gtw_extra(issues_schema, "IssueShape", w, issues_certain, issues_graph)


# --- flooding on the corpus -------------------------------------------------------

def test_flooding_running_example(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    positives = {e for e in gtw.typing if e[2] == "+"}
    assert ANNOTATED <= positives
    # gtw-sat forces one extra fact: issue2's inverse affectedBy edge types ren a user
    assert positives - ANNOTATED == {(EX + "ren", "UserShape", "+")}
    assert verify_global_typing_witness(gtw, issues_graph, issues_schema, issues_certain)


def test_flooding_issue1_witness_matches_example(issues_schema, issues_graph, issues_certain):
    from test_matching import edge_of

    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    lw = gtw.lw[(EX + "issue1", "IssueShape")]
    e4 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "emin")
    e5 = next(
        e for e in issues_graph.neighbourhood(EX + "issue1") if e.dprop.prop == IS + "dueDate"
    )
    assert lw[e4.id] == ExtraSlot(DirectedProperty(IS + "reproducedBy"))
    assert lw[e5.id] == OpenSlot()


def test_flooding_emin_programmer_fails(issues_schema, issues_graph, issues_certain):
    with pytest.raises(IncompatibleInitialTypingError):
        flooding_validation(
            issues_schema, issues_graph, [(EX + "emin", "ProgrammerShape", "+")],
            certain=issues_certain,
        )


def test_flooding_low_impact_fails(issues_schema, issues_graph, issues_certain):
    with pytest.raises(ValidationError) as err:
        flooding_validation(
            issues_schema, issues_graph, [(EX + "issue1", "LowImpactIssueShape", "+")],
            certain=issues_certain,
        )
    assert (EX + "issue1", "LowImpactIssueShape", "+") in err.value.failed


def test_flooding_repeated_properties_variant(issues_schema):
    graph = load_graph("issues.ttl")
    extra = load_graph("shristi_role.ttl")
    from shexd.rdf_graph import Graph

    merged = Graph(graph.triples + extra.triples)
    certain = CertainTyping(issues_schema, merged)
    assert certain.sign(EX + "shristi", "TesterShape")  # now a tester as well
    gtw = flooding_validation(
        issues_schema, merged, [(EX + "issue2", "IssueShape", "+")], certain=certain
    )
    from test_matching import edge_of

    lw = gtw.lw[(EX + "issue2", "IssueShape")]
    shristi_edge = edge_of(merged, EX + "issue2", IS + "reproducedBy", EX + "shristi")
    ren_edge = edge_of(merged, EX + "issue2", IS + "reproducedBy", EX + "ren")
    assert lw[shristi_edge.id] == ByConstraint(3)
    assert lw[ren_edge.id] == ByConstraint(2)


def test_flooding_without_extra_fails(issues_graph):
    schema = load_schema("issues_noextra.shex")
    with pytest.raises(ValidationError):
        flooding_validation(schema, issues_graph, [(EX + "issue1", "IssueShape", "+")])


def test_flooding_negative_typing0(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(
        issues_schema,
        issues_graph,
        [(EX + "emin", "ProgrammerShape", "-")],
        certain=issues_certain,
    )
    assert (EX + "emin", "ProgrammerShape", "-") in gtw.typing
    assert verify_global_typing_witness(gtw, issues_graph, issues_schema, issues_certain)


def test_flooding_empty_typing0(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, [], certain=issues_certain)
    assert gtw.typing == frozenset() and gtw.lw == {}


def test_flooding_rejects_unknown_node(issues_schema, issues_graph):
    with pytest.raises(UnknownNodeError):
        flooding_validation(issues_schema, issues_graph, [("http://nope/", "IssueShape", "+")])


@pytest.mark.parametrize("run", [
    lambda schema, graph: flooding_validation(schema, graph, []),
    lambda schema, graph: maximal_typing_validation(schema, graph, []),
    lambda schema, graph: enumerate_repairs(graph, schema, [], max_edits=1),
], ids=["flooding", "decider", "repair"])
def test_rejects_ill_defined_schema(issues_graph, run):
    # the decider and the repair checks settle the certain region in their
    # own fixpoint, so they check well-definedness themselves
    schema = parse_schema("PREFIX is: <http://issuetracker.example/ns#>\n<S> { is:p !@<S> }")
    with pytest.raises(WellDefinednessError):
        run(schema, issues_graph)


def test_flooding_never_searches_certain_entries(issues_schema, issues_graph, issues_certain):
    stats = {}
    flooding_validation(
        issues_schema, issues_graph, TYPING0, certain=issues_certain, stats=stats
    )
    searched = set(stats["candidates_checked"])
    for node, label in searched:
        assert not issues_certain.is_negated_label(label)
    assert stats["cert_skips"] >= 5


def test_flooding_agrees_with_lookahead(issues_schema, issues_graph):
    """Look-ahead is gone: the flooding takes no such option (nor does the
    CLI; see ``test_cli.test_validate_lookahead_flag``)."""
    with pytest.raises(TypeError):
        flooding_validation(issues_schema, issues_graph, TYPING0, lookahead=True)


def test_corollary_agreement_with_certain(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    certain_entries = issues_certain.decided_entries()
    for n, s, sign in gtw.typing:
        if issues_certain.is_negated_label(s):
            assert (n, s, sign) in certain_entries


def test_witness_json_deterministic(issues_schema, issues_graph):
    a = witness_to_json(flooding_validation(issues_schema, issues_graph, TYPING0))
    b = witness_to_json(flooding_validation(issues_schema, issues_graph, TYPING0))
    assert a == b and a.encode() == b.encode()


# --- backtracking unit behaviour ----------------------------------------------------

def _tuc_with(requires, hyps):
    tuc = TUC()
    tuc.typing_hyp = dict.fromkeys((n, s, "+") for n, s in hyps)
    tuc.lw_hyp = {h: {"edge": OpenSlot()} for h in hyps}
    tuc.requires = dict.fromkeys(requires)
    return tuc


def test_backtrack_single_requirer():
    A, B = ("a", "S"), ("b", "T")
    tuc = _tuc_with({(A, B)}, [A, B])
    backtrack(B, tuc)
    assert ("b", "T", "+") not in tuc.typing_hyp  # B dropped
    assert ("a", "S", "+") in tuc.typing_hyp  # A re-enqueued
    assert list(tuc.to_check) == [A]
    assert tuc.positions[A] == 1  # advanced to the next candidate
    assert A not in tuc.lw_hyp
    assert tuc.requires == {}


def test_backtrack_chain_invalidates_but_keeps_root():
    A, B, C = ("a", "S"), ("b", "T"), ("c", "U")
    tuc = _tuc_with({(A, B), (B, C)}, [A, B, C])
    backtrack(C, tuc)
    # direct requirer B: removed and re-enqueued with its next candidate
    assert tuc.positions.get(B) == 1
    assert ("b", "T", "+") in tuc.typing_hyp
    # A keeps its position but loses its witness and is re-checked
    assert A not in tuc.lw_hyp
    assert tuc.positions.get(A, 0) == 0
    assert ("a", "S", "+") in tuc.typing_hyp
    assert list(tuc.to_check) == [B, A]
    # C itself is gone
    assert ("c", "U", "+") not in tuc.typing_hyp


def test_backtrack_without_requirers_drops_only_failed():
    F, X = ("f", "S"), ("x", "T")
    tuc = _tuc_with(set(), [F, X])
    backtrack(F, tuc)
    assert ("f", "S", "+") not in tuc.typing_hyp
    assert ("x", "T", "+") in tuc.typing_hyp
    assert list(tuc.to_check) == []


def test_backtrack_sweeps_orphans():
    A, B, C = ("a", "S"), ("b", "T"), ("c", "U")
    # A required B; B required C; failing B should drop C as an orphan
    tuc = _tuc_with({(A, B), (B, C)}, [A, B, C])
    backtrack(B, tuc)
    assert ("c", "U", "+") not in tuc.typing_hyp
    assert ("a", "S", "+") in tuc.typing_hyp and tuc.positions[A] == 1


def test_backtrack_protects_requested_entries():
    A, B = ("a", "S"), ("b", "T")
    # B is a requested root that happens to be required by A as well
    tuc = _tuc_with({(A, B), (B, A)}, [A, B])
    backtrack(A, tuc, protected=frozenset([B]))
    assert ("b", "T", "+") in tuc.typing_hyp


def _state(tuc):
    return (
        list(tuc.typing_hyp), list(tuc.lw_hyp.items()), list(tuc.requires),
        tuc.to_check[tuc.head:], list(tuc.positions.items()), list(tuc.failures),
    )


def test_restore_brings_back_each_logged_state_exactly():
    A, B, C, D = ("a", "S"), ("b", "T"), ("c", "U"), ("d", "V")
    tuc = _tuc_with({(A, B)}, [A, B])
    tuc.to_check = [A, C, D]
    tuc.positions = {A: 1}
    tuc.failures = [("x", "S", 0)]
    states = []

    def choose():
        # as the search does: dequeue, then log a snapshot of the state
        # from before the dequeue
        states.append(_state(tuc))
        tuc.head += 1
        tuc.choice_log.append((tuc.snapshot(), tuc.to_check[tuc.head - 1], 0))

    choose()  # A
    tuc.requires[(C, D)] = None
    tuc.typing_hyp[("d", "V", "+")] = None
    tuc.to_check.append(D)
    choose()  # C: same tables as the first snapshot, longer prefixes
    tuc.lw_hyp[C] = {}
    tuc.failures.append(("c", "U", 0))
    tuc.set_position(C, 1)  # growth: C was not in positions
    tuc.set_position(A, 2)  # a changed position: positions is copied first
    backtrack(B, tuc)  # shrinks typing_hyp and lw_hyp in place, after copying them
    tuc.set_position(A, 3)  # copied already, the snapshots no longer read it
    while tuc.choice_log:
        tuc.restore(tuc.choice_log.pop()[0])
        assert _state(tuc) == states.pop()


# --- copy_proof ------------------------------------------------------------------

def test_copy_proof_brings_certain_witness(issues_schema, issues_graph, issues_certain):
    tuc = TUC()
    copy_proof(EX + "ren", "TesterShape", issues_certain, tuc, issues_graph, issues_schema)
    lw = tuc.lw_hyp[(EX + "ren", "TesterShape")]
    kinds = sorted(type(v).__name__ for v in lw.values())
    assert kinds == ["ByConstraint", "ByConstraint", "OpenSlot", "OpenSlot", "OpenSlot"]
    assert (EX + "ren", "TesterShape", "+") in tuc.typing_hyp
    before = dict(tuc.lw_hyp)
    copy_proof(EX + "ren", "TesterShape", issues_certain, tuc, issues_graph, issues_schema)
    assert tuc.lw_hyp == before  # idempotent


# --- the independent verifier -------------------------------------------------------

def test_verifier_accepts_engine_output(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    assert verify_global_typing_witness(gtw, issues_graph, issues_schema, issues_certain)


def test_verifier_rejects_missing_propagated_entry(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    pruned = GlobalTypingWitness(
        frozenset(e for e in gtw.typing if e != (EX + "ren", "TesterShape", "+")),
        {k: v for k, v in gtw.lw.items() if k != (EX + "ren", "TesterShape")},
    )
    assert not verify_global_typing_witness(pruned, issues_graph, issues_schema, issues_certain)


def test_verifier_rejects_reassigned_extra_edge(issues_schema, issues_graph, issues_certain):
    from test_matching import edge_of

    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    key = (EX + "issue1", "IssueShape")
    e4 = edge_of(issues_graph, EX + "issue1", IS + "reproducedBy", EX + "emin")
    mutated_lw = dict(gtw.lw)
    mutated_lw[key] = {**gtw.lw[key], e4.id: ByConstraint(3)}
    mutated = GlobalTypingWitness(gtw.typing, mutated_lw)
    # now (emin, ProgrammerShape) must be propagated but is not in the typing
    assert not verify_global_typing_witness(mutated, issues_graph, issues_schema, issues_certain)


def test_verifier_rejects_inconsistent_typing(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    doubled = GlobalTypingWitness(
        gtw.typing | {(EX + "ren", "TesterShape", "-")}, dict(gtw.lw)
    )
    assert not verify_global_typing_witness(doubled, issues_graph, issues_schema, issues_certain)


def test_verifier_rejects_uncertified_negative(issues_schema, issues_graph, issues_certain):
    gtw = flooding_validation(issues_schema, issues_graph, TYPING0, certain=issues_certain)
    bad = GlobalTypingWitness(
        gtw.typing | {(EX + "ren", "ProgrammerShape", "+")}, dict(gtw.lw)
    )
    # positive without a local witness: totality fails
    assert not verify_global_typing_witness(bad, issues_graph, issues_schema, issues_certain)
    bad2 = GlobalTypingWitness(
        gtw.typing | {(EX + "noa", "TesterShape", "+")},
        {**gtw.lw, (EX + "noa", "TesterShape"): {}},
    )
    assert not verify_global_typing_witness(bad2, issues_graph, issues_schema, issues_certain)


# --- the reference validator ---------------------------------------------------------

def test_reference_agrees_on_running_example(issues_schema, issues_graph, issues_certain):
    gtw = reference_validate(
        issues_schema, issues_graph, TYPING0, certain=issues_certain, max_nodes=32
    )
    positives = {e for e in gtw.typing if e[2] == "+"}
    assert ANNOTATED <= positives


def test_reference_rejects_emin_programmer(issues_schema, issues_graph, issues_certain):
    with pytest.raises(ValidationError):
        reference_validate(
            issues_schema,
            issues_graph,
            [(EX + "emin", "ProgrammerShape", "+")],
            certain=issues_certain,
            max_nodes=32,
        )


def test_reference_empty_typing0(issues_schema, issues_graph, issues_certain):
    gtw = reference_validate(
        issues_schema, issues_graph, [], certain=issues_certain, max_nodes=32
    )
    assert gtw.typing == frozenset()


def test_reference_node_bound():
    schema, graph, typing0 = random_instance(random.Random(5))
    with pytest.raises(SearchBudgetExceededError):
        reference_validate(schema, graph, typing0, max_nodes=1)


def test_reference_node_bound_never_lists_the_nodes(monkeypatch):
    # Graph.nodes sorts every node id; the bound needs only their number
    schema, graph, typing0 = random_instance(random.Random(5))
    count = len(graph.nodes)
    assert graph.node_count == count > 1

    def listed(self):
        raise AssertionError("Graph.nodes called")

    monkeypatch.setattr(Graph, "nodes", property(listed))
    with pytest.raises(SearchBudgetExceededError) as raised:
        reference_validate(schema, graph, typing0, max_nodes=1)
    assert str(raised.value) == f"{count} nodes exceed the reference bound of 1"


def test_check_request_dedupes_in_linear_time():
    graph = Graph(tuple(
        Triple(Iri(f"{EX}s{i}"), EX + "p", Iri(f"{EX}o{i}")) for i in range(10_000)
    ))
    schema = parse_schema("PREFIX ex: <http://example.org/>\n<S> { ex:p IRI }")
    entries = [(node, "S", "+") for node in graph.nodes]
    assert len(entries) == 20_000
    started = time.perf_counter()
    assert check_request(entries + entries[::-1], graph, schema) == entries
    assert time.perf_counter() - started < 1
    with pytest.raises(UnknownNodeError):
        check_request(entries[:2] * 2 + [(EX + "absent", "S", "+")], graph, schema)


def test_flooding_matches_reference_on_random_instances():
    agree = 0
    for seed in range(120):
        rng = random.Random(9000 + seed)
        schema, graph, typing0 = random_instance(rng)
        certain = CertainTyping(schema, graph)
        try:
            try:
                reference_validate(schema, graph, typing0, certain=certain)
                expected = True
            except ValidationError:
                expected = False
            try:
                gtw = flooding_validation(schema, graph, typing0, certain=certain)
                actual = True
            except ValidationError:
                actual = False
        except SearchBudgetExceededError:
            continue
        assert actual == expected, f"verdicts differ on seed {9000 + seed}"
        if actual:
            assert verify_global_typing_witness(gtw, graph, schema, certain)
        agree += 1
    assert agree >= 100


def test_restores_never_rescue_a_request():
    # the flooding restores an earlier choice only when a run ends without
    # covering the request; on these instances no such run ends valid, so a
    # decision without restores loses no answer
    restoring = 0
    for seed in range(3_000):
        schema, graph, typing0 = random_instance(random.Random(seed))
        stats = {}
        try:
            flooding_validation(schema, graph, typing0, stats=stats)
        except ValidationError:
            restoring += stats["restores"] > 0
            continue
        assert stats["restores"] == 0, f"a restore rescued seed {seed}"
    assert restoring >= 300


def test_bag_bound_surfaces_as_distinct_error():
    from shexd import build_graph, parse_data
    from shexd.errors import BagTooLargeError

    # the [1;2] on a group forces the exhaustive matcher (ids get duplicated
    # by unfolding), so the bag bound is what gates this instance
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { (e:p IRI, e:p IRI) [1;2] }")
    lines = [f"<http://e/n> <http://e/p> <http://e/t{i}> ." for i in range(4)]
    graph = build_graph(parse_data("\n".join(lines), fmt="nt"))
    with pytest.raises(BagTooLargeError):
        flooding_validation(schema, graph, [("http://e/n", "S", "+")], bag_bound=3)
    gtw = flooding_validation(schema, graph, [("http://e/n", "S", "+")])
    assert ("http://e/n", "S", "+") in gtw.typing
