"""The relevance filter of the repair search against a sweep without it.

``enumerate_repairs`` skips edit sets in which some edit touches no
(node, shape) pair that validation can read. These tests compare it with a
plain sweep over every combination, pin one case for each part of the rule
(each fails when that part is dropped), and bound the number of checks, and
of the enumeration's relevance tests, on the corpus repairs.
"""

from __future__ import annotations

import itertools
import random

import pytest

import shexd.repair
from shexd import (
    build_graph,
    enumerate_repairs,
    incremental,
    is_repair,
    parse_data,
    parse_schema,
)
from shexd.engine import LocalWitnessCache
from shexd.errors import BagTooLargeError, SearchBudgetExceededError, UnknownNodeError
from shexd.randgen import random_instance
from shexd.rdf_graph import XSD_INTEGER, XSD_STRING, Graph, Iri, Literal, Triple
from shexd.repair import (
    EditSet,
    RepairResult,
    _canonical_blank_form,
    _edit_atoms,
    _edit_set,
    _is_fresh_blank,
    _Relevance,
    apply_edits,
    insertion_domain,
    is_valid_after,
)

from conftest import EX, IS, load_graph, load_schema
from test_maximal_typing import passing as passing_sets

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)


def exhaustive_repairs(graph, schema, typing0, max_edits):
    """The breadth-first sweep with no edit set skipped but fresh-blank
    renamings of one already checked."""
    atoms = [("del", t) for t in sorted(graph.triples, key=Triple.key)]
    atoms += [("ins", t) for t in insertion_domain(graph, schema, max_edits)]
    for size in range(max_edits + 1):
        valid = []
        seen = set()
        for combo in itertools.combinations(atoms, size):
            edits = EditSet(
                frozenset(t for kind, t in combo if kind == "del"),
                frozenset(t for kind, t in combo if kind == "ins"),
            )
            canonical = _canonical_blank_form(edits)
            if canonical in seen:
                continue
            seen.add(canonical)
            if is_valid_after(graph, edits, schema, typing0):
                valid.append(edits)
        if valid:
            return RepairResult(size, tuple(sorted(valid, key=EditSet.sort_key)), max_edits)
    return RepairResult(None, (), max_edits)


def assert_same_as_exhaustive(graph, schema, typing0, max_edits):
    """Equal results whenever the exhaustive sweep stays within its resource
    bounds; returns the result, or None when the sweep ran out."""
    try:
        expected = exhaustive_repairs(graph, schema, typing0, max_edits)
    except (BagTooLargeError, SearchBudgetExceededError):
        return None
    result = enumerate_repairs(graph, schema, typing0, max_edits=max_edits)
    assert result == expected
    return result


def _negated_request(rng, schema, graph):
    negated = sorted(schema.negated_labels)
    if not negated:
        return None
    return [(rng.choice(graph.nodes), rng.choice(negated), "-")]


@pytest.mark.parametrize("chunk", range(4))
def test_random_instances_one_edit(chunk):
    rng = random.Random(4100 + chunk)
    compared = 0
    for _ in range(40):
        schema, graph, typing0 = random_instance(rng)
        for request in (typing0, _negated_request(rng, schema, graph)):
            if request and assert_same_as_exhaustive(graph, schema, request, 1) is not None:
                compared += 1
    assert compared >= 40


def test_random_instances_two_edits():
    rng = random.Random(4200)
    compared = repaired = 0
    for _ in range(6):
        schema, graph, typing0 = random_instance(rng)
        for request in (typing0, _negated_request(rng, schema, graph)):
            if not request:
                continue
            result = assert_same_as_exhaustive(graph, schema, request, 2)
            if result is not None:
                compared += 1
                repaired += bool(result.min_size)
    assert compared >= 6 and repaired >= 2


def _case(schema_text, data_text):
    data = "@prefix ex: <http://example.org/> .\n" + data_text
    return parse_schema(PREFIXES + schema_text), build_graph(parse_data(data))


def _keys(result):
    return {
        (tuple(sorted(t.key() for t in e.deletions)), tuple(sorted(t.key() for t in e.insertions)))
        for e in result.repairs
    }


@pytest.mark.parametrize("closed, data", [
    ("CLOSED", "ex:x ex:a ex:y ; ex:b ex:z ."),
    ("^CLOSED", "ex:x ex:a ex:y . ex:z ex:b ex:x ."),
])
def test_closed_shape_fix_deletes_unmentioned_edge(closed, data):
    # the only fix deletes an ex:b edge, a property the shape does not
    # mention: it counts because the shape is closed in that direction
    schema, graph = _case(f"<S> {closed} {{ ex:a IRI }}\n", data)
    result = assert_same_as_exhaustive(graph, schema, [(EX + "x", "S", "+")], 1)
    (edits,) = result.repairs
    assert not edits.insertions
    assert [t.prop for t in edits.deletions] == [EX + "b"]


def test_fresh_blank_reached_through_inserted_edge():
    # <U> is asked of the fresh blank only through the inserted ex:link
    # edge, so the blank's own ex:val insertion counts only when the pairs
    # follow inserted edges
    schema, graph = _case(
        "<T> { ex:link @<U> }\n<U> { ex:val xsd:string }\n", 'ex:t ex:note "n" .'
    )
    result = assert_same_as_exhaustive(graph, schema, [(EX + "t", "T", "+")], 2)
    assert result.min_size == 2
    blank = "_:repair0"
    assert ((), ((blank, EX + "val", '""'), (EX + "t", EX + "link", blank))) in _keys(result)
    assert ((), ((blank, EX + "val", '"n"'), (EX + "t", EX + "link", blank))) in _keys(result)


def test_fix_at_negated_reference_target(issues_schema, repairing_graph):
    # ex:leila is asked !@<ClientShape> through is:reproducedBy; deleting or
    # doubling its client number fixes the issue as low-impact
    result = assert_same_as_exhaustive(
        repairing_graph, issues_schema, [(EX + "issue", "LowImpactIssueShape", "+")], 1
    )
    keys = _keys(result)
    assert (((EX + "leila", IS + "clientNumber",
              '"3"^^<http://www.w3.org/2001/XMLSchema#integer>'),), ()) in keys
    assert (((EX + "issue", IS + "reproducedBy", EX + "leila"),), ()) in keys
    assert any(ins and ins[0][:2] == (EX + "leila", IS + "clientNumber") for _, ins in keys)


def test_negated_request_fix(issues_schema, repairing_graph):
    result = assert_same_as_exhaustive(
        repairing_graph, issues_schema, [(EX + "leila", "ClientShape", "-")], 1
    )
    assert result.min_size == 1
    assert all(
        t.subject.text == EX + "leila" for e in result.repairs
        for t in e.deletions | e.insertions
    )


def test_fix_at_extra_edge_target(issues_schema):
    # ex:tom is a second tester; the EXTRA'd is:reproducedBy edge to it
    # needs <TesterShape> certainly false there, which an edit at ex:tom
    # brings about
    graph = build_graph(parse_data(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix is: <http://issuetracker.example/ns#> .\n"
        "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
        "ex:issue is:reportedBy ex:emma ; is:reproducedBy ex:ron, ex:leila, ex:tom .\n"
        'ex:emma foaf:name "Emma" ; is:clientNumber 1 ; is:affectedBy ex:issue .\n'
        'ex:ron foaf:name "Ron" ; is:role is:someRole .\n'
        'ex:tom foaf:name "Tom" ; is:role is:someRole .\n'
        'ex:leila foaf:name "Leila" ; is:experience is:junior .\n'
    ))
    result = assert_same_as_exhaustive(
        graph, issues_schema, [(EX + "issue", "IssueShape", "+")], 1
    )
    assert result.min_size == 1
    tom_edits = [e for e in result.repairs if any(
        t.subject.text == EX + "tom" for t in e.deletions | e.insertions)]
    assert tom_edits


def test_insertion_keeps_a_stripped_node_in_the_graph():
    # deleting x's only triple fixes <S> but drops x; an insertion at x on a
    # property <S> leaves open keeps it, and counts because x lost a triple
    schema, graph = _case("<S> { ex:a (ex:good) ? }\n", "ex:x ex:a ex:bad .")
    result = assert_same_as_exhaustive(graph, schema, [(EX + "x", "S", "+")], 2)
    assert result.min_size == 2
    assert (((EX + "x", EX + "a", EX + "bad"),), ((EX + "bad", EX + "a", EX + "x"),)) in _keys(result)


def test_a_request_for_a_node_the_graph_lacks_raises():
    # the search checks the request first, as validate and the CLI's
    # repair do: a node no edit set may create, a fresh blank's included
    schema, graph = _case("<S> { }\n", "ex:x ex:p ex:y .")
    for node in ("_:repair0", EX + "z"):
        with pytest.raises(UnknownNodeError):
            enumerate_repairs(graph, schema, [(node, "S", "+")], max_edits=1)


def test_pruned_results_pass_is_repair(issues_schema, repairing_graph):
    typing0 = [(EX + "issue", "LowImpactIssueShape", "+")]
    result = enumerate_repairs(repairing_graph, issues_schema, typing0, max_edits=1)
    for e in result.repairs:
        assert is_repair(repairing_graph, apply_edits(repairing_graph, e), issues_schema, typing0)


def test_is_repair_does_not_use_the_search(monkeypatch, issues_schema, repairing_graph):
    def forbidden(*args, **kwargs):
        raise AssertionError("is_repair must not call enumerate_repairs")

    monkeypatch.setattr(shexd.repair, "enumerate_repairs", forbidden)
    fix = Triple(Iri(EX + "emma"), IS + "clientNumber", Literal("3", XSD_INTEGER))
    fixed = apply_edits(repairing_graph, EditSet(frozenset(), frozenset({fix})))
    assert is_repair(repairing_graph, fixed, issues_schema, [(EX + "issue", "IssueShape", "+")])


# Checks the sweep without the filter makes: 1,009 / 121 / 10,411.
@pytest.mark.parametrize("data, node, shape, max_edits, bound, min_size", [
    ("repairing.ttl", "issue", "IssueShape", 1, 300, 1),
    ("boolean.ttl", "term", "Term", 1, 60, None),
    ("boolean.ttl", "term", "Term", 2, 1_300, 2),
])
def test_check_count_bounds(monkeypatch, data, node, shape, max_edits, bound, min_size):
    schema = load_schema("issues.shex" if data == "repairing.ttl" else "boolean.shex")
    graph = load_graph(data)
    checks = []
    real = shexd.repair.is_valid_after

    def counted(*args, **kwargs):
        checks.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(shexd.repair, "is_valid_after", counted)
    result = enumerate_repairs(graph, schema, [(EX + node, shape, "+")], max_edits=max_edits)
    assert result.min_size == min_size
    assert len(checks) <= bound


# Relevance tests and fresh-blank canonicalisations of the sweep that walks
# every combination: 1,009 and 189 (repairing.ttl, one edit), 10,411 and
# 13,805 (boolean.ttl, two edits). ``sets`` counts the sets of a sweep over
# every edit atom that pass the test and the dedupe, as they did when both
# ran before the screen: each must still be either rejected by the screen
# or checked, so the search checks the same sets. The search's screen
# generates ``GENERATED`` sets of one edit or more, those it passes, and
# each gets a relevance test; the unedited graph is checked without one
# (it got one, which always admits, while size 0 went through the same
# loop, and ``admits`` was one more). (While the screen was asked about each set
# the search built, the checks and the sets it rejected summed to 20 and
# 2,238; to 231 and 2,273 while it saw every one-edit set; 231 and 1,051
# when it ran last.)
GENERATED = {"repairing.ttl": 2, "boolean.ttl": 4}


@pytest.mark.parametrize("data, node, shape, max_edits, tests_bound, canon_bound, sets", [
    ("repairing.ttl", "issue", "IssueShape", 1, 300, 50, 231),
    ("boolean.ttl", "term", "Term", 2, 3_000, 700, 1_051),
])
def test_enumeration_work_bounds(
    monkeypatch, data, node, shape, max_edits, tests_bound, canon_bound, sets
):
    calls = _count_enumeration_work(monkeypatch, data, node, shape, max_edits)
    assert calls["admits"] <= tests_bound
    assert calls["canonical"] <= canon_bound
    assert calls["sets"] == sets
    assert calls["checks"] + calls["screened_passing"] == sets
    assert calls["generated"] == GENERATED[data] == calls["admits"]


# Of the sets that pass the relevance test and the dedupe, the screen
# rejects all but the size-0 check and 2 (of 230) and 4 (of 1,050), which
# is_valid_after decides; every such set was checked when nothing screened
# them. (It rejected 132 of 230 on repairing.ttl, with 98 left to the
# check, when it left every set that edits at a node with certain entries
# to the check.)
@pytest.mark.parametrize("data, node, shape, max_edits, checks, screened", [
    ("repairing.ttl", "issue", "IssueShape", 1, 3, 228),
    ("boolean.ttl", "term", "Term", 2, 5, 1_046),
])
def test_the_screen_leaves_few_full_checks(
    monkeypatch, data, node, shape, max_edits, checks, screened
):
    calls = _count_enumeration_work(monkeypatch, data, node, shape, max_edits)
    assert (calls["checks"], calls["screened_passing"]) == (checks, screened)


# The search made 231 and 2,273 relevance tests while the screen ran after
# the test (233 and 2,791 when every deletion enabled every other edit); it
# now makes 3 and 5 (99 and 5 when the screen left every set that edits at a
# node with certain entries to the check).
@pytest.mark.parametrize("data, node, shape, max_edits, tests_bound", [
    ("repairing.ttl", "issue", "IssueShape", 1, 232),
    ("boolean.ttl", "term", "Term", 2, 2_400),
])
def test_covered_edits_save_relevance_tests(
    monkeypatch, data, node, shape, max_edits, tests_bound
):
    calls = _count_enumeration_work(monkeypatch, data, node, shape, max_edits)
    assert calls["admits"] <= tests_bound


def test_screening_first_spares_the_rejected_sets(monkeypatch):
    # boolean.ttl at two edits: only the size-0 set and the 4 sets the
    # screen passes get a relevance test and an EditSet, and none of them
    # holds a fresh blank (2,273 tests, 616 EditSets and 611
    # canonicalisations when the screen ran last)
    calls = _count_enumeration_work(monkeypatch, "boolean.ttl", "term", "Term", 2)
    assert calls["admits"] <= 10
    assert calls["canonical"] <= 5
    assert calls["edit_sets"] <= 10


def _count_enumeration_work(monkeypatch, data, node, shape, max_edits):
    """Relevance tests, canonicalisations, EditSets, checks and sets the
    screen generates in one search; and, over a sweep of every edit atom's
    sets up to the search's last size, ``sets``: those that pass the
    relevance test and the dedupe, as before the screen, and
    ``screened_passing``: those of them the screen rejects."""
    schema = load_schema("issues.shex" if data == "repairing.ttl" else "boolean.shex")
    graph = load_graph(data)
    request = [(EX + node, shape, "+")]
    calls = dict.fromkeys(
        ("admits", "canonical", "edit_sets", "checks", "generated", "sets", "screened_passing"), 0
    )
    keys = []
    atoms = _edit_atoms(graph, schema, max_edits, keys)
    relevance = _Relevance(graph, schema, request)
    read = [relevance.edit(kind == "ins", key) for (kind, _), key in zip(atoms, keys)]
    cache = LocalWitnessCache(schema, graph)
    assert not is_valid_after(graph, EditSet(frozenset(), frozenset()), schema, request,
                              witnesses=cache)
    screen = incremental.screen_for(cache, request)
    result = enumerate_repairs(graph, schema, request, max_edits=max_edits)
    for size in range(result.min_size + 1 if result.found else max_edits + 1):
        seen = set()
        passing = set(passing_sets(screen, atoms, keys, size))
        for combo in itertools.combinations(range(len(atoms)), size):
            if not relevance.admits([read[i] for i in combo]):
                continue
            if any(_is_fresh_blank(atoms[i][1].subject) or _is_fresh_blank(atoms[i][1].obj)
                   for i in combo):
                canonical = _canonical_blank_form(_edit_set(atoms[i] for i in combo))
                if canonical in seen:
                    continue
                seen.add(canonical)
            calls["sets"] += 1
            calls["screened_passing"] += bool(combo) and combo not in passing

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    real_generate = incremental.Screen._generate

    def generated(self, *args):
        for combo in real_generate(self, *args):
            calls["generated"] += 1
            yield combo

    monkeypatch.setattr(incremental.Screen, "_generate", generated)
    monkeypatch.setattr(shexd.repair._Relevance, "admits",
                        counted("admits", shexd.repair._Relevance.admits))
    monkeypatch.setattr(shexd.repair, "_canonical_blank_form",
                        counted("canonical", _canonical_blank_form))
    monkeypatch.setattr(shexd.repair, "_edit_set", counted("edit_sets", _edit_set))
    monkeypatch.setattr(
        shexd.repair, "is_valid_after", counted("checks", shexd.repair.is_valid_after)
    )
    assert enumerate_repairs(graph, schema, request, max_edits=max_edits) == result
    return calls


def test_relevance_builds_each_edit_end_once(monkeypatch):
    # a 200-link ex:next chain at one edit: 162,812 edit atoms share 1,210
    # distinct ends (node, property, direction), and the graph is asked
    # whether it holds a node once per end, not twice per atom: 1,411 calls
    # with the closure's, against 325,825
    schema = parse_schema(PREFIXES + "<P> { ex:name xsd:string, ex:next @<P> ? }\n")
    nodes = [Iri(f"{EX}n{i}") for i in range(201)]
    graph = Graph(tuple(
        t for i in range(200) for t in (
            Triple(nodes[i], EX + "name", Literal(f"name {i}", XSD_STRING)),
            Triple(nodes[i], EX + "next", nodes[i + 1]),
        )
    ))
    keys = []
    atoms = _edit_atoms(graph, schema, 1, keys)
    ends = {(s, p, False) for s, p, _ in keys} | {(o, p, True) for _, p, o in keys}
    calls = []
    real = Graph.has_node
    monkeypatch.setattr(
        Graph, "has_node", lambda self, node: calls.append(node) or real(self, node)
    )
    relevance = _Relevance(graph, schema, [(EX + "n0", "P", "+")])
    read = [relevance.edit(kind == "ins", key) for (kind, _), key in zip(atoms, keys)]
    assert len(atoms) == 162_812
    assert len(calls) <= 2 * len(ends) < len(atoms) // 10
    assert sum(edit.counts for edit in read) + sum(edit.grows for edit in read) > 0


# ex:x reaches <T> only through an inserted ex:p edge; the graph's own blank
# _:repair0 breaks <T>, so the fix needs a fresh blank besides it
COLLIDING = (
    "<S> { ex:p @<T> }\n<T> { ex:q xsd:integer }\n",
    'ex:x ex:r _:repair0 .\n_:repair0 ex:q "bad" .',
)


def test_fresh_blanks_skip_graph_labels():
    schema, graph = _case(*COLLIDING)
    domain = insertion_domain(graph, schema, 2)
    assert len({t.key() for t in domain}) == len(domain)
    fresh = {t.subject.label for t in domain if _is_fresh_blank(t.subject)}
    assert fresh == {"repair1", "repair2"}
    assert not any(_is_fresh_blank(t.subject) for t in graph.triples)
    _, plain = _case(*COLLIDING[:1], "ex:x ex:r _:b .")
    assert {t.subject.label for t in insertion_domain(plain, schema, 2)
            if _is_fresh_blank(t.subject)} == {"repair0", "repair1"}


def test_graph_blank_named_like_a_fresh_one():
    schema, graph = _case(*COLLIDING)
    typing0 = [(EX + "x", "S", "+")]
    result = assert_same_as_exhaustive(graph, schema, typing0, 2)
    assert _keys(result) == {
        ((), (("_:repair1", EX + "q", '"0"^^<http://www.w3.org/2001/XMLSchema#integer>'),
              (EX + "x", EX + "p", "_:repair1"))),
        ((), ((EX + "x", EX + "p", EX + "x"),
              (EX + "x", EX + "q", '"0"^^<http://www.w3.org/2001/XMLSchema#integer>'))),
    }
    for e in result.repairs:
        assert is_repair(graph, apply_edits(graph, e), schema, typing0)
