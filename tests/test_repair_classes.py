"""Repair work by edit classes, and the checked sequence of edit sets
against a plain sweep.

The repair search screens edits by class (``shexd.incremental.Screen``),
never lists every edit atom, and builds an atom only when a generated set
that holds it passes the relevance test; at k edits it builds fresh
blanks for k labels only. None of this may change what is checked: the edit sets passed to
``is_valid_after``, in order, must be those of a plain sweep over
``itertools.combinations`` of every edit atom, less the sets the per-set
screen rule rejects (``rejects_alone``), those a relevance check written
from the ``enumerate_repairs`` docstring rejects, and later fresh-blank
renamings of a set already kept.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random

import pytest

import shexd.repair
from shexd import incremental, parse_schema
from shexd.cli import main
from shexd.engine import LocalWitnessCache
from shexd.errors import BagTooLargeError, SearchBudgetExceededError
from shexd.randgen import random_instance
from shexd.rdf_graph import BlankRef, DirectedProperty, Graph, Iri, Triple
from shexd.repair import (
    EditSet,
    _canonical_blank_form,
    _edit_atoms,
    _edit_set,
    _fresh_labels,
    _in_string_order,
    _is_fresh_blank,
    _Universe,
    enumerate_repairs,
    is_valid_after,
)
from shexd.schema_model import ShapeRef

from conftest import DATA, EX, load_graph, load_schema
from test_maximal_typing import CHAIN_SCHEMA, chain_graph, passing, rejects_alone


def relevant(graph, schema, request, edits: EditSet) -> bool:
    """Does every edit of ``edits`` count at one of its ends? P(E) holds
    the requested pairs and is closed under the reference step over the
    graph's edges, both ways, plus the insertions'; an edit counts at an
    end x when a pair (x, l) of P(E) has shape l mention the edge's
    directed property there, as a constraint or as EXTRA, or close that
    direction, or when the edit is an insertion and x is no node of the
    graph or the set deletes a triple at x."""
    added: dict[str, list] = {}
    for t in edits.insertions:
        s, p, o = t.key()
        added.setdefault(s, []).append((DirectedProperty(p, False), o))
        added.setdefault(o, []).append((DirectedProperty(p, True), s))
    pairs = {(node, label) for node, label, _ in request}
    work = list(pairs)
    while work:
        node, label = work.pop()
        edges = list(added.get(node, ()))
        if graph.has_node(node):
            edges += [(e.dprop, e.target) for e in graph.neighbourhood(node)]
        for dprop, target in edges:
            for tc in schema.shapes[label].tcs_by_dprop.get(dprop, ()):
                for conj in tc.value_class:
                    if isinstance(conj, ShapeRef) and (target, conj.label) not in pairs:
                        pairs.add((target, conj.label))
                        work.append((target, conj.label))
    deleted_at = {node for t in edits.deletions for node in t.key()[::2]}

    def counts(t: Triple, inserts: bool) -> bool:
        s, p, o = t.key()
        for x, dprop in ((s, DirectedProperty(p, False)), (o, DirectedProperty(p, True))):
            for node, label in pairs:
                shape = schema.shapes[label]
                if node == x and (
                    dprop in shape.tcs_by_dprop or dprop in shape.extra
                    or (shape.closed_inv if dprop.inverse else shape.closed_fwd)
                    or inserts and (not graph.has_node(x) or x in deleted_at)
                ):
                    return True
        return False

    return all(counts(t, False) for t in edits.deletions) and all(
        counts(t, True) for t in edits.insertions
    )


def screen_of(schema, graph, request):
    """A screen of the request, as a search builds it once its unedited
    graph has failed; None when the graph is valid or the check built no
    base fixpoint."""
    cache = LocalWitnessCache(schema, graph)
    if is_valid_after(graph, _edit_set(()), schema, request, witnesses=cache):
        return None
    return incremental.screen_for(cache, request)


def plain_sweep(schema, graph, request, max_edits: int, last: int) -> list[EditSet]:
    """The edit sets of sizes 0 to ``last`` a search at ``max_edits``
    checks, from a sweep over every combination of every edit atom."""
    screen = screen_of(schema, graph, request)
    atoms = _edit_atoms(graph, schema, max_edits)
    out = []
    for size in range(last + 1):
        seen = set()
        for combo in itertools.combinations(range(len(atoms)), size):
            edits = _edit_set(atoms[i] for i in combo)
            if not relevant(graph, schema, request, edits):
                continue
            if size and screen is not None and rejects_alone(screen, atoms, combo):
                continue
            if any(_is_fresh_blank(t.subject) or _is_fresh_blank(t.obj)
                   for t in edits.insertions):
                canonical = _canonical_blank_form(edits)
                if canonical in seen:
                    continue
                seen.add(canonical)
            out.append(edits)
    return out


def checked_sets(monkeypatch, schema, graph, request, max_edits):
    """The edit sets the search passes to is_valid_after, in order, and
    the last size it reached; None when a check ran out of its bounds."""
    checked = []
    real = shexd.repair.is_valid_after

    def recorded(graph, edits, *args, **kwargs):
        checked.append(edits)
        return real(graph, edits, *args, **kwargs)

    monkeypatch.setattr(shexd.repair, "is_valid_after", recorded)
    try:
        result = enumerate_repairs(graph, schema, request, max_edits=max_edits)
    except (BagTooLargeError, SearchBudgetExceededError):
        return None
    finally:
        monkeypatch.undo()
    return checked, result.min_size if result.found else max_edits


def pool(seeds):
    """The requests of the screen tests' random instances: each
    instance's typing, and a negated label at a random node."""
    for seed in seeds:
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        requests = [typing0]
        if schema.negated_labels:
            label = rng.choice(sorted(schema.negated_labels))
            requests.append([(rng.choice(graph.nodes), label, rng.choice("+-"))])
        for request in requests:
            yield seed, schema, graph, request


@pytest.mark.parametrize("max_edits, seeds, floor", [
    (1, range(400), 450),
    (2, range(40), 25),
])
def test_checked_sets_match_a_plain_sweep(monkeypatch, max_edits, seeds, floor):
    # at two edits the search's one-edit sets have one fresh blank where the
    # sweep's have two; only requests the search takes past size 1 are
    # swept there, as the others repeat the one-edit case. 461 requests
    # (1,476 checks) at one edit, 29 (736 checks) at two
    compared = 0
    for seed, schema, graph, request in pool(seeds):
        found = checked_sets(monkeypatch, schema, graph, request, max_edits)
        if found is None or max_edits > 1 and found[1] < 2:
            continue
        checked, last = found
        expected = plain_sweep(schema, graph, request, max_edits, last)
        assert checked == expected, (seed, request)
        compared += 1
    assert compared >= floor, compared


def assert_classes_agree(screen, graph, schema, max_edits: int, sizes=(1,)) -> int:
    """At each size of ``sizes``, the sets ``Screen.generate`` yields over
    the search's edits, by class, are in order those the generator yields
    from each atom's kinds (:func:`passing`) over the full list of edit
    atoms with the same fresh blanks; at one edit they are the atoms
    :func:`rejects_alone` passes. Returns the number of classes whose
    multisets the generator decides."""
    decided = []
    real = screen._classes

    def classes(node, universe):
        found = real(node, universe)
        decided.append(len(found[1]))
        return found

    screen._classes = classes
    for size in range(1, max(sizes) + 1):
        labels = _fresh_labels(graph, max_edits, size)
        universe = _Universe(graph, schema, labels)
        keys = []
        atoms = _edit_atoms(graph, schema, max_edits, keys, labels)
        index = {(kind == "ins", key): i for i, ((kind, _), key) in enumerate(zip(atoms, keys))}
        generated = [tuple(index[universe.edit(rank)] for rank in combo)
                     for combo in screen.generate(universe, size)]
        if size not in sizes:
            continue
        assert generated == list(passing(screen, atoms, keys, size)), size
        if size == 1:
            assert generated == [
                (i,) for i in range(len(atoms)) if not rejects_alone(screen, atoms, (i,))
            ]
    return sum(decided)


def test_class_verdicts_match_a_per_set_screen_on_random_instances():
    # every one-edit set of the first 500 instances, and every two-edit set
    # of the first 100
    decided = 0
    for seed, schema, graph, request in pool(range(500)):
        try:
            screen = screen_of(schema, graph, request)
        except (BagTooLargeError, SearchBudgetExceededError):
            continue
        if screen is not None:
            decided += assert_classes_agree(screen, graph, schema, 2, (1, 2) if seed < 100 else (1,))
    # 3,996 classes over the sizes compared (1,861 one-edit insertion classes
    # when only those were classed)
    assert decided >= 1_800, decided


@pytest.mark.parametrize("schema_name, data, node, shape", [
    ("issues.shex", "repairing.ttl", "issue", "IssueShape"),
    ("issues.shex", "repairing.ttl", "issue", "LowImpactIssueShape"),
    ("boolean.shex", "boolean.ttl", "term", "Term"),
])
def test_class_verdicts_match_a_per_set_screen_on_the_corpus(schema_name, data, node, shape):
    schema, graph = load_schema(schema_name), load_graph(data)
    screen = screen_of(schema, graph, [(EX + node, shape, "+")])
    assert assert_classes_agree(screen, graph, schema, 2, (1, 2)) > 0


def test_class_verdicts_match_a_per_set_screen_on_a_chain():
    schema = parse_schema(CHAIN_SCHEMA)
    graph = chain_graph(21, False)
    screen = screen_of(schema, graph, [(EX + "n0", "P", "+")])
    assert assert_classes_agree(screen, graph, schema, 1) <= 10 * 20


def repair_json(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repair", *argv, "--json"])
    return code, out.getvalue()


def count_search_work(monkeypatch) -> dict[str, int]:
    """Patch the search to count the classes whose multisets the screen
    decides and the edit atoms it builds."""
    counts = {"classes": 0, "atoms": 0}
    real_classes = incremental.Screen._classes
    real_atom = shexd.repair._atom

    def classes(self, *args):
        found = real_classes(self, *args)
        counts["classes"] += len(found[1])
        return found

    def atom(*args):
        counts["atoms"] += 1
        return real_atom(*args)

    monkeypatch.setattr(incremental.Screen, "_classes", classes)
    monkeypatch.setattr(shexd.repair, "_atom", atom)
    return counts


BOOLEAN = ["--schema", str(DATA / "boolean.shex"), "--data", str(DATA / "boolean.ttl"),
           "--node", EX + "term", "--shape", "Term"]


def test_a_large_edit_budget_builds_the_atoms_of_a_small_one(monkeypatch):
    # boolean's minimal repairs have two edits. Fresh blanks are built for
    # one label at one edit and two at two, whatever the budget, so at
    # --max-edits 200 the search decides the classes and builds the atoms
    # it does at 2: the 4 atoms of its 4 checked sets. (195 atoms, 15 at
    # one edit and 180 at two, when every atom of each size was built; with
    # every label's blanks built up front it built 209,070, growing as the
    # budget squared, 15.9 s at 120.)
    counts = count_search_work(monkeypatch)
    expected = repair_json([*BOOLEAN, "--max-edits", "2"])
    at_two = dict(counts)
    counts.update(classes=0, atoms=0)
    assert repair_json([*BOOLEAN, "--max-edits", "200"]) == expected
    assert counts == at_two
    assert counts["atoms"] == 4


def test_fresh_labels_are_the_smallest_in_string_order():
    assert list(_in_string_order(13)) == [0, 1, 10, 11, 12, *range(2, 10)]
    for limit in range(1_200):
        assert list(_in_string_order(limit)) == sorted(range(limit), key=str)
    plain = Graph([Triple(Iri(EX + "x"), EX + "p", Iri(EX + "y"))])
    assert _fresh_labels(plain, 2, 1) == ["repair0"]
    assert _fresh_labels(plain, 12, 3) == ["repair0", "repair1", "repair10"]
    assert _fresh_labels(plain, 10**9, 2) == ["repair0", "repair1"]
    # the graph's own _:repair0 takes no label: the twelve are repair1 .. repair12
    taken = Graph([Triple(Iri(EX + "x"), EX + "p", BlankRef("repair0"))])
    assert _fresh_labels(taken, 12, 4) == ["repair1", "repair10", "repair11", "repair12"]
