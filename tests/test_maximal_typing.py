"""The maximal-typing decider against the oracles.

``maximal_typing_validation`` is what a repair check asks. It must give
``reference_validate``'s verdict on random instances, negated requests
included, and agree with the flooding on chains and fan-outs past the
reference validator's node bound, where the answer is known by
construction. Every witness it accepts must verify.
"""

from __future__ import annotations

import random

import pytest

from shexd import flooding_validation, parse_schema, reference_validate
from shexd.engine import (
    CertainTyping,
    LocalWitnessCache,
    maximal_typing_validation,
    verify_global_typing_witness,
)
from shexd.errors import BagTooLargeError, SearchBudgetExceededError, ValidationError
from shexd.randgen import random_instance
from shexd.rdf_graph import XSD_STRING, Graph, Iri, Literal, Triple
from shexd.repair import _edit_atoms, _edit_set, _reference_valid_after, is_valid_after

EX = "http://example.org/"

CHAIN_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<P> { ex:name xsd:string, ex:next @<P> ? }
"""

FANOUT_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<F> { ex:p xsd:string *, ex:p Literal *, ex:must xsd:string }
"""


def decide(schema, graph, typing0, certain):
    """The decider's verdict; an accepted witness must verify."""
    try:
        gtw = maximal_typing_validation(schema, graph, typing0, certain=certain)
    except ValidationError:
        return False
    assert verify_global_typing_witness(gtw, graph, schema, certain)
    return True


def reference(schema, graph, typing0, certain):
    try:
        reference_validate(schema, graph, typing0, certain=certain)
    except ValidationError:
        return False
    return True


def flooding(schema, graph, typing0, certain):
    try:
        flooding_validation(schema, graph, typing0, certain=certain)
    except ValidationError:
        return False
    return True


def test_decider_matches_reference_on_random_instances():
    agree = valid = negated = 0
    for seed in range(3_000):
        schema, graph, typing0 = random_instance(random.Random(seed))
        certain = CertainTyping(schema, graph)
        try:
            expected = reference(schema, graph, typing0, certain)
        except (SearchBudgetExceededError, BagTooLargeError):
            continue
        assert decide(schema, graph, typing0, certain) == expected, f"seed {seed}"
        agree += 1
        valid += expected
        negated += any(label in schema.negated_labels for _, label, _ in typing0)
    assert agree >= 2_900 and valid >= 400 and negated >= 200, (agree, valid, negated)


def test_is_valid_after_matches_the_reference_check():
    # per instance, the unedited graph and then one seeded edit set, both
    # read through one cache as the checks of a repair search share it
    agree = valid = 0
    for seed in range(3_000):
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        cache = LocalWitnessCache(schema, graph)
        atoms = _edit_atoms(graph, schema, 2)
        for edits in (_edit_set(()), _edit_set(rng.sample(atoms, rng.randint(1, 2)))):
            try:
                expected = _reference_valid_after(graph, edits, schema, typing0)
            except (SearchBudgetExceededError, BagTooLargeError):
                continue
            assert is_valid_after(graph, edits, schema, typing0, witnesses=cache) == expected, (
                f"seed {seed}, {edits.size} edits"
            )
            agree += 1
            valid += expected
    assert agree >= 5_800 and valid >= 900, (agree, valid)


def chain_graph(length: int, valid: bool) -> Graph:
    """An ``ex:next`` chain of ``length`` nodes; only a valid one names its
    last node."""
    nodes = [Iri(f"{EX}n{i}") for i in range(length)]
    triples = []
    for i, node in enumerate(nodes):
        if valid or i < length - 1:
            triples.append(Triple(node, EX + "name", Literal(f"name {i}", XSD_STRING)))
        if i < length - 1:
            triples.append(Triple(node, EX + "next", nodes[i + 1]))
    return Graph(tuple(triples))


def fanout_graph(degree: int, valid: bool) -> Graph:
    hub = Iri(EX + "hub")
    triples = [Triple(hub, EX + "p", Literal(f"v{i}", XSD_STRING)) for i in range(degree)]
    if valid:
        triples.append(Triple(hub, EX + "must", Literal("m", XSD_STRING)))
    return Graph(tuple(triples))


@pytest.mark.parametrize("length", [4, 8, 12, 16, 50, 100, 200])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_decider_matches_flooding_on_chains(length, valid):
    schema = parse_schema(CHAIN_SCHEMA)
    graph = chain_graph(length, valid)
    typing0 = [(EX + "n0", "P", "+")]
    certain = CertainTyping(schema, graph)
    assert decide(schema, graph, typing0, certain) == valid
    if valid or length <= 16:
        # the flooding backtracks exponentially on longer invalid chains
        assert flooding(schema, graph, typing0, certain) == valid
    if valid:
        gtw = maximal_typing_validation(schema, graph, typing0, certain=certain)
        assert len(gtw.positives()) == length


@pytest.mark.parametrize("degree", range(2, 15, 3))
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_decider_matches_flooding_on_fanouts(degree, valid):
    schema = parse_schema(FANOUT_SCHEMA)
    graph = fanout_graph(degree, valid)
    typing0 = [(EX + "hub", "F", "+")]
    certain = CertainTyping(schema, graph)
    assert decide(schema, graph, typing0, certain) == valid
    assert flooding(schema, graph, typing0, certain) == valid


def test_cached_witnesses_count_their_full_length():
    # the budget is charged each list's full length, cached or not, so a
    # verdict never depends on what the cache holds
    schema = parse_schema(FANOUT_SCHEMA)
    graph = fanout_graph(4, True)  # 16 local witnesses
    typing0 = [(EX + "hub", "F", "+")]
    cache = LocalWitnessCache(schema, graph)
    with pytest.raises(SearchBudgetExceededError):
        maximal_typing_validation(schema, graph, typing0, witnesses=cache.reader(graph, 15))
    reader = cache.reader(graph, 16)
    maximal_typing_validation(schema, graph, typing0, witnesses=reader)
    assert reader.remaining == 0
    with pytest.raises(SearchBudgetExceededError):
        maximal_typing_validation(schema, graph, typing0, witnesses=cache.reader(graph, 15))
