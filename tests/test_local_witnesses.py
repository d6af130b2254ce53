"""Differential tests of the local-witness search against the candidate product.

``local_witnesses`` must yield exactly the candidates of ``candidate_witnesses``
that pass ``check_local_witness``, in the same order, and raise
``BagTooLargeError`` after the same prefix, on every input family below.
"""

from __future__ import annotations

import random

import pytest

import shexd.matching
from shexd import flooding_validation
from shexd.errors import BagTooLargeError, ValidationError
from shexd.matching import candidate_witnesses, check_local_witness, local_witnesses
from shexd.randgen import random_instance
from shexd.rdf_graph import Graph, Iri, Literal, Triple
from shexd.shexc import parse_schema

from conftest import load_graph, load_schema

FANOUT = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<F> { ex:p xsd:string *, ex:p Literal *, ex:must xsd:string }
"""

# The first assignment (every edge on the first constraint) fails and later
# ones pass, so the search must look past the first completion.
SPLIT = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<F> { ex:p xsd:string *, ex:p Literal [2;2], ex:must xsd:string }
"""

# Two classes of interchangeable edges, one per property.
TWO_CLASSES = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<F> { ex:p xsd:string *, ex:p Literal [2;2], ex:q xsd:string *, ex:q Literal [1;1],
      ex:must xsd:string }
"""

# Unfolding [1;2] on a group copies its constraints, so this shape is not
# single-occurrence and its bags go to the exhaustive matcher.
DUPLICATED = """PREFIX ex: <http://example.org/>
<S> { (ex:p IRI, ex:p IRI) [1;2] }
"""

EX = "http://example.org/"


def _filtered(node, shape_def, graph, **kwargs):
    """The oracle: the candidate product filtered by the local check, plus
    whether the enumeration stopped on BagTooLargeError."""
    bag_bound = kwargs.pop("bag_bound", shexd.matching.DEFAULT_BAG_BOUND)
    out = []
    try:
        for cand in candidate_witnesses(node, shape_def, graph, **kwargs):
            if check_local_witness(cand, node, shape_def, graph, bag_bound=bag_bound):
                out.append(cand)
    except BagTooLargeError:
        return out, True
    return out, False


def _searched(node, shape_def, graph, **kwargs):
    out = []
    try:
        for witness in local_witnesses(node, shape_def, graph, **kwargs):
            out.append(witness)
    except BagTooLargeError:
        return out, True
    return out, False


def assert_same(node, shape_def, graph, **kwargs):
    expected = _filtered(node, shape_def, graph, **kwargs)
    got = _searched(node, shape_def, graph, **kwargs)
    assert got == expected
    # dict equality ignores order; the witnesses also list edges alike
    assert [list(w.items()) for w in got[0]] == [list(w.items()) for w in expected[0]]
    return got


def fanout_graph(degree: int, valid: bool, props=("p",)) -> tuple[Graph, str]:
    """A hub with ``degree`` string-valued edges on each of ``props``."""
    hub = Iri(EX + "hub")
    # an incoming edge keeps the hub in the graph at degree 0; ^ex:seen is open
    triples = [Triple(Iri(EX + "other"), EX + "seen", hub)]
    triples += [
        Triple(hub, EX + prop, Literal(f"v{i:02d}")) for prop in props for i in range(degree)
    ]
    if valid:
        triples.append(Triple(hub, EX + "must", Literal("yes")))
    return Graph(tuple(triples)), hub.text


def test_random_instances_agree():
    cases = raised = yielded = 0
    for seed in range(700):
        schema, graph, _ = random_instance(random.Random(seed))
        for node in graph.nodes:
            for shape_def in schema.shapes.values():
                for bag_bound in (0, 1, 2, 16):
                    witnesses, hit_bound = assert_same(
                        node, shape_def, graph, bag_bound=bag_bound
                    )
                    cases += 1
                    raised += hit_bound
                    yielded += bool(witnesses)
    # the families are exercised, not just the empty answer
    assert cases > 25_000
    assert raised > 20 and yielded > 1_000


@pytest.mark.parametrize("valid", [False, True])
def test_fanouts_agree(valid):
    shape_def = parse_schema(FANOUT).shapes["F"]
    for degree in range(13):
        graph, hub = fanout_graph(degree, valid)
        witnesses, _ = assert_same(hub, shape_def, graph)
        assert len(witnesses) == (2**degree if valid else 0)


def test_split_fanouts_agree():
    shape_def = parse_schema(SPLIT).shapes["F"]
    for degree in range(11):
        graph, hub = fanout_graph(degree, True)
        witnesses, _ = assert_same(hub, shape_def, graph)
        assert len(witnesses) == degree * (degree - 1) // 2
    shape_def = parse_schema(TWO_CLASSES).shapes["F"]
    for degree in range(6):
        graph, hub = fanout_graph(degree, True, props=("p", "q"))
        witnesses, _ = assert_same(hub, shape_def, graph)
        assert len(witnesses) == degree * (degree - 1) // 2 * degree


@pytest.mark.parametrize("limit", [1, 3])
def test_search_past_the_prune_limit_agrees(limit, monkeypatch):
    # Past the limit a subtree is searched without the bag test; keep the
    # answers and their order.
    monkeypatch.setattr(shexd.matching, "_PRUNE_LIMIT", limit)
    for text, props in ((FANOUT, ("p",)), (SPLIT, ("p",)), (TWO_CLASSES, ("p", "q"))):
        shape_def = parse_schema(text).shapes["F"]
        for degree in range(5):
            for valid in (False, True):
                graph, hub = fanout_graph(degree, valid, props)
                assert_same(hub, shape_def, graph)
    for seed in range(100):
        schema, graph, _ = random_instance(random.Random(seed))
        for node in graph.nodes:
            for shape_def in schema.shapes.values():
                assert_same(node, shape_def, graph, bag_bound=2)


@pytest.mark.parametrize(
    "schema_name, data_name",
    [
        ("issues.shex", "issues.ttl"),
        ("issues_noextra.shex", "issues.ttl"),
        ("issues.shex", "repairing.ttl"),
        ("boolean.shex", "boolean.ttl"),
    ],
)
@pytest.mark.parametrize("pruned", [False, True])
def test_corpus_nodes_agree(schema_name, data_name, pruned, monkeypatch):
    # Unpruned, every branching step is searched without the bag test.
    if not pruned:
        monkeypatch.setattr(shexd.matching, "_PRUNE_LIMIT", 0)
    schema, graph = load_schema(schema_name), load_graph(data_name)
    for node in graph.nodes:
        for shape_def in schema.shapes.values():
            assert_same(node, shape_def, graph)


def test_duplicated_shape_past_the_bag_bound_raises_at_the_same_point():
    shape_def = parse_schema(DUPLICATED).shapes["S"]
    assert shape_def.membership is None
    hub = Iri(EX + "n")
    graph = Graph(tuple(Triple(hub, EX + "p", Iri(f"{EX}t{i}")) for i in range(4)))
    for bag_bound in (3, 4):
        witnesses, hit_bound = assert_same(hub.text, shape_def, graph, bag_bound=bag_bound)
        assert hit_bound == (bag_bound < 4)
        assert witnesses or hit_bound


def test_invalid_fanout_costs_few_bag_checks(monkeypatch):
    calls = []
    original = shexd.matching.bag_matches

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(shexd.matching, "bag_matches", counted)
    schema = parse_schema(FANOUT)
    graph, hub = fanout_graph(20, valid=False)
    assert list(local_witnesses(hub, schema.shapes["F"], graph)) == []
    # one check per way to split 20 edges over two constraints
    assert len(calls) == 21
    with pytest.raises(ValidationError):
        flooding_validation(schema, graph, [(hub, "F", "+")])
    assert len(calls) <= 100
