"""Edited graphs patched onto the base graph's tables against a rebuild.

``repair.apply_edits`` must give exactly the graph that ``Graph`` builds
from the surviving triples followed by the sorted insertions.
"""

from __future__ import annotations

import random

import pytest

from shexd.errors import UnknownNodeError
from shexd.randgen import random_instance
from shexd.rdf_graph import BlankRef, Graph, Iri, Literal, Triple, parse_data
from shexd.repair import EditSet, FreshBlank, apply_edits, insertion_domain

from conftest import DATA, EX, load_graph, load_schema


def rebuilt(graph: Graph, edits: EditSet) -> Graph:
    deleted = {t.key() for t in edits.deletions}
    triples = [t for t in graph.triples if t.key() not in deleted]
    triples.extend(sorted(edits.insertions, key=Triple.key))
    return Graph(tuple(triples), graph.prefixes)


def assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.triples == want.triples
    assert got.prefixes == want.prefixes
    assert got.nodes == want.nodes
    for node in want.nodes:
        assert got.val(node) == want.val(node)  # dataclass equality includes the type
        assert got.neighbourhood(node) == want.neighbourhood(node)
    assert got.edge_by_id == want.edge_by_id


def check(graph: Graph, edits: EditSet) -> Graph:
    got = apply_edits(graph, edits)
    want = rebuilt(graph, edits)
    assert_same_graph(got, want)
    return got


def random_edits(rng: random.Random, graph: Graph, pool: list[Triple]) -> EditSet:
    deletions = set(rng.sample(graph.triples, rng.randint(0, min(3, len(graph.triples)))))
    if rng.random() < 0.3:
        deletions.add(rng.choice(pool))  # a triple the graph does not hold
    insertions = set(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
    if rng.random() < 0.3:
        insertions.add(rng.choice(graph.triples))  # a triple the graph holds
    return EditSet(frozenset(deletions), frozenset(insertions - deletions))


CORPUS = [
    ("issues.shex", ["issues.ttl"]),
    ("issues.shex", ["repairing.ttl"]),
    ("issues.shex", ["issues.ttl", "shristi_role.ttl"]),
    ("boolean.shex", ["boolean.ttl"]),
]


@pytest.mark.parametrize("schema_name, data_names", CORPUS, ids=lambda v: str(v))
def test_corpus_edits_equal_a_rebuild(schema_name, data_names):
    schema = load_schema(schema_name)
    triples = tuple(dict.fromkeys(
        t for name in data_names for t in parse_data((DATA / name).read_text()).triples
    ))
    graph = Graph(triples, {"ex": EX})
    pool = insertion_domain(graph, schema, 2)
    rng = random.Random(len(triples))
    for _ in range(150):
        edited = check(graph, random_edits(rng, graph, pool))
        check(edited, random_edits(rng, edited, pool))  # an edited graph edits alike


def test_random_instance_edits_equal_a_rebuild():
    rng = random.Random(6)
    for _ in range(300):
        schema, graph, _ = random_instance(rng)
        pool = insertion_domain(graph, schema, 2)
        check(graph, random_edits(rng, graph, pool))


def test_deletions_that_strip_nodes():
    graph = load_graph("repairing.ttl")
    for node in graph.nodes:
        at_node = [t for t in graph.triples if node in t.key()[::2]]
        if len(at_node) > 3:
            continue
        edited = check(graph, EditSet(frozenset(at_node), frozenset()))
        assert not edited.has_node(node)
        with pytest.raises(UnknownNodeError):
            edited.neighbourhood(node)
    everything = check(graph, EditSet(frozenset(graph.triples), frozenset()))
    assert everything.nodes == () and everything.edge_by_id == {}


def test_insertions_that_create_nodes():
    graph = load_graph("boolean.ttl")
    fresh = FreshBlank("repair0")
    number = Literal("0", "http://www.w3.org/2001/XMLSchema#integer")
    term = Iri(EX + "term")
    edits = EditSet(frozenset(), frozenset({
        Triple(term, EX + "p", fresh),
        Triple(fresh, EX + "q", number),
        Triple(fresh, EX + "q", Literal("x", lang="en")),
    }))
    edited = check(graph, edits)
    assert {"_:repair0", '"x"@en'} <= set(edited.nodes) - set(graph.nodes)
    # strip a node and give it back through an insertion
    at_term = frozenset(t for t in graph.triples if term in (t.subject, t.obj))
    back = check(graph, EditSet(at_term, frozenset({Triple(term, EX + "p", Iri(EX + "new"))})))
    assert len(back.neighbourhood(EX + "term")) == 1


def test_absent_deletion_and_present_insertion_change_nothing_but_triples():
    graph = load_graph("issues.ttl")
    present = graph.triples[0]
    absent = Triple(Iri(EX + "nobody"), EX + "p", Iri(EX + "nothing"))
    edited = check(graph, EditSet(frozenset({absent}), frozenset({present})))
    assert edited.triples == graph.triples + (present,)
    assert edited.edge_by_id == graph.edge_by_id


def test_one_key_with_two_value_types():
    # <_:b> is an IRI whose key is the blank node _:b's; the first value met wins
    iri_b, blank_b, x = Iri("_:b"), BlankRef("b"), Iri(EX + "x")
    mixed = Graph((Triple(iri_b, EX + "p", x), Triple(blank_b, EX + "q", x)))
    assert mixed.val("_:b") == iri_b
    edited = check(mixed, EditSet(frozenset({Triple(iri_b, EX + "p", x)}), frozenset()))
    assert type(edited.val("_:b")) is not Iri
    plain = Graph((Triple(blank_b, EX + "q", x),))
    made_mixed = check(plain, EditSet(frozenset(), frozenset({Triple(iri_b, EX + "p", x)})))
    check(made_mixed, EditSet(frozenset({Triple(blank_b, EX + "q", x)}), frozenset()))
    swapped = check(plain, EditSet(
        frozenset({Triple(blank_b, EX + "q", x)}), frozenset({Triple(iri_b, EX + "p", x)})
    ))
    assert swapped.val("_:b") == iri_b
