"""Graph tables against a reference, and graph patches against a rebuild.

``Graph`` must hold the node values, id-sorted neighbourhoods and edges a
direct reading of its triples gives, and ``repair.apply_edits`` must give
exactly the graph that ``Graph`` builds from the surviving triples followed
by the sorted insertions. A repair check reads the edited graph as an
``incremental.GraphPatch`` of the base graph's tables, which must read as
that rebuild does, keep the base graph's tuple at every node no edit
touches, and cost the edits, not the graph.
"""

from __future__ import annotations

import random

import pytest

from shexd.errors import UnknownNodeError
from shexd.incremental import GraphPatch, triple_edges
from shexd.randgen import random_instance
from shexd.rdf_graph import (
    BLANK,
    BlankRef,
    DirectedProperty,
    Edge,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_data,
    term_key,
)
from shexd.repair import EditSet, FreshBlank, apply_edits, insertion_domain

from conftest import DATA, EX, load_graph, load_schema


def assert_matches_reference(graph: Graph) -> None:
    """Compare the tables with ones derived straight from ``graph.triples``."""
    values, edge_by_id, neighbourhoods = {}, {}, {}
    for t in graph.triples:
        s, o = term_key(t.subject), term_key(t.obj)
        for key, term in ((s, t.subject), (o, t.obj)):
            values[key] = BLANK if isinstance(term, BlankRef) else term
        for source, inverse, target in ((s, False, o), (o, True, s)):
            edge_id = f"{source}|{'<' if inverse else '>'}|{t.prop}|{target}"
            edge_by_id[edge_id] = Edge(source, DirectedProperty(t.prop, inverse), target, edge_id)
    for edge_id in sorted(edge_by_id):
        neighbourhoods.setdefault(edge_by_id[edge_id].source, []).append(edge_by_id[edge_id])
    assert graph.nodes == tuple(sorted(values))
    for node, value in values.items():
        assert graph.val(node) == value  # dataclass equality includes the type
        assert graph.neighbourhood(node) == tuple(neighbourhoods[node])
    assert graph.edge_by_id == edge_by_id


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


def patch(graph: Graph, edits: EditSet) -> GraphPatch:
    insertions = sorted(edits.insertions, key=Triple.key)
    return GraphPatch(
        graph, [triple_edges(t) for t in edits.deletions], [triple_edges(t) for t in insertions]
    )


def assert_patch_reads_as(patched: GraphPatch, graph: Graph, got: Graph) -> None:
    """A patch of ``graph`` reads as the edited graph ``got``, and keeps the
    base graph's tuple at every node it does not touch."""
    for node in set(graph.nodes) | set(got.nodes) | set(patched.edits_at):
        assert patched.has_node(node) == got.has_node(node)
        if got.has_node(node):
            assert patched.val(node) == got.val(node)
            assert patched.neighbourhood(node) == got.neighbourhood(node)
            if node not in patched.edits_at:
                assert patched.neighbourhood(node) is graph.neighbourhood(node)
        else:
            with pytest.raises(UnknownNodeError):
                patched.neighbourhood(node)
    for edge_id, edge in got.edge_by_id.items():
        assert patched.edge_by_id[edge_id] == edge
    for edge_id in graph.edge_by_id.keys() - got.edge_by_id.keys():
        with pytest.raises(KeyError):
            patched.edge_by_id[edge_id]


def check(graph: Graph, edits: EditSet) -> Graph:
    got = apply_edits(graph, edits)
    want = rebuilt(graph, edits)
    assert_same_graph(got, want)
    assert_matches_reference(got)
    patched = patch(graph, edits)
    assert_patch_reads_as(patched, graph, got)
    # engine.LocalWitnessCache keys a neighbourhood the patch shares with the
    # base graph by its node alone: its targets must keep their values
    for node in got.nodes:
        edges = patched.neighbourhood(node)
        if graph.has_node(node) and graph.neighbourhood(node) is edges:
            assert all(patched.val(e.target) == graph.val(e.target) for e in edges)
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
    assert_matches_reference(graph)
    pool = insertion_domain(graph, schema, 2)
    rng = random.Random(len(triples))
    for _ in range(150):
        edited = check(graph, random_edits(rng, graph, pool))
        check(edited, random_edits(rng, edited, pool))  # an edited graph edits alike


def test_random_instance_edits_equal_a_rebuild():
    rng = random.Random(6)
    for _ in range(300):
        schema, graph, _ = random_instance(rng)
        assert_matches_reference(graph)
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


def test_one_key_never_names_two_kinds_of_term():
    # the IRI <_:b> and the blank node _:b would share the key _:b
    iri_b, blank_b, x = Iri("_:b"), BlankRef("b"), Iri(EX + "x")
    for triples in (
        (Triple(iri_b, EX + "p", x), Triple(blank_b, EX + "q", x)),
        (Triple(blank_b, EX + "q", x), Triple(iri_b, EX + "p", x)),
    ):
        with pytest.raises(ValueError, match="_:b"):
            Graph(triples)
    plain = Graph((Triple(blank_b, EX + "q", x),))
    with pytest.raises(ValueError, match="_:b"):
        apply_edits(plain, EditSet(frozenset(), frozenset({Triple(x, EX + "p", iri_b)})))
    # once its last triple is deleted, the key may name the other kind
    swapped = check(plain, EditSet(
        frozenset({Triple(blank_b, EX + "q", x)}), frozenset({Triple(iri_b, EX + "p", x)})
    ))
    assert swapped.val("_:b") == iri_b


def test_a_patch_writes_the_same_table_entries_at_any_graph_size():
    # a repair check reads the edited graph through a patch of the base
    # graph's tables: one deletion and one insertion write as many entries
    # on a graph of 1,000 triples as on one of 10, where a copy of the
    # tables would write an entry for every node and edge
    inserted = Triple(Iri(EX + "s0"), EX + "q", Iri(EX + "new"))
    counts = []
    for size in (10, 1_000):
        graph = Graph(tuple(
            Triple(Iri(f"{EX}s{i}"), EX + "p", Iri(f"{EX}o{i}")) for i in range(size)
        ))
        patched = patch(graph, EditSet(frozenset({graph.triples[3]}), frozenset({inserted})))
        for node in patched.edits_at:
            if patched.has_node(node):
                patched.neighbourhood(node)
        tables = (patched.added, patched.removed, patched.gone, patched._values,
                  patched._adjacency, *patched.edits_at.values())
        counts.append(sum(map(len, tables)) + len(patched.edits_at))
        assert patched.has_node(EX + "new") and not patched.has_node(EX + "o3")
    assert counts[0] == counts[1] <= 20
