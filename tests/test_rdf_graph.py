from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexd import build_graph, parse_data, to_ntriples
from shexd.errors import ParseError, UnknownNodeError, UnknownPrefixError
from shexd.rdf_graph import (
    RDF_LANG_STRING,
    XSD_DATE,
    XSD_INTEGER,
    XSD_STRING,
    BlankRef,
    DirectedProperty,
    Edge,
    Graph,
    Iri,
    Literal,
    Triple,
    term_key,
)

from conftest import DATA, EX, IS


def test_parse_single_triple():
    data = parse_data("@prefix ex: <http://e/> .\n@prefix is: <http://i/> .\n"
                      "ex:issue1 is:reportedBy ex:fatima .")
    assert data.triples == (
        Triple(Iri("http://e/issue1"), "http://i/reportedBy", Iri("http://e/fatima")),
    )


def test_parse_empty_input():
    assert parse_data("").triples == ()
    assert parse_data("", fmt="nt").triples == ()


def test_parse_corpus_triple_count():
    data = parse_data((DATA / "issues.ttl").read_text())
    assert len(data.triples) == 23  # golden, hand-counted from the listing


def test_parse_deduplicates():
    text = "@prefix ex: <http://e/> .\nex:a ex:p ex:b .\nex:a ex:p ex:b ."
    assert len(parse_data(text).triples) == 1


def test_parse_object_list_and_predicate_list():
    text = "@prefix ex: <http://e/> .\nex:a ex:p ex:b, ex:c ; ex:q 5 ."
    data = parse_data(text)
    assert [t.key() for t in data.triples] == [
        ("http://e/a", "http://e/p", "http://e/b"),
        ("http://e/a", "http://e/p", "http://e/c"),
        ("http://e/a", "http://e/q", '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'),
    ]


def test_parse_typed_and_plain_literals():
    text = ('@prefix ex: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
            'ex:a ex:p "15/12/2015"^^xsd:date .\nex:a ex:q "hi" .')
    lits = [t.obj for t in parse_data(text).triples]
    assert lits[0] == Literal("15/12/2015", XSD_DATE)
    assert lits[1] == Literal("hi", XSD_STRING)


def test_parse_nt_sample():
    data = parse_data((DATA / "sample.nt").read_text(), fmt="nt")
    assert len(data.triples) == 4
    langs = [t.obj for t in data.triples if isinstance(t.obj, Literal) and t.obj.lang]
    assert langs == [Literal("Bob", RDF_LANG_STRING, "en")]
    assert any(isinstance(t.subject, BlankRef) for t in data.triples)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_data("@prefix ex: <http://e/> .\nex:a ex:p %% .")
    assert err.value.line == 2


def test_parse_unknown_prefix():
    with pytest.raises(UnknownPrefixError):
        parse_data("ex:a ex:p ex:b .")


def test_build_graph_doubles_edges():
    g = build_graph(parse_data("@prefix ex: <http://e/> .\nex:a ex:p ex:b ."))
    assert len(g.edges) == 2
    fwd = [e for e in g.edges if not e.dprop.inverse][0]
    inv = [e for e in g.edges if e.dprop.inverse][0]
    assert fwd.inverse_edge() == inv and inv.inverse_edge() == fwd


def test_issue1_neighbourhood(issues_graph):
    edges = issues_graph.neighbourhood(EX + "issue1")
    assert len(edges) == 6
    inverse = [e for e in edges if e.dprop.inverse]
    assert [e.dprop.prop for e in inverse] == [IS + "affectedBy"]
    assert inverse[0].target == EX + "emin"


def test_fatima_neighbourhood(issues_graph):
    edges = issues_graph.neighbourhood(EX + "fatima")
    assert len(edges) == 4
    assert sum(1 for e in edges if not e.dprop.inverse) == 3
    inverse = [e for e in edges if e.dprop.inverse]
    assert [(e.dprop.prop, e.target) for e in inverse] == [(IS + "reportedBy", EX + "issue1")]


def test_literal_with_one_incoming_edge(issues_graph):
    key = term_key(Literal("Ren Traore"))
    edges = issues_graph.neighbourhood(key)
    assert len(edges) == 1 and edges[0].dprop.inverse


def test_self_loop_contributes_both_directions():
    g = build_graph(parse_data("@prefix ex: <http://e/> .\nex:a ex:p ex:a ."))
    edges = g.neighbourhood("http://e/a")
    assert len(edges) == 2
    assert {e.dprop.inverse for e in edges} == {False, True}


def test_unknown_node_raises(issues_graph):
    with pytest.raises(UnknownNodeError):
        issues_graph.neighbourhood("http://nowhere/")


def test_equal_literals_share_a_node():
    g = build_graph(parse_data(
        '@prefix ex: <http://e/> .\nex:a ex:p "x" .\nex:b ex:q "x" .'))
    key = term_key(Literal("x"))
    assert len(g.neighbourhood(key)) == 2  # one inverse edge per triple


def test_distinct_blank_labels_stay_distinct():
    g = build_graph(parse_data(
        "<http://e/a> <http://e/p> _:x .\n<http://e/a> <http://e/p> _:y .", fmt="nt"))
    assert g.has_node("_:x") and g.has_node("_:y")
    assert len(g.triples) == 2


def test_round_trip_through_ntriples(issues_graph):
    dumped = to_ntriples(issues_graph.triples)
    reparsed = build_graph(parse_data(dumped, fmt="nt"))
    assert {t.key() for t in reparsed.triples} == {t.key() for t in issues_graph.triples}
    assert to_ntriples(reparsed.triples) == dumped


_iri = st.sampled_from([Iri(f"http://h.example/n{i}") for i in range(5)])
_lit = st.sampled_from(
    [Literal("a"), Literal("b", lang="en"), Literal("1", XSD_INTEGER)]
)
_blank = st.sampled_from([BlankRef("u"), BlankRef("v")])
_prop = st.sampled_from([f"http://h.example/p{i}" for i in range(3)])
_triple = st.builds(
    Triple, st.one_of(_iri, _blank), _prop, st.one_of(_iri, _blank, _lit)
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_triple, max_size=12))
def test_graph_invariants(triples):
    g = Graph(tuple(dict.fromkeys(triples)))
    assert len(g.edges) == 2 * len(g.triples)
    assert sum(len(g.neighbourhood(n)) for n in g.nodes) == 2 * len(g.triples)
    for n in g.nodes:
        for e in g.neighbourhood(n):
            assert e.source == n
            assert e.inverse_edge() in g.neighbourhood(e.target)
    reparsed = Graph(parse_data(to_ntriples(g.triples), fmt="nt").triples)
    assert {t.key() for t in reparsed.triples} == {t.key() for t in g.triples}


def test_edge_id_format():
    e = Edge.make("a", DirectedProperty("p", inverse=True), "b")
    assert e.id == "a|<|p|b"
    assert Edge.make("a", DirectedProperty("p"), "b").id == "a|>|p|b"
