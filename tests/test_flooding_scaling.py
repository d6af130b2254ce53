"""The flooding search on a valid request grows its state linearly."""

from __future__ import annotations

import random
import tracemalloc

from shexd import flooding_validation, parse_schema
from shexd.rdf_graph import XSD_STRING, Graph, Iri, Literal, Triple

EX = "http://example.org/"

KNOWS_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Person> {
  ex:name xsd:string,
  ex:knows @<Person> *,
  ex:worksFor @<Org> ?,
  ex:rival !@<Org> * }

<Org> { ex:legalName xsd:string }
"""


def knows_graph(rng: random.Random, persons: int) -> Graph:
    """Persons who each know the next one on a shuffled ring and one other,
    so every person reaches all of them; about half work for one of
    ``persons // 20`` organisations and about half have a person as rival."""
    people = [Iri(f"{EX}p{i}") for i in range(persons)]
    orgs = [Iri(f"{EX}org{i}") for i in range(persons // 20)]
    ring = list(range(persons))
    rng.shuffle(ring)
    triples = []
    for k, i in enumerate(ring):
        person = people[i]
        other = rng.randrange(persons)
        while other in (i, ring[(k + 1) % persons]):
            other = rng.randrange(persons)
        triples += [
            Triple(person, EX + "name", Literal(f"p{i}", XSD_STRING)),
            Triple(person, EX + "knows", people[ring[(k + 1) % persons]]),
            Triple(person, EX + "knows", people[other]),
        ]
        if rng.random() < 0.5:
            triples.append(Triple(person, EX + "worksFor", rng.choice(orgs)))
        if rng.random() < 0.5:
            triples.append(Triple(person, EX + "rival", rng.choice(people)))
    triples += [Triple(org, EX + "legalName", Literal(org.text, XSD_STRING)) for org in orgs]
    return Graph(tuple(triples))


def peak_bytes(persons: int) -> int:
    schema = parse_schema(KNOWS_SCHEMA)
    graph = knows_graph(random.Random(persons), persons)
    tracemalloc.start()
    try:
        gtw = flooding_validation(schema, graph, [(f"{EX}p0", "Person", "+")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(1 for _, label in gtw.positives() if label == "Person") == persons
    return peak


def test_valid_request_memory_grows_linearly():
    # a snapshot that copied the search state made this ratio about 4
    small, large = peak_bytes(400), peak_bytes(800)
    assert large < 2.5 * small, (small, large)
