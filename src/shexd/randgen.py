"""Seeded generators for the randomized differential suites.

Two families: single-occurrence expressions with bags, for checking the
interval computation against exhaustive matching; and small schema/graph
instances, for checking the flooding, the maximal-typing decider and the
repair checks against the reference validator and the certain typing.
"""

from __future__ import annotations

import random
from collections import Counter

from .rdf_graph import DirectedProperty, Graph, Iri, Literal, Triple, XSD_INTEGER
from .schema_model import (
    DatatypeSet,
    Empty,
    ExplicitSet,
    Group,
    NodeKind,
    Repetition,
    Schema,
    ShapeDefinition,
    ShapeExpr,
    ShapeRef,
    SomeOf,
    TripleConstraint,
    check_well_defined,
    iter_triple_constraints,
)

_P = "http://rand.example/p"
_N = "http://rand.example/n"
_V = "http://rand.example/v"


def random_expr(rng: random.Random, alphabet: int = 6, depth: int = 4) -> ShapeExpr:
    """A single-occurrence expression in the unfolded fragment: arbitrary
    cardinalities sit only on triple constraints, compound repetitions use
    [0;1], [0;*], or [1;*]."""
    ids = list(range(1, rng.randint(1, alphabet) + 1))
    rng.shuffle(ids)

    def leaf() -> ShapeExpr:
        tc = TripleConstraint(ids.pop(), DirectedProperty(_P), (NodeKind("IRI"),))
        if rng.random() < 0.5:
            lo = rng.randint(0, 3)
            hi = rng.choice([None, lo, lo + 1, lo + 3])
            return Repetition(tc, lo, hi)
        return tc

    def build(budget: int, level: int) -> ShapeExpr:
        if level == 0 or budget <= 1:
            return leaf()
        roll = rng.random()
        if roll < 0.2:
            return Repetition(build(budget, level - 1), *rng.choice([(0, 1), (0, None), (1, None)]))
        width = rng.randint(2, min(3, budget))
        shares = _split(rng, budget, width)
        children = tuple(build(share, level - 1) for share in shares)
        return Group(children) if roll < 0.65 else SomeOf(children)

    return build(len(ids), depth)


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if total > parts else []
    if len(cuts) != parts - 1:
        base = [1] * parts
        for _ in range(total - parts):
            base[rng.randrange(parts)] += 1
        return base
    prev = 0
    out = []
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def random_bag(rng: random.Random, expr: ShapeExpr, total_max: int = 10) -> Counter:
    bag: Counter = Counter()
    total = 0
    for tc in iter_triple_constraints(expr):
        count = rng.randint(0, 4)
        count = min(count, total_max - total)
        total += count
        if count:
            bag[tc.tc_id] = count
    return bag


# --- random validation instances ---------------------------------------------

def _random_value_class(rng: random.Random, my_index: int, n_labels: int):
    roll = rng.random()
    if roll < 0.30:
        return (DatatypeSet(rng.choice(["http://www.w3.org/2001/XMLSchema#string", XSD_INTEGER])),)
    if roll < 0.45:
        return (NodeKind(rng.choice(["IRI", "Literal", "NonLiteral", "BNode"])),)
    if roll < 0.60:
        values = [Iri(f"{_V}{i}") for i in rng.sample(range(4), rng.randint(1, 2))]
        if rng.random() < 0.4:
            values.append(Literal(str(rng.randint(1, 2)), XSD_INTEGER))
        return (ExplicitSet(tuple(values)),)
    target = rng.randrange(n_labels)
    if rng.random() < 0.35 and target > my_index:
        return (ShapeRef(f"S{target}", negated=True),)
    return (ShapeRef(f"S{target}"),)


def _random_shape(rng: random.Random, my_index: int, n_labels: int) -> ShapeDefinition:
    counter = [1]

    def tc() -> TripleConstraint:
        out = TripleConstraint(
            counter[0],
            DirectedProperty(f"{_P}{rng.randrange(3)}", inverse=rng.random() < 0.2),
            _random_value_class(rng, my_index, n_labels),
        )
        counter[0] += 1
        return out

    def build(level: int) -> ShapeExpr:
        roll = rng.random()
        if level == 0 or roll < 0.45:
            leaf = tc()
            if rng.random() < 0.5:
                return Repetition(leaf, *rng.choice([(0, 1), (1, None), (0, None), (1, 2), (2, 3)]))
            return leaf
        if roll < 0.55:
            card = rng.choice([(0, 1), (0, None), (1, None), (1, 2)])
            return Repetition(build(level - 1), *card)
        children = tuple(build(level - 1) for _ in range(rng.randint(2, 3)))
        return Group(children) if roll < 0.8 else SomeOf(children)

    expr = build(rng.randint(1, 2)) if rng.random() < 0.95 else Empty()
    tcs = iter_triple_constraints(expr)
    extra: tuple[DirectedProperty, ...] = ()
    if tcs and rng.random() < 0.25:
        extra = (rng.choice(tcs).dprop,)
    return ShapeDefinition(
        closed_fwd=rng.random() < 0.15,
        closed_inv=rng.random() < 0.10,
        extra=extra,
        expr=expr,
    )


def random_instance(rng: random.Random, max_nodes: int = 8, max_labels: int = 4):
    """A well-defined schema, a small graph, and a typing request.

    Retries internally until the schema is well-defined and the graph is
    within the node bound, so every returned instance is usable.
    """
    while True:
        n_labels = rng.randint(1, max_labels)
        schema = Schema(
            {f"S{i}": _random_shape(rng, i, n_labels) for i in range(n_labels)}
        )
        if check_well_defined(schema) is not None:
            continue
        n_subjects = rng.randint(2, 4)
        triples = []
        for _ in range(rng.randint(3, 9)):
            s = Iri(f"{_N}{rng.randrange(n_subjects)}")
            p = f"{_P}{rng.randrange(3)}"
            if rng.random() < 0.7:
                o = Iri(f"{_N}{rng.randrange(n_subjects)}")
            elif rng.random() < 0.5:
                o = Iri(f"{_V}{rng.randrange(3)}")
            else:
                o = Literal(str(rng.randint(1, 2)), XSD_INTEGER)
            triples.append(Triple(s, p, o))
        graph = Graph(tuple(dict.fromkeys(triples)))
        if not graph.node_count or graph.node_count > max_nodes:
            continue
        fanout = Counter((t.subject, t.prop) for t in graph.triples)
        if fanout and fanout.most_common(1)[0][1] > 3:
            continue
        typing0 = []
        for _ in range(rng.randint(1, 2)):
            node = rng.choice(graph.nodes)
            label = f"S{rng.randrange(n_labels)}"
            typing0.append((node, label, "+"))
        if rng.random() < 0.15:
            negated = sorted(schema.negated_labels)
            if negated:
                typing0.append(
                    (rng.choice(graph.nodes), rng.choice(negated), rng.choice("+-"))
                )
        return schema, graph, list(dict.fromkeys(typing0))
