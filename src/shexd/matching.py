"""Edge/consumer matching, local witnesses and bag membership for shape expressions.

A node's neighbourhood satisfies a shape definition when every edge can be
assigned a triple consumer (a specific constraint occurrence, an EXTRA slot,
or the open slot) such that the constraint-consumed edges, read as a bag of
constraint ids, belong to the expression's language. Bag membership is
decided by an interval computation on single-occurrence expressions and by
exhaustive search otherwise.

Two enumerations of assignments live here. :func:`candidate_witnesses`
walks the whole product of the per-edge consumer lists and, filtered by
:func:`check_local_witness`, is the oracle side. :func:`local_witnesses`
yields the same witnesses in the same order without walking the product: it
searches the edges that have a choice depth-first and skips a subtree when no
bag of constraint counts its remaining edges can complete passes
:func:`bag_matches`, so a node that satisfies no assignment costs a number
of bag checks polynomial in its degree rather than one check per candidate.
Its leaves are tested by bag only, since the per-edge conditions were applied
before the search. Neither enumeration looks ahead at the opposite nodes:
shape references are settled by propagation, never while matching.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import BagTooLargeError, NotSingleOccurrenceError
from .rdf_graph import BlankValue, Edge, Graph, Iri, Literal, Value
from .schema_model import (
    VALUE_SET_KINDS,
    AtomicConstr,
    ByConstraint,
    DatatypeSet,
    Empty,
    ExtraSlot,
    Group,
    NodeKind,
    OpenSlot,
    Repetition,
    ShapeDefinition,
    ShapeExpr,
    ShapeRef,
    SomeOf,
    TripleConstraint,
    is_single_occurrence,  # noqa: F401  (re-exported)
    iter_triple_constraints,
    unfold_repetitions,  # noqa: F401  (re-exported)
)

DEFAULT_BAG_BOUND = 16

LocalWitness = Mapping[str, object]  # edge id -> TripleConsumer
ConsumerBag = Counter  # ByConstraint id -> multiplicity


# --- atomic value checks ----------------------------------------------------

def value_satisfies(value: Value, atomic: AtomicConstr) -> bool:
    """Does a node value belong to a value-set constraint?"""
    if isinstance(atomic, ShapeRef):
        raise TypeError("shape constraints are checked by propagation, not here")
    if isinstance(atomic, NodeKind):
        if atomic.kind == "IRI":
            return isinstance(value, Iri)
        if atomic.kind == "BNode":
            return isinstance(value, BlankValue)
        if atomic.kind == "Literal":
            return isinstance(value, Literal)
        return isinstance(value, (Iri, BlankValue))  # NonLiteral
    if isinstance(atomic, DatatypeSet):
        return isinstance(value, Literal) and value.datatype == atomic.datatype
    members = atomic.values
    if isinstance(value, BlankValue):
        return any(isinstance(m, BlankValue) for m in members)
    return value in members


def edge_matches(edge: Edge, consumer, shape_def: ShapeDefinition, graph: Graph) -> bool:
    """Can this edge be consumed by the given constraint or EXTRA slot?

    Shape-constraint conjuncts are deliberately ignored: they are enforced
    globally through propagation.
    """
    if isinstance(consumer, OpenSlot):
        raise TypeError("the open slot is never matched edge-wise")
    if isinstance(consumer, ExtraSlot):
        return edge.dprop == consumer.dprop
    tc = shape_def.tc_by_id.get(consumer.tc_id)
    if tc is None or tc.dprop != edge.dprop:
        return False
    target_value = graph.val(edge.target)
    return all(
        value_satisfies(target_value, conj)
        for conj in tc.value_class
        if isinstance(conj, VALUE_SET_KINDS)
    )


# --- candidate enumeration --------------------------------------------------

def matching_consumers(
    edge: Edge,
    shape_def: ShapeDefinition,
    graph: Graph,
) -> list:
    """Consumers this edge may be assigned: constraints by ascending id, then
    the EXTRA slot; just the open slot when the property is unmentioned."""
    tcs = shape_def.tcs_by_dprop.get(edge.dprop, ())
    is_extra = edge.dprop in shape_def.extra
    if not tcs and not is_extra:
        return [OpenSlot()]
    out: list = [
        ByConstraint(tc.tc_id)
        for tc in tcs
        if edge_matches(edge, ByConstraint(tc.tc_id), shape_def, graph)
    ]
    if is_extra:
        out.append(ExtraSlot(edge.dprop))
    return out


def candidate_witnesses(node: str, shape_def: ShapeDefinition, graph: Graph) -> Iterator[dict]:
    """Lazily enumerate total edge-to-consumer assignments.

    Candidates come out in lexicographic order over the canonical edge
    ordering, so the whole engine is deterministic.
    """
    edges = graph.neighbourhood(node)
    lists = [matching_consumers(e, shape_def, graph) for e in edges]
    ids = [e.id for e in edges]
    for combo in itertools.product(*lists):
        yield dict(zip(ids, combo))


def candidate_count(node: str, shape_def: ShapeDefinition, graph: Graph) -> int:
    count = 1
    for e in graph.neighbourhood(node):
        count *= len(matching_consumers(e, shape_def, graph))
    return count


# --- the interval computation -----------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A possibly empty, possibly right-unbounded interval of naturals."""

    lo: int = 1
    hi: int | None = 0  # the default (1, 0) is the canonical empty interval

    @property
    def is_empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def contains(self, n: int) -> bool:
        return not self.is_empty and self.lo <= n and (self.hi is None or n <= self.hi)

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def shift_sum(self, other: "Interval") -> "Interval":
        """Minkowski sum."""
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(self.lo + other.lo, hi)


EMPTY_INTERVAL = Interval(1, 0)
FULL_INTERVAL = Interval(0, None)


def _alphabet(expr: ShapeExpr) -> frozenset[int]:
    return frozenset(tc.tc_id for tc in iter_triple_constraints(expr))


def _repetition_counts(child: Interval, lo: int, hi: int | None) -> Interval:
    """Numbers n of repetitions such that some m in ``child`` fits n*lo <= m <= n*hi."""
    if child.is_empty:
        return EMPTY_INTERVAL
    a, b = child.lo, child.hi
    if a == 0:
        out_lo = 0
    elif hi is None:
        out_lo = 1
    elif hi == 0:
        return EMPTY_INTERVAL  # n*0 can never reach a positive m
    else:
        out_lo = -(-a // hi)
    out_hi = None if lo == 0 or b is None else b // lo
    if out_hi is not None and out_lo > out_hi:
        return EMPTY_INTERVAL
    return Interval(out_lo, out_hi)


def interval(expr: ShapeExpr, bag: Mapping[int, int]) -> Interval:
    """All n with bag ∈ L(expr)^n, for single-occurrence unfolded expressions.

    Raises :class:`NotSingleOccurrenceError` when a constraint id occurs more
    than once; callers then fall back to :func:`brute_match`.
    """
    occurrences = Counter(tc.tc_id for tc in iter_triple_constraints(expr))
    if any(c > 1 for c in occurrences.values()):
        raise NotSingleOccurrenceError("expression repeats a constraint id")
    if any(c > 0 and sym not in occurrences for sym, c in bag.items()):
        return EMPTY_INTERVAL
    return _interval(expr, bag)


def _interval(expr: ShapeExpr, bag: Mapping[int, int]) -> Interval:
    # Each leaf reads only its own count, so children see the whole bag.
    if isinstance(expr, Empty):
        return FULL_INTERVAL
    if isinstance(expr, TripleConstraint):
        c = bag.get(expr.tc_id, 0)
        return Interval(c, c)
    if isinstance(expr, Repetition):
        return _repetition_counts(_interval(expr.child, bag), expr.lo, expr.hi)
    if isinstance(expr, Group):
        out = FULL_INTERVAL
        for child in expr.children:
            out = out.intersect(_interval(child, bag))
        return out
    out = Interval(0, 0)
    for child in expr.children:
        out = out.shift_sum(_interval(child, bag))
    return out


# --- exhaustive bag matching ------------------------------------------------

def brute_match(expr: ShapeExpr, bag: Mapping[int, int], bound: int = DEFAULT_BAG_BOUND) -> bool:
    """Exact bag membership by exhaustive search; the independent oracle.

    Handles arbitrary cardinalities and duplicated constraint ids. Bags
    larger than ``bound`` raise :class:`BagTooLargeError`.
    """
    items = tuple(sorted((s, c) for s, c in bag.items() if c > 0))
    total = sum(c for _, c in items)
    if total > bound:
        raise BagTooLargeError(f"bag of {total} exceeds the bound of {bound}")
    memo: dict = {}
    part_memo: dict = {}

    # Memo keys use object identity: hashing a frozen expression walks it.
    def match(e: ShapeExpr, b: tuple) -> bool:
        key = (id(e), b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = result = _match(e, b)
        return result

    def _match(e: ShapeExpr, b: tuple) -> bool:
        if isinstance(e, Empty):
            return b == ()
        if isinstance(e, TripleConstraint):
            return b == ((e.tc_id, 1),)
        if isinstance(e, SomeOf):
            return any(match(c, b) for c in e.children)
        if isinstance(e, Group):
            return _match_group(e, b)
        return _match_repetition(e, b)

    def _match_group(e: Group, b: tuple) -> bool:
        alphabets = [_alphabet(c) for c in e.children]
        forced: list[dict[int, int]] = [dict() for _ in e.children]
        shared: list[tuple[int, int, list[int]]] = []
        for sym, cnt in b:
            owners = [i for i, alpha in enumerate(alphabets) if sym in alpha]
            if not owners:
                return False
            if len(owners) == 1:
                forced[owners[0]][sym] = cnt
            else:
                shared.append((sym, cnt, owners))

        def assign(idx: int, parts: list[dict[int, int]]) -> bool:
            if idx == len(shared):
                return all(
                    match(child, tuple(sorted(part.items())))
                    for child, part in zip(e.children, parts)
                )
            sym, cnt, owners = shared[idx]
            for split in _compositions(cnt, len(owners)):
                for owner, amount in zip(owners, split):
                    if amount:
                        parts[owner][sym] = amount
                if assign(idx + 1, parts):
                    return True
                for owner in owners:
                    parts[owner].pop(sym, None)
            return False

        return assign(0, forced)

    def _match_repetition(e: Repetition, b: tuple) -> bool:
        if not b:
            return e.lo == 0 or match(e.child, ())
        total_b = sum(c for _, c in b)
        empty_ok = match(e.child, ())
        max_k = total_b if e.hi is None else min(e.hi, total_b)
        for k in range(1, max_k + 1):
            if e.lo <= k or empty_ok:  # pad with empty parts up to lo when allowed
                if _nonempty_partition(e.child, b, k):
                    return True
        return False

    def _nonempty_partition(child: ShapeExpr, b: tuple, k: int) -> bool:
        key = (id(child), b, k)
        hit = part_memo.get(key)
        if hit is not None:
            return hit
        part_memo[key] = result = _nonempty_partition_search(child, b, k)
        return result

    def _nonempty_partition_search(child: ShapeExpr, b: tuple, k: int) -> bool:
        if k == 0:
            return b == ()
        if not b:
            return False
        anchor = b[0][0]
        for sub in _sub_bags(b, anchor):
            if match(child, sub):
                rest = _bag_minus(b, sub)
                if _nonempty_partition(child, rest, k - 1):
                    return True
        return False

    return match(expr, items)


def _compositions(total: int, parts: int):
    """All ways to split ``total`` into ``parts`` ordered non-negative summands."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _sub_bags(b: tuple, anchor: int):
    """Sub-bags of ``b`` that contain the anchor symbol at least once."""
    syms = [s for s, _ in b]
    counts = [c for _, c in b]
    ranges = [
        range(1, c + 1) if s == anchor else range(0, c + 1)
        for s, c in zip(syms, counts)
    ]
    for chosen in itertools.product(*ranges):
        yield tuple((s, c) for s, c in zip(syms, chosen) if c > 0)


def _bag_minus(b: tuple, sub: tuple) -> tuple:
    taken = dict(sub)
    return tuple((s, c - taken.get(s, 0)) for s, c in b if c - taken.get(s, 0) > 0)


def bag_matches(
    shape_def: ShapeDefinition, bag: Mapping[int, int], bound: int = DEFAULT_BAG_BOUND
) -> bool:
    """Decide bag membership in a shape's expression: the interval fast path
    on single-occurrence shapes, the exhaustive fallback otherwise.

    Verdicts are memoized on the shape by sorted non-zero count vector, so
    a repeated bag costs one lookup. Membership does not depend on the bound;
    only the exhaustive path does, by raising :class:`BagTooLargeError` for a
    bag over it. Such a bag is never answered from the memo, whatever an
    earlier call with a larger bound stored, and a raise stores nothing.
    """
    key = tuple(sorted((sym, c) for sym, c in bag.items() if c > 0))
    if not shape_def.single_occurrence and sum(c for _, c in key) > bound:
        return brute_match(shape_def.expr, bag, bound)  # raises BagTooLargeError
    verdicts = shape_def.bag_verdicts
    hit = verdicts.get(key)
    if hit is None:
        if shape_def.single_occurrence:
            hit = interval(shape_def.unfolded, bag).contains(1)
        else:
            hit = brute_match(shape_def.expr, bag, bound)
        verdicts[key] = hit
    return hit


# --- the local witness check ------------------------------------------------

def _edge_admits(edge: Edge, consumer, shape_def: ShapeDefinition, graph: Graph) -> bool:
    """The conditions of a local witness that concern one edge alone."""
    if isinstance(consumer, OpenSlot):
        if edge.dprop in shape_def.tcs_by_dprop or edge.dprop in shape_def.extra:
            return False
        return not (shape_def.closed_inv if edge.dprop.inverse else shape_def.closed_fwd)
    if not edge_matches(edge, consumer, shape_def, graph):
        return False
    if isinstance(consumer, ExtraSlot):
        return not any(
            edge_matches(edge, ByConstraint(tc.tc_id), shape_def, graph)
            for tc in shape_def.value_only_by_dprop.get(edge.dprop, ())
        )
    return True


def _admitted(edge: Edge, shape_def: ShapeDefinition, graph: Graph) -> list:
    """The consumers of :func:`matching_consumers` that pass every per-edge
    condition of a local witness."""
    return [
        c for c in matching_consumers(edge, shape_def, graph)
        if _edge_admits(edge, c, shape_def, graph)
    ]


def check_local_witness(
    witness: LocalWitness,
    node: str,
    shape_def: ShapeDefinition,
    graph: Graph,
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> bool:
    """Is this total assignment a local witness for node vs. shape?

    Checks, edge by edge: assigned consumers actually match their edges;
    EXTRA consumption is not hiding a fully satisfied value-only constraint;
    open edges carry genuinely unmentioned properties; CLOSED / ^CLOSED
    exclude open forward / inverse edges. Then the constraint-consumed
    restriction must satisfy the shape expression as a bag.
    """
    edges = graph.neighbourhood(node)
    if set(witness.keys()) != {e.id for e in edges}:
        return False
    bag: Counter = Counter()
    for edge in edges:
        consumer = witness[edge.id]
        if not _edge_admits(edge, consumer, shape_def, graph):
            return False
        if isinstance(consumer, ByConstraint):
            bag[consumer.tc_id] += 1
    return bag_matches(shape_def, bag, bag_bound)


# --- local witness enumeration ----------------------------------------------

# Most completions one pruning test enumerates; beyond it the subtree is
# searched without the test, as the candidate product would be.
_PRUNE_LIMIT = 1024


def local_witnesses(
    node: str,
    shape_def: ShapeDefinition,
    graph: Graph,
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
    edge_options: dict | None = None,
) -> Iterator[dict]:
    """Lazily enumerate the local witnesses of node vs. shape.

    Yields exactly the candidates of :func:`candidate_witnesses` that pass
    :func:`check_local_witness`, in the same order, and raises
    :class:`BagTooLargeError` at the same point. Consumers that fail a
    per-edge condition are dropped first, edges left with one consumer are
    fixed, and the others are searched depth-first in canonical order.
    Before each branching step the remaining edges are grouped into classes
    (the constraint ids an edge may take, and whether EXTRA may take it);
    the subtree is skipped when no bag those classes can complete passes
    :func:`bag_matches`. A bag whose check raises counts as passing, so the
    leaf that raises in the candidate order is still reached. Every edge
    condition holds by construction, so a leaf is tested by its bag alone.
    The consumers are exactly those of :func:`matching_consumers`: there is
    no look-ahead at the opposite nodes.

    ``edge_options``, when given, memoizes an edge's admitted consumers for
    this shape across calls, keyed by the edge's directed property and its
    target's value: all they depend on.
    """
    edges = graph.neighbourhood(node)
    if edge_options is None:
        options = [_admitted(e, shape_def, graph) for e in edges]
    else:
        options = []
        for e in edges:
            key = (e.dprop, graph.val(e.target))
            opts = edge_options.get(key)
            if opts is None:
                opts = edge_options[key] = _admitted(e, shape_def, graph)
            options.append(opts)
    if not all(options):
        return
    ids = [e.id for e in edges]
    chosen = [opts[0] for opts in options]
    branching = [i for i, opts in enumerate(options) if len(opts) > 1]
    fixed = Counter(
        c.tc_id
        for c, opts in zip(chosen, options)
        if len(opts) == 1 and isinstance(c, ByConstraint)
    )

    # classes[k]: (class, edge count) pairs of the edges branching[k:]
    classes: list[tuple] = [()] * (len(branching) + 1)
    running: Counter = Counter()
    for k in range(len(branching) - 1, -1, -1):
        opts = options[branching[k]]
        tc_ids = tuple(dict.fromkeys(c.tc_id for c in opts if isinstance(c, ByConstraint)))
        running[(tc_ids, any(isinstance(c, ExtraSlot) for c in opts))] += 1
        classes[k] = tuple(running.items())

    def completable(bag: Counter, k: int) -> bool:
        spreads = []
        for (tc_ids, to_extra), count in classes[k]:
            some = list(itertools.islice(_spreads(tc_ids, to_extra, count), _PRUNE_LIMIT + 1))
            if len(some) > _PRUNE_LIMIT:
                return True
            spreads.append(some)
        for n, parts in enumerate(itertools.product(*spreads)):
            if n == _PRUNE_LIMIT:
                return True
            total = bag.copy()
            for part in parts:
                total.update(part)
            try:
                if bag_matches(shape_def, total, bag_bound):
                    return True
            except BagTooLargeError:
                return True
        return False

    bags = [fixed] + [None] * len(branching)  # bags[k]: counts fixed before step k
    cursor = [-1] * len(branching)  # option index taken at each step; -1 before entry
    k = 0
    while k >= 0:
        if k == len(branching):
            if bag_matches(shape_def, bags[k], bag_bound):
                yield dict(zip(ids, chosen))
            k -= 1
            continue
        if cursor[k] < 0 and not completable(bags[k], k):
            k -= 1
            continue
        opts = options[branching[k]]
        cursor[k] += 1
        if cursor[k] == len(opts):
            cursor[k] = -1
            k -= 1
            continue
        consumer = chosen[branching[k]] = opts[cursor[k]]
        bag = bags[k]
        if isinstance(consumer, ByConstraint):
            bag = bag.copy()
            bag[consumer.tc_id] += 1
        bags[k + 1] = bag
        k += 1


def _spreads(tc_ids: tuple[int, ...], to_extra: bool, count: int) -> Iterator[dict[int, int]]:
    """Constraint counts of every way to spread ``count`` interchangeable
    edges over ``tc_ids`` (and over EXTRA, which counts nothing), starting
    with all of them on the first id, where the depth-first search starts."""
    for split in _compositions(count, len(tc_ids) + to_extra):
        # _compositions fills its last part first, so read the parts backwards
        yield {tc_id: n for tc_id, n in zip(tc_ids, reversed(split)) if n}


def propagation(witness: LocalWitness, graph: Graph, shape_def: ShapeDefinition) -> frozenset:
    """Typing requirements a witness imposes on the opposite nodes."""
    tc_index = shape_def.tc_by_id
    out = set()
    for edge_id, consumer in witness.items():
        if not isinstance(consumer, ByConstraint):
            continue
        edge = graph.edge_by_id[edge_id]
        for conj in tc_index[consumer.tc_id].value_class:
            if isinstance(conj, ShapeRef):
                out.add((edge.target, conj.label, "-" if conj.negated else "+"))
    return frozenset(out)
