"""What the checks of a repair search read: the edited graph as a patch of
the search's graph, and the screen that generates only the edit sets
whose check can differ from the unedited graph's.

Each check decides its edit set by ``engine.maximal_typing_validation`` on
a :class:`GraphPatch` of the search's graph, from scratch, reading local
witnesses through the search's ``LocalWitnessCache``; so a pair whose
neighbourhood the set leaves alone is enumerated once per search. The
:class:`Screen` reads the request's fixpoint over the unedited graph.
``repair.is_valid_after`` loads this module on its first check, so
``import shexd`` does not compile it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter
from typing import Iterable

from .engine import (
    Hypothesis,
    LocalWitnessCache,
    TypingEntry,
    _Fixpoint,
    _requested,
    check_request,
)
from .errors import ShexdError, UnknownNodeError
from .matching import _assignments, admitted_options, bag_matches, open_only
from .rdf_graph import (
    DirectedProperty,
    Edge,
    Graph,
    Term,
    Triple,
    Value,
    _by_id,
    _edge_pair,
    term_key,
    term_to_value,
)
from .schema_model import VALUE_SET_KINDS, ByConstraint, ShapeRef


def triple_edges(t: Triple) -> tuple[Edge, Edge, Value, Value]:
    """The forward and the inverse edge of a triple, and the values of its
    subject and its object: what :class:`GraphPatch` needs of an edit."""
    fwd, inv = _edge_pair(term_key(t.subject), t.prop, term_key(t.obj))
    return fwd, inv, term_to_value(t.subject), term_to_value(t.obj)


class GraphPatch:
    """An edited graph, read through the base graph's tables: it reads as
    ``repair.apply_edits`` builds the edited graph from scratch.

    It holds only what the edits change: the edges removed or added at each
    node they touch (``edits_at``), the nodes left with no edge, the value
    of each node the base graph does not hold with its kind, and the added
    and removed edges. A touched node's neighbourhood tuple is built when it
    is first read; every other node keeps the base graph's tuple, the very
    object. So a patch costs the edits and the degrees of the nodes read,
    whatever the size of the graph. It offers the reads of validation and
    of the verifier (``has_node``, ``val``, ``neighbourhood`` and
    ``edge_by_id[id]``), not the triples.

    ``deletions`` and ``insertions`` are lists of :func:`triple_edges`
    tuples, the insertions in triple order; a deletion of an absent
    triple, or an insertion of a present one, changes nothing. As in
    ``Graph``, an insertion that gives a node key a second kind of term
    raises ``ValueError``.
    """

    def __init__(self, base: Graph, deletions: list[tuple], insertions: list[tuple]):
        self.base = base
        self.added: dict[str, Edge] = {}
        self.removed: set[str] = set()
        self.edits_at: dict[str, list[Edge]] = {}  # node -> the edges removed or added there
        self.gone: set[str] = set()  # nodes left with no edge
        self._values: dict[str, Value] = {}
        self._adjacency: dict[str, tuple[Edge, ...]] = {}  # the touched nodes read so far
        added, removed, edited, base_edges = self.added, self.removed, self.edits_at, base.edge_by_id
        for fwd, inv, _, _ in deletions:
            if fwd.id in base_edges and fwd.id not in removed:
                for e in (fwd, inv):
                    removed.add(e.id)
                    edited.setdefault(e.source, []).append(e)
        for node, lost in edited.items():
            if len(lost) == len(base._adjacency[node]):
                self.gone.add(node)
        for fwd, inv, subject_value, object_value in insertions:
            self._settle_value(fwd.source, subject_value)
            self._settle_value(fwd.target, object_value)
            if fwd.id in added or (fwd.id in base_edges and fwd.id not in removed):
                continue
            for e in (fwd, inv):
                added[e.id] = e
                edited.setdefault(e.source, []).append(e)
                self.gone.discard(e.source)

    def _settle_value(self, node: str, value: Value) -> None:
        known = self._values.get(node)
        if known is None and node not in self.gone:
            known = self.base._values.get(node)
        if known is None:
            self._values[node] = value
        elif type(known) is not type(value):
            raise ValueError(f"data key {node!r} names two kinds of term")

    def has_node(self, node: str) -> bool:
        if node in self.edits_at:
            return node not in self.gone
        return node in self.base._values

    def val(self, node: str) -> Value:
        value = self._values.get(node)
        if value is None:
            if node in self.gone:
                raise UnknownNodeError(f"no node {node!r} in graph")
            value = self.base.val(node)
        return value

    def neighbourhood(self, node: str) -> tuple[Edge, ...]:
        found = self._adjacency.get(node)
        if found is not None:
            return found
        changes = self.edits_at.get(node)
        if changes is None:
            return self.base.neighbourhood(node)
        if node in self.gone:
            raise UnknownNodeError(f"no node {node!r} in graph")
        removed, added = self.removed, self.added
        kept = [e for e in self.base._adjacency.get(node, ()) if e.id not in removed]
        kept.extend(e for e in changes if e.id in added)
        found = self._adjacency[node] = _by_id(kept)
        return found

    @property
    def edge_by_id(self) -> "GraphPatch":
        return self  # read through __getitem__

    def __getitem__(self, edge_id: str) -> Edge:
        """``edge_by_id[edge_id]``: an added edge, or a base edge not removed."""
        edge = self.added.get(edge_id)
        if edge is None:
            if edge_id in self.removed:
                raise KeyError(edge_id)
            edge = self.base.edge_by_id[edge_id]
        return edge


def patch(cache: LocalWitnessCache, deletions: Iterable[Triple], insertions: Iterable[Triple]) -> GraphPatch:
    """The cache's graph with the deletions and insertions applied, as a
    :class:`GraphPatch` that reads as ``repair.apply_edits`` builds it. Each
    triple's edges are built once per cache."""
    memo = cache._triple_edges

    def edges(t: Triple) -> tuple:
        found = memo.get(id(t))
        if found is None or found[0] is not t:
            found = memo[id(t)] = (t, triple_edges(t))
        return found[1]

    inserted = [edges(t) for t in insertions]
    if len(inserted) > 1:
        inserted.sort(key=lambda e: (e[0].source, e[0].dprop.prop, e[0].target))  # Triple.key
    return GraphPatch(cache.graph, [edges(t) for t in deletions], inserted)


def screen_for(cache: LocalWitnessCache, typing0: Iterable[TypingEntry]) -> Screen:
    """The :class:`Screen` of a repair search whose unedited graph has
    failed the request: it reads the request's fixpoint over that graph,
    with the requested signs decided first. The check of the unedited graph
    ran the same fixpoint under a check's budget and left its witnesses in
    the cache, so this one reads them without a budget."""
    graph, schema = cache.graph, cache.schema
    base = _Fixpoint(schema, cache.reader(graph))
    entries = check_request(typing0, graph, schema)
    for node, label, _ in entries:
        if label in base.region:
            base.sign(node, label)
    base.run(_requested(entries, base.region))
    return Screen(cache, base)


class Screen:
    """Tells apart, without a patch, the edit sets whose check can only
    return the base verdict, in a search whose unedited graph fails the
    request: those it *rejects*; the others *pass*.

    The screen reads a set node by node. The *keys* of a node are its base
    pairs (the pairs the request's fixpoint over the unedited graph read
    there), followed by the certain entries that fixpoint decided there
    (its ``decided_at``). A key is *changed* at a node the set edits
    unless the node keeps an edge and the key's shape leaves every edited
    edge there to the open slot (:func:`open_only`). A set is rejected
    when, at every node it touches:

    1. the node keeps an edge, unless it holds no certain entry; and every
       changed certain entry was false in the base;
    2. no changed key has a local witness on the edited graph.

    Why that is sound: the check of a rejected set, the maximal typing of
    its patch, fails as the base did. An unchanged key at an edited node
    has the base's local witnesses, with the edited edges open, so the
    same bags, needs and EXTRA edges; a key at an untouched node reads the
    same edges and the same targets' values. The certain region is
    acyclic, so its entries can be taken in the order of their labels'
    dependencies; a changed entry was false and still has no local
    witness, so, by induction, every sign the base decided holds on the
    patch, and each dropped consumer (below) stays unusable. The requested
    signs were decided by the base, so they are the base's. Then, walking
    the check's pairs from the request, each is a base pair: a changed
    one has no local witness on the patch, and an unchanged one has
    exactly the base's usable witnesses, whose needs are base pairs. So
    every pair alive on the patch has the base's usable witnesses, with
    its support's needs alive: the alive pairs form a post-fixed point of
    the base's fixpoint, which is the greatest, so they were alive there.
    The base failed the request, so the check does too.

    (2) needs no patch. An edge's admitted consumers depend only on its
    directed property and its target's value (:func:`admitted_options`),
    and a key has a local witness exactly when :func:`_assignments` yields
    over the multiset of its edges' consumer lists: the base node's, minus
    the deleted edges' lists, plus the inserted edges'. A multiset whose
    lists each hold one consumer is decided by :func:`bag_matches` on its
    count vector; any other, by a search memoized per label and multiset,
    and when that raises (``BagTooLargeError``) the set goes to the full
    check. Each list drops a constraint consumer that references a
    negated label L, with ``@<L>`` or ``!@<L>``, against the sign the base
    decided for (target, L): it would propagate a fact the unchanged sign
    contradicts. A target the base never decided keeps every consumer.

    So an edit is read only through the *kinds* of its ends at nodes with
    keys (two for a self-loop): whether the end inserts, and per key there
    whether its shape leaves the end's directed property to the open slot
    and the id of the end's consumer list. A set's verdict is the
    conjunction of its nodes' verdicts, and a node's verdict reads only
    the sorted kinds of the ends there, so each is decided once (edits
    alike at a node are interchangeable there: Freuder, AAAI 1991). Fresh
    blanks never hold keys or decided signs and all have one value, so
    renaming them keeps a set's kinds. An *inert* end inserts at a node
    each of whose keys leaves its property open: added to ends that keep
    the node an edge it leaves their verdict as it is, and inert ends
    alone reject. An end that inserts an edge no key at its node has a
    consumer for, at a node whose certain entries were all false, rejects
    there whatever the other ends (a deletion removes only a base edge, so
    the edge's empty list stays in each key's multiset).

    The edits with an end at a node x fall into *classes* by their sorted
    kinds there, counted without listing them (:meth:`_classes`): the
    deletions of x's edges, the self-loops, and the insertions on a
    directed property whose far nodes have the same cells under x's keys
    (:meth:`_group`, kept for the search, so a later size adds only its new
    fresh blank). A set passes exactly when its *group* at some x, its
    edits with an end at x that is not inert, passes there; so the passing
    sets of k edits are the unions of a passing group G with k - |G|
    edits with no end at x, or only inert ones. :meth:`generate` decides
    each multiset of 1 to k classes at each node once, leaving out the
    classes that reject alone, lists the edits of a passing multiset's
    classes, and extends each group they form by its *pool*, the edits
    named above, listed once per node and size and only for a group
    smaller than k. A group that strips x is extended by edits with no end
    at x, or, if its verdict with an inert end added passes, by sets of
    those and the inert edits that hold one of the latter. An edit is
    named by its rank in the list of every edit, which is never built
    (``repair._Universe``); merging a fixed group into the combinations of
    disjoint edits keeps their order, so the union over the nodes is
    merged, without repeats, in combination order.
    """

    def __init__(self, cache: LocalWitnessCache, base: _Fixpoint):
        self.base = base
        self.bag_bound = cache.bag_bound
        self._edge_options = cache._edge_options
        schema = base.schema
        self._keys_at: dict[str, list[Hypothesis]] = {}  # node -> base pairs, then certain entries
        for node, found in base.at_node.items():
            self._keys_at[node] = list(found)
        for node, found in base.decided_at.items():
            self._keys_at.setdefault(node, []).extend(found)
        self._labels_at = {node: tuple(k[1] for k in keys) for node, keys in self._keys_at.items()}
        # label -> {constraint id: the (label, negated?) of its negated references}
        self._negated_refs: dict[str, dict[int, tuple]] = {}
        for label, shape_def in schema.shapes.items():
            refs = {}
            for tc in shape_def.tcs:
                found = tuple(
                    (c.label, c.negated) for c in tc.value_class
                    if isinstance(c, ShapeRef) and c.label in schema.negated_labels
                )
                if found:
                    refs[tc.tc_id] = found
            if refs:
                self._negated_refs[label] = refs
        self._dprop = functools.cache(DirectedProperty)  # (property, inverse?) -> DirectedProperty
        # (label, property, inverse?, target key) -> (open only?, the edge's consumer list id)
        self._cells: dict[tuple, tuple[bool, int]] = {}
        self._lists: dict[int, list] = {}  # id -> consumer list
        self._filtered: dict[tuple, list] = {}  # the lists a decided sign filtered, by content
        self._bags: dict[Hypothesis, dict[int, int]] = {}  # key -> its base edges' list ids
        self._verdicts: dict[tuple, bool | None] = {}  # (label, multiset) -> has a witness?
        self._kind_ids: dict[tuple, int] = {}  # kind -> id
        self._kinds: list[tuple] = []  # id -> kind
        self._node_verdicts: dict[tuple, bool] = {}  # (node, sorted kind ids) -> rejects?
        # (labels, directed property) -> (cells -> far node keys, far node key -> cells)
        self._groups: dict[tuple, tuple[dict, dict]] = {}

    def _cell(
        self, label: str, dprop: DirectedProperty, target: str, value: Value
    ) -> tuple[bool, int]:
        """What a key on ``label`` reads of an edge on ``dprop`` to
        ``target``, which has ``value``: is the edge left to the open slot,
        and the id of its filtered consumer list. Consumers read a target
        only through the value sets and negated references of the
        constraints on ``dprop``; with neither, all targets read alike."""
        base = self.base
        shape_def = base.schema.shapes[label]
        tcs, refs = shape_def.tcs_by_dprop.get(dprop, ()), self._negated_refs.get(label)
        if not any(isinstance(c, VALUE_SET_KINDS) for tc in tcs for c in tc.value_class):
            value = None
            if not refs or not any(tc.tc_id in refs for tc in tcs):
                target = None
        key = (label, dprop.prop, dprop.inverse, target)
        if target is None and key in self._cells:
            return self._cells[key]
        opts = admitted_options(dprop, value, shape_def, self._edge_options.setdefault(label, {}))
        if refs and target is not None:
            signs = base.signs
            kept = [
                c for c in opts
                if not isinstance(c, ByConstraint) or not any(
                    (target, l2) in signs and (signs[(target, l2)] is not None) == negated
                    for l2, negated in refs.get(c.tc_id, ())
                )
            ]
            if len(kept) < len(opts):
                opts = self._filtered.setdefault(tuple(kept), kept)
        self._lists[id(opts)] = opts
        cell = self._cells[key] = (open_only(shape_def, dprop), id(opts))
        return cell

    def _cells_toward(self, labels: tuple, dprop: DirectedProperty, far: str, term: Term) -> tuple:
        """The cells under each of ``labels`` of an edge on ``dprop`` to
        ``far``, the term ``term``."""
        cells = []
        for label in labels:
            cell = self._cells.get((label, dprop.prop, dprop.inverse, far))  # a key names one term
            cells.append(cell or self._cell(label, dprop, far, term_to_value(term)))
        return tuple(cells)

    def _kind(self, inserted: bool, labels: tuple, dprop: DirectedProperty, far: str, term: Term):
        """The id of the kind of an end on ``dprop`` toward ``far``, the
        term ``term``, at a node whose keys have ``labels``."""
        cells = self._cells_toward(labels, dprop, far, term)
        return _intern(self._kind_ids, self._kinds, (inserted, cells))

    def _bag(self, key: Hypothesis) -> dict[int, int]:
        bag = self._bags.get(key)
        if bag is None:
            graph, label = self.base.graph, key[1]
            bag = self._bags[key] = {}
            for e in graph.neighbourhood(key[0]):
                cell = self._cells.get((label, e.dprop.prop, e.dprop.inverse, e.target))
                if cell is None:
                    cell = self._cell(label, e.dprop, e.target, graph.val(e.target))
                bag[cell[1]] = bag.get(cell[1], 0) + 1
        return bag

    def _has_witness(self, key: Hypothesis, edits: list[tuple[bool, int]]) -> bool | None:
        """Does ``key`` have a local witness once the ``edits`` at its node,
        (inserts?, consumer list id) each, are made? None when the search
        raised."""
        counts = dict(self._bag(key))
        for inserted, n in edits:
            count = counts.get(n, 0) + (1 if inserted else -1)
            if count:
                counts[n] = count
            else:
                del counts[n]
        lists = self._lists
        if not all(lists[n] for n in counts):
            return False
        shape_def = self.base.schema.shapes[key[1]]
        try:
            if all(len(lists[n]) == 1 for n in counts):  # one candidate: its count vector
                bag: dict[int, int] = {}
                for n, count in counts.items():
                    consumer = lists[n][0]
                    if isinstance(consumer, ByConstraint):
                        bag[consumer.tc_id] = bag.get(consumer.tc_id, 0) + count
                return bag_matches(shape_def, bag, self.bag_bound)
            multiset = (key[1], frozenset(counts.items()))
            found = self._verdicts.get(multiset)
            if found is None:
                options = [lists[n] for n, count in multiset[1] for _ in range(count)]
                found = next(_assignments(options, shape_def, self.bag_bound), None) is not None
                self._verdicts[multiset] = found
            return found
        except ShexdError:  # BagTooLargeError: left to the full check
            return None

    def generate(self, universe, size: int):
        """The rank tuples of the sets of ``size`` edits of ``universe`` (a
        ``repair._Universe``) that pass, in combination order, each once."""
        return self._generate([self._classes(node, universe) for node in self._labels_at], size)

    def _classes(self, node: str, universe) -> tuple:
        """The entry of :meth:`_generate` for ``node`` over ``universe``'s
        edits: their classes there, counted, listed only when asked."""
        labels, graph, shapes = self._labels_at[node], self.base.graph, self.base.schema.shapes
        terms, rank, present = universe.terms, universe.rank, universe.triples
        sources: dict[tuple, list] = {}  # kinds -> [how many edits, some ranks, insertion classes]
        ends: dict[tuple, list[int]] = {}  # a deletion's or a self-loop's key -> its kinds here
        excluded: dict[DirectedProperty, set[str]] = {}  # the self-loop and the graph's triples
        for e in graph.neighbourhood(node):
            p, far = e.dprop.prop, e.target
            key = (far, p, node) if e.dprop.inverse else (node, p, far)
            ends.setdefault(key, []).append(self._kind(False, labels, e.dprop, far, terms[far]))
            excluded.setdefault(e.dprop, {node}).add(far)
        subject, inert = node in universe.subject_rank, set()
        for prop in universe.props:
            for inverse in (False, True) if subject else (True,):
                dprop = self._dprop(prop, inverse)
                if all(open_only(shapes[label], dprop) for label in labels):
                    inert.add((prop, inverse))  # its insertion toward a fresh blank, at least
                    continue
                skipped = excluded.get(dprop, {node})
                by_cells, far_cells = self._group(labels, dprop, universe)
                missing = Counter(far_cells[far] for far in skipped if far in far_cells)
                for cells, fars in by_cells.items():
                    if len(fars) > missing[cells]:
                        kind = _intern(self._kind_ids, self._kinds, (True, cells))
                        entry = sources.setdefault((kind,), [0, [], []])
                        entry[0] += len(fars) - missing[cells]
                        entry[2].append((prop, inverse, fars, skipped))
            loop = (node, prop, node)
            if subject and loop not in present and not {(prop, False), (prop, True)} <= inert:
                ends[loop] = [
                    self._kind(True, labels, self._dprop(prop, inverse), node, terms[node])
                    for inverse in (False, True)
                ]
        for key, kinds in ends.items():
            entry = sources.setdefault(tuple(sorted(kinds)), [0, [], []])
            entry[0] += 1
            entry[1].append(rank(key not in present, key))

        @functools.cache
        def expand(kinds: tuple) -> list[int]:
            _, ranks, insertions = sources[kinds]
            return sorted(ranks + [
                rank(True, (far, prop, node) if inverse else (node, prop, far))
                for prop, inverse, fars, skipped in insertions for far in fars if far not in skipped
            ])

        inert_end = None  # every inert end here has one kind: its lists hold the open slot alone
        if inert:
            inert_end = self._kind(True, labels, self._dprop(*min(inert)), node, terms[node])
        classes = [(kinds, entry[0]) for kinds, entry in sources.items()]
        return node, classes, inert_end, expand, functools.cache(lambda: universe.pools(node, inert))

    def _group(self, labels: tuple, dprop: DirectedProperty, universe) -> tuple[dict, dict]:
        """The far nodes of the insertions on ``dprop`` at a node with keys
        on ``labels``, by their cells, and each one's cells: kept for the
        search, so that a later size adds only its new fresh blank's."""
        group = self._groups.get((labels, dprop))
        if group is None:
            group = self._groups[(labels, dprop)] = ({}, {})
        by_cells, far_cells = group
        for far, term in universe.subjects if dprop.inverse else universe.objects:
            if far not in far_cells:
                cells = far_cells[far] = self._cells_toward(labels, dprop, far, term)
                by_cells.setdefault(cells, []).append(far)
        return group

    def _generate(self, nodes: list[tuple], size: int):
        """The generator of the class docstring over ``nodes``, each (node,
        its classes as (kinds, how many edits), an inert end's kind or None,
        a class's edits in order by its kinds, and the pools when called:
        the edits with no end there, then with none there but inert ones)."""
        graph, streams = self.base.graph, []
        for node, classes, inert_end, expand, pools in nodes:
            degree = len(graph.neighbourhood(node))  # a node with keys is a graph node
            classes = [c for c in classes if not any(self._dead(node, k) for k in c[0])]
            for n in range(1, size + 1):
                for picks in itertools.combinations_with_replacement(range(len(classes)), n):
                    counts: dict[int, int] = {}
                    for c in picks:
                        counts[c] = counts.get(c, 0) + 1
                    if n > 1 and any(classes[c][1] < m for c, m in counts.items()):
                        continue
                    ends = tuple(sorted(k for c in picks for k in classes[c][0]))
                    ways = [(1, False, ends)]  # inert ends leave the verdict as it is
                    if len(ends) == degree and not any(self._kinds[k][0] for k in ends):
                        # the group strips the node, unless an inert end keeps it
                        ways = [(0, False, ends)]
                        if inert_end is not None and n < size:
                            ways.append((1, True, tuple(sorted(ends + (inert_end,)))))
                    extensions = [
                        (pools()[which] if n < size else (),
                         set(pools()[1]).difference(pools()[0]) if needy else None)
                        for which, needy, kinds in ways if not self._verdict_at(node, kinds)
                    ]
                    extensions = [(pool, needs) for pool, needs in extensions if len(pool) >= size - n]
                    for parts in itertools.product(
                        *(itertools.combinations(expand(classes[c][0]), m) for c, m in counts.items())
                    ) if extensions else ():
                        group = tuple(sorted(itertools.chain(*parts)))
                        streams.extend(_extended(group, pool, size - n, needs)
                                       for pool, needs in extensions)
        last = None
        for combo in heapq.merge(*streams):
            if combo != last:
                yield combo
                last = combo

    def _dead(self, node: str, kind: int) -> bool:
        """Does an end of ``kind`` reject at ``node`` whatever the other
        ends there (see the class docstring)?"""
        inserted, cells = self._kinds[kind]
        if not inserted or any(self._lists[c[1]] for c in cells):
            return False
        signs, pairs = self.base.signs, len(self.base.at_node.get(node, ()))
        return all(signs[key] is None for key in self._keys_at[node][pairs:])

    def _verdict_at(self, node: str, kinds: tuple[int, ...]) -> bool:
        found = self._node_verdicts.get((node, kinds))
        if found is None:
            found = self._node_verdicts[(node, kinds)] = self._node_verdict(node, kinds)
        return found

    def _node_verdict(self, node: str, kinds: tuple[int, ...]) -> bool:
        """May a set whose ends at ``node`` have ``kinds`` be rejected there?"""
        base = self.base
        ends = [self._kinds[n] for n in kinds]
        # the node keeps an edge unless the set deletes all of them
        kept = len(ends) < len(base.graph.neighbourhood(node)) or any(end[0] for end in ends)
        pairs = len(base.at_node.get(node, ()))
        changed = []
        for k, key in enumerate(self._keys_at[node]):
            if kept and all(cells[k][0] for _, cells in ends):
                continue  # its witnesses are the base's, with the edited edges open
            if k >= pairs and (not kept or base.signs[key] is not None):
                return False
            changed.append((k, key))
        if kept:  # a stripped node's keys have no witness
            for k, key in changed:
                edits = [(inserted, cells[k][1]) for inserted, cells in ends]
                if self._has_witness(key, edits) is not False:
                    return False
        return True


def _extended(group: tuple[int, ...], pool: list[int], more: int, needs: set[int] | None):
    """``group`` with each ``more`` of ``pool`` (edits not in it) that hold
    one of ``needs``, when given, sorted, in combination order: merging a
    fixed disjoint group keeps that order."""
    for rest in itertools.combinations(pool, more):
        if needs is None or not needs.isdisjoint(rest):
            yield tuple(sorted(group + rest))


def _intern(ids: dict, items: list, item: tuple) -> int:
    """The id of ``item`` in ``items``, appended if new, with ``ids`` its index."""
    n = ids.get(item)
    if n is None:
        n = ids[item] = len(items)
        items.append(item)
    return n
