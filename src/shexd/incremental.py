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
from .schema_model import ByConstraint, ShapeRef


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

    1. every changed base pair was dead in the base;
    2. the node keeps an edge, unless it holds no certain entry; and every
       changed certain entry was false in the base;
    3. no changed key has a local witness on the edited graph.

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
    The base failed the request, so the check does too. Any other set goes
    to the full check.

    (3) needs no patch. An edge's admitted consumers depend only on its
    directed property and its target's value (:func:`admitted_options`),
    and a key has a local witness exactly when :func:`_assignments` yields
    over the multiset of its edges' consumer lists, in any order. That
    multiset is the base node's, minus the deleted edges' lists, plus the
    inserted edges' lists; the answer is memoized per label and multiset.
    A multiset whose lists each hold one consumer has one candidate, so
    :func:`bag_matches` on its count vector answers it without a search.
    Each list also drops a constraint consumer that references a negated
    label L, with ``@<L>`` or ``!@<L>``, against the sign the base decided
    for (target, L): such a consumer propagates a fact the unchanged sign
    contradicts, so no usable witness takes it. A target the base never
    decided keeps every consumer. (A schema with no negated label filters
    nothing.) When :func:`_assignments` raises (``BagTooLargeError``), the
    set goes to the full check.

    So the screen reads an atom only through its *effect*: for each node
    with keys that it has an end at, the node and the sorted *kinds* of its
    ends there (two for a self-loop). A kind is whether the end inserts,
    and, for each key at the node, whether its shape leaves the end's
    directed property to the open slot and the id of the end's consumer
    list; that is all the rule reads of an end. A set's verdict is the
    conjunction of its nodes' verdicts, and a node's verdict reads only the
    node and the sorted kinds of the ends there, so each is decided once
    (edits that look alike at a node are interchangeable there, as
    interchangeable values are for a constraint problem: Freuder, AAAI
    1991). Effects are computed once per triple key. A fresh blank is never
    a node with keys, and every fresh blank has the same value and no
    decided sign, so each renaming of a set's fresh blanks has the set's
    effects.

    :meth:`passing` generates the sets that pass. A set's *group* at a node
    x is its atoms with an end at x; a set passes exactly when one of its
    groups gets a passing node verdict, so the passing sets of k atoms are
    the unions of a passing group G at some x with k - |G| atoms that have
    no end at x. An *inert* end inserts at a graph node each of whose keys
    leaves its directed property to the open slot, so its consumer lists
    hold the open slot alone, which adds nothing to a bag: added to ends
    that keep the node an edge it leaves their node verdict as it is, and
    inert ends alone reject (no key changes). So at each node the
    generator decides once each multiset of 1 to k kinds of atoms not inert
    there, and extends each passing group by atoms with no end at x or
    inert there; a group that strips the node, by atoms with no end at x,
    or, if its verdict with an inert end added passes, by sets of those and
    the inert atoms that hold one of the latter. Merging a fixed group into
    the combinations of disjoint atoms keeps their order, so the union over
    the nodes is merged, without repeats, in combination order.

    One-edit insertions are screened by *class*, without their atoms
    (:meth:`insertion_classes`). For (s, p, o), s and o apart, the set's
    verdict is the conjunction of a node verdict at each end with keys: at
    s, of the end's kind on ``p``, which reads o only through its cells
    under the keys at s; at o, likewise on ``^p``. An end at a node with
    no keys is left out of the conjunction. An inert end rejects whatever
    the far node: no other edit of the set is at the node. Every other end
    belongs to the class of its node, directed property and far node's
    cells, decided once. So a one-edit insertion passes exactly when a
    class it belongs to does not reject, unless it is a self-loop (s, p,
    s), whose two ends share a node and which :meth:`passing` decides as a
    set; a search that builds only those insertions and the self-loops
    (:meth:`one_edit_insertions`) checks the same sets in the same order
    (see ``repair.enumerate_repairs``).
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
        self._dprops: dict[tuple[str, bool], DirectedProperty] = {}
        # (label, property, inverse?, target key) -> (open only?, the edge's consumer list id)
        self._cells: dict[tuple, tuple[bool, int]] = {}
        self._lists: dict[int, list] = {}  # id -> consumer list
        self._filtered: dict[tuple, list] = {}  # the lists a decided sign filtered, by content
        self._bags: dict[Hypothesis, dict[int, int]] = {}  # key -> its base edges' list ids
        self._verdicts: dict[tuple, bool | None] = {}  # (label, multiset) -> has a witness?
        self._kind_ids: dict[tuple, int] = {}  # kind -> id
        self._kinds: list[tuple] = []  # id -> kind
        self._node_verdicts: dict[tuple, bool] = {}  # (node, sorted kind ids) -> rejects?
        self._effects: dict[tuple[str, str, str], tuple] = {}  # triple key -> its edit's effect

    def _cell(
        self, label: str, dprop: DirectedProperty, target: str, value: Value
    ) -> tuple[bool, int]:
        """What a key on ``label`` reads of an edge on ``dprop`` to
        ``target``, which has ``value``: does the shape leave the edge to
        the open slot, and the id of its filtered consumer list."""
        base = self.base
        shape_def = base.schema.shapes[label]
        opts = admitted_options(dprop, value, shape_def, self._edge_options.setdefault(label, {}))
        refs = self._negated_refs.get(label)
        if refs:
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
        cell = (open_only(shape_def, dprop), id(opts))
        self._cells[(label, dprop.prop, dprop.inverse, target)] = cell
        return cell

    def _cells_toward(self, labels: tuple, dprop: DirectedProperty, far: str, term: Term) -> tuple:
        """The cells under each of ``labels`` of an edge on ``dprop`` to
        ``far``, the term ``term``."""
        cells = []
        for label in labels:
            cell = self._cells.get((label, dprop.prop, dprop.inverse, far))  # a key names one term
            cells.append(cell or self._cell(label, dprop, far, term_to_value(term)))
        return tuple(cells)

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

    def _dprop(self, prop: str, inverse: bool) -> DirectedProperty:
        dprop = self._dprops.get((prop, inverse))
        if dprop is None:
            dprop = self._dprops[(prop, inverse)] = DirectedProperty(prop, inverse)
        return dprop

    def _effect(self, inserted: bool, key: tuple[str, str, str], subject: Term, obj: Term) -> tuple:
        """The effect of the edit of the triple ``key``, from the term
        ``subject`` to ``obj``: (node, the sorted kind ids of its ends
        there) per node with keys it has an end at."""
        s, p, o = key
        at: dict[str, list[int]] = {}
        for node, inverse, far, term in ((s, False, o, obj), (o, True, s, subject)):
            labels = self._labels_at.get(node)
            if labels is not None:
                cells = self._cells_toward(labels, self._dprop(p, inverse), far, term)
                kind = _intern(self._kind_ids, self._kinds, (inserted, cells))
                at.setdefault(node, []).append(kind)
        return tuple((node, tuple(sorted(kinds))) for node, kinds in at.items())

    def _has_witness(self, key: Hypothesis, edits: list[tuple[bool, int]]) -> bool | None:
        """Does ``key`` have a local witness once the ``edits`` at its node,
        (inserts?, consumer list id) each, are made? None when the search
        raised. A multiset whose lists each hold one consumer has one
        candidate, so :func:`bag_matches` on its count vector decides it
        without a search."""
        label = key[1]
        counts = dict(self._bag(key))
        for inserted, n in edits:
            count = counts.get(n, 0) + (1 if inserted else -1)
            if count:
                counts[n] = count
            else:
                del counts[n]
        multiset = (label, frozenset(counts.items()))
        if multiset not in self._verdicts:
            lists = [(self._lists[n], count) for n, count in multiset[1]]
            found = False
            if all(opts for opts, _ in lists):
                shape_def = self.base.schema.shapes[label]
                try:
                    if all(len(opts) == 1 for opts, _ in lists):
                        bag: dict[int, int] = {}
                        for (consumer,), count in lists:
                            if isinstance(consumer, ByConstraint):
                                bag[consumer.tc_id] = bag.get(consumer.tc_id, 0) + count
                        found = bag_matches(shape_def, bag, self.bag_bound)
                    else:
                        options = [opts for opts, count in lists for _ in range(count)]
                        found = next(_assignments(options, shape_def, self.bag_bound), None) is not None
                except ShexdError:  # BagTooLargeError: left to the full check
                    found = None
            self._verdicts[multiset] = found
        return self._verdicts[multiset]

    def passing(self, atoms: list, keys: list, size: int):
        """The index sets of ``itertools.combinations(range(len(atoms)),
        size)``, in that order, whose edit sets the screen passes, each
        once; the ``atoms`` are ``("del" | "ins", triple)`` edits whose
        triples' keys are ``keys``. See the class docstring for how."""
        effects, graph = self._effects, self.base.graph
        classes: dict[str, dict[tuple, list[int]]] = {}  # node -> kinds of an atom there -> atoms
        for i, ((kind, t), key) in enumerate(zip(atoms, keys)):
            effect = effects.get(key)
            if effect is None:
                effect = effects[key] = self._effect(kind == "ins", key, t.subject, t.obj)
            for node, kinds in effect:
                classes.setdefault(node, {}).setdefault(kinds, []).append(i)
        streams = []  # per passing group, its extensions in combination order
        for node, by_kinds in classes.items():
            degree = len(graph.neighbourhood(node))  # a node with keys is a graph node
            inert, pools = [], []
            for kinds, members in by_kinds.items():
                if all(self._kinds[k][0] and all(c[0] for c in self._kinds[k][1]) for k in kinds):
                    inert.extend(members)
                    inert_end = kinds[0]
                else:
                    pools.append((kinds, members))
            at = {i for members in by_kinds.values() for i in members}
            others = [i for i in range(len(atoms)) if i not in at]
            free = sorted(others + inert)
            for n in range(1, size + 1):
                for picks in itertools.combinations_with_replacement(range(len(pools)), n):
                    counts = Counter(picks)
                    if any(len(pools[c][1]) < m for c, m in counts.items()):
                        continue
                    ends = tuple(sorted(k for c in picks for k in pools[c][0]))
                    if len(ends) < degree or any(self._kinds[k][0] for k in ends):
                        ways = [(free, None, ends)]  # inert ends leave the verdict as it is
                    else:  # the group strips the node, unless an inert end keeps it
                        ways = [(others, None, ends)]
                        if inert and n < size:
                            ways.append((free, set(inert), tuple(sorted(ends + (inert_end,)))))
                    ways = [
                        (pool, needs) for pool, needs, kinds in ways
                        if len(pool) >= size - n and not self._verdict_at(node, kinds)
                    ]
                    for parts in itertools.product(
                        *(itertools.combinations(pools[c][1], m) for c, m in counts.items())
                    ) if ways else ():
                        group = tuple(sorted(itertools.chain(*parts)))
                        streams.extend(_extended(group, pool, size - n, needs)
                                       for pool, needs in ways)
        last = None
        for combo in heapq.merge(*streams):
            if combo != last:
                yield combo
                last = combo

    def _verdict_at(self, node: str, kinds: tuple[int, ...]) -> bool:
        found = self._node_verdicts.get((node, kinds))
        if found is None:
            found = self._node_verdicts[(node, kinds)] = self._node_verdict(node, kinds)
        return found

    def insertion_classes(self, subjects: list[tuple[str, Term]], props: list[str],
                          objects: list[tuple[str, Term]]):
        """The classes of the single insertions (s, p, o) of the
        ``subjects`` and ``objects`` ((key, term) pairs) on ``props``: for
        each end at a node with keys, (node, property, inverse?, far keys,
        rejects?), the far keys being the other ends of the class's
        insertions, or None for an inert end, whose class holds every
        insertion on the end and rejects. Each other class is decided
        once."""
        sides = ((False, dict(subjects), objects), (True, dict(objects), subjects))
        shapes = self.base.schema.shapes
        groups: dict[tuple, dict[tuple, list[str]]] = {}  # (labels, dprop) -> cells -> far keys
        for node, labels in self._labels_at.items():
            for prop in props:
                for inverse, ends, fars in sides:
                    if node not in ends:
                        continue
                    dprop = self._dprop(prop, inverse)
                    if all(open_only(shapes[label], dprop) for label in labels):
                        yield node, prop, inverse, None, True
                        continue
                    by_cells = groups.get((labels, dprop))
                    if by_cells is None:
                        by_cells = groups[(labels, dprop)] = {}
                        for far, term in fars:
                            cells = self._cells_toward(labels, dprop, far, term)
                            by_cells.setdefault(cells, []).append(far)
                    for cells, members in by_cells.items():
                        kind = _intern(self._kind_ids, self._kinds, (True, cells))
                        yield node, prop, inverse, members, self._verdict_at(node, (kind,))

    def one_edit_insertions(self, subjects: list[tuple[str, Term]], props: list[str],
                            objects: list[tuple[str, Term]]) -> set[tuple[str, str, str]]:
        """The keys (s, p, o) of the single insertions of
        :meth:`insertion_classes`' domain that the base graph lacks and
        whose one-edit set the screen may pass: the insertions of the
        classes that do not reject, and the self-loops at nodes with keys,
        which :meth:`passing` decides (their two ends share the node)."""
        out = {(node, prop, node) for node, _ in subjects if node in self._labels_at
               for prop in props}
        for node, prop, inverse, fars, rejects in self.insertion_classes(subjects, props, objects):
            if not rejects:
                out.update((far, prop, node) if inverse else (node, prop, far) for far in fars)
        return out.difference(self.base.graph._keys)

    def _node_verdict(self, node: str, kinds: tuple[int, ...]) -> bool:
        """May a set whose ends at ``node`` have ``kinds`` be rejected there?"""
        base = self.base
        graph = base.graph
        ends = [self._kinds[n] for n in kinds]
        # the node keeps an edge unless the set deletes all of them
        kept = len(ends) < len(graph.neighbourhood(node)) or any(end[0] for end in ends)
        pairs = len(base.at_node.get(node, ()))
        changed = []
        for k, key in enumerate(self._keys_at[node]):
            if kept and all(cells[k][0] for _, cells in ends):
                continue  # its witnesses are the base's, with the edited edges open
            if k < pairs:
                if key in base.support:
                    return False
            elif not kept or base.signs[key] is not None:
                return False
            changed.append((k, key))
        if kept:  # a stripped node's pairs have no witness
            for k, key in changed:
                edits = [(inserted, cells[k][1]) for inserted, cells in ends]
                if self._has_witness(key, edits) is not False:
                    return False
        return True


def _extended(group: tuple[int, ...], pool: list[int], more: int, needs: set[int] | None):
    """``group`` with each ``more`` of ``pool`` (atoms not in it) that hold
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
