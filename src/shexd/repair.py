"""Desk-scale search for minimal graph repairs.

A repair is a smallest set of triple insertions and deletions after which the
requested typing validates. The insertion universe is finite by construction:
subjects and objects come from the graph (plus fresh blank nodes and a small
literal pool derived from the schema), properties from the schema and graph.
Repairs needing values outside that pool are out of reach, by design.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .engine import (
    CertainTyping,
    LocalWitnessCache,
    TypingEntry,
    check_request,
    maximal_typing_validation,
    reference_validate,
    verify_global_typing_witness,
)
from .errors import CertificateError, SearchBudgetExceededError, ValidationError
from .matching import DEFAULT_BAG_BOUND
from .rdf_graph import (
    XSD_DATE,
    XSD_INTEGER,
    XSD_STRING,
    BlankRef,
    DirectedProperty,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    term_key,
    to_ntriples,
)
from .schema_model import (
    DatatypeSet,
    ExplicitSet,
    Schema,
    ShapeRef,
)

# The reference validator's node bound for one check of is_repair, and the
# step budget of one repair check: the reference validator's steps there,
# local witnesses read in is_valid_after.
CHECK_MAX_NODES = 64
CHECK_BUDGET = 200_000

_FRESH_KEY = re.compile(r"_:repair(0|[1-9][0-9]*)")  # a node key a fresh blank may have
_FRESH_LITERALS = {
    XSD_INTEGER: "0",
    XSD_STRING: "",
    XSD_DATE: "2000-01-01",
}


@dataclass(frozen=True)
class EditSet:
    deletions: frozenset[Triple]
    insertions: frozenset[Triple]

    def __post_init__(self):
        if self.deletions & self.insertions:
            raise ValueError("an edit set cannot delete and insert the same triple")

    @property
    def size(self) -> int:
        return len(self.deletions) + len(self.insertions)

    def sort_key(self):
        return (
            sorted(t.key() for t in self.deletions),
            sorted(t.key() for t in self.insertions),
        )


@dataclass(frozen=True)
class RepairResult:
    """Outcome of a repair search; ``min_size`` is None when nothing within
    the budget validates."""

    min_size: int | None
    repairs: tuple[EditSet, ...]
    max_edits: int

    @property
    def found(self) -> bool:
        return self.min_size is not None


class FreshBlank(BlankRef):
    """A blank node the repair search adds to the graph.

    Its label is one of ``repair0``, ``repair1``, ... that the graph does not
    use, so it never names a node of the graph.
    """


def insertion_domain(
    graph: Graph, schema: Schema, max_edits: int, *, keys: list | None = None,
    labels: list[str] | None = None,
) -> list[Triple]:
    """The insertions :class:`_Universe` ranks, in order, whose fresh
    blanks have the first ``max_edits`` labels the graph does not use, or
    ``labels``; with ``keys``, each triple's key is appended to it."""
    if labels is None:
        labels = _fresh_labels(graph, max_edits, max_edits)
    universe = _Universe(graph, schema, labels)
    terms, present = universe.terms, universe.triples
    found = [(s, p, o) for s, _ in universe.subjects for p in universe.props
             for o, _ in universe.objects if (s, p, o) not in present]
    if keys is not None:
        keys.extend(found)
    return [Triple(terms[s], p, terms[o]) for s, p, o in found]


class _Universe:
    """The edits of a search's sets of one size, never listed whole: the
    deletions, then the insertions, each by triple key. Their nodes are
    the graph's (a node's key is its id), fresh blanks with ``labels`` and,
    as objects, a literal pool from the schema; their properties are the
    schema's and the graph's. An edit is named by its *rank*, which orders
    the edits as that list does."""

    def __init__(self, graph: Graph, schema: Schema, labels: list[str]):
        subjects: list[tuple[str, Iri | BlankRef]] = []
        objects: list[tuple[str, Term]] = []
        for node in graph.nodes:
            value = graph.val(node)
            if isinstance(value, Iri):
                subjects.append((node, value))
                objects.append((node, value))
            elif isinstance(value, Literal):
                objects.append((node, value))
            else:
                blank = BlankRef(node[2:])
                subjects.append((node, blank))
                objects.append((node, blank))
        fresh = [("_:" + label, FreshBlank(label)) for label in labels]
        subjects.extend(fresh)
        objects.extend(fresh)
        properties: set[str] = {t.prop for t in graph.triples}
        datatypes: set[str] = set()
        pool: dict[str, Literal] = {}
        for sd in schema.shapes.values():
            for tc in sd.tcs:
                properties.add(tc.dprop.prop)
                for conj in tc.value_class:
                    if isinstance(conj, DatatypeSet):
                        datatypes.add(conj.datatype)
                    elif isinstance(conj, ExplicitSet):
                        for v in conj.values:
                            if isinstance(v, Literal):
                                pool[term_key(v)] = v
        for dt in sorted(datatypes):
            lexical = _FRESH_LITERALS.get(dt)
            if lexical is not None:
                lit = Literal(lexical, dt)
                pool.setdefault(term_key(lit), lit)
        self.terms = {**pool, **dict(objects)}  # every subject is an object too
        self.subjects = sorted(subjects, key=itemgetter(0))
        self.objects = sorted(self.terms.items())  # keys are unique: a key names one term
        self.props = sorted(properties)
        self.triples = dict(zip(graph._keys, graph.triples))
        self.deletions = sorted(self.triples)
        self._deletion_rank = {key: i for i, key in enumerate(self.deletions)}
        self.subject_rank = {key: i for i, (key, _) in enumerate(self.subjects)}
        self._prop_rank = {p: i for i, p in enumerate(self.props)}
        self._object_rank = {key: i for i, (key, _) in enumerate(self.objects)}

    def rank(self, inserts: bool, key: tuple[str, str, str]) -> int:
        if not inserts:
            return self._deletion_rank[key]
        s, p, o = key
        row = self.subject_rank[s] * len(self.props) + self._prop_rank[p]
        return len(self.deletions) + row * len(self.objects) + self._object_rank[o]

    def edit(self, rank: int) -> tuple[bool, tuple[str, str, str]]:
        """Does the edit of ``rank`` insert, and its triple's key."""
        if rank < len(self.deletions):
            return False, self.deletions[rank]
        row, o = divmod(rank - len(self.deletions), len(self.objects))
        s, p = divmod(row, len(self.props))
        return True, (self.subjects[s][0], self.props[p], self.objects[o][0])

    def pools(self, node: str, inert: set[tuple[str, bool]]) -> tuple[list[int], list[int]]:
        """The ranks, in order, of the edits with no end at ``node``, and of
        those whose ends there are all on ``inert`` (property, inverse?)s."""
        others = [r for r, (s, _, o) in enumerate(self.deletions) if node != s and node != o]
        free = others.copy()
        rank, present = len(self.deletions), self.triples
        for s, _ in self.subjects:
            for p in self.props:
                if s == node and (p, False) not in inert:
                    rank += len(self.objects)
                    continue
                for o, _ in self.objects:
                    if (s, p, o) not in present and (o != node or (p, True) in inert):
                        if s != node and o != node:
                            others.append(rank)
                        free.append(rank)
                    rank += 1
        return others, free


def _fresh_labels(graph: Graph, max_edits: int, size: int) -> list[str]:
    """The fresh-blank labels a search's edit sets of ``size`` edits take:
    of the labels of :func:`insertion_domain` at ``max_edits``, the
    ``size`` smallest in string order (``repair10`` before ``repair2``);
    see :func:`enumerate_repairs`. Costs ``size`` and the graph's nodes,
    not ``max_edits``."""
    used = sorted(int(m[1]) for m in map(_FRESH_KEY.fullmatch, graph._values) if m)
    limit = max_edits  # the labels are repair<i> for the unused i below it
    for i in used:
        limit += i < limit
    fresh = (i for i in _in_string_order(limit) if i not in used)
    return [f"repair{i}" for i in itertools.islice(fresh, size)]


def _in_string_order(limit: int, first: int = 0, stop: int = 10):
    """The integers below ``limit`` from ``first`` to ``stop`` - 1, each
    followed by its decimal extensions, lazily: from the defaults, every
    integer below ``limit`` in the string order of its decimals (0, 1, 10,
    100, ..., 11, ..., 2, ...)."""
    for i in range(first, min(stop, limit)):
        yield i
        if i:
            yield from _in_string_order(limit, 10 * i, 10 * i + 10)


def apply_edits(graph: Graph, edits: EditSet) -> Graph:
    """The edited graph, built from scratch: the triples whose key no
    deletion has, in order, then the insertions in triple order. The
    reference the oracles read; a repair check reads the edited graph as a
    ``GraphPatch`` instead (:func:`is_valid_after`)."""
    deleted = {t.key() for t in edits.deletions}
    kept = [t for key, t in zip(graph._keys, graph.triples) if key not in deleted]
    return Graph((*kept, *sorted(edits.insertions, key=Triple.key)), graph.prefixes)


def is_valid_after(
    graph: Graph,
    edits: EditSet,
    schema: Schema,
    typing0: list[TypingEntry],
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
    witnesses: LocalWitnessCache | None = None,
) -> bool:
    """Decide the request on the edited graph by its maximal typing.

    ``witnesses`` is the state the checks of one search share, for this
    graph, schema and bag bound (a fresh one when None). The edited graph
    is a ``GraphPatch`` of ``graph`` (:func:`incremental.patch`), and the
    request is decided on it from scratch by
    :func:`maximal_typing_validation`, reading the local witnesses through
    ``witnesses``, at most ``CHECK_BUDGET`` of them; past it,
    :class:`SearchBudgetExceededError`. Every read is charged, cached or
    not, so the verdict does not depend on the checks made before. An
    accepted set counts only once :func:`verify_global_typing_witness`,
    with a certain typing of its own, accepts the decider's witness on the
    same patch; a rejected certificate raises :class:`CertificateError`.
    No check builds a ``Graph``, and the graph's size is not bounded.

    Edit sets that delete a node mentioned by the requested typing fail:
    the request must stay addressable.
    """
    from . import incremental  # loaded by the first check, so `import shexd` stays as it was

    if witnesses is None:
        witnesses = LocalWitnessCache(schema, graph, bag_bound=bag_bound)
    elif (witnesses.schema, witnesses.graph, witnesses.bag_bound) != (schema, graph, bag_bound):
        raise ValueError("the local witness cache belongs to another request")
    patched = incremental.patch(witnesses, edits.deletions, edits.insertions)
    for node, _, _ in typing0:
        if not patched.has_node(node):
            return False
    try:
        gtw = maximal_typing_validation(
            schema, patched, typing0, witnesses=witnesses.reader(patched, CHECK_BUDGET)
        )
    except ValidationError:
        return False
    certain = CertainTyping(schema, patched, bag_bound=bag_bound)
    if not verify_global_typing_witness(gtw, patched, schema, certain, bag_bound=bag_bound):
        raise CertificateError("the witness of an accepted edit set failed verification")
    return True


def _reference_valid_after(
    graph: Graph,
    edits: EditSet,
    schema: Schema,
    typing0: list[TypingEntry],
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> bool:
    """:func:`is_valid_after` by the reference validator, with its node
    bound ``CHECK_MAX_NODES`` and step budget ``CHECK_BUDGET``."""
    edited = apply_edits(graph, edits)
    for node, _, _ in typing0:
        if not edited.has_node(node):
            return False
    try:
        reference_validate(
            schema,
            edited,
            typing0,
            certain=CertainTyping(schema, edited, bag_bound=bag_bound),
            bag_bound=bag_bound,
            max_nodes=CHECK_MAX_NODES,
            budget=CHECK_BUDGET,
        )
        return True
    except ValidationError:
        return False


def _canonical_blank_form(edits: EditSet) -> tuple:
    """Edit-set key with fresh blanks numbered in first-use order."""
    renaming: dict[str, int] = {}

    def rename(term):
        if _is_fresh_blank(term):
            return renaming.setdefault(term.label, len(renaming))
        return term_key(term)

    def canon(triples: frozenset[Triple]) -> tuple:
        return tuple(
            (rename(t.subject), t.prop, rename(t.obj)) for t in sorted(triples, key=Triple.key)
        )

    return (canon(edits.deletions), canon(edits.insertions))


def _is_fresh_blank(term: Term) -> bool:
    return isinstance(term, FreshBlank)


Atom = tuple[str, Triple]  # ("del" | "ins", triple)


def _edit_atoms(
    graph: Graph, schema: Schema, max_edits: int, keys: list | None = None,
    labels: list[str] | None = None,
) -> list[Atom]:
    """Every single edit: the deletions in triple order, then the
    insertions of :func:`insertion_domain`. When ``keys`` is given, each
    edit's triple key is appended to it, in order."""
    deletions = sorted(zip(graph._keys, graph.triples), key=itemgetter(0))
    if keys is not None:
        keys.extend(key for key, _ in deletions)
    insertions = insertion_domain(graph, schema, max_edits, keys=keys, labels=labels)
    return [("del", t) for _, t in deletions] + [("ins", t) for t in insertions]


def _edit_set(atoms) -> EditSet:
    atoms = tuple(atoms)
    return EditSet(
        frozenset(t for kind, t in atoms if kind == "del"),
        frozenset(t for kind, t in atoms if kind == "ins"),
    )


def _atom(universe: _Universe, inserts: bool, key: tuple[str, str, str]) -> Atom:
    """The edit of the triple ``key``, a deletion or an insertion."""
    if not inserts:
        return "del", universe.triples[key]
    s, p, o = key
    return "ins", Triple(universe.terms[s], p, universe.terms[o])


class _Edit(NamedTuple):
    """What the relevance test reads of one edit."""

    key: tuple[str, str, str]  # its triple's
    inserts: bool
    ends: tuple  # its (node, directed property) at the subject, then at the object
    counting: tuple  # per end: its node, the labels it counts at, is the node in the graph?
    counts: bool  # under P(∅)
    grows: bool  # does it add a pair to P(∅)?


class _Relevance:
    """Which edit sets can be minimal repairs; see :func:`enumerate_repairs`.

    Pairs are held as node -> labels. The base closure P(∅) is computed
    once. An edit's endpoints, whether it counts already under P(∅), and
    whether it *grows* the closure (an insertion that adds a pair to it)
    are computed once per triple key, when a set first holds the edit.
    """

    def __init__(self, graph: Graph, schema: Schema, typing0: list[TypingEntry]):
        self.graph = graph
        # label -> directed property -> labels its constraints on it reference
        self.refs = {
            label: {
                dprop: tuple(dict.fromkeys(
                    c.label for tc in tcs for c in tc.value_class if isinstance(c, ShapeRef)
                ))
                for dprop, tcs in sd.tcs_by_dprop.items()
            }
            for label, sd in schema.shapes.items()
        }
        # directed property -> labels at which an edge on it counts: the
        # shape mentions it, as a constraint or as EXTRA, or is closed in
        # its direction
        closed = {
            inverse: frozenset(
                label for label, sd in schema.shapes.items()
                if (sd.closed_inv if inverse else sd.closed_fwd)
            )
            for inverse in (False, True)
        }
        directed: dict[tuple[str, bool], tuple[DirectedProperty, frozenset[str]]] = {}

        def directed_of(prop: str, inverse: bool) -> tuple[DirectedProperty, frozenset[str]]:
            found = directed.get((prop, inverse))
            if found is None:
                dprop = DirectedProperty(prop, inverse)
                found = directed[(prop, inverse)] = (dprop, closed[inverse] | {
                    label for label, sd in schema.shapes.items()
                    if dprop in sd.tcs_by_dprop or dprop in sd.extra
                })
            return found

        # (node, property, inverse?) -> the end's (node, directed property)
        # and its (node, labels it counts at, is the node in the graph?),
        # each built once however many edits share the end
        by_end: dict[tuple[str, str, bool], tuple] = {}

        def end_of(node: str, prop: str, inverse: bool) -> tuple:
            found = by_end.get((node, prop, inverse))
            if found is None:
                dprop, counting = directed_of(prop, inverse)
                found = by_end[(node, prop, inverse)] = (
                    (node, dprop), (node, counting, graph.has_node(node))
                )
            return found

        self._end_of = end_of
        self._steps: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self.base: dict[str, set[str]] = {}
        requested: dict[str, set[str]] = {}
        for node, label, _ in typing0:
            requested.setdefault(node, set()).add(label)
        self._close(requested, {}, [(n, l) for n, ls in requested.items() for l in ls])
        self.base = requested
        self._edits: dict[tuple[str, str, str], _Edit] = {}  # triple key -> its edit
        self._closures: dict[tuple, dict[str, set[str]]] = {}  # growers' keys -> pairs added

    def edit(self, inserts: bool, key: tuple[str, str, str]) -> _Edit:
        """What :meth:`admits` reads of the edit of the triple ``key``."""
        found = self._edits.get(key)
        if found is None:
            s, p, o = key
            fwd, inv = self._end_of(s, p, False), self._end_of(o, p, True)
            ends, counting = (fwd[0], inv[0]), (fwd[1], inv[1])
            found = self._edits[key] = _Edit(
                key, inserts, ends, counting, self._counts(inserts, counting, {}, set()),
                # an insertion with no end in P(∅) adds no pair to it
                inserts and (s in self.base or o in self.base) and self._adds_pair(ends),
            )
        return found

    def _adds_pair(self, ends: tuple) -> bool:
        """Does the edge with ``ends``, read from either end, add a pair to P(∅)?"""
        subject_end, object_end = ends
        for (node, dprop), (far, _) in ((subject_end, object_end), (object_end, subject_end)):
            for label in self.base.get(node, ()):
                for l2 in self.refs.get(label, {}).get(dprop, ()):
                    if l2 not in self.base.get(far, ()):
                        return True
        return False

    def _graph_steps(self, node: str, label: str) -> list[tuple[str, str]]:
        """The pairs one reference step from (node, label) along the graph's edges."""
        steps = self._steps.get((node, label))
        if steps is None:
            refs = self.refs.get(label)
            steps = [
                (e.target, l2) for e in self.graph.neighbourhood(node)
                for l2 in refs.get(e.dprop, ())
            ] if refs and self.graph.has_node(node) else []
            self._steps[(node, label)] = steps
        return steps

    def _close(self, pairs: dict[str, set[str]], inserted: dict, work: list) -> None:
        """Add to ``pairs``, in place, the pairs outside P(∅) that the
        reference step reaches from the pairs in ``work``, over the graph's
        edges plus ``inserted`` (node -> [(directed property, target)])."""
        base = self.base
        while work:
            node, label = work.pop()
            steps = self._graph_steps(node, label)
            edges = inserted.get(node)
            if edges:
                refs = self.refs.get(label, {})
                steps = steps + [(target, l2) for dprop, target in edges for l2 in refs.get(dprop, ())]
            for target, l2 in steps:
                if l2 in base.get(target, ()):
                    continue
                held = pairs.setdefault(target, set())
                if l2 not in held:
                    held.add(l2)
                    work.append((target, l2))

    def _counts(self, inserts: bool, counting: tuple, added: dict[str, set[str]],
                deleted_at: set[str]) -> bool:
        """Does an edit whose ends count as ``counting`` count at one of
        them, given the pairs ``added`` to P(∅) and the nodes the edit set
        deletes a triple at?"""
        for node, labels, in_graph in counting:
            held, more = self.base.get(node), added.get(node)
            if not held and not more:
                continue
            if inserts and (node in deleted_at or not in_graph):
                return True
            if (held and not held.isdisjoint(labels)) or (more and not more.isdisjoint(labels)):
                return True
        return False

    def _closure(self, insertions: list[_Edit]) -> dict[str, set[str]]:
        """The pairs outside P(∅) in the closure over the graph plus the
        edges of ``insertions``."""
        added: dict[str, set[str]] = {}
        inserted: dict[str, list] = {}
        work = []
        for (s, dprop), (o, inverse) in (edit.ends for edit in insertions):
            inserted.setdefault(s, []).append((dprop, o))
            inserted.setdefault(o, []).append((inverse, s))
            work.extend((s, label) for label in self.base.get(s, ()))
            work.extend((o, label) for label in self.base.get(o, ()))
        self._close(added, inserted, work)
        return added

    def admits(self, edits: list[_Edit]) -> bool:
        """Does every edit of the set count at one of its endpoints?"""
        uncounted = [edit for edit in edits if not edit.counts]
        if not uncounted:
            return True  # counting only grows with the pairs and the deletions
        added: dict[str, set[str]] = {}
        growers = tuple(edit.key for edit in edits if edit.grows)
        if growers:
            added = self._closures.get(growers)
            if added is None:
                added = self._closures[growers] = self._closure([e for e in edits if e.grows])
            # the closure over the growing insertions alone is the set's
            # unless another insertion has an end where it added pairs: from
            # the pairs of P(∅) at its ends, an insertion that does not grow
            # P(∅) reaches only P(∅)
            for edit in edits:
                (s, _), (o, _) = edit.ends
                if edit.inserts and not edit.grows and (s in added or o in added):
                    added = self._closure([e for e in edits if e.inserts])
                    break
        deleted_at = {node for e in edits if not e.inserts for node, _ in e.ends}
        return all(self._counts(e.inserts, e.counting, added, deleted_at) for e in uncounted)


def enumerate_repairs(
    graph: Graph,
    schema: Schema,
    typing0: list[TypingEntry],
    max_edits: int = 2,
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> RepairResult:
    """Breadth-first sweep over edit-set sizes 0, 1, ...; returns every valid
    edit set of the first size that admits one.

    Edit sets that cannot be minimal are skipped unchecked. For an edit set
    E, let P(E) be the smallest set of (node, label) pairs that holds every
    requested pair, of either sign, and is closed under this step: for
    (x, l) in P(E) and an edge of x in the doubled view of the graph plus
    E's insertions (deletions are ignored, so P(E) only grows), if shape l
    has a triple constraint on the edge's directed property with ``@<l2>``
    or ``!@<l2>``, add (target, l2). An edit (s, p, o) counts at s (with
    ``p``) or at o (with ``^p``) when some (x, l) in P(E) there has shape l
    mention that directed property, as a constraint or as EXTRA; or shape
    l CLOSED in that direction; or the edit is an insertion and x is not a
    node of the graph or E deletes a triple at x. E is checked only if
    every edit counts at one of its endpoints.

    Why this loses no minimal repair: let E be valid, W a global typing
    witness of the edited graph G_E, and e an edit of E that counts
    nowhere. W's facts, and every pair the certain typing consults from
    them, lie in P(E), since each is reached from a requested pair along
    an edge of G_E whose property carries a shape reference (propagation,
    the EXTRA check and the certain typing's own decisions all read only
    such edges). At each such pair, e's edge carries a property the shape
    does not mention, in a direction it does not close, so the only
    consumer it can take is the open slot, which adds nothing to the bag
    and propagates nothing; and the node keeps another triple without e.
    The local witnesses, their bags and their propagation then correspond
    one to one between G_E and G_(E without e), the certain typing decides
    the same signs on P(E) (by induction over its acyclic region), and W
    with e's edge added or dropped as open is a witness for the smaller
    set. So a minimum valid E has no such edit. Resource bounds (the
    step budgets) are outside this argument: a skipped edit set can no
    longer raise them.

    The sets of each size are taken in ``itertools.combinations`` order
    over the edit atoms; of those that pass the test, those differing only
    by a renaming of fresh blanks are checked once, the first in order.

    The request is checked first, as ``engine.check_request`` checks it:
    a node the graph lacks raises :class:`UnknownNodeError`. Once the
    unedited graph has failed the request, only the sets of size one or
    more that the screen passes (``shexd.incremental.Screen``, which
    rejects only sets whose check would fail as the unedited graph's did;
    its docstring says why) are generated, by ``Screen.generate``, in the
    same order; each then meets the relevance test above and the
    fresh-blank dedupe before its check. A rejected set is never charged
    against ``CHECK_BUDGET``, so a set whose check would have run out of
    budget (exit 4) is skipped instead. Screening first checks the same
    sets as screening last: every filter is pure and gives every
    fresh-blank renaming of a set the same answer (a fresh blank is never
    a graph node, never holds keys or a decided sign, and every fresh
    blank has the same value), so a renaming class keeps its first member.

    Two shortcuts build fewer atoms and check the same sets in the same
    order, so the dedupe's representatives and the exit-4 point stay:

    - The list of every atom is never built. The screen names an edit by
      its rank in that list (:class:`_Universe`) and lists only the edits
      of its passing groups and, for a group smaller than the size, their
      extensions; an atom's triple is built once per search, when a
      generated set that holds it passes the relevance test, which reads
      an edit once per triple key.
    - At k edits, fresh blanks take only the k smallest labels in string
      order (``repair10`` sorts before ``repair2``; :func:`_fresh_labels`).
      A set that passes the relevance test uses at most k fresh blanks: a
      blank holds a pair only through an inserted edge and each edit
      counts at a node with a pair, so each component of those blanks in
      the graph of the set's insertions is joined to another node, and
      there are at least as many insertions as blanks. If a checked set
      used a label b outside the k smallest, it would leave one of those,
      a, unused; renaming b to a gives each atom that held b a smaller
      key, hence a set earlier in combination order that every filter
      treats alike, which the dedupe would have checked instead. So the
      work grows with the size reached, not with ``max_edits``.

    Each set is checked by :func:`is_valid_after`, and all the checks of
    one call share one :class:`LocalWitnessCache`: a pair whose
    neighbourhood a set leaves alone is not enumerated again. The graph's
    size is not bounded.
    """
    from . import incremental  # loaded by the first search, so `import shexd` stays as it was

    check_request(typing0, graph, schema)
    witnesses = LocalWitnessCache(schema, graph, bag_bound=bag_bound)
    unedited = _edit_set(())
    if is_valid_after(graph, unedited, schema, typing0, bag_bound=bag_bound, witnesses=witnesses):
        return RepairResult(0, (unedited,), max_edits)
    relevance = _Relevance(graph, schema, typing0)
    screen = incremental.screen_for(witnesses, typing0)
    atoms: dict[tuple, Atom] = {}  # triple key -> its edit, built once per search
    for size in range(1, max_edits + 1):
        universe = _Universe(graph, schema, _fresh_labels(graph, max_edits, size))
        read: dict[int, _Edit] = {}  # rank -> what the relevance test reads of its edit
        valid: list[EditSet] = []
        seen: set[tuple] = set()
        for combo in screen.generate(universe, size):
            edits = [read.get(r) or read.setdefault(r, relevance.edit(*universe.edit(r))) for r in combo]
            if not relevance.admits(edits):
                continue
            edits = _edit_set(atoms.get(e.key) or atoms.setdefault(e.key, _atom(universe, e.inserts, e.key))
                              for e in edits)
            if any(_is_fresh_blank(t.subject) or _is_fresh_blank(t.obj) for t in edits.insertions):
                canonical = _canonical_blank_form(edits)
                if canonical in seen:
                    continue
                seen.add(canonical)
            if is_valid_after(
                graph, edits, schema, typing0, bag_bound=bag_bound, witnesses=witnesses
            ):
                valid.append(edits)
        if valid:
            valid.sort(key=EditSet.sort_key)
            return RepairResult(size, tuple(valid), max_edits)
    return RepairResult(None, (), max_edits)


def is_repair(
    graph: Graph,
    graph_prime: Graph,
    schema: Schema,
    typing0: list[TypingEntry],
    budget: int = 4,
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> bool:
    """Is ``graph_prime`` a minimally edited valid variant of ``graph``?

    Deliberately exponential and independent of the search: validity of the
    edited graph, plus a sweep checking every strictly smaller edit set,
    without skipping any. Each check asks :func:`reference_validate`, under
    its node bound ``CHECK_MAX_NODES`` and step budget ``CHECK_BUDGET``, not
    the decider :func:`is_valid_after` uses.
    """
    before = {t.key(): t for t in graph.triples}
    after = {t.key(): t for t in graph_prime.triples}
    dels = frozenset(t for k, t in before.items() if k not in after)
    inss = frozenset(t for k, t in after.items() if k not in before)
    edits = EditSet(dels, inss)
    if edits.size > budget:
        raise SearchBudgetExceededError(
            f"graphs differ by {edits.size} triples, beyond the budget of {budget}"
        )
    if not _reference_valid_after(graph, edits, schema, typing0, bag_bound=bag_bound):
        return False
    if edits.size == 0:
        return True
    atoms = _edit_atoms(graph, schema, edits.size - 1)
    for size in range(edits.size):
        for combo in itertools.combinations(atoms, size):
            edits = _edit_set(combo)
            if _reference_valid_after(graph, edits, schema, typing0, bag_bound=bag_bound):
                return False
    return True


def repairs_to_json(result: RepairResult) -> str:
    doc = {
        "minSize": result.min_size,
        "repairs": [
            {
                "delete": to_ntriples(sorted(e.deletions, key=Triple.key)).splitlines(),
                "insert": to_ntriples(sorted(e.insertions, key=Triple.key)).splitlines(),
            }
            for e in result.repairs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
