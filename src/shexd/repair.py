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
from bisect import bisect_left
from dataclasses import dataclass

from .engine import (
    CertainTyping,
    LocalWitnessCache,
    TypingEntry,
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


def insertion_domain(graph: Graph, schema: Schema, max_edits: int) -> list[Triple]:
    """Candidate triples for insertion, in a deterministic order."""
    subjects: list[Iri | BlankRef] = []
    objects: list[Term] = []
    for node in graph.nodes:
        value = graph.val(node)
        if isinstance(value, Iri):
            subjects.append(value)
            objects.append(value)
        elif isinstance(value, Literal):
            objects.append(value)
        else:
            blank = BlankRef(node[2:])
            subjects.append(blank)
            objects.append(blank)
    labels = (f"repair{i}" for i in itertools.count())
    free = (label for label in labels if not graph.has_node("_:" + label))
    fresh = [FreshBlank(label) for label in itertools.islice(free, max_edits)]
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
    existing_objects = {term_key(o) for o in objects}
    objects.extend(lit for key, lit in sorted(pool.items()) if key not in existing_objects)

    present = {t.key() for t in graph.triples}
    out = []
    for s, p, o in itertools.product(subjects, sorted(properties), objects):
        t = Triple(s, p, o)
        if t.key() not in present:
            out.append(t)
    out.sort(key=Triple.key)
    return out


def apply_edits(graph: Graph, edits: EditSet) -> Graph:
    """The edited graph: the surviving triples in order, then the insertions
    in triple order, patched onto the graph's tables (see :meth:`Graph.edited`)."""
    return graph.edited(edits.deletions, sorted(edits.insertions, key=Triple.key))


def is_valid_after(
    graph: Graph,
    edits: EditSet,
    schema: Schema,
    typing0: list[TypingEntry],
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
    witnesses: LocalWitnessCache | None = None,
) -> bool:
    """Apply the edits and decide the request on the edited graph by its
    maximal typing (:func:`maximal_typing_validation`).

    Local witnesses are read through ``witnesses``, a cache for this graph,
    schema and bag bound shared by the checks of one search (a fresh one
    when None), under a budget of ``CHECK_BUDGET`` local witnesses; past it,
    :class:`SearchBudgetExceededError`. An accepted set counts only once
    :func:`verify_global_typing_witness`, with a certain typing of its own,
    accepts the decider's witness; a rejected certificate raises
    :class:`CertificateError`. The graph's size is not bounded.

    Edit sets that delete a node mentioned by the requested typing fail:
    the request must stay addressable.
    """
    if witnesses is None:
        witnesses = LocalWitnessCache(schema, graph, bag_bound=bag_bound)
    elif (witnesses.schema, witnesses.graph, witnesses.bag_bound) != (schema, graph, bag_bound):
        raise ValueError("the local witness cache belongs to another request")
    edited = apply_edits(graph, edits)
    for node, _, _ in typing0:
        if not edited.has_node(node):
            return False
    reader = witnesses.reader(edited, CHECK_BUDGET)
    try:
        gtw = maximal_typing_validation(
            schema,
            edited,
            typing0,
            certain=CertainTyping(schema, edited, bag_bound=bag_bound, witnesses=reader),
            witnesses=reader,
            bag_bound=bag_bound,
        )
    except ValidationError:
        return False
    certain = CertainTyping(schema, edited, bag_bound=bag_bound)
    if not verify_global_typing_witness(gtw, edited, schema, certain, bag_bound=bag_bound):
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


def _edit_atoms(graph: Graph, schema: Schema, max_edits: int) -> list[Atom]:
    """Every single edit: the deletions in triple order, then the insertions."""
    deletions = sorted(graph.triples, key=Triple.key)
    insertions = insertion_domain(graph, schema, max_edits)
    return [("del", t) for t in deletions] + [("ins", t) for t in insertions]


def _edit_set(atoms) -> EditSet:
    atoms = tuple(atoms)
    return EditSet(
        frozenset(t for kind, t in atoms if kind == "del"),
        frozenset(t for kind, t in atoms if kind == "ins"),
    )


def _admissible_combinations(size: int, counts: list[bool], enables: list[bool]):
    """The index sets of ``itertools.combinations(range(len(counts)), size)``,
    in that order, that hold no atom whose ``counts`` is false or hold an
    atom whose ``enables`` is true; the others are never built."""
    n = len(counts)
    enablers = [i for i in range(n) if enables[i]]
    live = [i for i in range(n) if counts[i] or enables[i]]

    def within(pool: list[int], start: int, stop: int) -> list[int]:
        return pool[bisect_left(pool, start):bisect_left(pool, stop)]

    def extend(prefix: tuple[int, ...], start: int, enabled: bool, needs_enabler: bool):
        slots = size - len(prefix)
        if not slots:
            yield prefix
            return
        stop = n - slots + 1
        if enabled:
            pool = range(start, stop)
        else:
            # any atom before the last enabler can still be followed by it;
            # past it, a set that needs an enabler can take only that one
            last = enablers[-1] if enablers and slots > 1 else -1
            reach = max(start, min(last, stop))
            pool = itertools.chain(
                range(start, reach), within(enablers if needs_enabler else live, reach, stop)
            )
        for i in pool:
            yield from extend(
                prefix + (i,), i + 1, enabled or enables[i],
                (needs_enabler or not counts[i]) and not enables[i],
            )

    return extend((), 0, False, False)


class _Relevance:
    """Which edit sets can be minimal repairs; see :func:`enumerate_repairs`.

    Pairs are held as node -> labels. The base closure P(∅), the endpoints
    of every atom, and whether an atom counts already under P(∅) are
    computed once; an edit set extends the closure only when one of its
    insertions adds a pair to it. An atom that does not count under P(∅)
    can count only in a set that also holds an *enabler*: an insertion that
    grows the closure, or a deletion (insertions at its ends may then keep
    the node in the graph).
    """

    def __init__(self, graph: Graph, schema: Schema, typing0: list[TypingEntry], atoms: list[Atom]):
        self.graph = graph
        self.shapes = schema.shapes
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
        self.inserts = [kind == "ins" for kind, _ in atoms]
        # (node, directed property) of the edit's edge at its subject, then at its object
        self.ends = [
            (
                (term_key(t.subject), DirectedProperty(t.prop)),
                (term_key(t.obj), DirectedProperty(t.prop, inverse=True)),
            )
            for _, t in atoms
        ]
        self.base: dict[str, set[str]] = {}
        for node, label, _ in typing0:
            self.base.setdefault(node, set()).add(label)
        self._close(self.base, {}, [(n, l) for n, ls in self.base.items() for l in ls])
        self.base_counts = [self._counts(i, self.base, set()) for i in range(len(atoms))]
        self.grows = [self.inserts[i] and self._adds_pair(i) for i in range(len(atoms))]
        self.enables = [grows or not inserts for grows, inserts in zip(self.grows, self.inserts)]

    def _adds_pair(self, i: int) -> bool:
        """Does the edge of edit ``i``, read from either end, add a pair to P(∅)?"""
        subject_end, object_end = self.ends[i]
        for (node, dprop), (far, _) in ((subject_end, object_end), (object_end, subject_end)):
            for label in self.base.get(node, ()):
                for l2 in self.refs.get(label, {}).get(dprop, ()):
                    if l2 not in self.base.get(far, ()):
                        return True
        return False

    def _close(self, pairs: dict[str, set[str]], inserted: dict, work: list) -> None:
        """Close ``pairs`` in place under the reference step, over the graph's
        edges plus ``inserted`` (node -> [(directed property, target)]),
        expanding from the pairs in ``work``."""
        while work:
            node, label = work.pop()
            refs = self.refs.get(label)
            if not refs:
                continue
            edges = [(e.dprop, e.target) for e in self.graph.neighbourhood(node)] if (
                self.graph.has_node(node)
            ) else []
            for dprop, target in edges + inserted.get(node, []):
                for l2 in refs.get(dprop, ()):
                    held = pairs.setdefault(target, set())
                    if l2 not in held:
                        held.add(l2)
                        work.append((target, l2))

    def _counts(self, i: int, pairs: dict[str, set[str]], deleted_at: set[str]) -> bool:
        """Does edit ``i`` count at one of its ends, given the pairs and the
        nodes the edit set deletes a triple at?"""
        for node, dprop in self.ends[i]:
            labels = pairs.get(node)
            if not labels:
                continue
            if self.inserts[i] and (node in deleted_at or not self.graph.has_node(node)):
                return True
            for label in labels:
                sd = self.shapes.get(label)
                if sd is not None and (
                    dprop in sd.tcs_by_dprop
                    or dprop in sd.extra
                    or (sd.closed_inv if dprop.inverse else sd.closed_fwd)
                ):
                    return True
        return False

    def admits(self, combo: tuple[int, ...]) -> bool:
        """Does every edit of the set count at one of its endpoints?"""
        if all(self.base_counts[i] for i in combo):
            return True  # counting only grows with the pairs and the deletions
        pairs = self.base
        if any(self.grows[i] for i in combo):
            pairs = {node: set(labels) for node, labels in self.base.items()}
            inserted: dict[str, list] = {}
            work = []
            for i in combo:
                if self.inserts[i]:
                    (s, dprop), (o, inverse) = self.ends[i]
                    inserted.setdefault(s, []).append((dprop, o))
                    inserted.setdefault(o, []).append((inverse, s))
                    work.extend((s, label) for label in pairs.get(s, ()))
                    work.extend((o, label) for label in pairs.get(o, ()))
            self._close(pairs, inserted, work)
        deleted_at = {node for i in combo if not self.inserts[i] for node, _ in self.ends[i]}
        return all(self._counts(i, pairs, deleted_at) for i in combo)


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
    node of the graph, or E deletes a triple at x. E is checked only if
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

    The sets are generated in ``itertools.combinations`` order over the
    edit atoms, but a set whose edits do not all count under P(∅) is never
    built unless it holds an enabler (see :class:`_Relevance`): without
    one, P(E) = P(∅) and no insertion lands on a node E deletes at, so it
    would fail the test anyway. Of the sets that pass, those differing only
    by a renaming of fresh blanks are checked once, the first in order.
    Fresh blanks are never graph nodes, so the test gives every renaming
    the same answer, and the set checked is the first of its renaming
    class whether the test runs before the dedupe or after it; running it
    first keeps the dedupe to the few sets that pass. (A request that names
    a fresh blank's label breaks that symmetry; the CLI rejects requests
    for nodes the graph does not hold.)

    Each set is checked by :func:`is_valid_after`, and all the checks of
    one call share one :class:`LocalWitnessCache`: a pair whose
    neighbourhood a set leaves alone is not enumerated again. The graph's
    size is not bounded.
    """
    atoms = _edit_atoms(graph, schema, max_edits)
    relevance = _Relevance(graph, schema, typing0, atoms)
    witnesses = LocalWitnessCache(schema, graph, bag_bound=bag_bound)
    fresh = [_is_fresh_blank(t.subject) or _is_fresh_blank(t.obj) for _, t in atoms]

    for size in range(max_edits + 1):
        valid: list[EditSet] = []
        seen: set[tuple] = set()
        for combo in _admissible_combinations(size, relevance.base_counts, relevance.enables):
            if not relevance.admits(combo):
                continue
            edits = _edit_set(atoms[i] for i in combo)
            if any(fresh[i] for i in combo):
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
