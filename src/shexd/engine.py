"""Validation engine: certain typing, flooding with backtracking, a decider
by the maximal typing with a local-witness cache, a witness verifier, and an
exhaustive reference validator used as the oracle.

A run answers "can the requested typing be extended to a global typing
witness?", i.e. a consistent set of signed (node, shape) facts plus one local
witness per positive fact, closed under propagation, with negative facts
certified and EXTRA consumption genuinely violating the bypassed constraints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import (
    IncompatibleInitialTypingError,
    SearchBudgetExceededError,
    UnknownNodeError,
    ValidationError,
    WellDefinednessError,
)
from .matching import (
    DEFAULT_BAG_BOUND,
    candidate_count,
    candidate_witnesses,
    check_local_witness,
    local_witnesses,
    propagation,
    value_satisfies,
)
from .rdf_graph import Graph
from .schema_model import (
    VALUE_SET_KINDS,
    ExtraSlot,
    Schema,
    ShapeRef,
    check_well_defined,
    consumer_key,
)

TypingEntry = tuple[str, str, str]  # (node id, shape label, '+' | '-')
Hypothesis = tuple[str, str]


def ensure_well_defined(schema: Schema) -> None:
    report = check_well_defined(schema)
    if report is not None:
        raise WellDefinednessError(report.label, list(report.cycle))


def check_compatible(t1: Iterable[TypingEntry], t2: Iterable[TypingEntry]) -> bool:
    """False iff some (node, shape) carries opposite signs across the typings."""
    signs1: dict[Hypothesis, set[str]] = {}
    for n, s, sign in t1:
        signs1.setdefault((n, s), set()).add(sign)
    for n, s, sign in t2:
        other = signs1.get((n, s))
        if other and ("+" if sign == "-" else "-") in other:
            return False
    return True


@dataclass(frozen=True)
class GlobalTypingWitness:
    typing: frozenset[TypingEntry]
    lw: Mapping[Hypothesis, Mapping[str, object]]

    def positives(self) -> tuple[Hypothesis, ...]:
        return tuple(sorted((n, s) for n, s, sign in self.typing if sign == "+"))


def witness_to_json(gtw: GlobalTypingWitness) -> str:
    """Bit-stable JSON rendering of a global typing witness."""
    typing_doc = [
        {"node": n, "shape": s, "sign": sign}
        for n, s, sign in sorted(gtw.typing)
    ]
    witnesses_doc = {
        f"{n}|{s}": {
            edge_id: consumer_key(consumer)
            for edge_id, consumer in sorted(lw.items())
        }
        for (n, s), lw in sorted(gtw.lw.items())
    }
    return json.dumps(
        {"typing": typing_doc, "witnesses": witnesses_doc}, indent=2, sort_keys=True
    ) + "\n"


# --- certain typing ----------------------------------------------------------

class CertainTyping:
    """Schema-forced decisions for every shape reachable from a negated one.

    Those shapes sit on an acyclic dependency region, so each (node, shape)
    question has a unique answer, decided recursively and memoized. Only the
    decisions on labels that actually occur negated are exposed as the
    certain typing; the rest of the region backs them internally. The
    negated labels and the region are read off the schema, which derives
    them once.

    ``witnesses`` maps (node, label) to that pair's local witnesses, each
    with its propagation, in :func:`local_witnesses` order; by default they
    are enumerated lazily, one at a time, until a decision is reached.
    """

    def __init__(
        self,
        schema: Schema,
        graph: Graph,
        *,
        bag_bound: int = DEFAULT_BAG_BOUND,
        witnesses: Callable[[str, str], Iterable[tuple[dict, Iterable[TypingEntry]]]] | None = None,
    ):
        ensure_well_defined(schema)
        self.schema = schema
        self.graph = graph
        self.bag_bound = bag_bound
        self.negated = schema.negated_labels
        self.region = schema.certain_region
        # None reads _local_witnesses; that bound method, kept here, would
        # make a reference cycle that holds the graph until a collection
        self._witnesses = witnesses
        self._memo: dict[Hypothesis, tuple[bool, dict | None]] = {}

    def _local_witnesses(self, node: str, label: str):
        shape_def = self.schema.shapes[label]
        for cand in local_witnesses(node, shape_def, self.graph, bag_bound=self.bag_bound):
            yield cand, propagation(cand, self.graph, shape_def)

    def is_negated_label(self, label: str) -> bool:
        return label in self.negated

    def sign(self, node: str, label: str) -> bool:
        """True when (node, label) certainly holds; label must be in the region."""
        if label not in self.region:
            raise ValueError(f"<{label}> is not decided by the certain typing")
        key = (node, label)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._decide(node, label)
            self._memo[key] = hit
        return hit[0]

    def witness(self, node: str, label: str) -> dict:
        if not self.sign(node, label):
            raise KeyError(f"({node}, {label}) is certainly unsatisfied")
        return self._memo[(node, label)][1]

    def _decide(self, node: str, label: str) -> tuple[bool, dict | None]:
        for cand, prop in (self._witnesses or self._local_witnesses)(node, label):
            if all(self.sign(n2, l2) == (s2 == "+") for n2, l2, s2 in prop) and check_gtw_extra(
                self.schema, label, cand, self, self.graph
            ):
                return (True, cand)
        return (False, None)

    def decided_entries(self) -> frozenset[TypingEntry]:
        """The certain typing: every node decided against every negated label."""
        out = set()
        for label in sorted(self.negated):
            for node in self.graph.nodes:
                out.add((node, label, "+" if self.sign(node, label) else "-"))
        return frozenset(out)


def compute_certain_typing(graph: Graph, schema: Schema, **kwargs) -> CertainTyping:
    """Eagerly decide every node against every negated-occurring shape."""
    certain = CertainTyping(schema, graph, **kwargs)
    certain.decided_entries()
    return certain


def check_gtw_extra(
    schema: Schema, label: str, witness: Mapping[str, object], certain: CertainTyping, graph: Graph
) -> bool:
    """Every EXTRA-consumed edge must genuinely violate each same-property
    constraint: some value-set conjunct fails, or some shape conjunct is
    certainly decided the opposite way."""
    shape_def = schema.shapes[label]
    for edge_id, consumer in witness.items():
        if not isinstance(consumer, ExtraSlot):
            continue
        edge = graph.edge_by_id[edge_id]
        target_value = graph.val(edge.target)
        for tc in shape_def.tcs_by_dprop.get(edge.dprop, ()):
            violated = False
            for conj in tc.value_class:
                if isinstance(conj, VALUE_SET_KINDS):
                    if not value_satisfies(target_value, conj):
                        violated = True
                        break
                elif isinstance(conj, ShapeRef):
                    # need the flipped fact to be certain
                    if certain.sign(edge.target, conj.label) == conj.negated:
                        violated = True
                        break
            if not violated:
                return False
    return True


def _compatible_with_certain(prop: Iterable[TypingEntry], certain: CertainTyping) -> bool:
    for n, s, sign in prop:
        if certain.is_negated_label(s) and certain.sign(n, s) != (sign == "+"):
            return False
    return True


# --- the flooding engine -----------------------------------------------------

_TABLES = ("typing_hyp", "lw_hyp", "requires", "positions")


@dataclass
class TUC:
    """Typing witness under construction.

    ``typing_hyp`` and ``requires`` are insertion-ordered sets (dicts whose
    values are ``None``) and ``lw_hyp`` and ``positions`` are dicts: the four
    *tables*. ``to_check`` only ever grows at its end; the queue is
    ``to_check[head:]``.

    Between two removals the state only grows: the search inserts new keys
    into the tables, appends to ``to_check`` and ``failures``, and moves
    ``head`` forward. A removal is a :func:`backtrack`, or a candidate
    position that changes for a key already in ``positions``. So a snapshot
    records each table with its length, the queue head and the lengths of the
    two lists, in O(1), and a restore truncates back to them. A removal that
    would change a table in place first swaps in a copy of it if the latest
    logged choice still reads it (see :meth:`own`), so a table is copied at
    most once per removal, and never on a run without removals.
    """

    typing_hyp: dict[TypingEntry, None] = field(default_factory=dict)
    lw_hyp: dict[Hypothesis, dict] = field(default_factory=dict)
    requires: dict[tuple[Hypothesis, Hypothesis], None] = field(default_factory=dict)
    to_check: list[Hypothesis] = field(default_factory=list)
    head: int = 0
    positions: dict[Hypothesis, int] = field(default_factory=dict)
    choice_log: list = field(default_factory=list)
    failures: list[tuple[str, str, int]] = field(default_factory=list)

    def snapshot(self) -> dict:
        """The state as it stood before the hypothesis just dequeued was
        taken off the queue."""
        return {
            "typing_hyp": (self.typing_hyp, len(self.typing_hyp)),
            "lw_hyp": (self.lw_hyp, len(self.lw_hyp)),
            "requires": (self.requires, len(self.requires)),
            "positions": (self.positions, len(self.positions)),
            "head": self.head - 1,
            "to_check": len(self.to_check),
            "failures": len(self.failures),
        }

    def restore(self, snap: dict) -> None:
        """Go back to ``snap``, which must be the latest logged snapshot.

        Earlier snapshots that read the same tables hold shorter prefixes of
        them, and every later one has been dropped, so truncating the tables
        in place loses nothing a logged choice needs.
        """
        for name in _TABLES:
            table, length = snap[name]
            while len(table) > length:
                table.popitem()
            setattr(self, name, table)
        self.head = snap["head"]
        del self.to_check[snap["to_check"]:]
        del self.failures[snap["failures"]:]

    def own(self, name: str) -> dict:
        """The table ``name``, first replaced by a copy if the latest logged
        choice still reads it. Take it before a change that is not growth:
        a deletion, or a new value for a key already present.

        A table that the latest snapshot does not read is read by no logged
        snapshot: tables only change hands by being copied, rebuilt, or
        taken back by a restore of the latest snapshot.
        """
        table = getattr(self, name)
        if self.choice_log and self.choice_log[-1][0][name][0] is table:
            table = dict(table)
            setattr(self, name, table)
        return table

    def set_position(self, key: Hypothesis, position: int) -> None:
        """Move ``key`` to its candidate ``position``; a removal when ``key``
        already had one."""
        if key in self.positions:
            self.own("positions")[key] = position
        else:
            self.positions[key] = position


def backtrack(failed: Hypothesis, tuc: TUC, protected: frozenset = frozenset()) -> None:
    """Retract the requirers of an unprovable hypothesis.

    Direct requirers are removed and re-enqueued with their next candidate;
    hypotheses whose every requirer got removed are dropped as orphans
    (except protected ones, i.e. the requested entries themselves); outside
    hypotheses that pointed into the removed set lose their witness and go
    back on the queue so their requirements get re-established.
    """
    requirers: dict[Hypothesis, set[Hypothesis]] = {}
    for a, b in tuc.requires:
        requirers.setdefault(b, set()).add(a)
    direct = requirers.get(failed, set())
    removal = direct | {failed}
    changed = True
    while changed:
        changed = False
        for h, hs in requirers.items():
            if h not in removal and h not in protected and hs <= removal:
                removal.add(h)
                changed = True
    invalidated = sorted(
        {a for (a, b) in tuc.requires if b in removal and a not in removal}
    )
    typing_hyp, lw_hyp = tuc.own("typing_hyp"), tuc.own("lw_hyp")
    for h in removal:
        typing_hyp.pop((h[0], h[1], "+"), None)
        lw_hyp.pop(h, None)
    tuc.requires = {
        (a, b): None for (a, b) in tuc.requires if a not in removal and b not in removal
    }
    for h in sorted(direct):
        tuc.set_position(h, tuc.positions.get(h, 0) + 1)
        typing_hyp[(h[0], h[1], "+")] = None
        tuc.to_check.append(h)
    for h in invalidated:
        lw_hyp.pop(h, None)
        tuc.to_check.append(h)


def copy_proof(
    node: str,
    label: str,
    certain: CertainTyping,
    tuc: TUC,
    graph: Graph,
    schema: Schema,
) -> None:
    """Copy the stored proof of a certain fact, recursively."""
    key = (node, label)
    if key in tuc.lw_hyp:
        return
    witness = certain.witness(node, label)
    tuc.lw_hyp[key] = witness
    tuc.typing_hyp[(node, label, "+")] = None
    for n2, l2, sign in sorted(propagation(witness, graph, schema.shapes[label])):
        tuc.typing_hyp[(n2, l2, sign)] = None
        if sign == "+":
            copy_proof(n2, l2, certain, tuc, graph, schema)


class _WitnessSource:
    """Lazily extended list of the local witnesses of one (node, shape) pair.

    The local witnesses do not depend on engine state, so one source can
    back every search branch.
    """

    def __init__(self, node, label, schema, graph, bag_bound):
        self._iter = local_witnesses(node, schema.shapes[label], graph, bag_bound=bag_bound)
        self._seen: list[dict] = []
        self._done = False

    def get(self, position: int) -> dict | None:
        while not self._done and len(self._seen) <= position:
            nxt = next(self._iter, None)
            if nxt is None:
                self._done = True
                break
            self._seen.append(nxt)
        return self._seen[position] if position < len(self._seen) else None


def check_request(
    typing0: Iterable[TypingEntry], graph: Graph, schema: Schema
) -> list[TypingEntry]:
    """The requested entries without repeats, once each names a graph node,
    a schema shape and a sign, and each negative one a negated-occurring
    shape; raises :class:`UnknownNodeError` or ``ValueError`` otherwise."""
    entries = list(dict.fromkeys(typing0))
    for node, label, sign in entries:
        if not graph.has_node(node):
            raise UnknownNodeError(f"requested node {node!r} is not in the graph")
        if label not in schema.shapes:
            raise ValueError(f"requested shape <{label}> is not in the schema")
        if sign not in ("+", "-"):
            raise ValueError(f"typing sign must be '+' or '-', got {sign!r}")
        if sign == "-" and label not in schema.negated_labels:
            raise ValueError(
                f"negative assertions are only supported for negated-occurring"
                f" shapes, and <{label}> is not one"
            )
    return entries


def flooding_validation(
    schema: Schema,
    graph: Graph,
    typing0: Iterable[TypingEntry],
    *,
    certain: CertainTyping | None = None,
    bag_bound: int = DEFAULT_BAG_BOUND,
    stats: dict | None = None,
) -> GlobalTypingWitness:
    """Construct a global typing witness extending ``typing0``, or fail.

    Hypotheses are dequeued FIFO; certain facts are skipped and their proofs
    copied at the end; candidate witnesses stream lazily and are gated by the
    EXTRA condition and by compatibility of their propagation with the
    certain typing. A failed hypothesis triggers backtracking; if the run
    ends without covering ``typing0``, the most recent accepted choice with
    remaining candidates is restored and the search resumes, so the engine is
    complete relative to the declarative semantics.

    Each accepted choice is logged with an O(1) :meth:`TUC.snapshot`. A
    table is copied only when a removal is about to change one that a logged
    choice still reads, so on a run without removals (no backtracking, and
    no hypothesis that rejects two candidates), such as a valid request whose
    first candidates hold, the search state grows by O(1) per accepted
    witness and the run's time and memory stay linear in the facts it
    establishes.
    """
    if certain is None:
        certain = CertainTyping(schema, graph, bag_bound=bag_bound)
    if stats is None:
        stats = {}
    stats.setdefault("candidates_checked", {})
    stats.setdefault("cert_skips", 0)
    stats.setdefault("restores", 0)

    typing0_entries = check_request(typing0, graph, schema)
    contradicting = [
        (n, s, sign)
        for n, s, sign in typing0_entries
        if certain.is_negated_label(s) and certain.sign(n, s) != (sign == "+")
    ]
    if contradicting:
        raise IncompatibleInitialTypingError(
            "the requested typing contradicts the certain typing",
            failed=contradicting,
        )

    protected = frozenset((n, s) for n, s, sign in typing0_entries if sign == "+")
    sources: dict[Hypothesis, _WitnessSource] = {}

    def source(key: Hypothesis) -> _WitnessSource:
        src = sources.get(key)
        if src is None:
            src = sources[key] = _WitnessSource(key[0], key[1], schema, graph, bag_bound)
        return src

    tuc = TUC()
    tuc.typing_hyp = dict.fromkeys(typing0_entries)
    tuc.to_check = sorted(protected)

    while True:
        while tuc.head < len(tuc.to_check):
            key = tuc.to_check[tuc.head]
            tuc.head += 1
            if (key[0], key[1], "+") not in tuc.typing_hyp:
                continue  # removed while queued
            if key in tuc.lw_hyp:
                continue  # already established
            node, label = key
            if certain.is_negated_label(label):
                if certain.sign(node, label):
                    stats["cert_skips"] += 1
                    continue  # proof copied after the main loop
                tuc.failures.append((node, label, 0))
                backtrack(key, tuc, protected)
                continue
            position = tuc.positions.get(key, 0)
            witness = source(key).get(position)
            if witness is None:
                tuc.failures.append((node, label, position))
                backtrack(key, tuc, protected)
                continue
            stats["candidates_checked"][key] = stats["candidates_checked"].get(key, 0) + 1
            prop = propagation(witness, graph, schema.shapes[label])
            if check_gtw_extra(schema, label, witness, certain, graph) and _compatible_with_certain(
                prop, certain
            ):
                tuc.choice_log.append((tuc.snapshot(), key, position))
                tuc.lw_hyp[key] = witness
                for n2, l2, sign in sorted(prop):
                    entry = (n2, l2, sign)
                    if entry not in tuc.typing_hyp:
                        tuc.typing_hyp[entry] = None
                        if sign == "+":
                            tuc.to_check.append((n2, l2))
                    if sign == "+":
                        tuc.requires[(key, (n2, l2))] = None
            else:
                tuc.set_position(key, position + 1)
                tuc.to_check.append(key)

        if all(entry in tuc.typing_hyp for entry in typing0_entries):
            break
        if not tuc.choice_log:
            missing = [e for e in typing0_entries if e not in tuc.typing_hyp]
            raise ValidationError(
                "no global typing witness extends the requested typing",
                failed=missing,
                exhausted=tuple(tuc.failures),
            )
        snap, key, position = tuc.choice_log.pop()
        tuc.restore(snap)
        tuc.set_position(key, position + 1)
        stats["restores"] += 1

    for n, s, sign in sorted(tuc.typing_hyp):
        if sign == "+" and certain.is_negated_label(s) and certain.sign(n, s):
            copy_proof(n, s, certain, tuc, graph, schema)
    return GlobalTypingWitness(frozenset(tuc.typing_hyp), dict(tuc.lw_hyp))


def _certain_entries_for(
    entries: Iterable[TypingEntry], certain: CertainTyping
) -> list[TypingEntry]:
    out = []
    for n, s, _ in entries:
        if certain.is_negated_label(s):
            out.append((n, s, "+" if certain.sign(n, s) else "-"))
    return out


# --- the maximal typing ---------------------------------------------------------

# One local witness, kept compactly: its consumers in neighbourhood order, its
# propagation (sorted), the positive needs on labels that are not negated, and
# the positions of its EXTRA-consumed edges.
CompactWitness = tuple[tuple, tuple[TypingEntry, ...], tuple[Hypothesis, ...], tuple[int, ...]]


class LocalWitnessCache:
    """The local witnesses, with their propagation, of the pairs of ``graph``
    and of the graphs edited from it, against one schema with one bag bound.

    Entries are keyed by (node, label) and kept only for a node whose
    neighbourhood in the graph read is the very tuple it has in ``graph``.
    That key is exact: :meth:`Graph.edited` gives a new tuple to every node
    an edit touches, so a shared tuple holds the same edges, and each of
    their targets keeps that edge, hence its node and value; the edges and
    the targets' values are all that :func:`local_witnesses` and
    :func:`propagation` read of a graph. So a pair whose neighbourhood an
    edit leaves alone is enumerated once. Pairs at touched nodes are
    enumerated on every read and not kept: an edit set's new
    neighbourhoods are rarely met again (757 of the 775 in the boolean
    two-edit repair are read once), and keeping them added about 0.4 MB to
    the repair benchmark's peak RSS. Their enumerations share, per label,
    the admitted consumers of each edge by directed property and target
    value (``edge_options`` of :func:`local_witnesses`), so only an edit's
    own edges are matched anew. Read the cache through :meth:`reader`,
    which charges a budget.
    """

    def __init__(self, schema: Schema, graph: Graph, *, bag_bound: int = DEFAULT_BAG_BOUND):
        self.schema = schema
        self.graph = graph
        self.bag_bound = bag_bound
        self._entries: dict[Hypothesis, tuple[CompactWitness, ...]] = {}
        self._edge_options: dict[str, dict] = {}  # label -> local_witnesses' edge memo

    def reader(self, graph: Graph, budget: float = float("inf")) -> "WitnessReader":
        return WitnessReader(self, graph, budget)


class WitnessReader:
    """The local witnesses of one graph's pairs, read through a
    :class:`LocalWitnessCache` under a budget of local witnesses read.

    Every read is charged the pair's full list, whether it was cached or
    not, so an answer never depends on what is cached; a read past the
    budget raises :class:`SearchBudgetExceededError`. A reader is also a
    witness source for :class:`CertainTyping`.
    """

    def __init__(self, cache: LocalWitnessCache, graph: Graph, budget: float):
        self.cache = cache
        self.graph = graph
        self.remaining = budget

    def compact(self, node: str, label: str) -> tuple[CompactWitness, ...]:
        cache, base = self.cache, self.cache.graph
        kept = base.has_node(node) and base.neighbourhood(node) is self.graph.neighbourhood(node)
        found = cache._entries.get((node, label)) if kept else None
        if found is None:
            found = self._enumerate(node, label)
            if kept:
                cache._entries[(node, label)] = found
        self.remaining -= len(found)
        if self.remaining < 0:
            raise SearchBudgetExceededError("local witness budget exhausted")
        return found

    def _enumerate(self, node: str, label: str) -> tuple[CompactWitness, ...]:
        graph, schema = self.graph, self.cache.schema
        shape_def = schema.shapes[label]
        out = []
        for cand in local_witnesses(
            node, shape_def, graph, bag_bound=self.cache.bag_bound,
            edge_options=self.cache._edge_options.setdefault(label, {}),
        ):
            if len(out) >= self.remaining:
                raise SearchBudgetExceededError("local witness budget exhausted")
            consumers = tuple(cand.values())
            prop = tuple(sorted(propagation(cand, graph, shape_def)))
            out.append((
                consumers,
                prop,
                tuple(
                    (n, l) for n, l, sign in prop
                    if sign == "+" and l not in schema.negated_labels
                ),
                tuple(i for i, c in enumerate(consumers) if isinstance(c, ExtraSlot)),
            ))
        return tuple(out)

    def witness(self, node: str, consumers: tuple) -> dict:
        """The witness dict of ``consumers`` at ``node``."""
        return dict(zip((e.id for e in self.graph.neighbourhood(node)), consumers))

    def __call__(self, node: str, label: str):
        found = self.compact(node, label)
        return ((self.witness(node, w[0]), w[1]) for w in found)


def maximal_typing_validation(
    schema: Schema,
    graph: Graph,
    typing0: Iterable[TypingEntry],
    *,
    certain: CertainTyping | None = None,
    witnesses: WitnessReader | None = None,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> GlobalTypingWitness:
    """Decide the request by the maximal typing; return its witness or fail.

    The schema is stratified: the certain typing settles every label that
    occurs negated, and the EXTRA check and negative facts read only those.
    So the valid positive facts on the other labels are closed under union,
    and they form one greatest fixpoint over the (node, label) pairs
    reachable from the request. Each such pair starts alive. A pair is
    dropped when none of its local witnesses (in :func:`local_witnesses`
    order) passes :func:`_compatible_with_certain` and
    :func:`check_gtw_extra` and has every positive need on a label that is
    not negated still alive. Requested entries on negated labels are
    settled by the certain typing. Pairs are explored and dropped in a
    deterministic order.

    On acceptance the witness takes, from the request outwards, the first
    surviving local witness of each pair, and copies the certain proofs as
    :func:`flooding_validation` does.
    """
    if witnesses is None:
        witnesses = LocalWitnessCache(schema, graph, bag_bound=bag_bound).reader(graph)
    if certain is None:
        certain = CertainTyping(schema, graph, bag_bound=bag_bound, witnesses=witnesses)
    entries = check_request(typing0, graph, schema)
    contradicting = [
        (n, s, sign)
        for n, s, sign in entries
        if certain.is_negated_label(s) and certain.sign(n, s) != (sign == "+")
    ]
    if contradicting:
        raise IncompatibleInitialTypingError(
            "the requested typing contradicts the certain typing",
            failed=contradicting,
        )

    # usable[key]: the local witnesses of the pair that pass the certain
    # typing and the EXTRA check
    usable: dict[Hypothesis, list[CompactWitness]] = {}
    requirers: dict[Hypothesis, list[Hypothesis]] = {}
    requested = sorted(
        {(n, s) for n, s, sign in entries if sign == "+" and s not in certain.negated}
    )
    pairs = list(requested)
    seen = set(pairs)
    for key in pairs:  # grows while it is walked
        node, label = key
        found = usable[key] = []
        for cand in witnesses.compact(node, label):
            consumers, prop, needs, extras = cand
            if not _compatible_with_certain(prop, certain):
                continue
            if extras:
                edges = graph.neighbourhood(node)
                extra = {edges[i].id: consumers[i] for i in extras}
                if not check_gtw_extra(schema, label, extra, certain, graph):
                    continue
            found.append(cand)
            for need in needs:
                requirers.setdefault(need, []).append(key)
                if need not in seen:
                    seen.add(need)
                    pairs.append(need)

    alive = {key for key in pairs if usable[key]}
    dropped = [key for key in pairs if not usable[key]]

    def survivors(key: Hypothesis):
        return (cand for cand in usable[key] if all(need in alive for need in cand[2]))

    while dropped:
        for key in requirers.get(dropped.pop(), ()):
            if key in alive and next(survivors(key), None) is None:
                alive.remove(key)
                dropped.append(key)

    missing = [(n, s, "+") for n, s in requested if (n, s) not in alive]
    if missing:
        raise ValidationError(
            "no global typing witness extends the requested typing", failed=missing
        )

    tuc = TUC(typing_hyp=dict.fromkeys(entries))  # the tables copy_proof fills
    order = list(requested)
    for key in order:  # grows while it is walked
        if key in tuc.lw_hyp:
            continue
        consumers, prop, needs, _ = next(survivors(key))
        tuc.lw_hyp[key] = witnesses.witness(key[0], consumers)
        tuc.typing_hyp.update(dict.fromkeys(prop))
        order.extend(needs)
    for n, s, sign in sorted(tuc.typing_hyp):
        if sign == "+" and certain.is_negated_label(s) and certain.sign(n, s):
            copy_proof(n, s, certain, tuc, graph, schema)
    return GlobalTypingWitness(frozenset(tuc.typing_hyp), dict(tuc.lw_hyp))


# --- independent verification --------------------------------------------------

def verify_global_typing_witness(
    candidate: GlobalTypingWitness,
    graph: Graph,
    schema: Schema,
    certain: CertainTyping,
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> bool:
    """Check a claimed witness against the declarative conditions only."""
    signs: dict[Hypothesis, set[str]] = {}
    for n, s, sign in candidate.typing:
        if s not in schema.shapes or not graph.has_node(n):
            return False
        signs.setdefault((n, s), set()).add(sign)
    if any(len(v) > 1 for v in signs.values()):
        return False

    positives = {(n, s) for n, s, sign in candidate.typing if sign == "+"}
    if set(candidate.lw.keys()) != positives:
        return False

    for (n, s), witness in candidate.lw.items():
        shape_def = schema.shapes[s]
        if not check_local_witness(witness, n, shape_def, graph, bag_bound=bag_bound):
            return False
        if not propagation(witness, graph, shape_def) <= candidate.typing:
            return False
        if not check_gtw_extra(schema, s, witness, certain, graph):
            return False

    for n, s, sign in candidate.typing:
        if sign == "-":
            if not certain.is_negated_label(s) or certain.sign(n, s):
                return False
    return True


# --- exhaustive reference validator -------------------------------------------

# Candidate witnesses of one (node, shape) pair beyond which the reference
# validator gives up.
REFERENCE_MAX_CANDIDATES = 256


def reference_validate(
    schema: Schema,
    graph: Graph,
    typing0: Iterable[TypingEntry],
    *,
    certain: CertainTyping | None = None,
    bag_bound: int = DEFAULT_BAG_BOUND,
    max_nodes: int = 12,
    budget: int = 200_000,
) -> GlobalTypingWitness:
    """Depth-first search over all candidate witnesses, with full
    chronological backtracking. Slow, simple, and trusted as the oracle."""
    if certain is None:
        certain = CertainTyping(schema, graph, bag_bound=bag_bound)
    if graph.node_count > max_nodes:
        raise SearchBudgetExceededError(
            f"{graph.node_count} nodes exceed the reference bound of {max_nodes}"
        )
    typing0_entries = check_request(typing0, graph, schema)
    steps = [budget]

    witness_lists: dict[Hypothesis, list[dict]] = {}

    def witnesses_for(key: Hypothesis) -> list[dict]:
        cached = witness_lists.get(key)
        if cached is not None:
            return cached
        node, label = key
        shape_def = schema.shapes[label]
        if candidate_count(node, shape_def, graph) > REFERENCE_MAX_CANDIDATES:
            raise SearchBudgetExceededError(
                f"({node}, {label}) has more than {REFERENCE_MAX_CANDIDATES} candidates"
            )
        usable = []
        for cand in candidate_witnesses(node, shape_def, graph):
            steps[0] -= 1
            if steps[0] < 0:
                raise SearchBudgetExceededError("reference search budget exhausted")
            if not check_local_witness(cand, node, shape_def, graph, bag_bound=bag_bound):
                continue
            prop = propagation(cand, graph, shape_def)
            if _compatible_with_certain(prop, certain) and check_gtw_extra(
                schema, label, cand, certain, graph
            ):
                usable.append(cand)
        witness_lists[key] = usable
        return usable

    def search(
        typing: frozenset[TypingEntry],
        lw: dict[Hypothesis, dict],
        pending: tuple[Hypothesis, ...],
    ) -> GlobalTypingWitness | None:
        if not pending:
            return GlobalTypingWitness(typing, lw)
        key, rest = pending[0], pending[1:]
        node, label = key
        for witness in witnesses_for(key):
            steps[0] -= 1
            if steps[0] < 0:
                raise SearchBudgetExceededError("reference search budget exhausted")
            prop = propagation(witness, graph, schema.shapes[label])
            new_typing = set(typing)
            new_pending = list(rest)
            ok = True
            for entry in sorted(prop):
                if entry in new_typing:
                    continue
                n2, l2, sign = entry
                opposite = (n2, l2, "+" if sign == "-" else "-")
                if opposite in new_typing:
                    ok = False
                    break
                new_typing.add(entry)
                if sign == "+":
                    new_pending.append((n2, l2))
            if not ok:
                continue
            new_lw = dict(lw)
            new_lw[key] = witness
            found = search(frozenset(new_typing), new_lw, tuple(new_pending))
            if found is not None:
                return found
        return None

    initial_typing = frozenset(typing0_entries)
    if not check_compatible(initial_typing, _certain_entries_for(typing0_entries, certain)):
        raise IncompatibleInitialTypingError(
            "the requested typing contradicts the certain typing",
            failed=list(typing0_entries),
        )
    pending = tuple(sorted({(n, s) for n, s, sign in typing0_entries if sign == "+"}))
    found = search(initial_typing, {}, pending)
    if found is None:
        raise ValidationError(
            "no global typing witness extends the requested typing (reference)",
            failed=list(typing0_entries),
        )
    assert verify_global_typing_witness(found, graph, schema, certain, bag_bound=bag_bound)
    return found
