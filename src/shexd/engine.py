"""Validation engine: certain typing, flooding with backtracking, a decider
by one stratified fixpoint with a local-witness cache, a witness verifier,
and an exhaustive reference validator used as the oracle.

A run answers "can the requested typing be extended to a global typing
witness?", i.e. a consistent set of signed (node, shape) facts plus one local
witness per positive fact, closed under propagation, with negative facts
certified and EXTRA consumption genuinely violating the bypassed constraints.
The decider settles the certain region as the lower strata of its own
fixpoint; :class:`CertainTyping` is the independent certain typing that the
flooding, the verifier and the reference validator read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
    them once. Local witnesses are enumerated lazily, one at a time, until
    a decision is reached. The decider settles the same region itself
    (:class:`_Fixpoint`), and this class is the oracle it is tested against.
    """

    def __init__(self, schema: Schema, graph: Graph, *, bag_bound: int = DEFAULT_BAG_BOUND):
        ensure_well_defined(schema)
        self.schema = schema
        self.graph = graph
        self.bag_bound = bag_bound
        self.negated = schema.negated_labels
        self.region = schema.certain_region
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
        for cand, prop in self._local_witnesses(node, label):
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


def _check_request_signs(entries: list[TypingEntry], certain: CertainTyping) -> None:
    """Raise :class:`IncompatibleInitialTypingError` when a requested entry
    on a negated label contradicts the certain typing."""
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
    _check_request_signs(typing0_entries, certain)

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
# propagation (sorted), the positive needs on labels outside the certain
# region, and the positions of its EXTRA-consumed edges.
CompactWitness = tuple[tuple, tuple[TypingEntry, ...], tuple[Hypothesis, ...], tuple[int, ...]]


class LocalWitnessCache:
    """What the checks of one repair search share: the local witnesses of
    the pairs of ``graph`` against one schema with one bag bound, and each
    edit triple's edges.

    Local witnesses are kept with their propagation, keyed by (node, label),
    and only for a node whose neighbourhood in the graph read is the very
    tuple it has in ``graph``. That key is exact: a
    ``shexd.incremental.GraphPatch`` gives a new tuple to every node an edit
    touches, so a shared tuple holds the same edges, and each of their
    targets keeps that edge, hence its node and value; the edges and the
    targets' values are all that :func:`local_witnesses` and
    :func:`propagation` read of a graph. So a pair whose neighbourhood an
    edit leaves alone is enumerated once per search, however many checks
    read it. Pairs at touched nodes are enumerated on every read and not
    kept: an edit set's new neighbourhoods are rarely met again. Their
    enumerations share, per label, the admitted consumers of each edge by
    directed property and target value (``edge_options`` of
    :func:`local_witnesses`), so only an edit's own edges are matched anew.
    Read the witnesses through :meth:`reader`, which charges a budget.
    Nothing here outlives the object: one is made per search.
    """

    def __init__(self, schema: Schema, graph: Graph, *, bag_bound: int = DEFAULT_BAG_BOUND):
        self.schema = schema
        self.graph = graph
        self.bag_bound = bag_bound
        self._entries: dict[Hypothesis, tuple[CompactWitness, ...]] = {}
        self._edge_options: dict[str, dict] = {}  # label -> local_witnesses' edge memo
        # kept for shexd.incremental.patch: id(triple) -> (triple, its
        # edges), the triple kept so that its id stays its own
        self._triple_edges: dict[int, tuple] = {}

    def reader(self, graph: Graph, budget: float = float("inf")) -> "WitnessReader":
        return WitnessReader(self, graph, budget)


class WitnessReader:
    """The local witnesses of one graph's pairs, read through a
    :class:`LocalWitnessCache` under a budget of local witnesses read.

    Every read is charged the pair's full list, whether it was cached or
    not, so an answer never depends on what is cached; a read past the
    budget raises :class:`SearchBudgetExceededError`. It holds the cache's
    tables, not the cache, so a cache that keeps a reader makes no reference
    cycle.
    """

    def __init__(self, cache: LocalWitnessCache, graph: Graph, budget: float):
        self.schema = cache.schema
        self.base = cache.graph
        self.bag_bound = cache.bag_bound
        self.graph = graph
        self.remaining = budget
        self._entries = cache._entries
        self._edge_options = cache._edge_options

    def charge(self, count: int) -> None:
        """Count ``count`` local witnesses read against the budget."""
        self.remaining -= count
        if self.remaining < 0:
            raise SearchBudgetExceededError("local witness budget exhausted")

    def compact(self, node: str, label: str) -> tuple[CompactWitness, ...]:
        base = self.base
        kept = base.has_node(node) and base.neighbourhood(node) is self.graph.neighbourhood(node)
        found = self._entries.get((node, label)) if kept else None
        if found is None:
            found = self._enumerate(node, label)
            if kept:
                self._entries[(node, label)] = found
        self.charge(len(found))
        return found

    def _enumerate(self, node: str, label: str) -> tuple[CompactWitness, ...]:
        graph, schema = self.graph, self.schema
        shape_def = schema.shapes[label]
        out = []
        for cand in local_witnesses(
            node, shape_def, graph, bag_bound=self.bag_bound,
            edge_options=self._edge_options.setdefault(label, {}),
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
                    if sign == "+" and l not in schema.certain_region
                ),
                tuple(i for i, c in enumerate(consumers) if isinstance(c, ExtraSlot)),
            ))
        return tuple(out)

    def witness(self, node: str, consumers: tuple) -> dict:
        """The witness dict of ``consumers`` at ``node``."""
        return dict(zip((e.id for e in self.graph.neighbourhood(node)), consumers))


def _requested(entries: Iterable[TypingEntry], region: frozenset[str]) -> list[Hypothesis]:
    """The requested pairs of the upper stratum: positive, on labels
    outside the certain ``region``, sorted."""
    return sorted({(n, s) for n, s, sign in entries if sign == "+" and s not in region})


def _support(witnesses: list[CompactWitness], start: int, alive) -> int | None:
    """Decide one pair: the index of its first usable witness, from
    ``start`` on, whose needs are all ``alive``; None when it has none."""
    for index in range(start, len(witnesses)):
        for need in witnesses[index][2]:
            if need not in alive:
                break
        else:
            return index
    return None


class _Fixpoint:
    """The maximal typing of a graph over the pairs reachable from a
    request, with the certain typing of the graph as its lower strata
    (stratified negation: Apt, Blair and Walker, 1988).

    The lower strata are the entries on labels of the schema's certain
    region, which is acyclic. Each is decided when first asked for
    (:meth:`sign`), as :class:`CertainTyping` decides it, and ``signs`` maps
    it to the consumers of its first usable local witness, or to None when
    it has none; ``decided_at`` lists the entries decided at each node. The
    fixpoint answers ``is_negated_label``, ``sign`` and ``witness`` as
    :class:`CertainTyping` does, so :func:`check_gtw_extra`, the request's
    signs and :func:`copy_proof` read it in its place.

    The upper stratum holds the pairs on the other labels. ``usable`` maps
    each pair read to its usable local witnesses, in :func:`local_witnesses`
    order, and ``at_node`` lists the pairs read at each node. ``requirers``
    maps a pair to the pairs with a usable witness that needs it, and
    ``support`` maps each alive pair to its support: the index of its first
    usable witness whose needs are all alive. A pair without a support is
    dead.

    One rule serves both strata: a witness is usable when its facts on
    region labels agree with their signs and its EXTRA edges pass
    :func:`check_gtw_extra`.
    """

    def __init__(self, schema: Schema, witnesses: WitnessReader):
        ensure_well_defined(schema)
        self.schema = schema
        self.graph = witnesses.graph
        self.witnesses = witnesses
        self.region = schema.certain_region
        self.signs: dict[Hypothesis, tuple | None] = {}
        self.decided_at: dict[str, list[Hypothesis]] = {}
        self.usable: dict[Hypothesis, list[CompactWitness]] = {}
        self.requirers: dict[Hypothesis, list[Hypothesis]] = {}
        self.support: dict[Hypothesis, int] = {}
        self.at_node: dict[str, list[Hypothesis]] = {}  # the pairs read, by node

    # The lower strata.

    def is_negated_label(self, label: str) -> bool:
        return label in self.schema.negated_labels

    def sign(self, node: str, label: str) -> bool:
        """True when (node, label) certainly holds; label must be in the
        region. Decided on first use: the consumers of the entry's first
        usable local witness, or None."""
        key = (node, label)
        if key not in self.signs:
            found = None
            for cand in self.witnesses.compact(node, label):
                if self.passes(node, label, cand):
                    found = cand[0]
                    break
            self.signs[key] = found
            self.decided_at.setdefault(node, []).append(key)
        return self.signs[key] is not None

    def witness(self, node: str, label: str) -> dict:
        if not self.sign(node, label):
            raise KeyError(f"({node}, {label}) is certainly unsatisfied")
        return self.witnesses.witness(node, self.signs[(node, label)])

    def passes(self, node: str, label: str, cand: CompactWitness) -> bool:
        """Is ``cand``, a local witness of (node, label), usable?"""
        consumers, prop, _, extras = cand
        region = self.region
        for n, l, sign in prop:
            if l in region and self.sign(n, l) != (sign == "+"):
                return False
        if not extras:
            return True
        edges = self.graph.neighbourhood(node)
        extra = {edges[i].id: consumers[i] for i in extras}
        return check_gtw_extra(self.schema, label, extra, self, self.graph)

    # The fixpoint.

    def __contains__(self, key: Hypothesis) -> bool:
        """Is ``key`` alive?"""
        return key in self.support

    def explore(self, keys: Iterable[Hypothesis]) -> list[Hypothesis]:
        """Read ``keys``, and every pair first reached from them through the
        needs of usable witnesses; returns the pairs read, in order."""
        pairs = list(keys)
        seen = set(pairs)
        for key in pairs:  # grows while it is walked
            node, label = key
            found = self.usable[key] = [
                cand for cand in self.witnesses.compact(node, label)
                if self.passes(node, label, cand)
            ]
            self.at_node.setdefault(node, []).append(key)
            for cand in found:
                for need in cand[2]:
                    requirers = self.requirers.setdefault(need, [])
                    if not requirers or requirers[-1] != key:
                        requirers.append(key)
                    if need not in seen:
                        seen.add(need)
                        pairs.append(need)
        return pairs

    def settle(self, dropped: list[Hypothesis]) -> None:
        """Drop the requirers of the ``dropped`` pairs that lose their
        support, transitively. A pair's support only moves forward: the
        witnesses before it have a dead need, and the dead stay dead."""
        support = self.support
        while dropped:
            for key in self.requirers.get(dropped.pop(), ()):
                start = support.get(key)
                if start is None:
                    continue
                index = _support(self.usable[key], start, self)
                if index is None:
                    del support[key]
                    dropped.append(key)
                else:
                    support[key] = index

    def run(self, requested: list[Hypothesis]) -> None:
        """The fixpoint from scratch: every pair reachable from the request
        starts alive on its first usable witness."""
        pairs = self.explore(requested)
        for key in pairs:
            if self.usable[key]:
                self.support[key] = 0
        self.settle([key for key in pairs if not self.usable[key]])

    def answer(self, entries: list[TypingEntry], requested: list[Hypothesis]) -> GlobalTypingWitness:
        """The witness of the request, from the request outwards, each pair
        on its first surviving witness, with the proof of every positive
        fact on a region label copied as :func:`flooding_validation` copies
        the certain proofs; or fail. A requested positive on a region label
        is settled by its sign."""
        region = self.region
        missing = sorted(
            (n, s, "+") for n, s, sign in entries if sign == "+" and not (
                self.sign(n, s) if s in region else (n, s) in self.support
            )
        )
        if missing:
            raise ValidationError(
                "no global typing witness extends the requested typing", failed=missing
            )
        tuc = TUC(typing_hyp=dict.fromkeys(entries))  # the tables copy_proof fills
        order = list(requested)
        for key in order:  # grows while it is walked
            if key in tuc.lw_hyp:
                continue
            consumers, prop, needs, _ = self.usable[key][self.support[key]]
            tuc.lw_hyp[key] = self.witnesses.witness(key[0], consumers)
            tuc.typing_hyp.update(dict.fromkeys(prop))
            order.extend(needs)
        for n, s, sign in sorted(tuc.typing_hyp):
            if sign == "+" and s in region:
                copy_proof(n, s, self, tuc, self.graph, self.schema)
        return GlobalTypingWitness(frozenset(tuc.typing_hyp), dict(tuc.lw_hyp))


def maximal_typing_validation(
    schema: Schema,
    graph: Graph,
    typing0: Iterable[TypingEntry],
    *,
    witnesses: WitnessReader | None = None,
    bag_bound: int = DEFAULT_BAG_BOUND,
) -> GlobalTypingWitness:
    """Decide the request by one stratified fixpoint; return its witness or
    fail.

    The schema is stratified: the labels of the certain region, every label
    reachable from one that occurs negated, form an acyclic region, and the
    EXTRA check and negative facts read only those. So the region's entries
    each have a unique answer, decided on demand as the lower strata of
    :class:`_Fixpoint`, and the valid positive facts on the other labels
    are closed under union: they form one greatest fixpoint over the
    (node, label) pairs reachable from the request. Each such pair starts
    alive. A pair is dropped when none of its local witnesses (in
    :func:`local_witnesses` order) has its facts on region labels agree
    with their signs, passes :func:`check_gtw_extra` and has every positive
    need outside the region still alive. Requested entries on region labels
    are settled by their signs. The verdict and the witness do not depend on
    the order of the drops.

    On acceptance the witness takes, from the request outwards, the first
    surviving local witness of each pair, and copies the proofs of the
    positive region facts as :func:`flooding_validation` copies the certain
    proofs. Each repair check runs it on a patch of the search's graph
    (``repair.is_valid_after``).
    """
    if witnesses is None:
        witnesses = LocalWitnessCache(schema, graph, bag_bound=bag_bound).reader(graph)
    fixpoint = _Fixpoint(schema, witnesses)
    entries = check_request(typing0, graph, schema)
    _check_request_signs(entries, fixpoint)
    requested = _requested(entries, schema.certain_region)
    fixpoint.run(requested)
    return fixpoint.answer(entries, requested)


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
