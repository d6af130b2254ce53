"""Abstract syntax for shape schemas, the derived structural indices and the
compiled bag-membership tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import UndefinedShapeReferenceError
from .rdf_graph import DirectedProperty, Value


# --- value classes ----------------------------------------------------------

@dataclass(frozen=True)
class NodeKind:
    """One of the built-in node categories: IRI, BNode, Literal, NonLiteral."""

    kind: str


@dataclass(frozen=True)
class DatatypeSet:
    """All literals carrying the given datatype IRI (lexical check only)."""

    datatype: str


@dataclass(frozen=True)
class ExplicitSet:
    """An enumerated set of admissible values."""

    values: tuple[Value, ...]


@dataclass(frozen=True)
class ShapeRef:
    label: str
    negated: bool = False


AtomicConstr = NodeKind | DatatypeSet | ExplicitSet | ShapeRef
VALUE_SET_KINDS = (NodeKind, DatatypeSet, ExplicitSet)


# --- shape expressions ------------------------------------------------------

@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class TripleConstraint:
    tc_id: int
    dprop: DirectedProperty
    value_class: tuple[AtomicConstr, ...]


@dataclass(frozen=True)
class SomeOf:
    children: tuple["ShapeExpr", ...]


@dataclass(frozen=True)
class Group:
    children: tuple["ShapeExpr", ...]


@dataclass(frozen=True)
class Repetition:
    child: "ShapeExpr"
    lo: int
    hi: int | None  # None stands for an unbounded maximum

    def __post_init__(self):
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"repetition [{self.lo};{self.hi}] has lo > hi")


ShapeExpr = Empty | TripleConstraint | SomeOf | Group | Repetition


def iter_triple_constraints(expr: ShapeExpr) -> tuple[TripleConstraint, ...]:
    """All triple-constraint occurrences of ``expr`` in source order."""
    out: list[TripleConstraint] = []

    def walk(e: ShapeExpr) -> None:
        if isinstance(e, TripleConstraint):
            out.append(e)
        elif isinstance(e, (SomeOf, Group)):
            for child in e.children:
                walk(child)
        elif isinstance(e, Repetition):
            walk(e.child)

    walk(expr)
    return tuple(out)


_ALLOWED_COMPOUND_CARDS = {(0, 1), (0, None), (1, None)}


def unfold_repetitions(expr: ShapeExpr) -> ShapeExpr:
    """Rewrite compound repetitions into the three supported interval forms.

    ``E[m;n]`` on a non-constraint ``E`` becomes m mandatory copies followed
    by optional copies (``E[0;1]`` tails, or one ``E[0;∞]`` tail for an
    unbounded maximum). Repetitions directly on triple constraints are kept.
    """
    if isinstance(expr, (Empty, TripleConstraint)):
        return expr
    if isinstance(expr, SomeOf):
        return SomeOf(tuple(unfold_repetitions(c) for c in expr.children))
    if isinstance(expr, Group):
        return Group(tuple(unfold_repetitions(c) for c in expr.children))
    child = unfold_repetitions(expr.child)
    if isinstance(child, TripleConstraint) or (expr.lo, expr.hi) in _ALLOWED_COMPOUND_CARDS:
        return Repetition(child, expr.lo, expr.hi)
    copies: list[ShapeExpr] = [child] * expr.lo
    if expr.hi is None:
        copies.append(Repetition(child, 0, None))
    else:
        copies.extend([Repetition(child, 0, 1)] * (expr.hi - expr.lo))
    if not copies:
        return Empty()
    if len(copies) == 1:
        return copies[0]
    return Group(tuple(copies))


# --- compiled bag membership ------------------------------------------------

Bag = tuple[tuple[int, int], ...]  # sorted (constraint id, count) pairs, counts positive
# An interval of naturals as (lo, hi), hi None when unbounded; None when empty.
Span = tuple[int, int | None] | None


def compile_membership(expr: ShapeExpr) -> Callable[[Bag], bool] | None:
    """Bag membership in an unfolded expression by the interval method
    (Staworko et al., "Complexity and Expressiveness of ShEx for RDF",
    ICDT 2015), compiled once: a function telling whether a bag belongs to
    the expression's language. None when the expression repeats a
    constraint id, where the method does not apply.

    It decides what ``matching.interval(expr, bag).contains(1)``, the
    readable reference, decides, without walking the expression again:
    each node becomes a function from the bag's counts to its interval,
    the numbers n with the bag in L(node)^n, in plain (lo, hi) integers.
    """
    ids: list[int] = []

    def build(e: ShapeExpr) -> Callable[[Callable], Span]:
        if isinstance(e, Empty):
            return _anything
        if isinstance(e, TripleConstraint):
            ids.append(e.tc_id)
            return _count_of(e.tc_id)
        if isinstance(e, Repetition):
            return _repeated(build(e.child), e.lo, e.hi)
        parts = tuple(build(c) for c in e.children)
        return _each_of(parts) if isinstance(e, Group) else _one_of(parts)

    root = build(expr)
    alphabet = frozenset(ids)
    if len(alphabet) < len(ids):
        return None

    def member(bag: Bag) -> bool:
        for tc_id, _ in bag:
            if tc_id not in alphabet:
                return False
        span = root(dict(bag).get)
        return span is not None and span[0] <= 1 and (span[1] is None or span[1] >= 1)

    return member


def _anything(count: Callable) -> Span:
    return (0, None)


def _count_of(tc_id: int) -> Callable[[Callable], Span]:
    def leaf(count: Callable) -> Span:
        c = count(tc_id, 0)
        return (c, c)
    return leaf


def _each_of(parts: tuple) -> Callable[[Callable], Span]:
    """A group: each part reads its own counts, so the intersection."""
    def each_of(count: Callable) -> Span:
        lo, hi = 0, None
        for part in parts:
            span = part(count)
            if span is None:
                return None
            if span[0] > lo:
                lo = span[0]
            if span[1] is not None and (hi is None or span[1] < hi):
                hi = span[1]
        return None if hi is not None and lo > hi else (lo, hi)
    return each_of


def _one_of(parts: tuple) -> Callable[[Callable], Span]:
    """A choice: each repetition takes one part, so the Minkowski sum."""
    def one_of(count: Callable) -> Span:
        lo, hi = 0, 0
        for part in parts:
            span = part(count)
            if span is None:
                return None
            lo += span[0]
            hi = None if hi is None or span[1] is None else hi + span[1]
        return (lo, hi)
    return one_of


def _repeated(child: Callable, lo: int, hi: int | None) -> Callable[[Callable], Span]:
    """``child[lo;hi]``: the numbers n of repetitions such that some m in
    the child's interval fits n*lo <= m <= n*hi."""
    def repeated(count: Callable) -> Span:
        span = child(count)
        if span is None:
            return None
        a, b = span
        if a == 0:
            out_lo = 0
        elif hi is None:
            out_lo = 1
        elif hi == 0:
            return None  # n*0 can never reach a positive m
        else:
            out_lo = -(-a // hi)
        out_hi = None if lo == 0 or b is None else b // lo
        return None if out_hi is not None and out_lo > out_hi else (out_lo, out_hi)
    return repeated


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ShapeDefinition:
    """A shape, compiled once: the fields after ``expr`` are derived from the
    four given ones when the object is built, live as long as it does, and
    take no part in comparison or hashing."""

    closed_fwd: bool = False
    closed_inv: bool = False
    extra: tuple[DirectedProperty, ...] = ()
    expr: ShapeExpr = Empty()
    tcs: tuple[TripleConstraint, ...] = _derived()  # occurrences in source order
    tc_by_id: dict[int, TripleConstraint] = _derived()
    # Same-property constraints by ascending id; the value-only ones among
    # them are the constraints an EXTRA edge must fail.
    tcs_by_dprop: dict[DirectedProperty, tuple[TripleConstraint, ...]] = _derived()
    value_only_by_dprop: dict[DirectedProperty, tuple[TripleConstraint, ...]] = _derived()
    unfolded: ShapeExpr = _derived()
    # The compiled interval test of bag membership in ``unfolded``; None
    # when a constraint id occurs twice there (not single-occurrence).
    membership: Callable[[Bag], bool] | None = _derived()
    # Bag-membership verdicts by sorted non-zero count vector; filled by
    # matching.bag_matches, which alone decides what may be stored here.
    bag_verdicts: dict[Bag, bool] = _derived()

    def __post_init__(self):
        tcs = iter_triple_constraints(self.expr)
        by_dprop: dict[DirectedProperty, list[TripleConstraint]] = {}
        for tc in sorted(tcs, key=lambda t: t.tc_id):
            by_dprop.setdefault(tc.dprop, []).append(tc)
        unfolded = unfold_repetitions(self.expr)
        derived = {
            "tcs": tcs,
            "tc_by_id": {tc.tc_id: tc for tc in tcs},
            "tcs_by_dprop": {p: tuple(group) for p, group in by_dprop.items()},
            "value_only_by_dprop": {
                p: tuple(
                    tc for tc in group
                    if all(isinstance(c, VALUE_SET_KINDS) for c in tc.value_class)
                )
                for p, group in by_dprop.items()
            },
            "unfolded": unfolded,
            "membership": compile_membership(unfolded),
            "bag_verdicts": {},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Schema:
    """Shapes by label, with the schema-level facts derived once when the
    object is built, as :class:`ShapeDefinition` derives its own: the labels
    that occur negated, the certain-typing region (every label reachable
    from them), and the well-definedness report. The shapes must not change
    afterwards."""

    shapes: dict[str, ShapeDefinition]
    prefixes: dict[str, str] = field(default_factory=dict)
    negated_labels: frozenset[str] = _derived()
    certain_region: frozenset[str] = _derived()
    cycle_report: CycleReport | None = _derived()

    def __post_init__(self):
        deps = dependency_graph(self)
        negated = frozenset(l2 for label in self.shapes for l2 in negated_shapes(self, label))
        cycle_report = None
        for label in sorted(negated):
            cycle = _find_cycle(deps, label)
            if cycle:
                cycle_report = CycleReport(label, cycle)
                break
        object.__setattr__(self, "negated_labels", negated)
        object.__setattr__(self, "certain_region", frozenset(reachable_labels(deps, negated)))
        object.__setattr__(self, "cycle_report", cycle_report)


# --- triple consumers -------------------------------------------------------

@dataclass(frozen=True)
class ByConstraint:
    tc_id: int


@dataclass(frozen=True)
class ExtraSlot:
    dprop: DirectedProperty


@dataclass(frozen=True)
class OpenSlot:
    pass


TripleConsumer = ByConstraint | ExtraSlot | OpenSlot
OPEN = OpenSlot()


def consumer_key(consumer: TripleConsumer) -> str:
    """Stable serialization of a consumer, used in witness documents."""
    if isinstance(consumer, ByConstraint):
        return f"C{consumer.tc_id}"
    if isinstance(consumer, ExtraSlot):
        return f"extra:{consumer.dprop.display()}"
    return "open"


def triple_consumers(shape_def: ShapeDefinition) -> tuple[TripleConsumer, ...]:
    """Consumers usable by a witness: one per constraint, per extra, plus open."""
    out: list[TripleConsumer] = [ByConstraint(tc.tc_id) for tc in shape_def.tcs]
    out.extend(ExtraSlot(p) for p in sorted(shape_def.extra, key=DirectedProperty.display))
    out.append(OPEN)
    return tuple(out)


# --- dependency structure ---------------------------------------------------

def shape_refs(sd: ShapeDefinition) -> tuple[ShapeRef, ...]:
    """Shape references of a definition, read off its compiled constraints."""
    return tuple(ref for tc in sd.tcs for ref in tc.value_class if isinstance(ref, ShapeRef))


def dependency_graph(schema: Schema) -> dict[str, set[str]]:
    """Label -> labels referenced anywhere in its expression (any polarity)."""
    return {
        label: {ref.label for ref in shape_refs(sd)}
        for label, sd in schema.shapes.items()
    }


def negated_shapes(schema: Schema, label: str) -> set[str]:
    """Labels that occur negated in one definition.

    A label counts as negated when it appears under ``!``, or when it is a
    conjunct of a triple constraint whose property is declared EXTRA (extra
    edges may consume such triples only by violating the constraint).
    """
    sd = schema.shapes[label]
    out: set[str] = set()
    extra = set(sd.extra)
    for tc in sd.tcs:
        for conj in tc.value_class:
            if not isinstance(conj, ShapeRef):
                continue
            if conj.negated or tc.dprop in extra:
                out.add(conj.label)
    return out


def reachable_labels(deps: dict[str, set[str]], start: set[str]) -> set[str]:
    seen = set()
    stack = sorted(start)
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(sorted(deps.get(label, ())))
    return seen


@dataclass(frozen=True)
class CycleReport:
    """A negated label together with one dependency cycle it can reach."""

    label: str
    cycle: tuple[str, ...]


def _find_cycle(deps: dict[str, set[str]], start: str) -> tuple[str, ...] | None:
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    path: list[str] = []

    def visit(label: str) -> tuple[str, ...] | None:
        state[label] = 1
        path.append(label)
        for nxt in sorted(deps.get(label, ())):
            mark = state.get(nxt)
            if mark == 1:
                return tuple(path[path.index(nxt):]) + (nxt,)
            if mark is None:
                found = visit(nxt)
                if found:
                    return found
        path.pop()
        state[label] = 2
        return None

    return visit(start)


def check_well_defined(schema: Schema) -> CycleReport | None:
    """None when every negated label reaches only acyclic dependencies;
    otherwise the first negated label, in sorted order, that reaches a
    cycle, with that cycle (stored on the schema)."""
    return schema.cycle_report


def validate_references(schema: Schema) -> None:
    for label, sd in schema.shapes.items():
        for ref in shape_refs(sd):
            if ref.label not in schema.shapes:
                raise UndefinedShapeReferenceError(
                    f"<{label}> references undefined shape <{ref.label}>"
                )


def lint_schema(schema: Schema) -> list[str]:
    """Non-fatal oddities: contradictions and idle EXTRA declarations."""
    warnings: list[str] = []
    for label, sd in sorted(schema.shapes.items()):
        tc_props = {tc.dprop for tc in sd.tcs}
        for p in sd.extra:
            if p not in tc_props:
                warnings.append(
                    f"<{label}>: EXTRA {p.display()} matches no triple constraint;"
                    " such edges are consumed freely"
                )
        for tc in sd.tcs:
            refs = [c for c in tc.value_class if isinstance(c, ShapeRef)]
            by_label: dict[str, set[bool]] = {}
            for r in refs:
                by_label.setdefault(r.label, set()).add(r.negated)
            for ref_label, polarities in sorted(by_label.items()):
                if len(polarities) == 2:
                    warnings.append(
                        f"<{label}>: constraint C{tc.tc_id} conjoins @<{ref_label}>"
                        f" with !@<{ref_label}>; it can never be satisfied"
                    )
    return warnings
