"""Abstract syntax for shape schemas and the derived structural indices."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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


def is_single_occurrence(expr: ShapeExpr) -> bool:
    counts = Counter(tc.tc_id for tc in iter_triple_constraints(expr))
    return all(c == 1 for c in counts.values())


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
    single_occurrence: bool = _derived()
    # Bag-membership verdicts by sorted non-zero count vector; filled by
    # matching.bag_matches, which alone decides what may be stored here.
    bag_verdicts: dict[tuple[tuple[int, int], ...], bool] = _derived()

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
            "single_occurrence": is_single_occurrence(unfolded),
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
