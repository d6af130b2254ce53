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
from dataclasses import dataclass

from .engine import CertainTyping, TypingEntry, reference_validate
from .errors import SearchBudgetExceededError, ValidationError
from .matching import DEFAULT_BAG_BOUND
from .rdf_graph import (
    XSD_DATE,
    XSD_INTEGER,
    XSD_STRING,
    BlankRef,
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
)

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
    fresh = [BlankRef(f"repair{i}") for i in range(max_edits)]
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
    deleted = {t.key() for t in edits.deletions}
    triples = [t for t in graph.triples if t.key() not in deleted]
    triples.extend(sorted(edits.insertions, key=Triple.key))
    return Graph(tuple(triples), graph.prefixes)


def is_valid_after(
    graph: Graph,
    edits: EditSet,
    schema: Schema,
    typing0: list[TypingEntry],
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
    max_nodes: int = 64,
    budget: int = 200_000,
) -> bool:
    """Apply the edits, rebuild, and ask the reference validator.

    Edit sets that delete a node mentioned by the requested typing fail:
    the request must stay addressable.
    """
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
            max_nodes=max_nodes,
            budget=budget,
        )
        return True
    except ValidationError:
        return False


def _canonical_blank_form(edits: EditSet) -> tuple:
    """Edit-set key with fresh blank labels renamed in first-use order."""
    renaming: dict[str, str] = {}

    def rename(term):
        if isinstance(term, BlankRef) and term.label.startswith("repair"):
            if term.label not in renaming:
                renaming[term.label] = f"repair{len(renaming)}"
            return BlankRef(renaming[term.label])
        return term

    def canon(triples: frozenset[Triple]) -> tuple:
        out = []
        for t in sorted(triples, key=Triple.key):
            out.append(Triple(rename(t.subject), t.prop, rename(t.obj)).key())
        return tuple(out)

    return (canon(edits.deletions), canon(edits.insertions))


def enumerate_repairs(
    graph: Graph,
    schema: Schema,
    typing0: list[TypingEntry],
    max_edits: int = 2,
    *,
    bag_bound: int = DEFAULT_BAG_BOUND,
    budget_per_check: int = 200_000,
) -> RepairResult:
    """Breadth-first sweep over edit-set sizes 0, 1, ...; returns every valid
    edit set of the first size that admits one."""
    deletions = sorted(graph.triples, key=Triple.key)
    insertions = insertion_domain(graph, schema, max_edits)
    atoms: list[tuple[str, Triple]] = [("del", t) for t in deletions] + [
        ("ins", t) for t in insertions
    ]

    for size in range(max_edits + 1):
        valid: list[EditSet] = []
        seen: set[tuple] = set()
        for combo in itertools.combinations(atoms, size):
            dels = frozenset(t for kind, t in combo if kind == "del")
            inss = frozenset(t for kind, t in combo if kind == "ins")
            edits = EditSet(dels, inss)
            canonical = _canonical_blank_form(edits)
            if canonical in seen:
                continue
            seen.add(canonical)
            if is_valid_after(
                graph, edits, schema, typing0, bag_bound=bag_bound, budget=budget_per_check
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

    Deliberately exponential: validity of the edited graph, plus an
    exhaustive sweep showing no strictly smaller edit set works.
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
    if not is_valid_after(graph, edits, schema, typing0, bag_bound=bag_bound):
        return False
    if edits.size == 0:
        return True
    smaller = enumerate_repairs(
        graph, schema, typing0, max_edits=edits.size - 1, bag_bound=bag_bound
    )
    return not smaller.found


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
