"""The maximal-typing decider against the oracles.

``maximal_typing_validation`` is what a repair check asks. It must give
``reference_validate``'s verdict on random instances, negated requests
included, and agree with the flooding on chains and fan-outs past the
reference validator's node bound, where the answer is known by
construction. Every witness it accepts must verify, and every certain
sign a repair check answers must be the independent certain typing's.
Every edit set the repair search's screen rejects, which its generator
leaves out, must fail the full check too.
"""

from __future__ import annotations

import itertools
import random

import pytest

from shexd import engine, flooding_validation, incremental, parse_schema, reference_validate
from shexd.engine import (
    CertainTyping,
    LocalWitnessCache,
    maximal_typing_validation,
    verify_global_typing_witness,
)
from shexd.errors import BagTooLargeError, SearchBudgetExceededError, ShexdError, ValidationError
from shexd.matching import _assignments, admitted_options, open_only
from shexd.randgen import random_instance
from shexd.rdf_graph import XSD_STRING, DirectedProperty, Graph, Iri, Literal, Triple, term_to_value
from shexd.repair import (
    _edit_atoms,
    _edit_set,
    _reference_valid_after,
    apply_edits,
    enumerate_repairs,
    is_valid_after,
)
from shexd.schema_model import ByConstraint, ShapeRef

from conftest import load_graph, load_schema

EX = "http://example.org/"

CHAIN_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<P> { ex:name xsd:string, ex:next @<P> ? }
"""

FANOUT_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<F> { ex:p xsd:string *, ex:p Literal *, ex:must xsd:string }
"""


def decide(schema, graph, typing0, certain):
    """The decider's verdict; an accepted witness must verify against the
    independent certain typing ``certain``."""
    try:
        gtw = maximal_typing_validation(schema, graph, typing0)
    except ValidationError:
        return False
    assert verify_global_typing_witness(gtw, graph, schema, certain)
    return True


def reference(schema, graph, typing0, certain):
    try:
        reference_validate(schema, graph, typing0, certain=certain)
    except ValidationError:
        return False
    return True


def flooding(schema, graph, typing0, certain):
    try:
        flooding_validation(schema, graph, typing0, certain=certain)
    except ValidationError:
        return False
    return True


def test_decider_matches_reference_on_random_instances():
    agree = valid = negated = 0
    for seed in range(3_000):
        schema, graph, typing0 = random_instance(random.Random(seed))
        certain = CertainTyping(schema, graph)
        try:
            expected = reference(schema, graph, typing0, certain)
        except (SearchBudgetExceededError, BagTooLargeError):
            continue
        assert decide(schema, graph, typing0, certain) == expected, f"seed {seed}"
        agree += 1
        valid += expected
        negated += any(label in schema.negated_labels for _, label, _ in typing0)
    assert agree >= 2_900 and valid >= 400 and negated >= 200, (agree, valid, negated)


def test_is_valid_after_matches_the_reference_check():
    # per instance, the unedited graph and then one seeded edit set, both
    # read through one cache as the checks of a repair search share it
    agree = valid = 0
    for seed in range(3_000):
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        cache = LocalWitnessCache(schema, graph)
        atoms = _edit_atoms(graph, schema, 2)
        for edits in (_edit_set(()), _edit_set(rng.sample(atoms, rng.randint(1, 2)))):
            try:
                expected = _reference_valid_after(graph, edits, schema, typing0)
            except (SearchBudgetExceededError, BagTooLargeError):
                continue
            assert is_valid_after(graph, edits, schema, typing0, witnesses=cache) == expected, (
                f"seed {seed}, {edits.size} edits"
            )
            agree += 1
            valid += expected
    assert agree >= 5_800 and valid >= 900, (agree, valid)


def chain_graph(length: int, valid: bool) -> Graph:
    """An ``ex:next`` chain of ``length`` nodes; only a valid one names its
    last node."""
    nodes = [Iri(f"{EX}n{i}") for i in range(length)]
    triples = []
    for i, node in enumerate(nodes):
        if valid or i < length - 1:
            triples.append(Triple(node, EX + "name", Literal(f"name {i}", XSD_STRING)))
        if i < length - 1:
            triples.append(Triple(node, EX + "next", nodes[i + 1]))
    return Graph(tuple(triples))


def fanout_graph(degree: int, valid: bool) -> Graph:
    hub = Iri(EX + "hub")
    triples = [Triple(hub, EX + "p", Literal(f"v{i}", XSD_STRING)) for i in range(degree)]
    if valid:
        triples.append(Triple(hub, EX + "must", Literal("m", XSD_STRING)))
    return Graph(tuple(triples))


@pytest.mark.parametrize("length", [4, 8, 12, 16, 50, 100, 200])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_decider_matches_flooding_on_chains(length, valid):
    schema = parse_schema(CHAIN_SCHEMA)
    graph = chain_graph(length, valid)
    typing0 = [(EX + "n0", "P", "+")]
    certain = CertainTyping(schema, graph)
    assert decide(schema, graph, typing0, certain) == valid
    if valid or length <= 16:
        # the flooding backtracks exponentially on longer invalid chains
        assert flooding(schema, graph, typing0, certain) == valid
    if valid:
        gtw = maximal_typing_validation(schema, graph, typing0)
        assert verify_global_typing_witness(gtw, graph, schema, certain)
        assert len(gtw.positives()) == length


@pytest.mark.parametrize("degree", range(2, 15, 3))
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_decider_matches_flooding_on_fanouts(degree, valid):
    schema = parse_schema(FANOUT_SCHEMA)
    graph = fanout_graph(degree, valid)
    typing0 = [(EX + "hub", "F", "+")]
    certain = CertainTyping(schema, graph)
    assert decide(schema, graph, typing0, certain) == valid
    assert flooding(schema, graph, typing0, certain) == valid


def test_cached_witnesses_count_their_full_length():
    # the budget is charged each list's full length, cached or not, so a
    # verdict never depends on what the cache holds
    schema = parse_schema(FANOUT_SCHEMA)
    graph = fanout_graph(4, True)  # 16 local witnesses
    typing0 = [(EX + "hub", "F", "+")]
    cache = LocalWitnessCache(schema, graph)
    with pytest.raises(SearchBudgetExceededError):
        maximal_typing_validation(schema, graph, typing0, witnesses=cache.reader(graph, 15))
    reader = cache.reader(graph, 16)
    maximal_typing_validation(schema, graph, typing0, witnesses=reader)
    assert reader.remaining == 0
    with pytest.raises(SearchBudgetExceededError):
        maximal_typing_validation(schema, graph, typing0, witnesses=cache.reader(graph, 15))


def fresh_verdict(graph, edits, schema, request):
    """The decider on the edited graph, from scratch, with a fresh cache."""
    edited = apply_edits(graph, edits)
    if not all(edited.has_node(node) for node, _, _ in request):
        return None
    try:
        return maximal_typing_validation(schema, edited, request)
    except ValidationError:
        return None


def record_fixpoints(monkeypatch) -> list:
    """Patch the decider to record each fixpoint it builds."""
    fixpoints = []
    real = engine._Fixpoint.__init__

    def recorded(self, *args):
        real(self, *args)
        fixpoints.append(self)

    monkeypatch.setattr(engine._Fixpoint, "__init__", recorded)
    return fixpoints


def compare_signs(fixpoint, schema, graph, edited, tally) -> None:
    """Every sign of the lower strata that ``fixpoint``, a check's, decided
    must be the independent certain typing's on ``edited``, the edited
    graph rebuilt from scratch. ``tally`` counts the checks, those that
    decide a sign at a node their edits touch, the signs compared and the
    checks with a sign that differs from the unedited ``graph``'s."""
    oracle, before = CertainTyping(schema, edited), CertainTyping(schema, graph)
    for (node, label), found in fixpoint.signs.items():
        assert (found is not None) == oracle.sign(node, label), (node, label)
    tally["checks"] += 1
    tally["signs"] += len(fixpoint.signs)
    tally["edited"] += any(node in fixpoint.graph.edits_at for node, _ in fixpoint.signs)
    tally["flipped"] += any(
        graph.has_node(node) and (found is not None) != before.sign(node, label)
        for (node, label), found in fixpoint.signs.items()
    )


def compare_in_either_order(schema, graph, request, sets, fixpoints=None, tally=None) -> list | None:
    """Pass ``sets`` through one shared cache, in order and reversed; each
    verdict must be the decider's on the edited graph from scratch. An
    accepted set's witness is verified by is_valid_after on the check's
    patch, must be the one the fresh decision gives, and must verify on the
    graph apply_edits rebuilds, with a certain typing of its own. With
    ``fixpoints`` (of :func:`record_fixpoints`), each verdict must be the
    reference check's too, within its bounds, and the signs of each
    check's fixpoint are compared (:func:`compare_signs`). Returns the
    fresh witnesses, or None when a fresh decision runs out of budget."""
    try:
        expected = [fresh_verdict(graph, edits, schema, request) for edits in sets]
    except (SearchBudgetExceededError, BagTooLargeError):
        return None
    if fixpoints is not None:
        for edits, want in zip(sets, expected):
            try:
                assert _reference_valid_after(graph, edits, schema, request) == (want is not None)
            except (SearchBudgetExceededError, BagTooLargeError):
                continue
            tally["referenced"] += 1
    for order in (sets, sets[::-1]):
        cache = LocalWitnessCache(schema, graph)
        for edits in order:
            want = expected[sets.index(edits)]
            if fixpoints is not None:
                fixpoints.clear()
            got = is_valid_after(graph, edits, schema, request, witnesses=cache)
            assert got == (want is not None), f"{request}, {edits}"
            if fixpoints:
                (check,) = fixpoints
                compare_signs(check, schema, graph, apply_edits(graph, edits), tally)
            if got:
                patched = incremental.patch(cache, edits.deletions, edits.insertions)
                reader = cache.reader(patched)
                assert maximal_typing_validation(schema, patched, request, witnesses=reader) == want
    for edits, want in zip(sets, expected):
        if want is not None:
            edited = apply_edits(graph, edits)
            certain = CertainTyping(schema, edited)
            assert verify_global_typing_witness(want, edited, schema, certain), f"{request}, {edits}"
    return expected


def test_checks_match_a_fresh_decision_in_either_order(monkeypatch):
    # per instance, seeded edit sets of one or two edits go through one
    # shared cache, in order and reversed; each verdict is compared with
    # the decider's from scratch and with the reference check, and every
    # sign a check decides with the certain typing of the rebuilt graph
    fixpoints = record_fixpoints(monkeypatch)
    tally = dict.fromkeys(["checks", "edited", "signs", "flipped", "referenced"], 0)
    compared = valid = negated = 0
    for seed in range(3_000):
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        requests = [typing0]
        if schema.negated_labels:
            label = rng.choice(sorted(schema.negated_labels))
            requests.append([(rng.choice(graph.nodes), label, rng.choice("+-"))])
        atoms = _edit_atoms(graph, schema, 2)
        # half the sets edit at a requested node, where the certain typing
        # decides the requested signs on negated labels
        requested = {node for request in requests for node, _, _ in request}
        near = [atom for atom in atoms if requested & {atom[1].key()[0], atom[1].key()[2]}]
        sets = [
            _edit_set(rng.sample(pool, min(len(pool), rng.randint(1, 2))))
            for pool in [atoms] * 5 + [near or atoms] * 5
        ]
        for request in requests:
            expected = compare_in_either_order(schema, graph, request, sets, fixpoints, tally)
            if expected is None:
                continue
            compared += 1
            valid += sum(want is not None for want in expected)
            negated += any(label in schema.negated_labels for _, label, _ in request)
    assert compared >= 3_300 and valid >= 6_000 and negated >= 600, (compared, valid, negated)
    # 69,098 checks decide 16,984 signs; 8,306 decide one at a node their
    # edits touch and 332 one that differs from the unedited graph's. The
    # reference check decides 34,840 of the sets within its bounds. (When
    # each check was a delta on the unedited graph's fixpoint, recorded
    # twice for an accepted set, 11,286 of 83,068 had a stale entry, 464
    # flipped a sign of the base, and 23,336 signs were compared, the
    # base's included.)
    assert tally["signs"] >= 15_000 and tally["edited"] >= 7_500, tally
    assert tally["flipped"] >= 300 and tally["referenced"] >= 33_000, tally
    # an edit that revives a pair dead in the unedited graph and kills
    # another: a requirer whose first witness needed the killed pair must
    # find its other witness, which needs the revived one, whichever of the
    # two comes first
    for first, second in (("Q", "R"), ("R", "Q")):
        schema = parse_schema(f"""PREFIX ex: <{EX}>
<SP> {{ ex:p @<S{first}> ?, ex:p @<S{second}> ? }}
<SQ> {{ ex:q IRI }}
<SR> CLOSED {{ ex:r IRI }}
""")
        graph = Graph([
            Triple(Iri(EX + "p0"), EX + "p", Iri(EX + "t")),
            Triple(Iri(EX + "t"), EX + "r", Iri(EX + "x")),
        ])
        request = [(EX + "p0", "SP", "+"), (EX + "t", "SQ", "+")]
        revive = _edit_set([("ins", Triple(Iri(EX + "t"), EX + "q", Iri(EX + "x")))])
        expected = compare_in_either_order(schema, graph, request, [revive])
        assert expected is not None and expected[0] is not None


def searched(schema, graph, request, max_edits=2):
    """The state of a repair search once its unedited graph has failed the
    request: its cache, edit atoms and screen; None when the graph is valid
    or the check runs out of budget."""
    cache = LocalWitnessCache(schema, graph)
    atoms = _edit_atoms(graph, schema, max_edits)
    try:
        if is_valid_after(graph, _edit_set(()), schema, request, witnesses=cache):
            return None
    except (SearchBudgetExceededError, BagTooLargeError):
        return None
    return cache, atoms, incremental.screen_for(cache, request)


def passing(screen, atoms: list, keys: list, size: int):
    """The index sets of ``itertools.combinations(range(len(atoms)),
    size)``, in that order, whose edit sets the screen passes, each once;
    the ``atoms`` are ``("del" | "ins", triple)`` edits whose triples' keys
    are ``keys``. The screen's generator (``Screen._generate``), fed
    classes read off each atom's kinds rather than counted by
    ``Screen._classes``."""
    at = {}  # node with keys -> kinds of an atom there -> atoms
    for i, ((kind, t), (s, p, o)) in enumerate(zip(atoms, keys)):
        ends = {}
        for node, inverse, far, term in ((s, False, o, t.obj), (o, True, s, t.subject)):
            labels = screen._labels_at.get(node)
            if labels is not None:
                dprop = DirectedProperty(p, inverse)
                ends.setdefault(node, []).append(screen._kind(kind == "ins", labels, dprop, far, term))
        for node, kinds in ends.items():
            at.setdefault(node, {}).setdefault(tuple(sorted(kinds)), []).append(i)
    nodes = []
    for node, by_kinds in at.items():
        classes, inert, inert_end = [], [], None
        for kinds, members in by_kinds.items():
            if all(screen._kinds[k][0] and all(c[0] for c in screen._kinds[k][1]) for k in kinds):
                inert.extend(members)
                inert_end = kinds[0]
            else:
                classes.append((kinds, len(members)))
        held = {i for members in by_kinds.values() for i in members}
        others = [i for i in range(len(atoms)) if i not in held]
        pools = (others, sorted(others + inert))
        nodes.append((node, classes, inert_end, by_kinds.__getitem__, lambda pools=pools: pools))
    return screen._generate(nodes, size)


def passed(screen, atoms, size, pool=None) -> list[tuple[int, ...]]:
    """The sets of ``size`` atoms (indices into ``atoms``, all of them
    from ``pool`` when given) that :func:`passing` generates, in order."""
    pool = range(len(atoms)) if pool is None else list(pool)
    own = [atoms[i] for i in pool]
    return [
        tuple(pool[i] for i in combo)
        for combo in passing(screen, own, [t.key() for _, t in own], size)
    ]


def rejects(screen, atoms, combo) -> bool:
    """Does the screen reject the edit set of the atoms ``combo``? Over the
    set's own atoms, the generator yields the set exactly when it passes."""
    return not passed(screen, atoms, len(combo), combo)


def count_witness_tests(monkeypatch) -> list:
    """Patch the screen to record each witness test's answer."""
    answers = []
    real = incremental.Screen._has_witness

    def recorded(self, key, edits):
        answers.append(real(self, key, edits))
        return answers[-1]

    monkeypatch.setattr(incremental.Screen, "_has_witness", recorded)
    return answers


def count_node_verdicts(monkeypatch, answers: list) -> list:
    """Patch the screen to record, for each node verdict it decides, how
    many witness tests (``answers``, of :func:`count_witness_tests`) it
    ran."""
    tests = []
    real = incremental.Screen._node_verdict

    def recorded(self, node, kinds):
        before = len(answers)
        verdict = real(self, node, kinds)
        tests.append(len(answers) - before)
        return verdict

    monkeypatch.setattr(incremental.Screen, "_node_verdict", recorded)
    return tests


def touches(atom, nodes) -> bool:
    s, _, o = atom[1].key()
    return s in nodes or o in nodes


def test_screened_sets_fail_the_full_check(monkeypatch):
    # the sets of one or two edits of the differential test above, and sets
    # drawn from the atoms at nodes with certain entries: each set the
    # screen rejects must fail is_valid_after, and the reference check
    # within its bounds
    answers = count_witness_tests(monkeypatch)
    verdicts = count_node_verdicts(monkeypatch, answers)
    rejected = confirmed = at_certain = 0
    for seed in range(4_300):
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        requests = [typing0]
        if schema.negated_labels:
            label = rng.choice(sorted(schema.negated_labels))
            requests.append([(rng.choice(graph.nodes), label, rng.choice("+-"))])
        for request in requests:
            state = searched(schema, graph, request)
            if state is None:
                continue
            cache, atoms, screen = state
            requested = {node for node, _, _ in request}
            near = [i for i, atom in enumerate(atoms) if touches(atom, requested)]
            certain_at = screen.base.decided_at
            certain = [i for i, atom in enumerate(atoms) if touches(atom, certain_at)]
            pools = [range(len(atoms))] * 5 + [near or range(len(atoms))] * 5
            for pool in pools + [certain] * 5 * bool(certain):
                combo = tuple(sorted(rng.sample(pool, min(len(pool), rng.randint(1, 2)))))
                if not rejects(screen, atoms, combo):
                    continue
                rejected += 1
                at_certain += any(touches(atoms[i], certain_at) for i in combo)
                edits = _edit_set(atoms[i] for i in combo)
                assert not is_valid_after(graph, edits, schema, request, witnesses=cache), (
                    f"seed {seed}, {request}, {edits}"
                )
                try:
                    assert not _reference_valid_after(graph, edits, schema, request), (
                        f"seed {seed}, {request}, {edits}"
                    )
                except (SearchBudgetExceededError, BagTooLargeError):
                    continue
                confirmed += 1
    tested = sum(count > 0 for count in verdicts)
    # 41,328 rejected sets from 4,300 seeds, all of them within the
    # reference bounds. 8,190 touch a node with a certain entry. 7,340 node
    # verdicts ran a witness test: a group's inert ends are not decided,
    # nor a multiset with a class that inserts an edge no key at its node
    # has a consumer for. (From the first 3,000 seeds: 27,973 rejected
    # sets, 5,126 at such a node and 7,369 verdicts with a witness test
    # while every multiset was decided and a set passed at a node where a
    # changed base pair was alive in the base; 28,260, 5,161 and 5,013
    # without either, so seeds were added to keep the floors. 22,936 sets
    # from the first ten pools when no set that touched a node with a
    # certain entry was screened; 8,110 verdicts with a witness test when
    # each set was screened whole, 7,209 witness tests that rejected when
    # each signature was decided whole.)
    assert confirmed >= 27_500 and at_certain >= 4_900 and tested >= 7_300, (
        rejected, confirmed, at_certain, tested
    )


def test_generated_sets_are_the_sets_that_pass_on_small_pools():
    # pools of 8 atoms, half of them at a requested node, from the edit
    # atoms of random instances at three edits: at each size from 1 to 3
    # the screen generates sets in strictly increasing combination order,
    # and every set of the pool it leaves out fails is_valid_after, and the
    # reference check within its bounds
    confirmed = generated = 0
    for seed in range(410):
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        state = searched(schema, graph, typing0, max_edits=3)
        if state is None:
            continue
        cache, atoms, screen = state
        requested = {node for node, _, _ in typing0}
        near = [i for i, atom in enumerate(atoms) if touches(atom, requested)]
        pool = rng.sample(near, min(4, len(near)))
        pool = sorted(pool + rng.sample(sorted(set(range(len(atoms))) - set(pool)), 4))
        for size in range(1, 4):
            found = passed(screen, atoms, size, pool)
            assert all(a < b for a, b in zip(found, found[1:])), seed
            generated += len(found)
            for combo in set(itertools.combinations(pool, size)).difference(found):
                edits = _edit_set(atoms[i] for i in combo)
                assert not is_valid_after(graph, edits, schema, typing0, witnesses=cache), (
                    f"seed {seed}, {edits}"
                )
                try:
                    assert not _reference_valid_after(graph, edits, schema, typing0), (
                        f"seed {seed}, {edits}"
                    )
                except (SearchBudgetExceededError, BagTooLargeError):
                    continue
                confirmed += 1
    # 28,460 sets left out and confirmed, 2,544 generated. (27,175 and
    # 3,001 from the first 400 seeds while a set passed at a node where a
    # changed base pair was alive in the base; 27,690 and 2,486 from them
    # without that rule, so ten seeds were added to keep the floor.)
    assert confirmed >= 25_000 and generated >= 2_500, (confirmed, generated)


def test_screened_chain_sets_fail_the_full_check(monkeypatch):
    # every one-edit set of an invalid 100-link chain: past the reference
    # validator's node bound, so is_valid_after alone decides them
    answers = count_witness_tests(monkeypatch)
    verdicts = count_node_verdicts(monkeypatch, answers)
    links = 100
    schema = parse_schema(CHAIN_SCHEMA)
    graph = chain_graph(links + 1, False)
    request = [(EX + "n0", "P", "+")]
    cache, atoms, screen = searched(schema, graph, request, max_edits=1)
    checked = [i for i, in passed(screen, atoms, 1)]
    for i in set(range(len(atoms))).difference(checked):
        edits = _edit_set([atoms[i]])
        assert not is_valid_after(graph, edits, schema, request, witnesses=cache)
    # 201 of the 41,006 sets are left to the full check. The 40,805 others
    # are rejected by 402 witness tests, one per node and kinds of the
    # ends there, and by the classes that insert an ex:name edge no key
    # has a consumer for, which reject at their node untested: an
    # insertion at a link reads the same there whichever node it points to
    # (604 witness tests while those classes were tested too, 20,704 when
    # each signature was decided whole, 40,805 when each set was decided
    # alone)
    assert len(checked) <= 2 * links + 10, len(checked)
    assert sum(answer is False for answer in answers) == 402
    assert len(verdicts) <= 10 * links, len(verdicts)


def test_a_screen_whose_search_raises_leaves_the_set_to_the_check(monkeypatch):
    # (e:p IRI, e:p IRI) [1;2] wants 2 or 4 edges and is matched
    # exhaustively; a sixth edge takes the bag past the bound of 5, so the
    # screen's witness search raises, and the check raises it as before
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { (e:p IRI, e:p IRI) [1;2] }")
    hub = Iri("http://e/n")
    graph = Graph([Triple(hub, "http://e/p", Iri(f"http://e/t{i}")) for i in range(5)])
    answers = count_witness_tests(monkeypatch)
    with pytest.raises(BagTooLargeError):
        enumerate_repairs(graph, schema, [("http://e/n", "S", "+")], max_edits=1, bag_bound=5)
    assert None in answers


def rejects_alone(screen, atoms, combo) -> bool:
    """The screen's rule applied to one edit set from its atoms, with no
    effect, kind, signature or verdict memo: the oracle of the memoized
    screen."""
    base = screen.base
    decided_at, graph, shapes = base.decided_at, base.graph, base.schema.shapes
    at = {}  # node with keys -> (directed property, inserts?, target key, target value)
    for i in combo:
        kind, t = atoms[i]
        s, p, o = t.key()
        for node, inverse, target_key, target in ((s, False, o, t.obj), (o, True, s, t.subject)):
            if node in base.at_node or node in decided_at:
                end = (DirectedProperty(p, inverse), kind == "ins", target_key, term_to_value(target))
                at.setdefault(node, []).append(end)
    for node, ends in at.items():
        if not graph.has_node(node):
            return False
        kept = len(ends) < len(graph.neighbourhood(node)) or any(end[1] for end in ends)
        pairs = [
            key for key in base.at_node.get(node, ())
            if not kept or not all(open_only(shapes[key[1]], end[0]) for end in ends)
        ]
        entries = [
            key for key in decided_at.get(node, ())
            if not kept or not all(open_only(shapes[key[1]], end[0]) for end in ends)
        ]
        if entries and (not kept or any(base.signs[key] is not None for key in entries)):
            return False
        if kept and any(
            witness_after(base, key, ends, screen.bag_bound) is not False
            for key in pairs + entries
        ):
            return False
    return True


def usable_options(base, label, dprop, target, value) -> list:
    """The admitted consumers of an edge on ``dprop`` to ``target`` less
    those that propagate a fact on a negated label against the sign the
    base decided for it; an entry the base never decided keeps every
    consumer."""
    schema, signs = base.schema, base.signs
    shape_def = schema.shapes[label]
    out = []
    for consumer in admitted_options(dprop, value, shape_def, {}):
        if isinstance(consumer, ByConstraint) and any(
            isinstance(conj, ShapeRef) and conj.label in schema.negated_labels
            and (target, conj.label) in signs
            and (signs[(target, conj.label)] is not None) == conj.negated
            for conj in shape_def.tc_by_id[consumer.tc_id].value_class
        ):
            continue
        out.append(consumer)
    return out


def witness_after(base, key, ends, bag_bound) -> bool | None:
    """Has ``key`` a local witness once ``ends`` are edited at its node?
    Read off its edges' usable consumer lists; None when the search
    raises."""
    node, label = key
    shape_def, graph = base.schema.shapes[label], base.graph
    options = [
        usable_options(base, label, e.dprop, e.target, graph.val(e.target))
        for e in graph.neighbourhood(node)
    ]
    for dprop, inserted, target, value in ends:
        edited = usable_options(base, label, dprop, target, value)
        if inserted:
            options.append(edited)
        else:
            options.remove(edited)
    if not all(options):
        return False
    try:
        return next(_assignments(options, shape_def, bag_bound), None) is not None
    except ShexdError:
        return None


def assert_generator_agrees(screen, atoms, size, pool=None) -> tuple[int, int]:
    """The sets of ``size`` atoms of ``pool`` (every atom when None) that
    the screen generates are, in strictly increasing combination order,
    those :func:`rejects_alone` passes; returns (sets, rejected)."""
    generated = passed(screen, atoms, size, pool)
    assert all(a < b for a, b in zip(generated, generated[1:]))
    combos = list(itertools.combinations(range(len(atoms)) if pool is None else pool, size))
    expected = [combo for combo in combos if not rejects_alone(screen, atoms, combo)]
    assert generated == expected
    return len(combos), len(combos) - len(expected)


def test_memoized_screen_matches_a_per_set_screen_on_random_instances():
    # the first 100 instances of test_screened_sets_fail_the_full_check:
    # every one-edit set, and every two-edit set of the atoms at a
    # requested node
    sets = rejected = 0
    for seed in range(100):
        rng = random.Random(seed)
        schema, graph, typing0 = random_instance(rng)
        requests = [typing0]
        if schema.negated_labels:
            label = rng.choice(sorted(schema.negated_labels))
            requests.append([(rng.choice(graph.nodes), label, rng.choice("+-"))])
        for request in requests:
            state = searched(schema, graph, request)
            if state is None:
                continue
            _, atoms, screen = state
            requested = {node for node, _, _ in request}
            near = [i for i, (_, t) in enumerate(atoms) if requested & {t.key()[0], t.key()[2]}]
            for size, pool in ((1, None), (2, near)):
                counted = assert_generator_agrees(screen, atoms, size, pool)
                sets, rejected = sets + counted[0], rejected + counted[1]
    # 103,338 rejected while a set passed at a node where a changed base
    # pair was alive in the base, 89,164 when no set that touched a node
    # with a certain entry was screened
    assert (sets, rejected) == (115_125, 107_159)


@pytest.mark.parametrize("schema_name, data, node, shape, max_edits", [
    ("issues.shex", "repairing.ttl", "issue", "IssueShape", 1),
    ("boolean.shex", "boolean.ttl", "term", "Term", 1),
    ("boolean.shex", "boolean.ttl", "term", "Term", 2),
])
def test_memoized_screen_matches_a_per_set_screen_on_the_benchmark_requests(
    schema_name, data, node, shape, max_edits
):
    # every set of one edit up to the request's budget
    schema, graph = load_schema(schema_name), load_graph(data)
    _, atoms, screen = searched(schema, graph, [(EX + node, shape, "+")], max_edits)
    for size in range(1, max_edits + 1):
        assert assert_generator_agrees(screen, atoms, size)[1] > 0


def test_a_schema_without_negation_filters_no_consumer_list():
    # boolean.shex has no negated label, so no consumer list is filtered by
    # a decided sign, and the screen of its two-edit search builds none;
    # the issue schema's one-edit search filters some
    built = {}
    for schema_name, data, node, shape, max_edits in [
        ("boolean.shex", "boolean.ttl", "term", "Term", 2),
        ("issues.shex", "repairing.ttl", "issue", "IssueShape", 1),
    ]:
        schema, graph = load_schema(schema_name), load_graph(data)
        _, atoms, screen = searched(schema, graph, [(EX + node, shape, "+")], max_edits)
        for size in range(1, max_edits + 1):
            passed(screen, atoms, size)
        built[schema_name] = len(screen._filtered)
    assert built["boolean.shex"] == 0 and built["issues.shex"] > 0, built
