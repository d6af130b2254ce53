"""Work counters of the three benchmark repair requests, of a two-edit
request on the issue example and of a one-edit chain, run through the CLI.

A repair check reads the edited graph as a patch of the request's graph and
verifies an accepted set's certificate on that patch; bag verdicts are
memoized per shape, and local witnesses are cached per request. So a request
builds one ``Graph``, compiles each shape's interval test once, evaluates
it a few dozen times and enumerates a pair's witnesses again only where an edit set changes its
neighbourhood, however many edit sets it checks. Most sets are never even
built: the screen (``shexd.incremental.Screen``) rejects the sets whose
check can only fail as the unedited graph's did, and ``Screen.passing``
generates only the others. A set
passes exactly when its atoms with an end at some node get a passing
verdict there, so the generator decides each multiset of the atoms' kinds
at a node once and extends each passing group by atoms with no end at
that node; the union over the nodes, in combination order, is exactly the
passing sets (the ``Screen`` docstring gives the proof).
The counts are taken in fresh interpreters under several hash seeds, since
set order may steer the search.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import EX
from test_maximal_typing import CHAIN_SCHEMA
from test_repair_classes import count_search_work, repair_json

TESTS = Path(__file__).resolve().parent
NAMELESS = "repairing.ttl without ex:emma's foaf:name"
ROLELESS = NAMELESS + " and ex:ron's is:role"

# (schema, data, node, shape, --max-edits, checks, sets generated); before
# the screen every set that passed the relevance test and the fresh-blank
# dedupe was checked (231 / 41 / 1,051 checks). The sets generated, of one
# edit or more, are those ``Screen.passing`` yields, every set the screen
# passes, before the relevance test and the dedupe. While the screen was
# asked about each set the search built (those a relevance prefilter let
# through, and at one edit the deletions and the insertions the classes
# leave), it rejected 17 / 10 / 2,233 / 80,015 sets; 228 / 40 / 2,268 /
# 80,228 while it was asked about every one-edit set too; on repairing.ttl
# 132, with 99 checks, while it left every set that edits at a node with
# certain entries to the check. The last request is repairing.ttl without
# ex:emma's foaf:name (``NAMELESS``) at two edits, which made 17,221 checks
# while the screen passed those sets. Of its 2,256 sets generated, 449
# passed that prefilter.
REQUESTS = [
    ("issues.shex", "repairing.ttl", "issue", "IssueShape", 1, 3, 2),
    ("boolean.shex", "boolean.ttl", "term", "Term", 1, 1, 0),
    ("boolean.shex", "boolean.ttl", "term", "Term", 2, 5, 4),
    ("issues.shex", NAMELESS, "issue", "IssueShape", 2, 417, 2_256),
]
# The screen's node verdicts and witness tests per request: a set's verdict
# is the conjunction of its nodes' verdicts, each decided once per node and
# kinds of the ends there (on boolean at two edits the screen decided 408
# signatures whole, with as many witness tests at most). Deciding the
# one-edit insertions by class decides some classes none of whose
# insertions counts, and no longer the kinds that only self-loops, decided
# as sets, had (16 / 15 / 97 / 82 verdicts and 12 / 12 / 89 / 73 witness
# tests while the screen was asked about each one-edit set). Generating the
# passing sets decides no multiset of kinds that are all inert at a node,
# and groups without their inert ends (15 / 15 / 98 / 83 verdicts and 13 /
# 13 / 90 / 74 witness tests while the screen was asked about each set).
SCREEN_WORK = [(14, 13), (15, 13), (81, 79), (60, 58)]
# Effects the screen computes (``Screen._effect``), one per triple key the
# search builds an atom for: no effect is computed twice in a search, though
# the one-edit atoms are built again among every atom at two edits. (19 /
# 10 / 190 / 1,152 when they were computed once per atom list, for the
# atoms of the sets the screen was asked about.)
EFFECTS = [31, 15, 180, 1_134]
# The classes of one-edit insertions the screen decides (an inert end is
# not decided), and the edit atoms the search builds (``_edit_atoms``): at
# one edit the deletions, the insertions of the classes that pass and the
# self-loops at nodes with keys, at two every edit, with fresh blanks for
# two labels. When every atom was built up front, once per request, they
# were 1,008 / 120 / 180 / 1,134.
CLASS_WORK = [(6, 31), (10, 15), (10, 195), (6, 1_164)]
# Local witnesses charged to the budgets of each request's checks, the
# screen's fixpoint included (``WitnessReader.charge``): where a check may
# exit 4 moves with them. Each check decides its set from scratch and is
# charged every pair its fixpoint reads, cached or not. (16 / 1 / 9 / 2,165
# when each check was a delta on the unedited graph's fixpoint, charged
# only the pairs it re-decided; the same when the certain signs were
# decided by a certain typing of their own beside the fixpoint.)
CHARGED = [18, 2, 10, 2_135]
# Each request walks each shape's expression once, to compile its interval
# test (``schema_model.compile_membership``), and never again per bag: the
# walks are the compilations plus the calls of ``matching.interval``, the
# reference, which every memo miss of ``bag_matches`` made while it walked
# the expression itself (68 per run of the first three requests).
WALKS = [6, 2, 2, 6]
# The first three requests evaluate the compiled test 70 times (19 / 11 /
# 40) under each hash seed of 0, 7 and 123: once per memo miss of
# ``bag_matches``, the bags ``matching.interval`` was computed for before,
# 70 times too when last counted. (Bounded by 80 while every miss computed
# ``matching.interval``: 68 interval computations under each hash seed of
# 0-15 and 123 when the bound was set; 90 to 100 when the screen left every
# set that edits at a node with certain entries to the check, 3,513 to 3,706
# when each check rebuilt the graph and re-derived every bag.)
EVALUATION_BOUND = 80
# Repair checks decide by the maximal typing and read local witnesses through
# one cache per request, so a pair is enumerated again only when an edit set
# changes its neighbourhood, and an edge is matched once per shape, directed
# property and target value, and only while the edges before it in its
# neighbourhood have a consumer left; an admitted constraint consumer is
# matched once, not again for the per-edge check: the first three requests
# make 188 edge matches under every hash seed (304 when each consumer was
# matched twice and every edge of a neighbourhood was matched; 23,994 to
# 24,873 over seeds 0, 7 and 123 when each check ran the reference validator
# on the whole candidate product).
EDGE_MATCH_BOUND = 250


def data_file(name: str, workdir: Path) -> Path:
    """A file of ``tests/data``, or for ``NAMELESS`` repairing.ttl with
    ex:emma's foaf:name taken out, and for ``ROLELESS`` ex:ron's is:role
    too, written to ``workdir``."""
    from conftest import DATA

    if name not in (NAMELESS, ROLELESS):
        return DATA / name
    text = (DATA / "repairing.ttl").read_text(encoding="utf-8")
    cuts = [('ex:emma foaf:name "Emma" ; ', "ex:emma ")]
    if name == ROLELESS:
        cuts.append((' ; is:role is:someRole', ""))
    for cut, kept in cuts:
        assert cut in text
        text = text.replace(cut, kept)
    path = workdir / "repairing-cut.ttl"
    path.write_text(text, encoding="utf-8")
    return path


def count_repair_work(requests: list[tuple] = REQUESTS) -> list[dict]:
    """Graph builds, expression walks, evaluations of the compiled interval
    tests, edge matches, repair checks,
    sets generated, the screen's node verdicts, witness tests and effects
    (and effects computed again), the local witnesses charged to the
    checks' budgets, classes decided and atoms built per request, with its
    exit code and stdout."""
    import shexd.engine
    import shexd.incremental
    import shexd.matching
    import shexd.rdf_graph
    import shexd.repair
    import shexd.schema_model
    from shexd.cli import main

    from conftest import DATA, EX

    counts = {"graphs": 0, "walks": 0, "evaluations": 0, "edge_matches": 0, "checks": 0, "generated": 0,
              "verdicts": 0, "witness_tests": 0, "effects": 0, "repeated_effects": 0,
              "charged": 0, "classes": 0, "atoms": 0}
    effect_keys = set()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def charged(name, func):
        def wrapper(self, count):
            counts[name] += count
            return func(self, count)
        return wrapper

    def generated(name, func):
        def wrapper(*args, **kwargs):
            for combo in func(*args, **kwargs):
                counts[name] += 1
                yield combo
        return wrapper

    def effects(name, func):
        def wrapper(self, inserted, key, *args):
            counts[name] += 1
            counts["repeated_effects"] += key in effect_keys
            effect_keys.add(key)
            return func(self, inserted, key, *args)
        return wrapper

    def classes(name, func):
        def wrapper(*args, **kwargs):
            for found in func(*args, **kwargs):
                counts[name] += found[3] is not None  # an inert end is not decided
                yield found
        return wrapper

    def compiled(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            member = func(*args, **kwargs)
            if member is None:
                return None

            def evaluated(bag):
                counts["evaluations"] += 1
                return member(bag)
            return evaluated
        return wrapper

    def built(name, func):
        def wrapper(*args, **kwargs):
            atoms = func(*args, **kwargs)
            counts[name] += len(atoms)
            return atoms
        return wrapper

    patches = [
        (shexd.rdf_graph.Graph, "__init__", "graphs", counted),
        (shexd.schema_model, "compile_membership", "walks", compiled),
        (shexd.matching, "interval", "walks", counted),
        (shexd.matching, "edge_matches", "edge_matches", counted),
        (shexd.repair, "is_valid_after", "checks", counted),
        (shexd.incremental.Screen, "passing", "generated", generated),
        (shexd.incremental.Screen, "_node_verdict", "verdicts", counted),
        (shexd.incremental.Screen, "_has_witness", "witness_tests", counted),
        (shexd.incremental.Screen, "_effect", "effects", effects),
        (shexd.engine.WitnessReader, "charge", "charged", charged),
        (shexd.incremental.Screen, "insertion_classes", "classes", classes),
        (shexd.repair, "_edit_atoms", "atoms", built),
    ]
    originals = [getattr(owner, attr) for owner, attr, _, _ in patches]
    out = []
    try:
        for (owner, attr, name, wrap), original in zip(patches, originals):
            setattr(owner, attr, wrap(name, original))
        with tempfile.TemporaryDirectory() as workdir:
            for schema, data, node, shape, max_edits, *_ in requests:
                path = data_file(data, Path(workdir))
                counts.update(dict.fromkeys(counts, 0))
                effect_keys.clear()
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(["repair", "--schema", str(DATA / schema), "--data", str(path),
                                 "--node", EX + node, "--shape", shape,
                                 "--max-edits", str(max_edits), "--json"])
                out.append({"code": code, **counts, "stdout": stdout.getvalue()})
    finally:
        for (owner, attr, _, _), original in zip(patches, originals):
            setattr(owner, attr, original)
    return out


def counted_in(seed: str, requests: str) -> list[dict]:
    """:func:`count_repair_work` on ``requests`` (a name in this module), in
    a fresh interpreter under the hash seed ``seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    done = subprocess.run(
        [sys.executable, "-c", "import json, test_repair_counts as t; "
         f"print(json.dumps(t.count_repair_work(t.{requests})))"],
        capture_output=True, text=True, env=env, cwd=TESTS, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("seed", ["0", "7", "123"])
def test_repair_request_work_bounds(seed):
    counts = counted_in(seed, "REQUESTS")
    assert [c["code"] for c in counts] == [0, 1, 0, 0]
    assert [c["checks"] for c in counts] == [checks for *_, checks, _ in REQUESTS]
    assert [c["generated"] for c in counts] == [generated for *_, generated in REQUESTS]
    assert [(c["verdicts"], c["witness_tests"]) for c in counts] == SCREEN_WORK
    assert [(c["effects"], c["repeated_effects"]) for c in counts] == [(n, 0) for n in EFFECTS]
    assert [(c["classes"], c["atoms"]) for c in counts] == CLASS_WORK
    assert [c["charged"] for c in counts] == CHARGED
    # the counter wraps Graph.__init__, the only routine that builds a Graph,
    # so it sees every Graph a search makes: the parsed one. When accepted
    # sets were verified on a copied graph, that copy bypassed __init__, and
    # the first and third requests made 2 and 4 graphs more than counted
    assert [c["graphs"] for c in counts] == [1, 1, 1, 1]
    assert [c["walks"] for c in counts] == WALKS
    assert sum(c["evaluations"] for c in counts[:3]) <= EVALUATION_BOUND
    assert sum(c["edge_matches"] for c in counts[:3]) <= EDGE_MATCH_BOUND


# repairing.ttl without ex:emma's foaf:name and ex:ron's is:role at three
# edits (checks, sets generated); its checks find 42 valid sets of three
# edits. While the screen was asked about each set the relevance prefilter
# let through, it rejected 36,477,518 of 36,646,809 and passed 169,291 of
# the 1,270,559 sets it now generates; the request took 43.3 s in process.
THREE_EDITS = [("issues.shex", ROLELESS, "issue", "IssueShape", 3, 45_509, 1_270_559)]
# sha256 of its stdout, recorded then under PYTHONHASHSEED=0
THREE_EDITS_STDOUT = "09f5cfa99bef414e612e7fe1b593b219b7e7808aa18df88372f9bc5bd0c89537"


def test_a_three_edit_request_builds_only_the_sets_the_screen_passes():
    (counts,) = counted_in("0", "THREE_EDITS")
    doc = json.loads(counts["stdout"])
    assert counts["code"] == 0
    assert hashlib.sha256(counts["stdout"].encode()).hexdigest() == THREE_EDITS_STDOUT
    assert (doc["minSize"], len(doc["repairs"])) == (3, 42)
    assert [(counts["checks"], counts["generated"])] == [row[-2:] for row in THREE_EDITS]
    assert counts["repeated_effects"] == 0


# sha256 of the repair JSON of the one-edit 200-link chain, recorded when
# every atom was built and screened one by one
CHAIN_200 = "134e4de25283a2b3d9f3188a98dd6c6ca2f280c440d6fbac22d100ae29a5f1c6"


def test_a_chain_is_screened_by_classes_linear_in_its_links(monkeypatch, tmp_path):
    links = 200
    (tmp_path / "chain.shex").write_text(CHAIN_SCHEMA, encoding="utf-8")
    (tmp_path / "chain.ttl").write_text(
        "@prefix ex: <http://example.org/> .\n" + "".join(
            f'ex:n{i} ex:name "name {i}" ; ex:next ex:n{i + 1} .\n' for i in range(links)
        ), encoding="utf-8")
    counts = count_search_work(monkeypatch)
    code, out = repair_json(["--schema", str(tmp_path / "chain.shex"),
                             "--data", str(tmp_path / "chain.ttl"), "--node", EX + "n0",
                             "--shape", "P", "--max-edits", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAIN_200
    # three classes per node: ex:name out of it toward strings or other
    # terms, ex:next toward any (ex:name and ex:next in are inert); the
    # atoms built are the 400 deletions, the 201 insertions of ex:n200's
    # passing ex:name class and the 402 self-loops (162,812 atoms when each
    # was built)
    assert counts == {"classes": 603, "atoms": 1_003}
    assert counts["classes"] <= 10 * links
