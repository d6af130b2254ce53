"""Work counters of the three benchmark repair requests, of a two-edit
request on the issue example and of a one-edit chain, run through the CLI.

A repair check reads the edited graph as a patch of the request's graph and
verifies an accepted set's certificate on that patch; bag verdicts are
memoized per shape, and local witnesses are cached per request. So a request
builds one ``Graph``, compiles each shape's interval test once, evaluates it
a few dozen times and enumerates a pair's witnesses again only where an edit
set changes its neighbourhood, however many edit sets it checks. Most sets
are never even built: the screen (``shexd.incremental.Screen``) rejects the
sets whose check can only fail as the unedited graph's did, and
``Screen.generate`` yields only the others. A set passes exactly when its
edits with an end at some node get a passing verdict there. The edits at a
node fall into classes, one per sorted kinds of their ends there, which
are counted without listing the edits; the generator decides each multiset
of classes at a node once, lists the edits of a passing multiset's
classes, and extends each group they form by edits with no end at that
node, listed only for a group smaller than the size. The union over the
nodes, in combination order, is exactly the passing sets (the ``Screen``
docstring gives the proof), and an edit atom is built only for a
generated set that passes the relevance test. The counts are taken in
fresh interpreters under several hash seeds, since set order may steer the
search.
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
# edit or more, are those ``Screen.generate`` yields, every set the screen
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
# Deciding multisets of classes at every size, not of the kinds of built
# atoms, and leaving out at a node the classes that insert an edge no key
# there has a consumer for, decides each class once at one edit and skips
# the multisets such a class rejects (14 / 15 / 81 / 60 verdicts and 13 /
# 13 / 79 / 58 witness tests while the atoms were built first).
SCREEN_WORK = [(11, 10), (10, 8), (51, 49), (51, 49)]
# The classes whose multisets the screen decides, summed over the nodes
# with keys and the sizes reached, and the edit atoms the search builds
# (``repair._atom``), once each, only for the generated sets that pass the
# relevance test: the boolean request at two edits builds the 4 atoms of
# its 4 checked sets. (6 / 10 / 10 / 6 one-edit insertion classes and 31 /
# 15 / 195 / 1,164 atoms while every atom of each size past the first was
# built, with an effect each, 31 / 15 / 180 / 1,134 effects; 1,008 / 120 /
# 180 / 1,134 atoms when every atom was built up front.)
CLASS_WORK = [(13, 2), (14, 0), (28, 4), (26, 219)]
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
    sets generated, the screen's node verdicts and witness tests, the local
    witnesses charged to the checks' budgets, classes decided and atoms
    built (and atoms built again) per request, with its
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
              "verdicts": 0, "witness_tests": 0, "charged": 0, "classes": 0, "atoms": 0,
              "repeated_atoms": 0}
    atom_keys = set()

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

    def classes(name, func):
        def wrapper(*args, **kwargs):
            found = func(*args, **kwargs)
            counts[name] += len(found[1])
            return found
        return wrapper

    def built(name, func):
        def wrapper(universe, inserts, key):
            counts[name] += 1
            counts["repeated_atoms"] += key in atom_keys
            atom_keys.add(key)
            return func(universe, inserts, key)
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

    patches = [
        (shexd.rdf_graph.Graph, "__init__", "graphs", counted),
        (shexd.schema_model, "compile_membership", "walks", compiled),
        (shexd.matching, "interval", "walks", counted),
        (shexd.matching, "edge_matches", "edge_matches", counted),
        (shexd.repair, "is_valid_after", "checks", counted),
        (shexd.incremental.Screen, "_generate", "generated", generated),
        (shexd.incremental.Screen, "_node_verdict", "verdicts", counted),
        (shexd.incremental.Screen, "_has_witness", "witness_tests", counted),
        (shexd.engine.WitnessReader, "charge", "charged", charged),
        (shexd.incremental.Screen, "_classes", "classes", classes),
        (shexd.repair, "_atom", "atoms", built),
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
                atom_keys.clear()
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
    assert [(c["classes"], c["atoms"]) for c in counts] == CLASS_WORK
    assert counts[2]["atoms"] < 20 and not any(c["repeated_atoms"] for c in counts)
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
    assert counts["repeated_atoms"] == 0


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
    # eight classes per link: the deletions of its three edges, ex:name
    # out of it toward strings, toward other terms (an edge no key has a
    # consumer for, left out of its multisets) and to itself, ex:next out
    # of it toward any and to itself (ex:name and ex:next in are inert);
    # seven at ex:n0 and six at ex:n200. The atoms built are those of the
    # generated sets that pass the relevance test. (603 insertion classes
    # and 1,003 atoms when the deletions, the insertions of ex:n200's
    # passing ex:name class and the 402 self-loops were built; 162,812
    # atoms when each was built)
    assert counts == {"classes": 1_605, "atoms": 401}
    assert counts["classes"] <= 10 * links
