"""Work counters of the three benchmark repair requests, run through the CLI.

A repair check patches the edited graph onto the request's graph, bag
verdicts are memoized per shape, and local witnesses are cached per request,
so a request builds one ``Graph``, makes a few dozen interval computations
and enumerates a pair's witnesses again only where an edit set changes its
neighbourhood, however many edit sets it checks.
The counts are taken in fresh interpreters under several hash seeds, since
set order may steer the search.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

# (schema, data, node, shape, --max-edits, checks)
REQUESTS = [
    ("issues.shex", "repairing.ttl", "issue", "IssueShape", 1, 231),
    ("boolean.shex", "boolean.ttl", "term", "Term", 1, 41),
    ("boolean.shex", "boolean.ttl", "term", "Term", 2, 1_051),
]
# The three requests made 90 to 100 interval computations over hash seeds
# 0-15 and 123 (3,513 to 3,706 when each check rebuilt the graph and
# re-derived every bag).
INTERVAL_BOUND = 120
# Repair checks decide by the maximal typing and read local witnesses through
# one cache per request, so a pair is enumerated again only when an edit set
# changes its neighbourhood, and an edge is matched once per shape, directed
# property and target value: the three requests make 304 edge matches under
# every hash seed (23,994 to 24,873 over seeds 0, 7 and 123 when each check
# ran the reference validator on the whole candidate product).
EDGE_MATCH_BOUND = 600


def count_repair_work() -> list[dict[str, int]]:
    """Graph builds, interval computations, edge matches and repair checks
    per request."""
    import shexd.matching
    import shexd.rdf_graph
    import shexd.repair
    from shexd.cli import main

    from conftest import DATA, EX

    counts = {"graphs": 0, "intervals": 0, "edge_matches": 0, "checks": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    patches = [
        (shexd.rdf_graph.Graph, "__init__", "graphs"),
        (shexd.matching, "interval", "intervals"),
        (shexd.matching, "edge_matches", "edge_matches"),
        (shexd.repair, "is_valid_after", "checks"),
    ]
    originals = [getattr(owner, attr) for owner, attr, _ in patches]
    out = []
    try:
        for (owner, attr, name), original in zip(patches, originals):
            setattr(owner, attr, counted(name, original))
        for schema, data, node, shape, max_edits, _ in REQUESTS:
            counts.update(dict.fromkeys(counts, 0))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["repair", "--schema", str(DATA / schema), "--data", str(DATA / data),
                             "--node", EX + node, "--shape", shape,
                             "--max-edits", str(max_edits), "--json"])
            out.append({"code": code, **counts})
    finally:
        for (owner, attr, _), original in zip(patches, originals):
            setattr(owner, attr, original)
    return out


@pytest.mark.parametrize("seed", ["0", "7", "123"])
def test_repair_request_work_bounds(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, test_repair_counts as t; print(json.dumps(t.count_repair_work()))"],
        capture_output=True, text=True, env=env, cwd=TESTS, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert [c["code"] for c in counts] == [0, 1, 0]
    assert [c["checks"] for c in counts] == [checks for *_, checks in REQUESTS]
    assert [c["graphs"] for c in counts] == [1, 1, 1]
    assert sum(c["intervals"] for c in counts) <= INTERVAL_BOUND
    assert sum(c["edge_matches"] for c in counts) <= EDGE_MATCH_BOUND
