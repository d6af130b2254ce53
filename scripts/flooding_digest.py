#!/usr/bin/env python3
"""Fingerprint the trajectory of the flooding search.

Runs ``engine.flooding_validation`` on the seeded ``random_instance``s
0-2999, on invalid ``ex:next`` chains of 4-14 nodes and on invalid fan-outs
of degree 2-10. For each run it hashes the verdict, the error's ``failed``
and ``exhausted`` entries, the witness JSON, the number of restores, the
candidates checked per hypothesis (in the order the search first checked
them) and the certain-typing skips. Prints the number of runs, the total
number of restores and a sha256 over all of it, in order. Two trees whose
searches take the same choices and restore them in the same order print the
same line::

    python3 scripts/flooding_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shexd import build_graph, parse_data, parse_schema  # noqa: E402
from shexd.engine import flooding_validation, witness_to_json  # noqa: E402
from shexd.errors import ShexdError  # noqa: E402
from shexd.randgen import random_instance  # noqa: E402

EX = "http://example.org/"
PREFIXES = "PREFIX ex: <http://example.org/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
CHAIN_SCHEMA = PREFIXES + "<P> { ex:name xsd:string, ex:next @<P> ? }"
FANOUT_SCHEMA = PREFIXES + "<F> { ex:p xsd:string *, ex:p Literal *, ex:must xsd:string }"
RANDOM_SEEDS = range(3_000)
CHAIN_LENGTHS = range(4, 15)
FANOUT_DEGREES = range(2, 11)


def invalid_chain(length: int):
    """Nodes n0 -> n1 -> ... over ``ex:next``, each named but the last."""
    lines = [f'<{EX}n{i}> <{EX}name> "n{i}" .' for i in range(length - 1)]
    lines += [f"<{EX}n{i}> <{EX}next> <{EX}n{i + 1}> ." for i in range(length - 1)]
    graph = build_graph(parse_data("\n".join(lines), fmt="nt"))
    return parse_schema(CHAIN_SCHEMA), graph, [(f"{EX}n0", "P", "+")]


def invalid_fanout(degree: int):
    """A hub with ``degree`` string-valued ``ex:p`` edges and no ``ex:must``."""
    lines = [f'<{EX}hub> <{EX}p> "v{i}" .' for i in range(degree)]
    graph = build_graph(parse_data("\n".join(lines), fmt="nt"))
    return parse_schema(FANOUT_SCHEMA), graph, [(f"{EX}hub", "F", "+")]


def instances():
    for seed in RANDOM_SEEDS:
        yield random_instance(random.Random(seed))
    for length in CHAIN_LENGTHS:
        yield invalid_chain(length)
    for degree in FANOUT_DEGREES:
        yield invalid_fanout(degree)


def trajectory(schema, graph, typing0) -> tuple[list, int]:
    """The JSON-ready record of one run, and its number of restores."""
    stats: dict = {}
    try:
        answer = ["valid", witness_to_json(flooding_validation(schema, graph, typing0, stats=stats))]
    except ShexdError as error:
        answer = [type(error).__name__, str(error), getattr(error, "failed", None),
                  getattr(error, "exhausted", None)]
    restores = stats.get("restores", 0)
    checked = [[list(key), count] for key, count in stats.get("candidates_checked", {}).items()]
    return [answer, restores, checked, stats.get("cert_skips", 0)], restores


def main() -> int:
    digest = hashlib.sha256()
    runs = restores = 0
    for schema, graph, typing0 in instances():
        record, run_restores = trajectory(schema, graph, typing0)
        digest.update(json.dumps(record).encode())
        runs += 1
        restores += run_restores
    print(f"{runs} runs, {restores} restores, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
