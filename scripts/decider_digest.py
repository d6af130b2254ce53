#!/usr/bin/env python3
"""Fingerprint the answers of the maximal-typing decider.

Runs ``engine.maximal_typing_validation`` on the seeded ``random_instance``s
0-2999. Each instance is asked its own typing, then, at the first node it
requests, one ``+`` request per label of the schema's certain region and one
``-`` request per negated label, in sorted label order. For each decision it
hashes the witness JSON of a valid answer, or the error's class, message and
sorted ``failed`` entries. Prints the number of decisions, how many were
valid and invalid, and a sha256 over all of it, in order. Two trees whose
deciders answer alike print the same line::

    python3 scripts/decider_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shexd.engine import maximal_typing_validation, witness_to_json  # noqa: E402
from shexd.errors import ShexdError  # noqa: E402
from shexd.randgen import random_instance  # noqa: E402

RANDOM_SEEDS = range(3_000)


def requests(schema, typing0):
    yield typing0
    node = typing0[0][0]
    for label in sorted(schema.certain_region):
        yield [(node, label, "+")]
    for label in sorted(schema.negated_labels):
        yield [(node, label, "-")]


def answer(schema, graph, typing0) -> list:
    """The JSON-ready record of one decision."""
    try:
        return ["valid", witness_to_json(maximal_typing_validation(schema, graph, typing0))]
    except ShexdError as error:
        failed = sorted(map(list, getattr(error, "failed", None) or ()))
        return [type(error).__name__, str(error), failed]


def main() -> int:
    digest = hashlib.sha256()
    valid = invalid = 0
    for seed in RANDOM_SEEDS:
        schema, graph, typing0 = random_instance(random.Random(seed))
        for request in requests(schema, typing0):
            record = answer(schema, graph, request)
            digest.update(json.dumps(record).encode())
            if record[0] == "valid":
                valid += 1
            else:
                invalid += 1
    print(f"{valid + invalid} decisions, {valid} valid, {invalid} invalid,"
          f" sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
