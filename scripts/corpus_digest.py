#!/usr/bin/env python3
"""Fingerprint the CLI's answers on the bundled corpus.

Runs ``shexd.cli.main`` in this process on every node x shape of the corpus
schema/data pairs: ``validate --json`` and ``validate`` on each pair, and
``repair --json --max-edits 1`` on ``repairing.ttl`` and ``boolean.ttl``,
each with and without ``--negate 1``. Prints the number of invocations and a
sha256 over the exit code, stdout and stderr of each, in order. Paths are
given relative to the repository root, so the digest does not depend on
where the repository is checked out. Two trees whose CLI answers the corpus
alike print the same line::

    python3 scripts/corpus_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shexd.cli import _load_graph, _load_schema, main as cli_main  # noqa: E402

DATA = "tests/data/"
# (schema, data files, also run repair)
PAIRS = (
    ("issues.shex", ("issues.ttl",), False),
    ("issues.shex", ("repairing.ttl",), True),
    ("issues.shex", ("shristi_role.ttl",), False),
    ("boolean.shex", ("boolean.ttl",), True),
    ("issues.shex", ("issues.ttl", "shristi_role.ttl"), False),
    ("issues_noextra.shex", ("issues.ttl", "shristi_role.ttl"), False),
)


def invocations():
    for schema_name, data_names, with_repair in PAIRS:
        schema = DATA + schema_name
        data = [DATA + name for name in data_names]
        shapes = sorted(_load_schema(schema).shapes)
        nodes = _load_graph(data, "ttl-lite").nodes
        base = ["--schema", schema]
        for name in data:
            base += ["--data", name]
        commands = [["validate", "--json"], ["validate"]]
        if with_repair:
            commands.append(["repair", "--json", "--max-edits", "1"])
        for node in nodes:
            for shape in shapes:
                for command in commands:
                    for negate in ([], ["--negate", "1"]):
                        yield [command[0], *base, "--node", node, "--shape", shape,
                               *command[1:], *negate]


def main() -> int:
    os.chdir(REPO)
    digest = hashlib.sha256()
    count = 0
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
        count += 1
    print(f"{count} invocations, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
