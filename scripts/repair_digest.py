#!/usr/bin/env python3
"""Fingerprint the answers of the repair search on five requests.

Runs ``shexd.cli.main`` in this process on ``repair --json`` for:

* ``ex:term`` against ``<Term>`` on ``boolean.ttl`` at ``--max-edits 2``;
* ``ex:issue`` against ``<IssueShape>`` on ``repairing.ttl`` without
  ``ex:emma``'s ``foaf:name``, at ``--max-edits 2``;
* ``ex:n0`` against ``<P>`` on invalid ``ex:next`` chains of 20 and 50
  links (the last node has no ``ex:name``), at ``--max-edits 1``;
* ``ex:term`` against ``<Term>`` on ``boolean.ttl`` at ``--max-edits 12``,
  a budget past ten, where the fresh blank ``repair10`` sorts before
  ``repair2``.

Prints the number of requests and a sha256 over the exit code and stdout of
each, in order. The generated data files live in a temporary directory, and
no path reaches stdout, so the digest does not depend on where the
repository is checked out. Two trees whose repair search answers alike print
the same line::

    python3 scripts/repair_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shexd.cli import main as cli_main  # noqa: E402

DATA = REPO / "tests" / "data"
EX = "http://example.org/"
CHAIN_SCHEMA = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
    "<P> { ex:name xsd:string, ex:next @<P> ? }\n"
)


def chain_data(links: int) -> str:
    """``links`` ex:next links; every node but the last has an ex:name."""
    return "@prefix ex: <http://example.org/> .\n" + "".join(
        f'ex:n{i} ex:name "name {i}" ; ex:next ex:n{i + 1} .\n' for i in range(links)
    )


def requests(workdir: Path):
    yield ["--schema", str(DATA / "boolean.shex"), "--data", str(DATA / "boolean.ttl"),
           "--node", EX + "term", "--shape", "Term", "--max-edits", "2"]
    text = (DATA / "repairing.ttl").read_text(encoding="utf-8")
    named = 'ex:emma foaf:name "Emma" ; '
    if named not in text:
        raise SystemExit(f"repairing.ttl no longer holds {named!r}")
    nameless = workdir / "repairing-nameless.ttl"
    nameless.write_text(text.replace(named, "ex:emma "), encoding="utf-8")
    yield ["--schema", str(DATA / "issues.shex"), "--data", str(nameless),
           "--node", EX + "issue", "--shape", "IssueShape", "--max-edits", "2"]
    schema = workdir / "chain.shex"
    schema.write_text(CHAIN_SCHEMA, encoding="utf-8")
    for links in (20, 50):
        data = workdir / f"chain{links}.ttl"
        data.write_text(chain_data(links), encoding="utf-8")
        yield ["--schema", str(schema), "--data", str(data),
               "--node", EX + "n0", "--shape", "P", "--max-edits", "1"]
    yield ["--schema", str(DATA / "boolean.shex"), "--data", str(DATA / "boolean.ttl"),
           "--node", EX + "term", "--shape", "Term", "--max-edits", "12"]


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in requests(Path(tmp)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(["repair", *argv, "--json"])
            digest.update(json.dumps([code, out.getvalue()]).encode())
            count += 1
    print(f"{count} requests, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
