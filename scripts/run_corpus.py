#!/usr/bin/env python3
"""Walk the bundled corpus end to end: validate the issue-tracker data,
show the witness for the first issue, and search the two repair scenarios."""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shexd import (
    build_graph,
    enumerate_repairs,
    flooding_validation,
    parse_data,
    parse_schema,
    verify_global_typing_witness,
)
from shexd.engine import CertainTyping
from shexd.errors import ValidationError
from shexd.schema_model import consumer_key

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
EX = "http://example.org/"


def load(schema_name: str, data_name: str):
    schema = parse_schema((DATA / schema_name).read_text())
    graph = build_graph(parse_data((DATA / data_name).read_text()))
    return schema, graph


def main() -> int:
    schema, graph = load("issues.shex", "issues.ttl")
    typing0 = [(EX + "issue1", "IssueShape", "+"), (EX + "issue2", "IssueShape", "+")]
    certain = CertainTyping(schema, graph)

    started = time.perf_counter()
    gtw = flooding_validation(schema, graph, typing0, certain=certain)
    elapsed = time.perf_counter() - started
    assert verify_global_typing_witness(gtw, graph, schema, certain)
    print(f"issue tracker: valid in {elapsed * 1000:.1f} ms, "
          f"{len(gtw.typing)} typing entries, {len(gtw.lw)} witnesses")
    for n, s, sign in sorted(gtw.typing):
        print(f"  {sign} {n.removeprefix(EX)} : {s}")
    print("witness for issue1 / IssueShape:")
    for edge_id, consumer in sorted(gtw.lw[(EX + "issue1", "IssueShape")].items()):
        print(f"  {edge_id.replace(EX, 'ex:')} -> {consumer_key(consumer)}")

    print("\nexpected failures:")
    status = 0
    for node, shape in ((EX + "emin", "ProgrammerShape"), (EX + "issue1", "LowImpactIssueShape")):
        try:
            flooding_validation(schema, graph, [(node, shape, "+")], certain=certain)
            print(f"  UNEXPECTED: {node} satisfies {shape}")
            status = 1
        except ValidationError:
            print(f"  {node.removeprefix(EX)} does not satisfy {shape} (as it should not)")

    print("\nrepair scenarios:")
    for schema_name, data_name, node, shape in (
        ("issues.shex", "repairing.ttl", EX + "issue", "IssueShape"),
        ("boolean.shex", "boolean.ttl", EX + "term", "Term"),
    ):
        sch, g = load(schema_name, data_name)
        started = time.perf_counter()
        result = enumerate_repairs(g, sch, [(node, shape, "+")], max_edits=2)
        elapsed = time.perf_counter() - started
        print(f"  {data_name}: min size {result.min_size}, "
              f"{len(result.repairs)} repairs in {elapsed:.1f} s")
        for edits in result.repairs:
            for t in sorted(edits.deletions, key=lambda t: t.key()):
                print(f"    - {t.key()}")
            for t in sorted(edits.insertions, key=lambda t: t.key()):
                print(f"    + {t.key()}")
    return status


if __name__ == "__main__":
    sys.exit(main())
