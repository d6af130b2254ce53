#!/usr/bin/env python3
"""Scaling sweep: latency and work counters of single requests as the input
grows. It is not part of the gated workloads and gates nothing.

Usage (from the repository root)::

    python3 shexbench/sweep.py --seed 1

Each point runs one request untraced for its latency, then once traced for
its counters, both under the harness deadline. Once a family hits the
deadline, its larger points are skipped and the line reads "deadline hit
at N".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

KNOWS_PERSONS = (400, 800, 1600, 3200)
INVALID_CHAINS = tuple(range(12, 21))
VALID_CHAINS = (200, 2000)
FANOUT_DEGREES = tuple(range(8, 15))
REPAIR_BUDGETS = (1, 2)

COUNTERS = (
    ("engine.restores", "restores"),
    ("engine.backtracks", "backtracks"),
    ("engine.snapshot_s", "snapshot_s"),
    ("matching.candidates_enumerated", "candidates"),
    ("matching.local_witness_checks", "lw_checks"),
    ("repair.checks", "repair_checks"),
)


def families(seed: int, workdir: Path):
    """(family, size, request factory) in sweep order."""
    rng = workloads.rng_for("sweep", seed)
    for n in KNOWS_PERSONS:
        yield "knows", n, lambda n=n: workloads.knows_requests(seed, workdir, persons=n, count=1)[0]
    for n in INVALID_CHAINS:
        yield "chain-invalid", n, lambda n=n: workloads.chain_request(rng, workdir, n, False)
    for n in VALID_CHAINS:
        yield "chain-valid", n, lambda n=n: workloads.chain_request(rng, workdir, n, True)
    for d in FANOUT_DEGREES:
        yield "fanout-invalid", d, lambda d=d: workloads.fanout_request(rng, workdir, d, False)
    boolean = workloads.repair_cases()["boolean"]
    for k in REPAIR_BUDGETS:
        yield "repair-boolean", k, lambda k=k: workloads.repair_request(boolean, k)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (run.SRC / "shexd" / "cli.py").is_file():
        print(f"error: no shexd sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from spans import Tracer, per_layer_metrics

    workdir = run.WORK / f"sweep-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"{'family':16s} {'size':>5s} {'latency_s':>10s} {'answer':8s} "
          + " ".join(f"{label:>13s}" for _, label in COUNTERS))
    stopped: set[str] = set()
    failures = 0
    for family, size, make in families(args.seed, workdir):
        if family in stopped:
            continue
        request = make()
        outcome = run.run_request(request)
        if outcome.error is not None and outcome.error.startswith("deadline"):
            print(f"{family:16s} deadline hit at {size}")
            stopped.add(family)
            continue
        tracer = Tracer()
        with tracer.installed():
            run.run_request(request)
        layer = per_layer_metrics(tracer, 1.0, 1.0)
        reason = run.check(outcome)
        failures += reason is not None
        print(f"{family:16s} {size:5d} {outcome.latency_s:10.4f} {reason or 'ok':8s} "
              + " ".join(f"{layer[key][0]:13.6g}" for key, _ in COUNTERS))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
