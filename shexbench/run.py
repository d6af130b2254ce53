#!/usr/bin/env python3
"""End-to-end benchmark of ``shexd validate`` and ``shexd repair``.

Usage (from the repository root)::

    python3 shexbench/run.py --workload knows --seed 1 --seconds 30 --trace 0

The harness writes the workload's inputs from ``--seed`` under
``shexbench/.work/``, then drives ``shexd.cli.main`` in this one process as a
closed loop with a single client: each request starts when the previous one
has returned. It runs whole passes over the workload's request list while
another pass fits in ``--seconds``, checks every answer against the known one
and prints each metric with its unit. The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one untraced
pass and one traced pass of the same request list, cross-checks the answers
against the independent oracles, and reports the per-layer metrics; the
kept spans go to ``shexbench/.work/spans-<workload>-<seed>.jsonl``.

Every request runs under a ``SIGALRM`` deadline, so an input that makes the
engine search exponentially shows up as a recorded deadline hit, not a hang.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import Request  # noqa: E402

# Several times the slowest request at the seed commit: the boolean repair
# at --max-edits 2 takes about 13 s there.
DEADLINE_S = 60.0
# Fresh interpreters timed per run, half before the timed passes and half
# after them, so that the median spans the run rather than one moment of it.
SETUP_RUNS = 16
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
HASH_SEED = "0"  # see the end of this file

# A fresh interpreter pays this before it reads any data.
SETUP_CODE = """\
import sys
import shexd, shexd.cli
from shexd.shexc import parse_schema
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        parse_schema(f.read())
"""


class DeadlineHit(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    # An alarm that lands in the tracer's own bookkeeping would leave a span
    # half-recorded; retry a millisecond later, once control is back in shexd.
    if frame is not None and frame.f_globals.get("__name__") == "spans":
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        return
    raise DeadlineHit()


@dataclass
class Outcome:
    request: Request
    latency_s: float
    exit_code: int | None
    stdout: str
    error: str | None = None  # exception or deadline hit


def run_request(request: Request, deadline_s: float = DEADLINE_S) -> Outcome:
    """Call ``shexd.cli.main`` once, capturing its output, under a deadline."""
    import shexd.cli

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = shexd.cli.main(list(request.argv))
        return Outcome(request, time.perf_counter() - started, code, out.getvalue())
    except DeadlineHit:
        return Outcome(request, time.perf_counter() - started, None, out.getvalue(),
                       f"deadline of {deadline_s:g} s hit")
    except Exception as exc:  # the harness must record the failure and go on
        return Outcome(request, time.perf_counter() - started, None, out.getvalue(),
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check(outcome: Outcome) -> str | None:
    """Why the answer differs from the known one, or None when it matches."""
    req = outcome.request
    if outcome.error is not None:
        return outcome.error
    if outcome.exit_code != req.exit_code:
        return f"exit code {outcome.exit_code}, expected {req.exit_code}"
    if req.repairs is not None:
        try:
            doc = json.loads(outcome.stdout)
        except json.JSONDecodeError:
            return "repair output is not JSON"
        return None if doc == req.repairs else "repair sets differ from the pinned ones"
    if req.exit_code == workloads.EXIT_OK and req.positives is not None:
        try:
            typing = json.loads(outcome.stdout)["typing"]
        except (json.JSONDecodeError, KeyError):
            return "witness output is not the expected JSON"
        signs = [e["sign"] for e in typing]
        node, shape = req.focus
        if {"node": node, "shape": shape, "sign": "+"} not in typing:
            return "the requested fact is missing from the witness"
        if (signs.count("+"), signs.count("-")) != (req.positives, req.negatives):
            return (f"witness has {signs.count('+')}/{signs.count('-')} positive/negative"
                    f" facts, expected {req.positives}/{req.negatives}")
    return None


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def warm_up(requests: list[Request]) -> None:
    """Validate once, untimed, with each schema of the request list.

    In one process, the first request on a schema runs faster than later
    ones, which points at shexd's process-wide per-schema caches. Timing
    starts after this warm-up, so that no timed request gets that discount
    and the seeded order does not decide which one would."""
    for schema in workloads.schema_paths(requests):
        argv = next(r.argv for r in requests if _arg(r.argv, "--schema") == schema)
        run_request(Request("warm-up", ("validate", "--schema", schema, "--data",
                                        _arg(argv, "--data"), "--node", _arg(argv, "--node"),
                                        "--shape", _arg(argv, "--shape")), 0))


def run_pass(requests: list[Request], stop_at: float) -> list[Outcome]:
    outcomes = []
    for request in requests:
        outcomes.append(run_request(request))
        if time.perf_counter() > stop_at:
            break
    return outcomes


def run_timed(requests: list[Request], seconds: float) -> tuple[list[list[Outcome]], float]:
    """(passes, wall time): whole passes over the request list while another
    pass fits in ``seconds``. A pass is cut short only past twice
    ``seconds``, which bounds a run whose requests hit the deadline."""
    passes = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(run_pass(requests, started + 2 * seconds))
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return passes, now - started


def setup_times(schemas: list[str], runs: int) -> list[float]:
    """Wall times of ``runs`` fresh interpreters, each importing shexd and
    parsing the workload's schemas."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *schemas], env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - started)
    return times


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    A pass of fewer than 4 * TAIL_BEYOND samples keeps a quarter of them
    beyond instead, which puts the tail at or above p75: the maximum of a
    dozen samples is too noisy to compare between runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    index = n - beyond - 1
    return ordered[index], f"p{100 * (index + 1) / n:.1f} of {n} samples, {beyond} beyond"


def end_to_end_metrics(passes: list[list[Outcome]], wall_s: float, setup_s: float,
                       failures: int) -> tuple[dict, dict]:
    """(metrics, notes): name -> (value, unit), and name -> explanation.

    The latency percentiles are taken within each pass and the median over
    passes is reported, so that they mean the same whether a run makes one
    pass or several."""
    latencies = [[o.latency_s for o in one] for one in passes]
    tails = [tail(one) for one in latencies]
    attempted = sum(len(one) for one in passes)
    ok = attempted - failures
    over = f"median over {len(passes)} pass(es) of"
    metrics = {
        "requests_per_s": (ok / wall_s, "1/s"),
        "latency_p50_s": (statistics.median(statistics.median(one) for one in latencies), "s"),
        "latency_tail_s": (statistics.median(value for value, _ in tails), "s"),
        "ok_share": (ok / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "requests_per_s": f"{ok} answered correctly in {wall_s:.3f} s",
        "latency_p50_s": f"{over} the median of {len(latencies[0])} samples",
        "latency_tail_s": f"{over}: {tails[0][1]}",
        "ok_share": f"{failures} of {attempted} failed",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters, half before and half after",
    }
    return metrics, notes


def failures_of(outcomes: list[Outcome]) -> list[str]:
    out = []
    for i, outcome in enumerate(outcomes):
        reason = check(outcome)
        if reason is not None:
            out.append(f"request {i} ({outcome.request.name}): {reason}")
    return out


def reverify_witnesses(tracer) -> list[str]:
    """Re-verify the witnesses the traced requests returned, each against a
    fresh certain typing, and drop them."""
    from shexd.engine import CertainTyping, verify_global_typing_witness

    problems = []
    for schema, graph, witness in tracer.witnesses:
        if not verify_global_typing_witness(witness, graph, schema, CertainTyping(schema, graph)):
            problems.append("a witness failed re-verification on a fresh certain typing")
    tracer.witnesses.clear()
    return problems


def _load(argv: tuple[str, ...]):
    """(schema, graph, typing) of a request, read the way the CLI reads them."""
    from shexd.rdf_graph import build_graph, parse_data
    from shexd.shexc import parse_schema

    schema = parse_schema(Path(_arg(argv, "--schema")).read_text(encoding="utf-8"))
    graph = build_graph(parse_data(Path(_arg(argv, "--data")).read_text(encoding="utf-8")))
    return schema, graph, [(_arg(argv, "--node"), _arg(argv, "--shape"), "+")]


def cross_check(workload: str, seed: int, outcomes: list[Outcome]) -> list[str]:
    """Confirm the answers with the independent oracles: re-check every
    returned repair, and compare the smallest instance of each generated
    family with the exhaustive reference validator."""
    from shexd.engine import reference_validate
    from shexd.errors import ValidationError
    from shexd.rdf_graph import parse_data
    from shexd.repair import EditSet, is_valid_after

    problems = []
    for outcome in outcomes:
        if outcome.request.repairs is None or check(outcome) is not None:
            continue
        schema, graph, typing0 = _load(outcome.request.argv)
        for repair in json.loads(outcome.stdout)["repairs"]:
            edits = EditSet(
                frozenset(parse_data("\n".join(repair["delete"]), "nt").triples),
                frozenset(parse_data("\n".join(repair["insert"]), "nt").triples),
            )
            if not is_valid_after(graph, edits, schema, typing0):
                problems.append(f"{outcome.request.name}: a returned repair does not validate")

    smallest = workloads.smallest_instances(workload, seed, WORK / f"{workload}-{seed}-small")
    for request in smallest:
        outcome = run_request(request)
        reason = check(outcome)
        if reason is not None:
            problems.append(f"smallest {request.name}: {reason}")
        schema, graph, typing0 = _load(request.argv)
        try:
            reference_validate(schema, graph, typing0)
            reference = workloads.EXIT_OK
        except ValidationError:
            reference = workloads.EXIT_INVALID
        if reference != request.exit_code:
            problems.append(f"smallest {request.name}: reference_validate disagrees")
    return problems


def run_traced(workload: str, seed: int, requests: list[Request]) -> tuple[list[Outcome], dict, list[str]]:
    from spans import Tracer, per_layer_metrics

    warm_up(requests)
    started = time.perf_counter()
    untraced = run_pass(requests, float("inf"))
    untraced_s = time.perf_counter() - started

    # The tracer is installed around each request only, so that re-verifying
    # a witness right away (a knows witness holds the whole graph) is neither
    # traced nor counted in the traced wall time.
    tracer = Tracer()
    traced: list[Outcome] = []
    problems: list[str] = []
    traced_s = 0.0
    for index, request in enumerate(requests):
        tracer.request = index
        started = time.perf_counter()
        with tracer.installed():
            traced.append(run_request(request))
        traced_s += time.perf_counter() - started
        tracer.reset_stack()
        problems += reverify_witnesses(tracer)

    tracer.write_spans(WORK / f"spans-{workload}-{seed}.jsonl")
    metrics = per_layer_metrics(tracer, traced_s, untraced_s)
    problems += cross_check(workload, seed, traced)
    if metrics["trace.self_time_share"][0] > 1.0:
        problems.append("self times add up to more than the traced wall time")
    return untraced + traced, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shexd" / "cli.py").is_file():
        print(f"error: no shexd sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}"
    requests = workloads.build(args.workload, args.seed, workdir)

    if args.trace:
        outcomes, metrics, problems = run_traced(args.workload, args.seed, requests)
        failed = failures_of(outcomes)
        notes = {name: "not exercised by this workload"
                 for name, (value, _) in metrics.items() if value == 0}
    else:
        schemas = workloads.schema_paths(requests)
        setup_times(schemas, 1)  # warms the file cache; not counted
        setup = setup_times(schemas, SETUP_RUNS // 2)
        warm_up(requests)
        passes, wall_s = run_timed(requests, args.seconds)
        setup_s = statistics.median(setup + setup_times(schemas, SETUP_RUNS // 2))
        outcomes = [outcome for one in passes for outcome in one]
        failed, problems = failures_of(outcomes), []
        metrics, notes = end_to_end_metrics(passes, wall_s, setup_s, len(failed))
    for line in failed + problems:
        print("FAILED " + line)
    print(f"workload {args.workload}, seed {args.seed}, {len(outcomes)} requests")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6f} {unit}{note}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # How much work the engine and the repair search do depends on the
    # iteration order of sets and dicts, which string hashing randomises per
    # process: on the same repair request, local-witness checks differ by up
    # to 17% between hash seeds. A fixed hash seed keeps that out of the
    # run-to-run spread; the harness's --seed varies the generated inputs.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
