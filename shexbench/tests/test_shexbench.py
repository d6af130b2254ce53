"""Tests of the benchmark harness: generators, known answers, the deadline,
metric names and the tracer's patching."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["knows", "hard-invalid"])
def test_generators_are_deterministic(tmp_path, workload):
    first = workloads.build(workload, 7, tmp_path / "a")
    again = workloads.build(workload, 7, tmp_path / "b")
    other = workloads.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    strip = lambda reqs: [(r.name, r.exit_code, r.focus, r.positives, r.negatives) for r in reqs]
    assert strip(first) == strip(again)


def test_repair_requests_carry_the_pinned_answers(tmp_path):
    names = [r.name for r in workloads.build("repair", 3, tmp_path)]
    assert sorted(names) == sorted(["repair-boolean-1", "repair-boolean-2", "repair-repairing-1"] * 2)
    requests = {r.name: r for r in workloads.build("repair", 3, tmp_path)}
    assert requests["repair-boolean-1"].exit_code == workloads.EXIT_INVALID
    assert requests["repair-boolean-2"].repairs["minSize"] == 2
    assert len(requests["repair-boolean-2"].repairs["repairs"]) == 4
    assert len(requests["repair-repairing-1"].repairs["repairs"]) == 2


def test_known_answers_hold(tmp_path):
    requests = workloads.knows_requests(5, tmp_path, persons=60, count=2)
    rng = workloads.rng_for("test", 5)
    for size in (6, 9):
        requests += [workloads.chain_request(rng, tmp_path, size, valid) for valid in (False, True)]
        requests += [workloads.fanout_request(rng, tmp_path, size, valid) for valid in (False, True)]
    requests.append(workloads.repair_request(workloads.repair_cases()["boolean"], 1))
    for request in requests:
        outcome = run.run_request(request)
        assert run.check(outcome) is None, request.name


def test_a_wrong_answer_is_a_failure(tmp_path):
    request = workloads.chain_request(workloads.rng_for("test", 1), tmp_path, 6, True)
    outcome = run.run_request(request)
    outcome.request = workloads.Request(request.name, request.argv, 0, request.focus, 5, 0)
    assert "positive/negative" in run.check(outcome)


def test_a_slow_request_trips_the_deadline_and_counts_as_failed(tmp_path, monkeypatch):
    import shexd.cli

    fast = workloads.fanout_request(workloads.rng_for("test", 2), tmp_path, 3, True)
    slow = workloads.Request("slow", fast.argv, fast.exit_code, fast.focus, 1, 0)

    def spin(argv):  # a request that never returns on its own
        while True:
            pass

    monkeypatch.setattr(shexd.cli, "main", spin)
    outcomes = [run.run_request(slow, deadline_s=0.2)]
    monkeypatch.undo()
    outcomes.append(run.run_request(fast, deadline_s=5.0))
    assert outcomes[0].error.startswith("deadline")
    assert outcomes[0].latency_s < 5.0
    assert run.check(outcomes[1]) is None
    failed = run.failures_of(outcomes)
    assert len(failed) == 1 and "(slow)" in failed[0]
    metrics, _ = run.end_to_end_metrics([outcomes], 1.0, 0.1, len(failed))
    assert metrics["ok_share"][0] == 0.5


def test_the_deadline_waits_for_the_tracer_to_finish_a_span():
    in_tracer = types.SimpleNamespace(f_globals={"__name__": "spans"})
    in_program = types.SimpleNamespace(f_globals={"__name__": "shexd.engine"})
    previous = signal.signal(signal.SIGALRM, signal.SIG_IGN)
    try:
        run._on_alarm(signal.SIGALRM, in_tracer)  # deferred: re-armed, not raised
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(run.DeadlineHit):
        run._on_alarm(signal.SIGALRM, in_program)


def _benchmark():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_end_to_end_names_match_benchmark_json():
    outcomes = [run.Outcome(None, 0.1 * i, 0, "") for i in range(1, 30)]
    metrics, _ = run.end_to_end_metrics([outcomes], 3.0, 0.2, 0)
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_per_layer_names_match_benchmark_json():
    metrics = spans.per_layer_metrics(spans.Tracer(), 1.0, 1.0)
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_latency_percentiles_are_taken_per_pass():
    def one_pass(scale):
        return [run.Outcome(None, scale * i, 0, "") for i in range(1, 13)]

    metrics, _ = run.end_to_end_metrics([one_pass(1.0), one_pass(2.0), one_pass(3.0)], 1.0, 0.1, 0)
    assert metrics["latency_p50_s"][0] == 13.0  # the middle pass's median, 6.5 * 2
    assert metrics["latency_tail_s"][0] == 18.0  # its p75: 12 samples keep 3 beyond


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, note = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and note.startswith("p90.0")
    value, note = run.tail([float(i) for i in range(12)])
    assert value == 8.0 and note == "p75.0 of 12 samples, 3 beyond"
    value, note = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and note.startswith("p100.0")


def _bindings():
    return [hook.owner.__dict__[hook.attr] for hook in spans.HOOKS]


def test_tracing_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(a is not b for a, b in zip(_bindings(), before))
            raise RuntimeError("leave the block early")
    assert all(a is b for a, b in zip(_bindings(), before))


def test_traced_request_accounts_self_time(tmp_path):
    request = workloads.chain_request(workloads.rng_for("test", 4), tmp_path, 8, False)
    tracer = spans.Tracer()
    with tracer.installed():
        outcome = run.run_request(request)
    assert run.check(outcome) is None
    root = tracer.inclusive_s["cli.main"]
    assert 0 < sum(tracer.self_s.values()) <= root * (1 + 1e-9)
    assert tracer.counts["cli.main"] == 1
    assert tracer.counts["engine.flooding_validation"] == 1
    assert "engine.restores" in tracer.counters  # read off the stats the search filled in
    assert tracer.counts["schema_model.check_well_defined"] >= 1
    names = [span[1] for span in tracer.spans]
    assert names[0] == "cli.main" and "engine.flooding_validation" in names
    assert all(span[4] is not None for span in tracer.spans[1:])


def test_harness_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    command = _benchmark()["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "repair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
