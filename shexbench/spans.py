"""Outside-in span tracing of the shexd layers.

The tracer rebinds the module-level names (and class attributes) through
which one layer calls the next, records a span around each call, and puts
every original binding back afterwards; no code in ``shexd`` changes.

Each span knows its parent through a stack, so a name's self time is its
duration minus the time of the spans nested directly inside it, and the
self times of all spans partition the time spent inside the outermost ones.
The harness's deadline alarm is deferred while this module's own code
runs (see ``run._on_alarm``), so a deadline never leaves a half-opened or
half-closed span behind.

Spans of the coarse layer boundaries (parsing, graph build, certain typing,
the search, the verifier, each repair check) are also kept as records with
their request number, start, end and parent, and written out by
``write_spans``; the hot inner calls are aggregated only, to keep the cost
of tracing bounded.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import shexd.cli
import shexd.engine
import shexd.matching
import shexd.rdf_graph
import shexd.repair

TIMED = "timed"  # span with self time, aggregated only
RECORDED = "recorded"  # span with self time, also kept as a record
COUNTED = "counted"  # call count only; its time stays in the caller's span
GENERATOR = "generator"  # one span per next() on the returned generator


@dataclass(frozen=True)
class Hook:
    owner: object  # module or class whose attribute is rebound
    attr: str
    name: str  # "<layer>.<what>", the layer being the defining module
    mode: str
    # (tracer, args, kwargs, result) -> None; result is None when the call raised
    on_call: Callable | None = None


def _count_triples(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["rdf_graph.triples_parsed"] += len(result.triples)


def _flooding_result(tracer, args, kwargs, result):
    stats = kwargs["stats"]  # empty when a deadline cut the search off before it began
    tracer.counters["engine.restores"] += stats.get("restores", 0)
    tracer.counters["engine.candidates_accepted"] += sum(stats.get("candidates_checked", {}).values())
    if result is not None:
        tracer.counters["engine.positive_facts"] += len(result.positives())
        tracer.witnesses.append((args[0], args[1], result))


def _local_witness_hit(tracer, args, kwargs, result):
    if result:
        tracer.counters["matching.local_witness_hits"] += 1


def _edit_atoms(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["repair.edit_atoms"] += len(result) + len(args[0].triples)


def _repair_check(tracer, args, kwargs, result):
    if result:
        tracer.counters["repair.valid_checks"] += 1


HOOKS = (
    Hook(shexd.cli, "main", "cli.main", RECORDED),
    Hook(shexd.cli, "parse_schema", "shexc.parse_schema", RECORDED),
    Hook(shexd.cli, "parse_data", "rdf_graph.parse_data", RECORDED, _count_triples),
    Hook(shexd.rdf_graph.Graph, "__init__", "rdf_graph.Graph", RECORDED),
    Hook(shexd.engine.CertainTyping, "__init__", "engine.CertainTyping", RECORDED),
    Hook(shexd.engine.CertainTyping, "sign", "engine.CertainTyping.sign", TIMED),
    Hook(shexd.cli, "flooding_validation", "engine.flooding_validation", RECORDED,
         _flooding_result),
    Hook(shexd.engine.TUC, "snapshot", "engine.TUC.snapshot", TIMED),
    Hook(shexd.engine, "backtrack", "engine.backtrack", TIMED),
    Hook(shexd.engine, "check_gtw_extra", "engine.check_gtw_extra", TIMED),
    Hook(shexd.engine, "candidate_witnesses", "matching.candidate_witnesses", GENERATOR),
    Hook(shexd.engine, "check_local_witness", "matching.check_local_witness", TIMED,
         _local_witness_hit),
    Hook(shexd.engine, "propagation", "matching.propagation", TIMED),
    Hook(shexd.engine, "check_well_defined", "schema_model.check_well_defined", COUNTED),
    Hook(shexd.matching, "edge_matches", "matching.edge_matches", COUNTED),
    Hook(shexd.matching, "bag_matches", "matching.bag_matches", COUNTED),
    Hook(shexd.matching, "interval", "matching.interval", COUNTED),
    Hook(shexd.matching, "brute_match", "matching.brute_match", COUNTED),
    Hook(shexd.cli, "verify_global_typing_witness", "engine.verify", RECORDED),
    Hook(shexd.cli, "witness_to_json", "engine.witness_to_json", RECORDED),
    Hook(shexd.cli, "enumerate_repairs", "repair.enumerate_repairs", RECORDED),
    Hook(shexd.repair, "insertion_domain", "repair.insertion_domain", TIMED, _edit_atoms),
    Hook(shexd.repair, "is_valid_after", "repair.is_valid_after", RECORDED, _repair_check),
    Hook(shexd.repair, "apply_edits", "repair.apply_edits", RECORDED),
    Hook(shexd.repair, "reference_validate", "engine.reference_validate", RECORDED),
)


class Tracer:
    """Span stack, per-name aggregates and the kept span records."""

    def __init__(self):
        # defaultdicts rather than Counters: their missing-key path is C code,
        # so a deferred deadline alarm never fires inside begin() or end().
        self.counts: defaultdict = defaultdict(int)  # calls per name
        self.counters: defaultdict = defaultdict(int)  # work counters read off arguments and results
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)  # outermost spans of a name only
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.witnesses: list = []  # (schema, graph, witness) of every flooding answer
        self.request = 0
        self._depth: defaultdict = defaultdict(int)
        # frames: [name, start, child time, record index or None]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, record: bool) -> None:
        index = None
        if record:
            index = len(self.spans)
            self.spans.append(None)  # filled in by end()
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def end(self) -> None:
        now = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = now - start
        self.counts[name] += 1
        self.self_s[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans[index] = (self.request, name, start, now, parent)

    def reset_stack(self) -> None:
        """Close the frames left open by a request that was cut off mid-call."""
        while self._stack:
            self.end()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        tracer, name = self, hook.name
        if hook.mode == COUNTED:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        if hook.mode == GENERATOR:
            counters = self.counters
            yields = name + "_yields"

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer.begin(name, False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    counters[yields] += 1
                    yield item

            return generator

        record = hook.mode == RECORDED
        on_call = hook.on_call
        inject_stats = hook.attr == "flooding_validation"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if inject_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            tracer.begin(name, record)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end()
                if on_call is not None:
                    on_call(tracer, args, kwargs, result)

        return timed

    def install(self) -> None:
        for hook in HOOKS:
            original = hook.owner.__dict__[hook.attr]
            self._patched.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write_spans(self, path: Path) -> None:
        """One JSON object per kept span; ``parent`` is a line index."""
        with path.open("w", encoding="utf-8") as out:
            for request, name, start, end, parent in self.spans:
                out.write(json.dumps({"request": request, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def per_layer_metrics(tracer: Tracer, wall_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    t, c, n = tracer.inclusive_s, tracer.counters, tracer.counts
    checks = n["matching.check_local_witness"]
    repair_checks = n["repair.is_valid_after"]
    repair_s = t["repair.enumerate_repairs"]
    self_sum = sum(tracer.self_s.values())
    return {
        "engine.search_s": (tracer.self_s["engine.flooding_validation"], "s"),
        "engine.snapshot_s": (t["engine.TUC.snapshot"], "s"),
        "engine.backtrack_s": (t["engine.backtrack"], "s"),
        "engine.backtracks": (n["engine.backtrack"], "count"),
        "engine.restores": (c["engine.restores"], "count"),
        "engine.candidates_accepted": (c["engine.candidates_accepted"], "count"),
        "engine.certain_typing_s": (t["engine.CertainTyping"] + t["engine.CertainTyping.sign"], "s"),
        "engine.certain_sign_calls": (n["engine.CertainTyping.sign"], "count"),
        "engine.verify_s": (t["engine.verify"], "s"),
        "engine.witness_json_s": (t["engine.witness_to_json"], "s"),
        "engine.reference_validate_s": (t["engine.reference_validate"], "s"),
        "engine.positive_facts": (c["engine.positive_facts"], "count"),
        "engine.self_s": (tracer.layer_self_s("engine"), "s"),
        "matching.self_s": (tracer.layer_self_s("matching"), "s"),
        "matching.candidates_enumerated": (c["matching.candidate_witnesses_yields"], "count"),
        "matching.local_witness_checks": (checks, "count"),
        "matching.local_witness_hit_ratio": (
            c["matching.local_witness_hits"] / checks if checks else 0.0, "ratio"),
        "matching.edge_match_calls": (n["matching.edge_matches"], "count"),
        "matching.interval_calls": (n["matching.interval"], "count"),
        "matching.brute_match_calls": (n["matching.brute_match"], "count"),
        "rdf_graph.parse_data_s": (t["rdf_graph.parse_data"], "s"),
        "rdf_graph.triples_parsed": (c["rdf_graph.triples_parsed"], "count"),
        "rdf_graph.graph_build_s": (t["rdf_graph.Graph"], "s"),
        "rdf_graph.graph_builds": (n["rdf_graph.Graph"], "count"),
        "schema_model.well_defined_checks": (n["schema_model.check_well_defined"], "count"),
        "repair.checks": (repair_checks, "count"),
        "repair.checks_per_s": (repair_checks / repair_s if repair_s else 0.0, "1/s"),
        "repair.valid_ratio": (
            c["repair.valid_checks"] / repair_checks if repair_checks else 0.0, "ratio"),
        "repair.check_s": (t["repair.is_valid_after"], "s"),
        "repair.edit_atoms": (c["repair.edit_atoms"], "count"),
        "repair.self_s": (tracer.layer_self_s("repair"), "s"),
        "rdf_graph.self_s": (tracer.layer_self_s("rdf_graph"), "s"),
        "shexc.parse_schema_s": (t["shexc.parse_schema"], "s"),
        "cli.self_s": (tracer.self_s["cli.main"], "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.self_time_share": (self_sum / wall_s if wall_s else 0.0, "ratio"),
        "trace.overhead_ratio": (wall_s / untraced_s if untraced_s else 0.0, "ratio"),
    }
