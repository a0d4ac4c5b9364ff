"""Workload ``sweep``: the engine-driven figures of ``repro figure N --quick``.

Each figure runs cold through a new ``SolveCache`` holding ~20k
background entries (every cell misses, is solved and appended), then
warm through another new ``SolveCache`` on the same directory, as the
next CLI process would (every cell hits; loading the file dominates).
The kernel does almost all of the cold work and none of the warm work.

A run makes two passes over the figures: the first on the CLI's own
traces (it reproduces ``repro figure N --quick`` exactly and is checked
against golden brackets), the second on traces synthesized with seeds
offset by ``1 + seed``.  Solver work depends on the trace (±10 % per
seed), so sharing the first pass across seeds halves that spread.
"""

from __future__ import annotations

import hashlib
import inspect
import shutil
import time
from functools import lru_cache

from repro.exec import SerialBackend, SolveCache, SweepEngine
from repro.experiments import figures, runner
from repro.traffic.ethernet import synthesize_bellcore_trace
from repro.traffic.video import synthesize_mtv_trace

from perfbench.common import Outcome, Run, median, percentile, timed_setups
from perfbench.goldens import load_goldens

FIGURES = (4, 5, 9, 10, 11, 12, 13)
BACKGROUND_ENTRIES = 20_000
WARMUP_FIGURE = 9
_OVERLAP_SLACK = 1e-9


def _install_traces(offset: int) -> None:
    """Route the figures to traces synthesized with seeds offset by ``offset``.

    Fresh caches on every call, so each call synthesizes again; offset 0
    gives the CLI's traces.
    """
    mtv_base = inspect.signature(synthesize_mtv_trace).parameters["seed"].default
    bellcore_base = inspect.signature(synthesize_bellcore_trace).parameters["seed"].default

    @lru_cache(maxsize=8)
    def mtv_trace(n_frames: int):
        return synthesize_mtv_trace(n_frames=n_frames, seed=mtv_base + offset)

    @lru_cache(maxsize=8)
    def bellcore_trace(n_bins: int):
        return synthesize_bellcore_trace(n_bins=n_bins, seed=bellcore_base + offset)

    figures.mtv_trace = mtv_trace
    figures.bellcore_trace = bellcore_trace
    figures.mtv_source.cache_clear()
    figures.bellcore_source.cache_clear()


class RecordingEngine(SweepEngine):
    """The CLI's engine, keeping each plan's results for the checks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.plans: list[list] = []

    def run_tasks(self, tasks):
        results = super().run_tasks(tasks)
        self.plans.append(results)
        return results


class _Sweep:
    def __init__(self, run: Run) -> None:
        self.run = run
        self.copies = 0

    # ------------------------------------------------------------------ #

    def setup(self, repeat: int) -> None:
        self.traces(0)
        self.background = self.run.scratch(f"background{repeat}")
        cache = SolveCache(self.background)
        probe_results = self.figure(WARMUP_FIGURE, self.run.scratch("warmup"))
        results = [r for plan in probe_results[1] for r in plan]
        cache.put_many(
            (hashlib.sha256(f"background-{i}".encode()).hexdigest(), results[i % len(results)])
            for i in range(BACKGROUND_ENTRIES)
        )
        warm = self.fresh_copy()
        self.figure(WARMUP_FIGURE, warm)
        self.figure(WARMUP_FIGURE, warm)

    def traces(self, offset: int) -> None:
        _install_traces(offset)
        figures.mtv_trace(8192)
        figures.bellcore_trace(8192)
        self.offset = offset

    def fresh_copy(self):
        """A new cache directory holding only the background entries."""
        self.copies += 1
        target = self.run.scratch(f"cache{self.copies % 4}")
        shutil.copyfile(self.background / "solve_cache.jsonl", target / "solve_cache.jsonl")
        return target

    def figure(self, number: int, directory):
        engine = RecordingEngine(backend=SerialBackend(), cache=SolveCache(directory))
        text = runner.run_figure(number, quick=True, engine=engine)
        return text, engine.plans, engine.telemetry

    # ------------------------------------------------------------------ #

    def check(self, number: int, op, plans, telemetry, warm: bool) -> None:
        cells = [result for plan in plans for result in plan]
        golden = load_goldens()["sweep"][str(number)]
        if len(cells) != len(golden):
            op.fail(f"fig {number}: {len(cells)} cells, expected {len(golden)}")
            return
        if warm and telemetry.cache_hits != len(cells):
            op.fail(f"fig {number}: warm pass missed the cache")
        for index, (result, (g_lower, g_upper, g_converged)) in enumerate(zip(cells, golden)):
            if not result.lower <= result.upper:
                op.fail(f"fig {number} cell {index}: lower > upper")
            if self.offset != 0:
                continue
            slack_hi = g_upper * (1 + _OVERLAP_SLACK)
            slack_lo = g_lower * (1 - _OVERLAP_SLACK)
            if result.lower > slack_hi or result.upper < slack_lo:
                op.fail(f"fig {number} cell {index}: bracket misses the golden bracket")
            if result.converged != g_converged:
                op.fail(f"fig {number} cell {index}: converged flag changed")

    def one_figure(self, clock, number: int, tag: str, op_index: int) -> list:
        """Cold then warm run of one figure; returns the two ops (tagged with the pass)."""
        spans = self.run.spans
        if spans is not None:
            spans.begin(op_index)
        directory = self.fresh_copy()
        with clock.op(f"fig{number}", "cold" + tag) as cold:
            text, plans, telemetry = self.figure(number, directory)
        cold.info["cells"] = sum(len(plan) for plan in plans)
        self.check(number, cold, plans, telemetry, warm=False)
        if spans is not None:
            spans.begin(op_index + 1)
        with clock.op(f"fig{number}", "warm" + tag) as warm:
            warm_text, warm_plans, warm_telemetry = self.figure(number, directory)
        self.check(number, warm, warm_plans, warm_telemetry, warm=True)
        if warm_text != text:
            warm.fail(f"fig {number}: warm output differs from cold output")
        cold.info["offset"] = warm.info["offset"] = self.offset
        return [cold, warm]


def run_workload(run: Run) -> Outcome:
    sweep = _Sweep(run)
    _, setup_norm, setup_raw = timed_setups(run, sweep.setup)
    clock = run.clock()
    clock.start()
    deadline = run.deadline()
    ops = []
    passes = 0
    while True:
        if passes:
            sweep.traces(run.seed + passes)
        for position, number in enumerate(FIGURES):
            if run.spans is None:
                ops += sweep.one_figure(clock, number, "", 0)
                continue
            # Traced run: one pass, each figure untraced and traced in
            # alternating order, so the pairs give the tracing overhead.
            for traced in ((False, True) if position % 2 == 0 else (True, False)):
                run.spans.enabled = traced
                ops += sweep.one_figure(clock, number, "+traced" if traced else "",
                                        2 * position + 1)
            run.spans.enabled = False
        passes += 1
        if run.spans is not None or (passes >= 2 and time.perf_counter() >= deadline):
            break
    clock.finish()

    # Cold figure-time percentiles come from the first pass, whose inputs
    # do not depend on the seed; throughput and warm times (cache loading,
    # seed-independent) cover every pass.
    first = [op for op in ops if op.info["offset"] == 0 and op.kind == "cold"]
    cells = sum(op.info["cells"] for op in ops if op.kind == "cold")
    metrics, raw = {}, {}
    for target, attr in ((metrics, "norm_s"), (raw, "wall_s")):
        cold = [getattr(op, attr) for op in first]
        target["throughput"] = cells / sum(getattr(op, attr) for op in ops if op.kind == "cold")
        target["warm_ms"] = median([getattr(op, attr) for op in ops if op.kind == "warm"]) * 1e3
        target["p50_ms"] = median(cold) * 1e3
        target["p99_ms"] = percentile(cold, 99) * 1e3
    metrics["setup_s"], raw["setup_s"] = setup_norm, setup_raw
    outcome = Outcome(ops=ops, metrics=metrics, raw=raw, info={"passes": passes})
    if run.spans is not None:
        outcome.per_layer = _traced_metrics(run, ops)
    return outcome


def _traced_metrics(run: Run, ops) -> dict[str, float]:
    from perfbench.spans import layer_metrics, trace_overhead

    return dict(layer_metrics(run.spans), **{"trace.overhead": trace_overhead(ops)})
