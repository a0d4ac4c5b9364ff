"""Span recorder for the traced run.

Spans ``(trace id, span id, parent, name, t0, dt)`` are recorded around
calls into the program's public functions, patched from outside: a
function is replaced at every module attribute that holds it, because a
caller looks it up through its own module's name (patching only
``repro.exec.planner.plan_batches`` would miss the engine's call through
``repro.exec.engine.plan_batches``); methods are patched on their class.
Spans stay in memory until the run ends.  Parent links follow the
calling thread (and asyncio task); links across threads are not kept.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from pathlib import Path

TRAFFIC_GENERATORS = (
    "generate_fgn",
    "generate_farima",
    "aggregate_onoff_rates",
    "mginf_rates",
    "mmpp_rates",
)
HURST_ESTIMATORS = (
    "variance_time_hurst",
    "rs_hurst",
    "periodogram_hurst",
    "wavelet_hurst",
    "whittle_hurst",
)

OnResult = Callable[[object, tuple, bool], None]
"""``on_result(result, args, nested)``; ``nested`` is true inside a span
of the same layer, so counts are taken once per outermost call."""


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans and counters while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.ambient = 0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._context: contextvars.ContextVar[tuple[int, int, str]] = contextvars.ContextVar(
            "perfbench_span", default=(0, 0, "")
        )

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def begin(self, trace_id: int) -> None:
        """Start a new operation on this thread: spans get ``trace_id``.

        Positive ids mark measured operations.  Spans of threads (and
        asyncio tasks) that never called :meth:`begin` take the id in
        :attr:`ambient`, negative during set-up; only spans under
        positive ids are counted.
        """
        self._context.set((trace_id, 0, ""))

    def wrap(self, name: str, fn: Callable, on_result: OnResult | None = None) -> Callable:
        recorder = self
        layer = _layer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            trace_id, parent, parent_name = recorder._context.get()
            if trace_id == 0:
                trace_id = recorder.ambient
            span_id = next(recorder._ids)
            token = recorder._context.set((trace_id, span_id, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                recorder._context.reset(token)
                recorder.spans.append((trace_id, span_id, parent, name, t0, dt))
            if on_result is not None and trace_id > 0:
                on_result(result, args, _layer(parent_name) == layer)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def patch_function(self, module: str, attr: str, name: str,
                       on_result: OnResult | None = None) -> None:
        """Replace ``module.attr`` wherever a repro or perfbench module holds it."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls: type, attr: str, name: str,
                     on_result: OnResult | None = None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], on_result))

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def self_times(self) -> list[tuple[int, str, float, float]]:
        """``(trace id, name, dt, self time)`` per span: dt minus its children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, _, dt in self.spans:
            if parent:
                child_time[parent] += dt
        return [
            (trace_id, name, dt, dt - child_time.get(span_id, 0.0))
            for trace_id, span_id, _, name, _, dt in self.spans
        ]

    def totals(self, measured: bool = True) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``dt`` and total ``self`` seconds.

        ``measured`` keeps only spans of measured operations (positive
        trace ids); otherwise set-up spans count too.
        """
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "dt": 0.0, "self": 0.0})
        for trace_id, name, dt, own in self.self_times():
            if measured and trace_id <= 0:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["dt"] += dt
            entry["self"] += own
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for trace_id, span_id, parent, name, t0, dt in self.spans:
                handle.write(json.dumps(
                    {"trace": trace_id, "span": span_id, "parent": parent,
                     "name": name, "t0": t0, "dt": dt}
                ) + "\n")


# ---------------------------------------------------------------------- #
# the instrumented surface
# ---------------------------------------------------------------------- #


def _count_results(recorder: SpanRecorder) -> OnResult:
    """Kernel counters from the results of outermost solver calls."""

    def on_result(result, args, nested):
        if nested:
            return
        results = result if isinstance(result, list) else [result]
        counts = recorder.counts
        for item in results:
            counts["core.solves"] += 1
            counts["core.unconverged"] += 0 if item.converged else 1
            stats = item.stats
            if stats is None:
                continue
            counts["core.steps"] += stats.total_steps
            counts["core.steps_m2048"] += sum(
                steps for bins, steps in stats.steps_per_level if bins >= 2048
            )
            counts["core.width_sum"] += stats.batch_width
            counts["core.width_n"] += 1
            counts["core.fft_s"] += stats.fft_seconds

    return on_result


def install(recorder: SpanRecorder) -> None:
    """Patch every instrumented public function and method."""
    from repro.core.solver import FluidQueue
    from repro.exec.cache import SolveCache
    from repro.exec.engine import SweepEngine
    from repro.exec.task import SolveTask
    from repro.experiments import runner
    from repro.serve.protocol import QueryRequest
    from repro.verify import default_checks

    counts = recorder.counts
    solved = _count_results(recorder)

    def on_get_many(result, args, nested):
        counts["exec.hits"] += sum(1 for item in result if item is not None)
        counts["exec.lookups"] += len(result)

    def on_plan(result, args, nested):
        counts["exec.batches"] += len(result)
        counts["exec.solo_fallback"] += sum(1 for batch in result if len(batch) == 1)

    def on_simulate(result, args, nested):
        counts["netsim.events"] += result.events_processed

    recorder.patch_method(FluidQueue, "loss_rate", "core.loss_rate", solved)
    recorder.patch_function("repro.core.solver", "batch_loss_rates",
                            "core.batch_loss_rates", solved)
    recorder.patch_method(SweepEngine, "run_tasks", "exec.run_tasks")
    recorder.patch_method(SolveCache, "get_many", "exec.get_many", on_get_many)
    recorder.patch_method(SolveCache, "put_many", "exec.put_many")
    recorder.patch_method(SolveCache, "_read_records", "exec.load")
    recorder.patch_method(SolveTask, "cache_key", "exec.cache_key")
    recorder.patch_function("repro.exec.planner", "plan_batches", "exec.plan_batches", on_plan)
    recorder.patch_function("repro.exec.task", "solve_task_batch", "exec.solve_task_batch")
    recorder.patch_method(QueryRequest, "key", "serve.key")
    for check in default_checks():
        cls = type(check)
        if "run" in cls.__dict__:
            recorder.patch_method(cls, "run", f"verify.{check.name}")
    recorder.patch_function("repro.netsim.simulate", "simulate", "netsim.simulate", on_simulate)
    recorder.patch_function("repro.queueing.fluid_sim", "simulate_source_queue",
                            "queueing.simulate_source_queue")
    recorder.patch_function("repro.queueing.fluid_sim", "simulate_trace_queue_multi",
                            "queueing.simulate_trace_queue_multi")
    for name in TRAFFIC_GENERATORS:
        recorder.patch_function("repro.traffic", name, f"traffic.{name}")
    for name in HURST_ESTIMATORS:
        recorder.patch_function("repro.analysis", name, f"analysis.{name}")
    for number, spec in list(runner.FIGURES.items()):
        runner.FIGURES[number] = dataclasses.replace(
            spec, render=recorder.wrap("experiments.render", spec.render)
        )
    recorder.patch_function("repro.traffic.video", "synthesize_mtv_trace", "traffic.synth_mtv")
    recorder.patch_function("repro.traffic.ethernet", "synthesize_bellcore_trace",
                            "traffic.synth_bellcore")


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in measured operations."""
    totals = recorder.totals(measured=True)
    counts = recorder.counts

    def dt(name: str) -> float:
        return totals.get(name, {}).get("dt", 0.0)

    def own(prefix: str) -> float:
        return sum(v["self"] for k, v in totals.items() if k.startswith(prefix))

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    core_busy = own("core.")
    steps = counts["core.steps"]
    lookups = counts["exec.lookups"]
    key_calls = calls("exec.cache_key")
    out = {
        "core.solves": counts["core.solves"],
        "core.steps": steps,
        "core.steps_m2048": counts["core.steps_m2048"],
        "core.busy_ms": core_busy * 1e3,
        "core.us_per_step": core_busy * 1e6 / steps if steps else 0.0,
        "core.batch_width": (
            counts["core.width_sum"] / counts["core.width_n"] if counts["core.width_n"] else 0.0
        ),
        "core.fft_share": counts["core.fft_s"] / core_busy if core_busy else 0.0,
        "core.unconverged": counts["core.unconverged"],
        "exec.load_ms": dt("exec.load") * 1e3,
        "exec.get_many_ms": own("exec.get_many") * 1e3,
        "exec.put_many_ms": dt("exec.put_many") * 1e3,
        "exec.cache_key_us": dt("exec.cache_key") * 1e6 / key_calls if key_calls else 0.0,
        "exec.plan_ms": dt("exec.plan_batches") * 1e3,
        "exec.engine_self_ms": own("exec.run_tasks") * 1e3,
        "exec.hit_ratio": counts["exec.hits"] / lookups if lookups else 0.0,
        "exec.batches": counts["exec.batches"],
        "exec.solo_fallback": counts["exec.solo_fallback"],
        "serve.key_us": (
            dt("serve.key") * 1e6 / calls("serve.key") if calls("serve.key") else 0.0
        ),
        "netsim.events": counts["netsim.events"],
        "netsim.busy_ms": own("netsim.") * 1e3,
        "queueing.mc_ms": (
            dt("queueing.simulate_source_queue") + dt("queueing.simulate_trace_queue_multi")
        ) * 1e3,
        "traffic.generate_ms": sum(dt(f"traffic.{name}") for name in TRAFFIC_GENERATORS) * 1e3,
        "analysis.hurst_ms": sum(dt(f"analysis.{name}") for name in HURST_ESTIMATORS) * 1e3,
    }
    events = counts["netsim.events"]
    out["netsim.us_per_event"] = out["netsim.busy_ms"] * 1e3 / events if events else 0.0
    out["experiments.render_ms"] = dt("experiments.render") * 1e3
    everything = recorder.totals(measured=False)  # trace synthesis happens in set-up
    out["traffic.synth_ms"] = sum(
        v["dt"] for k, v in everything.items() if k.startswith("traffic.synth")
    ) * 1e3
    for name, entry in totals.items():
        if name.startswith("verify."):
            out[f"{name}_ms"] = entry["dt"] * 1e3
    return out


def trace_overhead(ops) -> float:
    """Normalized time of traced ops over their untraced twins, minus one."""
    traced_kinds = {op.kind for op in ops if op.kind.endswith("+traced")}
    traced = sum(op.norm_s for op in ops if op.kind in traced_kinds)
    plain = sum(op.norm_s for op in ops if op.kind + "+traced" in traced_kinds)
    return traced / plain - 1.0 if plain else 0.0
