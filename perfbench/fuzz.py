"""Workload ``fuzz``: the 200-case ``repro fuzz`` stream through the CLI's context.

Every case runs through ``CheckContext(solve=engine.solve)`` on a cached
serial engine, as ``repro fuzz --cases 200 --seed 0`` does: many small,
varied solo solves with one cache append each, the Monte Carlo oracles,
the traffic generators and the Hurst estimators.  A run covers the whole
stream once; the workload seed picks the case it starts from (the
stream wraps around).  Every tenth case of the stream (cases 0, 10, ...,
190) is replayed right after it runs, on the now-warm engine whose
solves all hit the cache; spreading the replays over the run keeps
them from sharing the same few probe slices.  A traced run
covers the first TRACED_CASES cases of the run, each on a traced and an
untraced engine.

The stream is the one the test suite and ``make fuzz`` run (fuzz seed
0): other fuzz seeds currently report statistical ``hurst_recovery``
misses, and a perf workload must be free of failing operations.
"""

from __future__ import annotations

import time

from repro.exec import SerialBackend, SolveCache, SweepEngine
from repro.verify import CheckContext, run_fuzz

from perfbench.common import Outcome, Run, median, percentile, timed_setups

STREAM_SEED = 0
STREAM_CASES = 200
WARMUP_CASE = 0
REPLAY_EVERY = 10
TRACED_CASES = 100
_OFFSET_STRIDE = 53  # coprime with STREAM_CASES: seeds 0..199 start at distinct cases


class _Fuzz:
    def __init__(self, run: Run) -> None:
        self.run = run
        self.engines = 0

    def context(self):
        """The CLI's fuzz context over a fresh cached serial engine."""
        self.engines += 1
        engine = SweepEngine(
            backend=SerialBackend(),
            cache=SolveCache(self.run.scratch(f"fuzz-cache{self.engines}")),
        )
        return CheckContext(solve=engine.solve)

    def case(self, index: int, ctx, op=None):
        report = run_fuzz(
            cases=1, seed=STREAM_SEED, start=index, ctx=ctx,
            corpus_dir=None, minimize=False,
        )
        if op is not None:
            if report.total_failures:
                op.fail(f"case {index}: {report.failures[0].check}: {report.failures[0].message}")
            op.info["skipped"] = sum(t.skipped for t in report.tallies.values())
        return report

    def setup(self, repeat: int) -> None:
        self.case(WARMUP_CASE, self.context())


def run_workload(run: Run) -> Outcome:
    fuzz = _Fuzz(run)
    _, setup_norm, setup_raw = timed_setups(run, fuzz.setup)
    start = (run.seed * _OFFSET_STRIDE) % STREAM_CASES
    clock = run.clock()
    contexts = {}

    def context(traced: bool):
        if traced not in contexts:
            contexts[traced] = fuzz.context()
        return contexts[traced]

    clock.start()
    deadline = run.deadline()
    ops = []
    position = 0
    while True:
        index = (start + position) % STREAM_CASES
        if run.spans is None:
            with clock.op(f"case{index}", "case") as op:
                fuzz.case(index, context(False), op)
            ops.append(op)
        else:
            # Traced run: each case on two engines that see the same
            # sequence, untraced and traced in alternating order.
            for traced in ((False, True) if position % 2 == 0 else (True, False)):
                run.spans.enabled = traced
                run.spans.begin(position + 1)
                with clock.op(f"case{index}", "case+traced" if traced else "case") as op:
                    fuzz.case(index, context(traced), op)
                ops.append(op)
            run.spans.enabled = False
            if position + 1 >= TRACED_CASES:
                break
        if position < STREAM_CASES and index % REPLAY_EVERY == 0 and run.spans is None:
            with clock.op(f"case{index}", "replay") as op:
                fuzz.case(index, context(False), op)
            ops.append(op)
        position += 1
        if position == STREAM_CASES:
            contexts.clear()  # a second lap must not hit the first lap's cache
        if position >= STREAM_CASES and time.perf_counter() >= deadline:
            break
    clock.finish()

    cases = [op for op in ops if op.kind == "case"]
    replays = [op for op in ops if op.kind == "replay"]
    metrics, raw = {}, {}
    for target, attr in ((metrics, "norm_s"), (raw, "wall_s")):
        times = [getattr(op, attr) for op in cases]
        target["throughput"] = len(times) / sum(times)
        target["p50_ms"] = median(times) * 1e3
        target["p99_ms"] = percentile(times, 99) * 1e3
        warm = [getattr(op, attr) for op in replays]
        # A mean: the replays are ~1-200 ms apart, so their median swings
        # with the noise of the one or two ~10-ms cases next to it.
        target["warm_ms"] = sum(warm) / len(warm) * 1e3 if warm else 0.0  # none when traced
    metrics["setup_s"], raw["setup_s"] = setup_norm, setup_raw
    outcome = Outcome(ops=ops, metrics=metrics, raw=raw, info={"start_case": start})
    if run.spans is not None:
        from perfbench.spans import layer_metrics, trace_overhead

        outcome.per_layer = layer_metrics(run.spans)
        outcome.per_layer["verify.skipped"] = sum(
            op.info.get("skipped", 0) for op in ops if op.kind == "case+traced"
        )
        outcome.per_layer["trace.overhead"] = trace_overhead(ops)
    return outcome
