"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  Every run
re-executes itself in a fresh interpreter with a fixed
``PYTHONHASHSEED`` and single-threaded native libraries, imports the
program from ``src/``, and works in a private directory under
``.perfbench/work`` that it removes on exit.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` a separate traced run
reports the per-layer metrics.  Every run also leaves a full record
(raw and normalized values, per-operation times, provenance) under
``.perfbench/records`` for ``perfbench/compare.py``, and a traced run
its spans under ``.perfbench/spans``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_FRESH = "PERFBENCH_FRESH"
_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _reexec(argv: list[str]) -> None:
    """Replace this process with a fresh interpreter in the fixed environment."""
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **_ENV)
    env[_FRESH] = "1"
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    script = str(Path(__file__).resolve())
    os.execve(sys.executable, [sys.executable, script, *argv], env)


def _import_program() -> float:
    """Import every module of the program; returns the seconds it took."""
    start = time.perf_counter()
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    spec = _spec()
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if os.environ.get(_FRESH) != "1":
        _reexec(argv)
    import_s = _import_program()

    from perfbench import common

    workload = importlib.import_module(f"perfbench.{args.workload}")
    cpu = common.pin_to_current_cpu()
    work_dir = common.STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    run = common.Run(args.seed, args.seconds, work_dir)
    if args.trace:
        from perfbench import spans

        run.spans = spans.SpanRecorder()
        spans.install(run.spans)
        run.spans.ambient = -1  # set-up: recorded, not counted
        run.spans.enabled = True
    try:
        outcome = workload.run_workload(run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    probe_ms, probe_cv = common.probe_stats(run.clocks)
    if args.trace:
        declared = spec["per_layer"]
        values = {m["name"]: 0.0 for m in declared}  # layers a workload never enters
        values.update(outcome.per_layer)
        values.update({"host.probe_ms": probe_ms, "host.probe_cv": probe_cv,
                       "host.import_s": import_s})
    else:
        declared = spec["end_to_end"]
        values = dict(outcome.metrics, peak_rss_mb=common.peak_rss_mb())
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "raw": outcome.raw,
        "provenance": dict(common.provenance(import_s, cpu), probe_ms=probe_ms, probe_cv=probe_cv),
        "failures": outcome.notes,
        "info": outcome.info,
        "ops": [
            {"name": op.name, "kind": op.kind, "wall_s": op.wall_s,
             "norm_s": op.norm_s, "failed": op.failed}
            for op in outcome.ops
        ],
    }
    name = f"{stamp}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    common.write_json(common.STATE_DIR / "records" / args.workload / f"{name}.json", record)
    if run.spans is not None:
        run.spans.write(common.STATE_DIR / "spans" / args.workload / f"{name}.jsonl")
    for note in outcome.notes[:5]:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Import the benchmark as the ``perfbench`` package, never its files
    # as top-level modules.
    sys.path[0] = str(ROOT)
    raise SystemExit(main(sys.argv[1:]))
