"""Compare two sets of benchmark run records, metric by metric.

    python3 perfbench/compare.py OLD NEW
    python3 perfbench/compare.py RUNS          # one set: medians and spreads

Each argument is a run-record file or a directory searched recursively
for them (``perfbench/run.py`` writes one per run under
``.perfbench/records``).  Only untraced runs are compared.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
set's median and quartiles (``statistics.quantiles(n=4)``), the spread
(quartile distance over median), and the delta of the medians.  A
comparison is "unresolved" when either set's spread is wider than the
metric's bound, "REGRESSION" when the new median is worse by more than
the bound, else "ok".  Probe-normalized metrics are shown next to their
raw (wall-clock) values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(target: str) -> list[dict]:
    path = Path(target)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace") == 0 and "result" in record:
            records.append(record)
    return records


def summary(values: list[float]) -> dict:
    """Median, quartiles and spread (quartile distance over median)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def series(records: list[dict], workload: str, metric: str, raw: bool) -> list[float]:
    out = []
    for record in records:
        if record["workload"] != workload:
            continue
        if raw and metric in record.get("raw", {}):
            out.append(record["raw"][metric])
        elif metric in record["result"]["metrics"]:
            out.append(record["result"]["metrics"][metric]["value"])
    return out


def verdict(old: dict, new: dict, metric: dict) -> str:
    bound = metric["bound"]
    if old["spread"] > bound or new["spread"] > bound:
        return "unresolved"
    change = (new["median"] - old["median"]) / old["median"]
    worse = change > bound if metric["better"] == "lower" else change < -bound
    return "REGRESSION" if worse else "ok"


def _fmt(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.1%}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", metavar="RECORDS", help="one or two record sets")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two record sets")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load_records(target) for target in args.sets]
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            columns = []
            for records in sets:
                norm = series(records, workload, name, raw=False)
                raw = series(records, workload, name, raw=True)
                columns.append((summary(norm) if norm else None, summary(raw) if raw else None))
            if any(norm is None for norm, _ in columns):
                continue
            line = [f"{workload:<7} {name:<12}"]
            for norm, raw in columns:
                text = _fmt(norm)
                if raw is not None and raw["median"] != norm["median"]:
                    text += f" (raw spread {raw['spread']:.1%})"
                line.append(text)
            if len(columns) == 2:
                old, new = columns[0][0], columns[1][0]
                delta = (new["median"] - old["median"]) / old["median"]
                outcome = verdict(old, new, metric)
                regressions += outcome == "REGRESSION"
                line.append(f"delta {delta:+.1%} -> {outcome}")
            else:
                flag = "steady" if columns[0][0]["spread"] <= metric["bound"] / 3 else "NOISY"
                line.append(f"bound {metric['bound']:.0%}: {flag}")
            print("  ".join(line))
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
