"""Default-seed golden answers the workloads check their outputs against.

Regenerate (only when the workloads' inputs change, never to make a
failing check pass) with::

    PYTHONPATH=src python3 perfbench/goldens.py

Sweep goldens are Prop. II.1 brackets: a later kernel that is
numerically different but correct still produces brackets that overlap
them, since both contain the true loss.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


@lru_cache(maxsize=1)
def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def _sweep() -> dict:
    from repro.exec import SerialBackend
    from repro.experiments.runner import run_figure

    from perfbench import sweep

    sweep._install_traces(0)
    out = {}
    for number in sweep.FIGURES:
        engine = sweep.RecordingEngine(backend=SerialBackend())
        run_figure(number, quick=True, engine=engine)
        out[str(number)] = [
            [result.lower, result.upper, result.converged]
            for plan in engine.plans for result in plan
        ]
    return out


def _netsim() -> dict:
    from perfbench import netsim
    from perfbench.common import Run

    sim = netsim._NetSim(Run(0, 0.0, Path(".")))
    out = {}
    for name, build, args, kwargs, seed in sim.cells():
        result = sim.simulate_cell(build, args, kwargs, seed)
        out[name] = {
            node: [stats.loss_rate, stats.arrived_work]
            for node, stats in result.node_stats.items() if stats.kind == "queue"
        }
    for index in range(len(netsim.GRID)):
        out[f"pair{index}"] = sim.pair_netsim(index).loss_rate
    return out


def _serve_hot() -> list:
    from repro.serve.protocol import parse_request

    from perfbench.serve import HOT_SET

    return [
        [result.lower, result.upper]
        for result in (parse_request(body).task().run() for body in HOT_SET)
    ]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    payload = {"sweep": _sweep(), "netsim": _netsim(), "serve_hot": _serve_hot()}
    GOLDENS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
