"""The benchmark's own tests: every workload counts a wrong answer as failed.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each test shrinks a workload to a few operations, injects a wrong
answer into the program's output, and checks that the workload's output
checks count failed operations (and that the same small run without the
fault counts none).
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest

from perfbench import common, fuzz, netsim, serve, sweep


@pytest.fixture
def make_run():
    work = common.STATE_DIR / "test-work"

    def make(workload: str, seconds: float = 0.5) -> common.Run:
        return common.Run(0, seconds, work / workload)

    yield make
    shutil.rmtree(work, ignore_errors=True)


def _scaled(result, factor: float):
    return dataclasses.replace(result, lower=result.lower * factor, upper=result.upper * factor)


@pytest.mark.parametrize("faulty", [False, True])
def test_sweep_counts_wrong_brackets(monkeypatch, make_run, faulty):
    from repro.exec.engine import SweepEngine

    monkeypatch.setattr(sweep, "FIGURES", (9,))
    if faulty:
        original = SweepEngine.run_tasks
        monkeypatch.setattr(
            SweepEngine, "run_tasks",
            lambda self, tasks: [_scaled(r, 1e3) for r in original(self, tasks)],
        )
    outcome = sweep.run_workload(make_run("sweep"))
    assert outcome.attempted >= 2
    assert (outcome.failed > 0) == faulty


@pytest.mark.parametrize("faulty", [False, True])
def test_netsim_counts_disagreeing_simulators(monkeypatch, make_run, faulty):
    from repro.queueing import fluid_sim

    monkeypatch.setattr(netsim, "GRID", netsim.GRID[:1])
    if faulty:
        original = fluid_sim.simulate_source_queue
        monkeypatch.setattr(
            fluid_sim, "simulate_source_queue",
            lambda *a, **k: dataclasses.replace(original(*a, **k), arrived_work=1.0),
        )
    outcome = netsim.run_workload(make_run("netsim"))
    assert outcome.attempted >= 4
    assert (outcome.failed > 0) == faulty


@pytest.mark.parametrize("faulty", [False, True])
def test_fuzz_counts_a_lying_solver(monkeypatch, make_run, faulty):
    from repro.exec.engine import SweepEngine

    monkeypatch.setattr(fuzz, "STREAM_CASES", 6)
    monkeypatch.setattr(fuzz, "REPLAY_EVERY", 3)
    if faulty:
        original = SweepEngine.solve
        monkeypatch.setattr(SweepEngine, "solve",
                            lambda self, task: _scaled(original(self, task), 10.0))
    outcome = fuzz.run_workload(make_run("fuzz"))
    assert outcome.attempted >= 8
    assert (outcome.failed > 0) == faulty


@pytest.mark.parametrize("faulty", [False, True])
def test_serve_counts_estimates_outside_the_bracket(monkeypatch, make_run, faulty):
    from repro.serve import service

    if faulty:
        original = service.result_payload
        monkeypatch.setattr(service, "result_payload",
                            lambda result: dict(original(result), estimate=-1.0))
    outcome = serve.run_workload(make_run("serve", seconds=1.0))
    assert outcome.attempted >= 60
    assert (outcome.failed > 0) == faulty
