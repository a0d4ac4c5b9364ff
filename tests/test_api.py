"""Public-API surface tests: imports, __all__, docstrings, doctests."""

from __future__ import annotations

import doctest
import importlib

import pytest

import repro

MODULES = [
    "repro",
    "repro.core",
    "repro.core.truncated_pareto",
    "repro.core.marginal",
    "repro.core.source",
    "repro.core.workload",
    "repro.core.loss",
    "repro.core.solver",
    "repro.core.horizon",
    "repro.core.results",
    "repro.core.validation",
    "repro.traffic",
    "repro.traffic.fgn",
    "repro.traffic.farima",
    "repro.traffic.onoff",
    "repro.traffic.mginf",
    "repro.traffic.trace",
    "repro.traffic.shuffle",
    "repro.traffic.video",
    "repro.traffic.ethernet",
    "repro.traffic.spurious",
    "repro.analysis",
    "repro.analysis.acf",
    "repro.analysis.hurst",
    "repro.analysis.whittle",
    "repro.analysis.wavelet",
    "repro.analysis.histogram",
    "repro.queueing",
    "repro.queueing.fluid_sim",
    "repro.queueing.mmfq",
    "repro.queueing.markov",
    "repro.queueing.cts",
    "repro.queueing.dimensioning",
    "repro.apps",
    "repro.apps.error_control",
    "repro.experiments",
    "repro.experiments.sweeps",
    "repro.experiments.figures",
    "repro.experiments.reporting",
    "repro.experiments.paperconfig",
    "repro.experiments.runner",
    "repro.experiments.asciiplot",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", [m for m in MODULES if not m.endswith("__main__")])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_reexports():
    # Everything in repro.__all__ must exist and be importable directly.
    for symbol in repro.__all__:
        assert hasattr(repro, symbol)


@pytest.mark.parametrize(
    "name",
    ["repro", "repro.core.truncated_pareto", "repro.core.marginal", "repro.core.solver"],
)
def test_doctests_pass(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0


def test_public_classes_have_docstrings():
    from repro import (
        CutoffFluidSource,
        DiscreteMarginal,
        FluidQueue,
        LossRateResult,
        SolverConfig,
        TruncatedPareto,
        WorkloadLaw,
    )

    for cls in (
        TruncatedPareto,
        DiscreteMarginal,
        CutoffFluidSource,
        WorkloadLaw,
        FluidQueue,
        SolverConfig,
        LossRateResult,
    ):
        assert cls.__doc__ and len(cls.__doc__) > 40
