"""Benchmark of the repro-lrd system: see perfbench/README.md."""
