"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper: the
pytest-benchmark timings measure the cost of producing the data (compilation
through the shared stack + performance-model evaluation, and for the small
correctness kernels actual execution), while the figure/table rows themselves
are attached to the benchmark's ``extra_info`` so `pytest benchmarks/
--benchmark-only` reproduces the evaluation's numbers in one run.
"""

from __future__ import annotations

import json
import os


def attach_rows(benchmark, name: str, rows) -> None:
    """Store experiment rows on the benchmark result and echo a short summary."""
    benchmark.extra_info["experiment"] = name
    benchmark.extra_info["rows"] = json.dumps(rows, default=float)


def baseline_floor(kernel: str) -> float:
    """The floor ``benchmarks/baseline.json`` commits for ``kernel``.

    Floors are enforced by ``bench_regression.py`` alone; a benchmark reads
    one only to decide when it has sampled enough.
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")
    with open(path) as handle:
        return json.load(handle)["floors"][kernel]
