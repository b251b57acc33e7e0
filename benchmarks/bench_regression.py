#!/usr/bin/env python
"""The bench-regression CI gate: the only code that compares a measurement
with a floor.

Two suites, selected with ``--suite``:

* ``core`` (default) — ``benchmarks/test_backend_speedup.py`` (the
  ``trace-overhead`` and ``kernel-yardstick`` rows) and the fig. 8
  strong-scaling smokes — the flat 4-process one and the hybrid
  2-ranks-x-2-threads one.
* ``serve`` — the serving-layer load generator
  (``benchmarks/test_serve_load.py``): p50/p99 latency, throughput, and the
  batched-vs-serialized dispatch speedup at 8 concurrent clients, plus one
  loaded-run timeline trace written to ``--trace-output``.

Either way every measured row lands in the ``--output`` JSON artifact
(kernel, shape/load shape, wall time, speedup/value) and the gate **fails**
(exit code 1) when any measurement drops below its suite's floors — or, for
latency rows, rises above its ceilings — committed in
``benchmarks/baseline.json`` (floors/ceilings whose key starts with
``serve-`` belong to the serve suite, everything else to core).  The
contract is closed both ways: a floor without a row fails unless it is
``optional``, and a measured row without a floor or ceiling fails too, so a
retired floor cannot leave its timing benchmark behind.  The benchmarks
themselves assert bit identity and counters, never a bound.

Usage (CI runs exactly this, offline — every dependency is installed by the
job's install step, nothing is fetched here)::

    PYTHONPATH=src python benchmarks/bench_regression.py --output BENCH_pr.json
    PYTHONPATH=src python benchmarks/bench_regression.py --suite serve \\
        --output BENCH_serve.json --trace-output BENCH_serve_trace.json

``--floor-scale`` multiplies every baseline floor; it exists to *verify the
gate itself*: ``--floor-scale 1e6`` must make the run fail, proving a
synthetic regression is caught.  The strong-scaling smokes and the serve
batched-dispatch smoke need >= 4 usable cores and an available process
runtime; where they skip, their rows are recorded as skipped and their
(optional) floors are not enforced.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")
SMOKE_TEST = (
    "benchmarks/test_fig08_strong_scaling.py::"
    "test_process_runtime_strong_scaling_smoke"
)
HYBRID_SMOKE_TEST = (
    "benchmarks/test_fig08_strong_scaling.py::"
    "test_hybrid_strong_scaling_smoke"
)
SERVE_LOAD_TEST = "benchmarks/test_serve_load.py"


def _environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def run_speedup_benchmarks() -> tuple[list[dict], int]:
    """Run test_backend_speedup.py; return its rows and the pytest exit code."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        report_path = handle.name
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest",
                "benchmarks/test_backend_speedup.py", "-q",
                f"--benchmark-json={report_path}",
            ],
            cwd=REPO_ROOT,
            env=_environment(),
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout[-4000:])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
        rows: list[dict] = []
        if os.path.exists(report_path) and os.path.getsize(report_path):
            with open(report_path) as report:
                data = json.load(report)
            for benchmark in data.get("benchmarks", []):
                extra = benchmark.get("extra_info", {})
                rows.extend(json.loads(extra.get("rows", "[]")))
        return rows, proc.returncode
    finally:
        if os.path.exists(report_path):
            os.unlink(report_path)


def run_smoke(test_id: str, row_env: str) -> tuple[dict | None, int]:
    """Run one fig. 8 smoke test; return its row (None if skipped) and exit code.

    ``row_env`` names the environment variable through which the test writes
    its measured row (the rank/thread shape travels inside the row itself).
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        smoke_path = handle.name
    os.unlink(smoke_path)  # only exists if the smoke actually measured
    env = _environment()
    env[row_env] = smoke_path
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", test_id, "-q", "-s"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout[-4000:])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
        row = None
        if os.path.exists(smoke_path):
            with open(smoke_path) as handle:
                row = json.load(handle)
        return row, proc.returncode
    finally:
        if os.path.exists(smoke_path):
            os.unlink(smoke_path)


def run_serve_suite(trace_output: str | None) -> tuple[list[dict], int]:
    """Run the serve load generator; return its rows and the pytest exit code.

    The tests append their rows (a JSON list) to the file named by
    ``BENCH_SERVE_JSON``; ``BENCH_SERVE_TRACE`` additionally requests one
    loaded-run timeline trace at that path (uploaded as a CI artifact).
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        rows_path = handle.name
    os.unlink(rows_path)  # only exists once a test measured something
    env = _environment()
    env["BENCH_SERVE_JSON"] = rows_path
    if trace_output:
        env["BENCH_SERVE_TRACE"] = os.path.abspath(trace_output)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", SERVE_LOAD_TEST, "-q", "-s"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout[-4000:])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
        rows: list[dict] = []
        if os.path.exists(rows_path):
            with open(rows_path) as handle:
                rows = json.load(handle)
        return rows, proc.returncode
    finally:
        if os.path.exists(rows_path):
            os.unlink(rows_path)


def check_rows(rows: list[dict], floors: dict, ceilings: dict,
               optional: set) -> list[str]:
    """Compare measured rows with the committed bounds; return the failures.

    A row is measured when it carries ``speedup`` or ``value``.  A floor is
    the least value allowed, a ceiling the greatest; a bound without a
    measured row fails unless its kernel is ``optional``, and a measured row
    without a bound fails too.
    """
    measured = {
        row["kernel"]: row["speedup"] if "speedup" in row else row["value"]
        for row in rows if "speedup" in row or "value" in row
    }
    failures = [
        f"{kernel}: measured, but baseline.json has no floor or ceiling for it"
        for kernel in sorted(set(measured) - set(floors) - set(ceilings))
    ]
    for kind, bounds in (("floor", floors), ("ceiling", ceilings)):
        for kernel, bound in sorted(bounds.items()):
            if kernel not in measured:
                if kernel in optional:
                    print(f"  {kernel:<24} skipped (optional)")
                else:
                    failures.append(f"{kernel}: no measurement produced")
                continue
            value = measured[kernel]
            held = value >= bound if kind == "floor" else value <= bound
            verdict = "ok" if held else "REGRESSION"
            print(f"  {kernel:<24} {value:10.1f}  ({kind} {bound:g})  {verdict}")
            if not held:
                side = "below" if kind == "floor" else "above"
                failures.append(f"{kernel}: measured {value:.1f} {side} the "
                                f"baseline {kind} {bound:g}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=("core", "serve"), default="core",
                        help="core: trace overhead, kernel yardstick + "
                             "fig. 8 smokes; "
                             "serve: the serving-layer load generator")
    parser.add_argument("--output", default="BENCH_pr.json",
                        help="where to write the benchmark artifact")
    parser.add_argument("--baseline",
                        default=os.path.join(BENCHMARKS, "baseline.json"),
                        help="committed floors and ceilings")
    parser.add_argument("--floor-scale", type=float, default=1.0,
                        help="multiply every floor (gate self-test: a large "
                             "value must make this script fail)")
    parser.add_argument("--trace-output", default=None,
                        help="serve suite only: where to write one loaded-run "
                             "timeline trace (Chrome trace JSON)")
    args = parser.parse_args()

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    serve_suite = args.suite == "serve"

    def in_suite(kernel: str) -> bool:
        return kernel.startswith("serve-") == serve_suite

    floors = {k: v * args.floor_scale
              for k, v in baseline["floors"].items() if in_suite(k)}
    ceilings = {k: v for k, v in baseline.get("ceilings", {}).items()
                if in_suite(k)}
    optional = set(baseline.get("optional", []))

    failures: list[str] = []
    if serve_suite:
        rows, serve_rc = run_serve_suite(args.trace_output)
        if serve_rc != 0:
            failures.append("serve load benchmarks failed (see output above)")
    else:
        rows, speedup_rc = run_speedup_benchmarks()
        if speedup_rc != 0:
            failures.append(
                "test_backend_speedup.py failed (see output above)"
            )
        for kernel, test_id, row_env, ranks, threads in (
            ("process-strong-scaling", SMOKE_TEST,
             "BENCH_SMOKE_JSON", [2, 2], 1),
            ("hybrid-strong-scaling", HYBRID_SMOKE_TEST,
             "BENCH_HYBRID_SMOKE_JSON", [2, 1], 2),
        ):
            smoke_row, smoke_rc = run_smoke(test_id, row_env)
            smoke_skipped = smoke_row is None and smoke_rc == 0
            if smoke_row is not None:
                # Every smoke row records its rank/thread shape so the
                # artifact identifies which configuration produced the number.
                smoke_row.setdefault("ranks", ranks)
                smoke_row.setdefault("threads_per_rank", threads)
                rows.append(smoke_row)
            elif smoke_skipped:
                rows.append({"kernel": kernel, "skipped": True,
                             "ranks": ranks, "threads_per_rank": threads})
            if smoke_rc != 0 and not smoke_skipped:
                failures.append(f"{kernel} smoke failed (see output above)")

    artifact = {
        "suite": args.suite,
        "baseline": args.baseline,
        "floor_scale": args.floor_scale,
        "rows": rows,
    }
    with open(args.output, "w") as handle:
        json.dump(artifact, handle, indent=2)
    print(f"\nwrote {len(rows)} rows to {args.output}")

    failures += check_rows(rows, floors, ceilings, optional)
    if failures:
        print("\nbench-regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
