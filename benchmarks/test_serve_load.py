"""Load generator for the serving layer (`repro.serve`).

Two measurements, both at 8 concurrent closed-loop clients:

* ``test_serve_load_gate`` — always runs.  Drives a batched server with
  thread-world jobs, reports p50/p99 client latency and aggregate
  throughput, and verifies the served results stay bit-identical to the
  same sequence of runs on a standalone Session.  Its rows feed the
  ``serve-throughput`` floor and the ``serve-p50-ms`` / ``serve-p99-ms``
  ceilings in ``benchmarks/baseline.json``.

* ``test_serve_batched_speedup_smoke`` — the batched-dispatch gate.
  Process-world single-rank jobs on a GIL-bound kernel: a ``max_batch=1``
  server must run them one SPMD round at a time, while the batched server
  packs eight at once across the partitioned worker pool, so the measured
  throughput ratio is the wall-clock value of batched dispatch ("keep the
  worker pool saturated").  Like the fig. 8 strong-scaling smokes it is
  skipped where it cannot mean anything (fewer than 4 usable cores, no
  process runtime); its row feeds the ``serve-batched-speedup`` floor.

Neither test compares a measurement with a bound: the floors and ceilings
are written once, in ``benchmarks/baseline.json``, and enforced by
``bench_regression.py``.

``bench_regression.py --suite serve`` collects the rows through the
``BENCH_SERVE_JSON`` environment variable (a JSON list both tests append
to) and one loaded-run timeline trace through ``BENCH_SERVE_TRACE``.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    Session,
    compile_stencil_program,
    dmp_target,
)
from repro.runtime import processes_available
from repro.serve import Server
from repro.workloads import heat_diffusion

CLIENTS = 8


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _heat_program(rank_grid, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, dmp_target(rank_grid))


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1,
       shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return [u0, u0.copy()]


def _append_rows(rows: list) -> None:
    """Append measured rows to the BENCH_SERVE_JSON artifact (if requested)."""
    path = os.environ.get("BENCH_SERVE_JSON")
    if not path:
        return
    existing = []
    if os.path.exists(path) and os.path.getsize(path):
        with open(path) as handle:
            existing = json.load(handle)
    existing.extend(rows)
    with open(path, "w") as handle:
        json.dump(existing, handle, indent=2)


def _drive_clients(server, program, jobs_per_client, steps, fieldsets):
    """Closed-loop load: each client submits, waits, resubmits.

    Returns (elapsed seconds, per-job client latencies) for the whole
    CLIENTS x jobs_per_client burst; ``fieldsets[i]`` is client ``i``'s
    private field pair, updated in place run after run exactly as repeated
    ``plan.run`` calls would.
    """
    latencies: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS + 1)
    errors: list = []

    def client(fields):
        try:
            barrier.wait(timeout=60.0)
            for _ in range(jobs_per_client):
                began = time.perf_counter()
                server.submit(program, fields, [steps]).result(timeout=300.0)
                took = time.perf_counter() - began
                with lock:
                    latencies.append(took)
        except BaseException as error:  # noqa: BLE001 - reported to the test
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(fieldsets[i],))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60.0)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600.0)
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    assert len(latencies) == CLIENTS * jobs_per_client
    return elapsed, latencies


def _percentile_ms(latencies, fraction):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index] * 1e3


def test_serve_load_gate():
    """p50/p99 latency + throughput of a batched server under 8 clients."""
    jobs_per_client = 4
    steps = 2
    program = _heat_program((2, 1))
    config = ExecutionConfig(runtime="threads")

    # The standalone reference: each client applies `jobs_per_client` runs to
    # its own fields, so the reference applies them the same number of times.
    reference = _heat_fields()
    with Session(config) as session:
        plan = session.plan(program)
        for _ in range(jobs_per_client):
            plan.run(reference, [steps])

    with Server(config, max_batch=CLIENTS, max_pending=64) as server:
        # Warm the plan/megakernel caches outside the timed window.
        server.submit(program, _heat_fields(), [steps]).result(timeout=120.0)
        fieldsets = [_heat_fields() for _ in range(CLIENTS)]
        elapsed, latencies = _drive_clients(
            server, program, jobs_per_client, steps, fieldsets
        )
        throughput = CLIENTS * jobs_per_client / elapsed
        p50 = _percentile_ms(latencies, 0.50)
        p99 = _percentile_ms(latencies, 0.99)
        snapshot = server.metrics.snapshot()

        # Results under concurrent batched load stay bit-identical to the
        # standalone Session sequence.
        for fields in fieldsets:
            assert np.array_equal(fields[0], reference[0])
            assert np.array_equal(fields[1], reference[1])
        assert snapshot.get("serve.batches", 0) >= 1
        assert snapshot.get("serve.jobs_completed") == CLIENTS * jobs_per_client + 1
        assert snapshot.get("serve.queue_depth_peak", 0) >= 1

        # One loaded-run timeline trace for the CI artifact (outside the
        # timed window; the traced config is its own plan-cache entry).
        trace_path = os.environ.get("BENCH_SERVE_TRACE")
        if trace_path:
            traced = [
                server.submit(
                    program, _heat_fields(), [steps], trace="timeline"
                )
                for _ in range(4)
            ]
            for handle in traced:
                handle.result(timeout=120.0)
            server.session.dump_trace(trace_path)

    print(
        f"\nserve load: {CLIENTS} clients x {jobs_per_client} jobs, "
        f"{throughput:.0f} jobs/s, p50 {p50:.2f} ms, p99 {p99:.2f} ms, "
        f"{snapshot.get('serve.batches')} batches "
        f"(occupancy peak {snapshot.get('serve.batch_occupancy_peak')})"
    )
    _append_rows([
        {
            "kernel": "serve-throughput",
            "value": throughput,
            "unit": "jobs/s",
            "clients": CLIENTS,
            "jobs_per_client": jobs_per_client,
            "runtime": "threads",
            "max_batch": CLIENTS,
        },
        {"kernel": "serve-p50-ms", "value": p50, "unit": "ms"},
        {"kernel": "serve-p99-ms", "value": p99, "unit": "ms"},
    ])


def test_serve_batched_speedup_smoke():
    """Batched dispatch vs serialized submission at 8 clients.

    Single-rank process-world jobs on the GIL-bound interpreter backend: the
    serialized server runs 16 SPMD rounds one after another, the batched
    server packs 8 jobs per round across the partitioned worker pool, so the
    workers actually run concurrently.  The same skip policy as the fig. 8
    strong-scaling smokes: meaningless below 4 usable cores.
    """
    if _usable_cpus() < 4:
        pytest.skip("needs >= 4 usable CPU cores for a meaningful comparison")
    if not processes_available():
        pytest.skip("process runtime unavailable on this platform")

    jobs_per_client = 2
    steps = 2
    program = _heat_program((1, 1), shape=(24, 24))
    config = ExecutionConfig(
        runtime="processes", backend="interpreter", timeout=300.0
    )

    def run_load(max_batch: int) -> float:
        with Server(config, max_batch=max_batch, max_pending=64) as server:
            # Warm a full-width burst: grows the pool to the batch's rank
            # count and ships the program before the timed window.
            warm = [
                server.submit(program, _heat_fields((26, 26)), [steps])
                for _ in range(max_batch)
            ]
            for handle in warm:
                handle.result(timeout=300.0)
            fieldsets = [_heat_fields((26, 26)) for _ in range(CLIENTS)]
            elapsed, _ = _drive_clients(
                server, program, jobs_per_client, steps, fieldsets
            )
        return CLIENTS * jobs_per_client / elapsed

    serialized = run_load(max_batch=1)
    batched = run_load(max_batch=CLIENTS)
    speedup = batched / serialized
    print(
        f"\nserve speedup smoke: serialized {serialized:.1f} jobs/s, "
        f"batched {batched:.1f} jobs/s, speedup {speedup:.2f}x"
    )
    _append_rows([{
        "kernel": "serve-batched-speedup",
        "speedup": speedup,
        "serialized_jobs_per_s": serialized,
        "batched_jobs_per_s": batched,
        "clients": CLIENTS,
        "jobs_per_client": jobs_per_client,
        "runtime": "processes",
        "backend": "interpreter",
    }])
