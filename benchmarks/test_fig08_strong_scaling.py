"""Figure 8: strong scaling of 3D so4 heat/wave kernels to 128 ARCHER2 nodes.

The scaling curves come from the alpha-beta + roofline model; a small real
distributed execution on the simulated MPI runtime is benchmarked alongside so
the halo-exchange machinery itself is exercised.  The process-runtime smoke at
the bottom measures *real* wall-clock strong scaling (the fig. 8 shape) on a
GIL-bound kernel: thread ranks serialize on the interpreter, process ranks do
not.
"""

import os
import time

import numpy as np
import pytest

from bench_helpers import attach_rows
from repro.core import Session, compile_stencil_program, default_session, dmp_target
from repro.evaluation import figure8_strong_scaling
from repro.workloads import heat_diffusion
from tests.conftest import assert_engaged


@pytest.mark.benchmark(group="figure8")
def test_figure8_scaling_rows(benchmark):
    rows = benchmark(figure8_strong_scaling, (1, 2, 4, 8, 16, 32, 64, 128))
    attach_rows(benchmark, "figure8", rows)
    for stack in ("devito", "xdsl"):
        series = [r for r in rows if r["stack"] == stack and r["figure"] == "8a"]
        throughputs = [r["gpts"] for r in series]
        assert all(b > a for a, b in zip(throughputs, throughputs[1:]))
    devito_128 = next(r for r in rows if r["stack"] == "devito" and r["nodes"] == 128 and r["figure"] == "8a")
    xdsl_128 = next(r for r in rows if r["stack"] == "xdsl" and r["nodes"] == 128 and r["figure"] == "8a")
    assert devito_128["parallel_efficiency"] >= xdsl_128["parallel_efficiency"]


@pytest.mark.benchmark(group="figure8-execution")
@pytest.mark.parametrize(
    "ranks,threads_per_rank",
    [((2, 2), 1), ((4, 2), 1), ((2, 2), 2), ((2, 1), 4)],
    ids=["4ranksx1t", "8ranksx1t", "4ranksx2t", "2ranksx4t"],
)
def test_distributed_heat_execution(benchmark, ranks, threads_per_rank):
    """Real distributed execution of a small 2D heat problem.

    The (ranks x threads_per_rank) grid mirrors the paper's hybrid MPI+OpenMP
    sweep: the same total parallelism is reached with different splits
    between process ranks and intra-rank thread teams.
    """
    workload = heat_diffusion((16, 16), space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target(ranks))

    def run():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        u1 = u0.copy()
        result = default_session().run(
            program, [u0, u1], [2], threads_per_rank=threads_per_rank
        )
        return result

    result = benchmark(run)
    assert result.messages_sent > 0
    assert result.threads_per_rank == threads_per_rank


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_process_runtime_strong_scaling_smoke():
    """4 process ranks vs 4 thread ranks on a GIL-bound kernel.

    The ``process-strong-scaling`` row: thread time over process time.
    ``backend="interpreter"`` forces the pure-python tree walker, so the
    thread world serializes all ranks on the GIL while the process world
    spreads them over cores — this is the wall-clock analogue of the paper's
    fig. 8 strong-scaling measurement; its floor is in
    ``benchmarks/baseline.json``.  Skipped gracefully where it cannot mean
    anything (fewer than 4 usable cores, or no process runtime).
    """
    from repro.runtime import processes_available

    if _usable_cpus() < 4:
        pytest.skip("needs >= 4 usable CPU cores for a meaningful comparison")
    if not processes_available():
        pytest.skip("process runtime unavailable on this platform")

    workload = heat_diffusion((128, 128), space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 2)))

    def run(runtime: str) -> float:
        u0 = np.zeros((130, 130))
        u0[64:66, 64:66] = 1.0
        u1 = u0.copy()
        start = time.perf_counter()
        result = default_session().run(
            program, [u0, u1], [4],
            backend="interpreter", runtime=runtime, timeout=600.0,
        )
        elapsed = time.perf_counter() - start
        assert result.runtime == runtime
        return elapsed

    try:
        run("processes")  # warm-up: spawn the pool, ship the program
        t_processes = min(run("processes") for _ in range(2))
        t_threads = min(run("threads") for _ in range(2))
        speedup = t_threads / t_processes
        print(f"\nstrong-scaling smoke: threads {t_threads:.2f}s, "
              f"processes {t_processes:.2f}s, speedup {speedup:.2f}x")
        smoke_json = os.environ.get("BENCH_SMOKE_JSON")
        if smoke_json:
            # bench_regression.py consumes this row for BENCH_pr.json.
            import json

            with open(smoke_json, "w") as handle:
                json.dump(
                    {
                        "kernel": "process-strong-scaling",
                        "shape": [128, 128],
                        "backend": "processes",
                        "threads_s": t_threads,
                        "processes_s": t_processes,
                        "speedup": speedup,
                    },
                    handle,
                )
    finally:
        default_session().close()


def test_session_warmup_smoke():
    """Session.warmup() absorbs the spawn latency of the first hybrid run.

    The ROADMAP warm-up item: a warmed session has its worker processes and
    worker-side thread teams already spawned (and the program already
    shipped), so the first ``plan.run()`` pays none of it.  Asserted by
    counters, not a clock: the warmed first run creates no pool and ships
    nothing.
    """
    from repro.runtime import processes_available

    if not processes_available():
        pytest.skip("process runtime unavailable on this platform")

    workload = heat_diffusion((64, 64), space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 1)))

    u0 = np.zeros((66, 66))
    u0[32:34, 32:34] = 1.0
    with Session(runtime="processes", threads_per_rank=2) as session:
        plan = session.plan(program)
        plan.warmup()
        pools_before = session.worker_pools_created
        shipped_before = session._pool_manager.pool.programs_shipped
        plan.run([u0, u0.copy()], [2])
        assert session.worker_pools_created == pools_before, (
            "the warmed first run spawned a worker pool"
        )
        assert session._pool_manager.pool.programs_shipped == shipped_before, (
            "the warmed first run re-shipped the program"
        )


def test_hybrid_strong_scaling_smoke():
    """2 ranks x 2 threads vs 2 ranks x 1 thread (fig. 8 hybrid).

    The ``hybrid-strong-scaling`` row: flat time over hybrid time, the
    wall-clock analogue of the paper's hybrid MPI+OpenMP points:
    the same 2-rank decomposition, with each rank's megakernel splitting its
    boxes into chunks run on an intra-rank thread team.  The kernel is sized
    so the NumPy work (which releases the GIL) dominates the queue traffic.
    Asserted exactly: every rank of every run engaged the megakernel with
    its nest fused; the floor is in ``benchmarks/baseline.json``.  Skipped
    where it cannot mean anything (fewer than 4 usable cores, no
    process runtime).
    """
    from repro.runtime import processes_available

    if _usable_cpus() < 4:
        pytest.skip("needs >= 4 usable CPU cores for a meaningful comparison")
    if not processes_available():
        pytest.skip("process runtime unavailable on this platform")

    shape = (512, 512)
    steps = 30
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 1)))

    def run(session, threads_per_rank: int) -> float:
        u0 = np.zeros(tuple(s + 2 for s in shape))
        u0[shape[0] // 2, shape[1] // 2] = 1.0
        u1 = u0.copy()
        start = time.perf_counter()
        result = session.run(
            program, [u0, u1], [steps], threads_per_rank=threads_per_rank
        )
        elapsed = time.perf_counter() - start
        assert result.runtime == "processes"
        assert result.threads_per_rank == threads_per_rank
        return elapsed

    with Session(runtime="processes", timeout=600.0) as session:
        run(session, 2)  # warm-up: spawn the pool and both teams, ship the program
        run(session, 1)
        t_hybrid = min(run(session, 2) for _ in range(3))
        t_flat = min(run(session, 1) for _ in range(3))
        # Every rank of every run fused its nest (workers cache their own
        # traces, so trace parent-side for the walked-nest count).
        session.plan(program).compile()
        assert_engaged(session, program, ranks=2, runs=8)
    speedup = t_flat / t_hybrid
    print(f"\nhybrid smoke (2 ranks): 1 thread/rank {t_flat:.2f}s, "
          f"2 threads/rank {t_hybrid:.2f}s, speedup {speedup:.2f}x")
    smoke_json = os.environ.get("BENCH_HYBRID_SMOKE_JSON")
    if smoke_json:
        # bench_regression.py consumes this row for BENCH_pr.json.
        import json

        with open(smoke_json, "w") as handle:
            json.dump(
                {
                    "kernel": "hybrid-strong-scaling",
                    "shape": list(shape),
                    "backend": "processes",
                    "ranks": [2, 1],
                    "threads_per_rank": 2,
                    "flat_s": t_flat,
                    "hybrid_s": t_hybrid,
                    "speedup": speedup,
                },
                handle,
            )
