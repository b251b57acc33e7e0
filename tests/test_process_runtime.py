"""Tests for the OS-process SPMD runtime (repro.runtime).

The contract under test: ``runtime="processes"`` is observationally identical
to ``runtime="threads"`` — bit-identical fields, matching per-rank execution
statistics and matching world-wide communication statistics — while actually
running every rank in its own process against shared-memory buffers.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    ExecutionError,
    RuntimeFallbackWarning,
    Session,
    compile_stencil_program,
    cpu_target,
    default_session,
    dmp_target,
)
from repro.frontends.oec import StencilProgramBuilder
from repro.interp import CodegenError, SimulatedMPI
from repro.runtime import (
    PoolManager,
    merge_comm_statistics,
    processes_available,
)
from repro.workloads import heat_diffusion
from tests.conftest import _forked_workers

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


#: The worker pool of the raw SPMD tests (program runs use a Session's own).
MANAGER = PoolManager()


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    MANAGER.shutdown()
    default_session().close()


def _spmd(fn, size, args=(), timeout=60.0):
    """``fn(comm, *args)`` on ``size`` process ranks: values + merged stats."""
    values, per_rank = MANAGER.run_spmd(fn, size, args, timeout)
    return values, merge_comm_statistics(per_rank)


def _compile_heat(rank_grid, *, lower_to_library_calls=False, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    target = dmp_target(rank_grid, lower_to_library_calls=lower_to_library_calls)
    return compile_stencil_program(module, target)


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1, shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return u0, u0.copy()


def _run(program, fields, scalars, **config):
    """One-shot run on the default session (its pool persists across runs)."""
    return default_session().run(program, fields, scalars, **config)


# ---------------------------------------------------------------------------
# collectives parity (satellite: same results and CommStatistics counts)
# ---------------------------------------------------------------------------

def _collective_body(comm, base):
    """Exercises every collective of the paper's subset plus barriers."""
    data = np.full(4, float(comm.rank) + base, dtype=np.float64)
    total = comm.allreduce(data, "sum")
    comm.barrier()
    biggest = comm.reduce(data, "max", root=0)
    seed = np.zeros(3, dtype=np.float64)
    if comm.rank == 0:
        seed[:] = (1.0, 2.0, 3.0)
    shared = comm.bcast(seed, root=0)
    gathered = comm.gather(data, root=0)
    comm.barrier()
    return (
        total,
        None if biggest is None else np.array(biggest),
        np.array(shared),
        None if gathered is None else np.array(gathered),
    )


@needs_processes
@pytest.mark.parametrize("size", [2, 4])
def test_collectives_parity_threads_vs_processes(size):
    world = SimulatedMPI(size)
    thread_results = world.run_spmd(lambda comm: _collective_body(comm, 1.5))
    process_results, process_stats = _spmd(_collective_body, size, (1.5,))

    for rank, (threaded, processed) in enumerate(zip(thread_results, process_results)):
        for part_threads, part_processes in zip(threaded, processed):
            if part_threads is None:
                assert part_processes is None, f"rank {rank} root-only mismatch"
            else:
                assert np.array_equal(part_threads, part_processes), f"rank {rank}"

    assert process_stats == world.statistics
    # Sanity on absolute counts: 2 barriers + (allreduce=2, reduce, bcast,
    # gather = 5 collectives) per rank.
    assert process_stats.barriers == 2 * size
    assert process_stats.collectives == 5 * size
    assert process_stats.messages_sent == world.statistics.messages_sent > 0


def _ring_body(comm):
    """Non-blocking ring exchange (must be module-level: workers unpickle it)."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    payload = np.arange(5, dtype=np.float64) + comm.rank
    request = comm.isend(payload, right, tag=7)
    buffer = np.empty(5, dtype=np.float64)
    pending = comm.irecv(buffer, left, tag=7)
    comm.wait(pending)
    comm.waitall([request])
    assert comm.test(pending)
    return buffer


@needs_processes
def test_point_to_point_and_requests_parity():
    size = 3
    world = SimulatedMPI(size)
    threaded = world.run_spmd(_ring_body)
    processed, stats = _spmd(_ring_body, size)
    for a, b in zip(threaded, processed):
        assert np.array_equal(a, b)
    assert stats == world.statistics


# ---------------------------------------------------------------------------
# end-to-end parity on the fig. 7/8 heat kernels
# ---------------------------------------------------------------------------

@needs_processes
@pytest.mark.parametrize("codegen", ["auto", "planned"])
@pytest.mark.parametrize("overlap", [None, False], ids=["overlap-on", "overlap-off"])
@pytest.mark.parametrize("lower", [False, True], ids=["dmp-swap", "mpi-calls"])
@pytest.mark.parametrize("rank_grid", [(2, 2), (4, 1)], ids=["2x2", "4x1"])
def test_heat_kernel_runtime_parity(rank_grid, lower, overlap, codegen):
    program = _compile_heat(rank_grid, lower_to_library_calls=lower)
    config = dict(overlap_halos=overlap, codegen=codegen)
    a0, a1 = _heat_fields()
    threads_result = _run(program, [a0, a1], [3], runtime="threads", **config)
    b0, b1 = _heat_fields()
    processes_result = _run(program, [b0, b1], [3], runtime="processes", **config)

    assert processes_result.runtime == "processes"
    for result in (threads_result, processes_result):
        overlapped = [s.halo_swaps_overlapped for s in result.statistics]
        # The tree walker and the mpi-lowered path never overlap.
        if overlap is False or lower or codegen == "planned":
            assert overlapped == [0] * len(overlapped)
        else:
            assert all(count > 0 for count in overlapped)
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
    assert processes_result.statistics == threads_result.statistics
    assert processes_result.comm_statistics == threads_result.comm_statistics
    assert processes_result.messages_sent == threads_result.messages_sent > 0
    assert processes_result.bytes_sent == threads_result.bytes_sent > 0


@pytest.mark.parametrize("lower", [False, True], ids=["dmp-swap", "mpi-calls"])
@pytest.mark.parametrize("runtime", [
    "threads", pytest.param("processes", marks=needs_processes)])
def test_one_sided_halo_is_fed_by_both_neighbours(runtime, lower):
    """``v[i] = u[i+1]`` on two ranks: the rank that reads nothing from its
    lower neighbour must still send to it (this used to hang every tier until
    the comm timeout: a dmp exchange pairs equal-width strips)."""

    def module():
        builder = StencilProgramBuilder(shape=(8,), halo=1, dtype="f64")
        u, v = builder.add_field("u"), builder.add_field("v")
        builder.add_stencil([u], v, lambda expr: expr.access(0, [1]))
        return builder.build()

    initial = np.random.default_rng(0).standard_normal(10)
    want = [initial.copy(), np.zeros(10)]
    _run(compile_stencil_program(module(), cpu_target()), want, [2])
    got = [initial.copy(), np.zeros(10)]
    result = _run(
        compile_stencil_program(
            module(), dmp_target((2,), lower_to_library_calls=lower)),
        got, [2], runtime=runtime, margin=(1,), timeout=20.0,
    )
    assert result.runtime == runtime
    assert [field.tobytes() for field in got] == [field.tobytes() for field in want]
    assert result.messages_sent == 2 * 2  # both directions, both steps


@needs_processes
@pytest.mark.parametrize("lower", [False, True], ids=["dmp-swap", "mpi-calls"])
def test_codegen_decisions_reported_like_the_thread_world(lower):
    """Workers ship their tier decision home: both halo lowerings engage."""
    seen = _codegen_decisions(lower)
    assert seen["processes"] == seen["threads"]
    assert seen["threads"] == (
        None, {"engaged": 4, "fallback": 0, "cache_miss": 2, "cache_hit": 2})


@pytest.mark.skipif(not _forked_workers(), reason="needs forked process workers")
def test_codegen_fallbacks_reported_like_the_thread_world(monkeypatch):
    """... and so does a rejection: codegen never fails silently."""
    import repro.core.rank as rank_module

    def untraceable(func_op, kernel, overlap):
        raise CodegenError("untraceable on purpose")

    # Workers forked by the Sessions below inherit the patch.
    monkeypatch.setattr(rank_module, "trace_program", untraceable)
    seen = _codegen_decisions(lower=False)
    assert seen["processes"] == seen["threads"]
    assert seen["threads"] == (
        "untraceable on purpose",
        {"engaged": 0, "fallback": 4, "cache_miss": 0, "cache_hit": 0},
    )


def _codegen_decisions(lower):
    """Per world: the plan's fallback reason and megakernel counts, 2 runs."""
    seen = {}
    for runtime in ("threads", "processes"):
        # A fresh program per world: megakernels are cached on the program.
        program = _compile_heat((2, 1), lower_to_library_calls=lower)
        with Session(ExecutionConfig(runtime=runtime)) as session:
            plan = session.plan(program)
            for _ in range(2):
                result = plan.run(list(_heat_fields()), [3])
            assert result.runtime == runtime
            fallback = plan.codegen_fallback
            seen[runtime] = (
                None if fallback is None else fallback.reason,
                {
                    name: session.metrics.get(f"megakernel.{name}")
                    for name in ("engaged", "fallback", "cache_miss", "cache_hit")
                },
            )
    return seen


@needs_processes
def test_backend_parity_across_runtimes():
    program = _compile_heat((2, 2))
    reference = None
    for backend in ("interpreter", "auto"):
        for runtime in ("threads", "processes"):
            u0, u1 = _heat_fields()
            _run(program, [u0, u1], [2], backend=backend, runtime=runtime)
            if reference is None:
                reference = (u0, u1)
            else:
                assert np.array_equal(reference[0], u0)
                assert np.array_equal(reference[1], u1)


# ---------------------------------------------------------------------------
# worker pool behaviour
# ---------------------------------------------------------------------------

@needs_processes
def test_pool_persists_and_ships_programs_once():
    program = _compile_heat((2, 2))
    u0, u1 = _heat_fields()
    _run(program, [u0, u1], [2], runtime="processes")
    manager = default_session()._pool_manager
    pool = manager.pool
    shipped = pool.programs_shipped
    u0, u1 = _heat_fields()
    _run(program, [u0, u1], [2], runtime="processes")
    assert manager.acquire(4) is pool, "pool must persist across runs"
    assert pool.programs_shipped == shipped, "program must be shipped only once"


@needs_processes
def test_worker_error_propagates_and_pool_recovers():
    program = _compile_heat((2, 2))
    u0, u1 = _heat_fields()
    with pytest.raises(Exception) as excinfo:
        # A non-numeric step count passes the parent's staging checks: every
        # rank raises remotely.
        _run(program, [u0, u1], ["two"], runtime="processes")
    assert "rank" in str(excinfo.value)
    # The pool was poisoned and replaced: the next run works.
    u0, u1 = _heat_fields()
    result = _run(program, [u0, u1], [2], runtime="processes")
    assert result.runtime == "processes"


@needs_processes
def test_concurrent_runs_serialize_on_the_pool():
    """Two caller threads may use the shared pool at once; runs serialize."""
    import threading

    program = _compile_heat((2, 2))
    outcomes = {}

    def run(label):
        u0, u1 = _heat_fields()
        result = _run(program, [u0, u1], [2], runtime="processes")
        outcomes[label] = (u0, u1, result.comm_statistics)

    callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=120)
    assert set(outcomes) == {0, 1}, "both concurrent runs must complete"
    assert np.array_equal(outcomes[0][0], outcomes[1][0])
    assert np.array_equal(outcomes[0][1], outcomes[1][1])
    assert outcomes[0][2] == outcomes[1][2]


def _suicide_body(comm):
    """Module-level (workers unpickle it): rank 1 dies mid-run via SIGKILL."""
    import os as os_module
    import signal as signal_module

    if comm.rank == 1:
        os_module.kill(os_module.getpid(), signal_module.SIGKILL)
    comm.barrier()  # the surviving rank blocks here until the parent reacts
    return comm.rank


@needs_processes
def test_worker_killed_between_runs_is_reaped():
    """A worker killed while idle is reaped; the next run recovers silently."""
    import os
    import signal

    from repro.runtime import WorkerPool

    MANAGER.shutdown()
    pool = MANAGER.acquire(2)
    victim = pool._processes[1]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5)
    assert not victim.is_alive()
    # The dead worker is detected at run entry, the pool is replaced, and the
    # run completes on the fresh pool — no error, no hang.
    values, _ = _spmd(_ring_body, 2)
    assert [v.shape for v in values] == [(5,), (5,)]
    replacement = MANAGER.acquire(2)
    assert isinstance(replacement, WorkerPool) and replacement is not pool
    assert replacement.alive and not pool.alive


@needs_processes
def test_worker_killed_mid_run_fails_fast_and_recovers():
    """A rank dying mid-run raises promptly (no deadlock) and the pool heals."""
    import pytest as pytest_module

    MANAGER.shutdown()
    with pytest_module.raises(Exception, match="died|failed"):
        _spmd(_suicide_body, 2)
    # Clean recovery: the poisoned pool was shut down and replaced.
    values, _ = _spmd(_ring_body, 2)
    assert len(values) == 2


@needs_processes
def test_shutdown_reaps_dead_workers():
    """shutdown() finishes even when workers already died."""
    import os
    import signal

    MANAGER.shutdown()
    pool = MANAGER.acquire(2)
    for process in pool._processes:
        os.kill(process.pid, signal.SIGKILL)
    for process in pool._processes:
        process.join(5)
    assert pool.reap_dead_workers() == [0, 1]
    pool.shutdown()  # must not hang or raise
    assert not pool.alive


def _slow_rank_body(comm):
    """Module-level (workers unpickle it): holds the pool busy briefly."""
    import time as time_module

    time_module.sleep(0.3)
    comm.barrier()
    return comm.rank


@needs_processes
def test_pool_growth_waits_for_inflight_run():
    """Growing the pool for more ranks must not kill a run in flight."""
    import threading

    MANAGER.shutdown()
    MANAGER.acquire(2)
    errors = []

    def small_run():
        try:
            values, _ = _spmd(_slow_rank_body, 2)
            assert values == [0, 1]
        except Exception as err:  # noqa: BLE001 - assert in the main thread
            errors.append(err)

    caller = threading.Thread(target=small_run)
    caller.start()
    values, _ = _spmd(_slow_rank_body, 4)  # forces growth
    caller.join(timeout=120)
    assert not caller.is_alive()
    assert not errors, f"in-flight run was disturbed by pool growth: {errors}"
    assert values == [0, 1, 2, 3]


def test_automatic_fallback_to_threads(monkeypatch):
    import repro.runtime as runtime_module

    monkeypatch.setattr(runtime_module, "processes_available", lambda: False)
    program = _compile_heat((2, 2))
    u0, u1 = _heat_fields()
    with pytest.warns(RuntimeFallbackWarning, match="falling back"):
        result = _run(program, [u0, u1], [2], runtime="processes")
    assert result.runtime == "threads"
    assert result.runtime_requested == "processes"
    assert result.degraded
    assert result.messages_sent > 0


def test_unknown_runtime_rejected():
    program = _compile_heat((2, 2))
    u0, u1 = _heat_fields()
    with pytest.raises(ExecutionError, match="unknown execution runtime"):
        _run(program, [u0, u1], [2], runtime="mpi")


# ---------------------------------------------------------------------------
# serialization invariants
# ---------------------------------------------------------------------------

def test_compiled_program_pickle_drops_kernel_cache():
    program = _compile_heat((2, 2))
    kernel = program.compiled_kernel("kernel")
    assert program._kernel_cache, "cache should be warm"
    clone = pickle.loads(pickle.dumps(program))
    assert clone._kernel_cache == {}
    recompiled = clone.compiled_kernel("kernel")
    assert recompiled.nest_count == kernel.nest_count


def test_merge_comm_statistics_orders_deterministically():
    from repro.interp import CommStatistics

    parts = [
        CommStatistics(messages_sent=1, bytes_sent=10, collectives=2, barriers=1),
        CommStatistics(messages_sent=3, bytes_sent=30, collectives=0, barriers=1),
    ]
    merged = merge_comm_statistics(parts)
    assert merged == CommStatistics(
        messages_sent=4, bytes_sent=40, collectives=2, barriers=2
    )
