"""Tests for the OS-process SPMD runtime (repro.runtime).

The contract under test: ``runtime="processes"`` is observationally identical
to ``runtime="threads"`` — bit-identical fields, matching per-rank execution
statistics and matching world-wide communication statistics — while actually
running every rank in its own process against shared-memory buffers.
"""

import os
import pickle
import queue
import signal
import time

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
from repro.core.config import usable_cpus
from repro.frontends.oec import StencilProgramBuilder
from repro.interp import CodegenError, CommStatistics, Communicator, MPIRuntimeError
from repro.interp.mpi_runtime import merge_comm_statistics
from repro.obs import TraceRecord
from repro.runtime import ProcessMailbox, default_context, processes_available
from repro.runtime import worker_pool
from repro.runtime.mp_world import MessageBlocks, unlink_message_blocks
from repro.runtime.worker_pool import WorkerError, WorkerFailure, collect_reports
from repro.workloads import acoustic_wave, heat_diffusion
from tests.conftest import POISON_STEPS, RUNTIMES, _forked_workers, shm_segments

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


#: The session of the raw SPMD tests, and its worker pool (program runs use
#: sessions of their own).
SESSION = Session(runtime="processes")
MANAGER = SESSION._pool_manager


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    SESSION.close()
    default_session().close()


def _spmd(fn, size, args=(), runtime="processes"):
    """``fn(comm, *args)`` on ``size`` ranks of ``runtime``: values + merged
    stats."""
    values, per_rank = SESSION.run_spmd(fn, size, args, runtime=runtime)
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
# collectives and point-to-point: the same results and CommStatistics in
# either world
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


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_collectives(runtime, size):
    results, stats = _spmd(_collective_body, size, (1.5,), runtime)

    data = [np.full(4, rank + 1.5) for rank in range(size)]
    for rank, (total, biggest, shared, gathered) in enumerate(results):
        assert np.array_equal(total, sum(data)), f"rank {rank}"
        assert np.array_equal(shared, [1.0, 2.0, 3.0]), f"rank {rank}"
        if rank == 0:
            assert np.array_equal(biggest, data[-1])
            assert np.array_equal(gathered, np.stack(data))
        else:
            assert biggest is None and gathered is None, f"rank {rank} root-only"
    # Per rank: 2 barriers + (allreduce=2, reduce, bcast, gather = 5
    # collectives).  Each collective is one message per non-root rank (the
    # allreduce two), each barrier two: 9 per non-root rank, carrying
    # 4+4+3+4 doubles and 4 one-byte tokens.
    assert stats == CommStatistics(
        messages_sent=9 * (size - 1), bytes_sent=156 * (size - 1),
        collectives=5 * size, barriers=2 * size,
    )


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


#: Payloads of the point-to-point parity test, drawn from a per-rank rng:
#: the edges of the message blocks' capacity classes (a block holds a 64-byte
#: header before the payload), a 2 MiB halo slab, a strided view, and non-f64
#: element types.
_PAYLOADS = {
    "f64": lambda rng: rng.standard_normal(5),
    "empty": lambda rng: np.empty((0, 3)),
    "one-byte": lambda rng: rng.integers(0, 256, 1, dtype=np.uint8),
    "class-minus-one-byte": lambda rng: rng.integers(0, 256, 8191, dtype=np.uint8),
    "fills-a-class": lambda rng: rng.integers(0, 256, 4096 - 64, dtype=np.uint8),
    "one-byte-over": lambda rng: rng.integers(0, 256, 4096 - 63, dtype=np.uint8),
    "2MiB": lambda rng: rng.standard_normal((4, 256, 256)),
    "strided": lambda rng: rng.standard_normal((8, 9, 10))[::2, 1:, ::3],
    "f32": lambda rng: rng.standard_normal((3, 4)).astype(np.float32),
    "i64": lambda rng: rng.integers(-2**62, 2**62, (3, 4)),
    "bool": lambda rng: rng.random(17) < 0.5,
}


def _p2p_body(comm, case):
    """Module-level (workers unpickle it).  A ring exchange of three payloads
    sent with tags 1, 2, 3 and received out of order (3 by ``recv``, then 1
    and 2 by ``irecv``/``wait``/``test``: the stash), each into a strided view
    of a landing array; or, for ``"64-isends"``, 64 buffered sends to one
    peer before it posts a single receive; or, for ``"stress"``, 200 rounds
    of all-to-all traffic, each message checked on arrival."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    if case == "64-isends":
        if comm.rank == 0:
            requests = [comm.isend(np.full(3, float(tag)), 1, tag)
                        for tag in range(64)]
            comm.waitall(requests)
        comm.barrier()  # rank 1 receives only once all 64 sends returned
        if comm.rank != 1:
            return []
        landed = [np.zeros(3) for _ in range(64)]
        for tag in reversed(range(64)):
            comm.recv(landed[tag], 0, tag)
        return landed
    if case == "stress":
        # More ranks than cores recycle blocks of two capacity classes
        # under contention: a block reused before its receiver copied the
        # message out would corrupt one.
        for step in range(200):
            elements = 1 + (step * 37) % 700
            peers = [peer for peer in range(comm.size) if peer != comm.rank]
            for peer in peers:
                comm.isend(np.full(elements, comm.rank * 1e3 + step), peer, step % 7)
            for peer in peers:
                landed = np.zeros(elements)
                comm.recv(landed, peer, step % 7)
                assert (landed == peer * 1e3 + step).all(), (peer, step)
        return []
    rng = np.random.default_rng(comm.rank)
    payloads = [_PAYLOADS[case](rng) for _ in range(3)]
    for tag, payload in enumerate(payloads, 1):
        comm.isend(payload, right, tag)
    landing = [np.zeros(payload.shape + (2,), payload.dtype) for payload in payloads]
    comm.recv(landing[2][..., 0], left, 3)
    first = comm.irecv(landing[0][..., 0], left, 1)
    second = comm.irecv(landing[1][..., 0], left, 2)
    comm.wait(first)
    while not comm.test(second):
        pass
    assert comm.test(first)
    return landing


def _p2p_statistics(case, size):
    """What ``_p2p_body`` sends in a world of ``size`` ranks, summed."""
    if case == "ring":
        return CommStatistics(messages_sent=size, bytes_sent=40 * size)
    if case == "64-isends":  # 64 f64[3] sends and one barrier
        return CommStatistics(messages_sent=64 + 2 * (size - 1),
                              bytes_sent=64 * 24 + 2 * (size - 1), barriers=size)
    if case == "stress":
        pairs = size * (size - 1)
        return CommStatistics(
            messages_sent=200 * pairs,
            bytes_sent=sum(8 * (1 + (step * 37) % 700) for step in range(200)) * pairs,
        )
    payloads = [_PAYLOADS[case](np.random.default_rng(rank))
                for rank in range(size) for _ in range(3)]
    return CommStatistics(messages_sent=3 * size,
                          bytes_sent=sum(payload.nbytes for payload in payloads))


@pytest.mark.parametrize("case", ["ring", *_PAYLOADS, "64-isends", "stress"])
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_point_to_point_and_requests(runtime, case):
    size = 3
    if case == "ring":
        results, stats = _spmd(_ring_body, size, (), runtime)
    else:
        results, stats = _spmd(_p2p_body, size, (case,), runtime)
    assert len(results) == size
    if case == "ring":
        for rank, buffer in enumerate(results):
            assert buffer.tobytes() == (np.arange(5.0) + (rank - 1) % size).tobytes()
    if case == "64-isends":
        assert results[0] == results[2] == []
        assert [landed.tobytes() for landed in results[1]] == [
            np.full(3, float(tag)).tobytes() for tag in range(64)]
    if case in _PAYLOADS:
        # Each rank's landing views hold its left neighbour's payloads.
        for rank, landing in enumerate(results):
            rng = np.random.default_rng((rank - 1) % size)
            for got in landing:
                want = _PAYLOADS[case](rng)
                assert got.dtype == want.dtype and got.shape == want.shape + (2,)
                assert got[..., 0].tobytes() == want.tobytes()
                assert not got[..., 1].any()
    assert stats == _p2p_statistics(case, size)


@needs_processes
def test_run_spmd_takes_a_closure_on_the_thread_world_only():
    offset = 2.0

    def body(comm):
        return comm.rank + offset

    assert _spmd(body, 2, (), "threads")[0] == [2.0, 3.0]
    with pytest.raises(ExecutionError, match="module-level body"):
        _spmd(body, 2)


def _send_then_die(inboxes, prefix):
    """Module-level (a spawned process unpickles it): rank 1 of a 2-rank world
    sends one message to rank 0, flushes its envelope, and is killed."""
    comm = Communicator(
        ProcessMailbox(inboxes, run_id=1, blocks=MessageBlocks(prefix, 1)), 1, 2)
    comm.send(np.arange(4.0), dest=0, tag=5)
    inboxes[0].close()
    inboxes[0].join_thread()
    os.kill(os.getpid(), signal.SIGKILL)


@needs_processes
def test_receive_from_a_dead_peer_raises_within_the_timeout():
    """The message a peer sent before it died is still delivered (its block
    outlives its writer); the next receive from it raises the typed
    ``MPIRuntimeError`` when one world timeout has passed, not later."""
    from multiprocessing import resource_tracker

    timeout = 0.3
    segments_before = shm_segments()
    # As WorkerPool does: the peer registers its block with this process's
    # resource tracker rather than starting one of its own.
    resource_tracker.ensure_running()
    context = default_context()
    inboxes = [context.Queue(), context.Queue()]
    prefix = f"rmsg_test{os.getpid()}"
    peer = context.Process(target=_send_then_die, args=(inboxes, prefix))
    peer.start()
    peer.join(30)
    try:
        assert peer.exitcode == -signal.SIGKILL
        comm = Communicator(
            ProcessMailbox(inboxes, run_id=1, blocks=MessageBlocks(prefix, 0)),
            0, 2, timeout=timeout)
        landed = np.zeros(4)
        comm.recv(landed, 1, 5)
        assert np.array_equal(landed, np.arange(4.0))
        began = time.monotonic()
        with pytest.raises(MPIRuntimeError, match="timed out"):
            comm.recv(np.zeros(4), 1, 5)
        assert timeout <= time.monotonic() - began < 2 * timeout
    finally:
        assert unlink_message_blocks(prefix, 2) == 1
        for inbox in inboxes:
            inbox.close()
    assert not shm_segments() - segments_before


# ---------------------------------------------------------------------------
# end-to-end parity on the fig. 7/8 heat kernels
# ---------------------------------------------------------------------------

@needs_processes
@pytest.mark.parametrize("codegen", ["auto", "planned"])
@pytest.mark.parametrize("lower", [False, True], ids=["dmp-swap", "mpi-calls"])
@pytest.mark.parametrize("rank_grid", [(2, 2), (4, 1)], ids=["2x2", "4x1"])
def test_heat_kernel_runtime_parity(rank_grid, lower, codegen):
    program = _compile_heat(rank_grid, lower_to_library_calls=lower)
    a0, a1 = _heat_fields()
    threads_result = _run(program, [a0, a1], [3], runtime="threads", codegen=codegen)
    b0, b1 = _heat_fields()
    processes_result = _run(
        program, [b0, b1], [3], runtime="processes", codegen=codegen
    )

    assert processes_result.runtime == "processes"
    for result in (threads_result, processes_result):
        overlapped = [s.halo_swaps_overlapped for s in result.statistics]
        # The tree walker never overlaps; the megakernel overlaps both
        # spellings of the exchange (dmp.swap and its MPI_* group).
        if codegen == "planned":
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
        got, [2], runtime=runtime, timeout=20.0,
    )
    assert result.runtime == runtime
    assert [field.tobytes() for field in got] == [field.tobytes() for field in want]
    assert result.messages_sent == 2 * 2  # both directions, both steps


def _wide_field_module():
    """Fields with two ghost cells a side, a stencil that reads only ±1."""
    builder = StencilProgramBuilder(shape=(8, 8), halo=2, dtype="f64")
    u, v = builder.add_field("u"), builder.add_field("v")
    builder.add_stencil([u], v, lambda expr: expr.mul(
        expr.constant(0.25),
        expr.add(
            expr.add(expr.access(0, [-1, 0]), expr.access(0, [1, 0])),
            expr.add(expr.access(0, [0, -1]), expr.access(0, [0, 1])),
        ),
    ))
    builder.swap(u, v)
    return builder.build()


def _wide_fields():
    initial = np.random.default_rng(7).standard_normal((12, 12))
    return [initial, initial * 0.5]


@pytest.mark.parametrize("lower", [False, True], ids=["dmp-swap", "mpi-calls"])
@pytest.mark.parametrize("rank_grid", [(2, 1), (1, 2)], ids=["2x1", "1x2"])
@pytest.mark.parametrize("runtime", [
    "threads", pytest.param("processes", marks=needs_processes)])
def test_field_margin_wider_than_the_halo(runtime, rank_grid, lower):
    """A global array is laid out as its field's bounds, not as the halo the
    stencil reads: margin 2, halo 1, no margin passed anywhere."""
    want = _wide_fields()
    _run(compile_stencil_program(_wide_field_module(), cpu_target()), want, [3])
    program = compile_stencil_program(
        _wide_field_module(), dmp_target(rank_grid, lower_to_library_calls=lower)
    )
    assert program.distribution.margin_lower == (2, 2)
    assert program.distribution.margin_upper == (2, 2)
    assert program.distribution.local_domain.halo_lower == (1, 1)
    got = _wide_fields()
    result = _run(program, got, [3], runtime=runtime, timeout=20.0)
    assert result.runtime == runtime
    assert [field.tobytes() for field in got] == [field.tobytes() for field in want]


@pytest.mark.parametrize("shape", [(10, 10), (14, 14), (12, 12, 1), (12,)],
                         ids=["halo-sized", "too-wide", "extra-dim", "flat"])
@pytest.mark.parametrize("runtime", [
    "threads", pytest.param("processes", marks=needs_processes)])
def test_global_array_of_the_wrong_shape_is_rejected(runtime, shape):
    """Before any rank starts, and with the field bounds in the message."""
    program = compile_stencil_program(_wide_field_module(), dmp_target((2, 1)))
    fields = [np.zeros((12, 12)), np.zeros(shape)]
    with Session(runtime=runtime) as session:
        plan = session.plan(program)
        with pytest.raises(ExecutionError, match=r"field 1 has shape .*\(12, 12\)"):
            plan.run(fields, [1])
        assert session.metrics.get("runs", 0) == 0
        plan.run(_wide_fields(), [1])  # the plan still serves a good layout


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

    def untraceable(func_op, kernel):
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


def test_collect_reports_applies_the_round_failure_policy(monkeypatch):
    """The one failure policy of both worlds, on a hand-fed queue."""
    monkeypatch.setattr(worker_pool, "REPORT_MARGIN", 0.0)
    failure = WorkerFailure(1, "RuntimeError", "rank 1 exploded", "")
    exploded = RuntimeError("rank 0 exploded")
    results = queue.SimpleQueue()
    for message in [
        ("done", 99, 0, "stale"),                            # not this round
        ("error", 1, 1, failure),                            # job 0: root cause
        ("done", 2, 1, "b1"),
        ("error", 1, 0, RuntimeError("peer timed out")),     # job 0: too late
        ("error", 4, 0, exploded),                           # job 3: a thread rank's own
        ("done", 2, 0, "b0"),                                # job 1 completes
        ("done", 4, 1, "d1"),                                # job 3: too late
    ]:
        results.put(message)
    began = time.monotonic()
    outcomes, silent = collect_reports(results, [1, 2, 3, 4], [3, 2, 1, 2], 0.2)
    assert isinstance(outcomes[0], WorkerError)
    assert outcomes[0].failure is failure and "rank 1 exploded" in str(outcomes[0])
    assert outcomes[1] == ["b0", "b1"]
    assert isinstance(outcomes[2], WorkerError)
    assert "job 2 of the round did not report within 0.2s" in str(outcomes[2])
    assert outcomes[3] is exploded
    assert silent == {0: [2], 2: [0], 3: []}

    results.put(("done", 5, 0, "a0"))
    outcomes, silent = collect_reports(
        results, [5, 6], [2, 1], 60.0, idle=lambda: "workers [1] died",
    )
    assert [str(outcome) for outcome in outcomes] == ["workers [1] died"] * 2
    assert all(isinstance(outcome, WorkerError) for outcome in outcomes)
    assert silent == {0: [1], 1: [0]}
    assert time.monotonic() - began < 2.0


def _round_reports(runtime):
    """The reports of one traced 2-rank heat job, and the job's result."""
    program = _compile_heat((2, 1))
    with Session(runtime=runtime, trace="summary") as session:
        job = session.plan(program).prepare(list(_heat_fields()), [3])
        session.execute_batch([job])
        reports = job.reports
        return reports, job.finish()


@needs_processes
def test_every_world_reports_the_same_rank_stats():
    """A thread-world rank and a process worker send home the same report."""
    threads, threads_result = _round_reports("threads")
    processes, _ = _round_reports("processes")
    assert [report.rank for report in threads] == [0, 1]
    for ours, theirs in zip(threads, processes):
        assert ours.exec_stats == theirs.exec_stats
        assert ours.comm_stats == theirs.comm_stats
        assert ours.counters == theirs.counters
        assert ours.counters["megakernel.engaged"] == 1
        for report in (ours, theirs):
            assert isinstance(report.trace, TraceRecord)
    assert threads_result.comm_statistics == merge_comm_statistics(
        [report.comm_stats for report in threads]
    )


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


@pytest.mark.skipif(not _forked_workers(), reason="needs forked process workers")
def test_workers_never_fork_inside_the_resource_tracker(monkeypatch):
    """A thread leasing shared blocks while another forks the pool.

    The tracker's lock is held for a while on every block registration; a
    worker forked meanwhile would inherit it locked and hang at its first
    message block, so the round would fail as a deadlock.
    """
    import threading
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    check_alive = tracker._check_alive

    def slow_check_alive():
        time.sleep(0.05)
        return check_alive()

    monkeypatch.setattr(tracker, "_check_alive", slow_check_alive)
    program = _compile_heat((2, 1))
    with Session(runtime="processes", timeout=5.0) as session:
        plans = [session.plan(program), session.plan(program)]
        start = threading.Barrier(2)
        errors = []

        def run(plan):
            start.wait(timeout=60)
            try:
                plan.run(list(_heat_fields()), [2])
            except Exception as error:  # noqa: BLE001 - assert in the main thread
                errors.append(error)

        callers = [threading.Thread(target=run, args=(plan,)) for plan in plans]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    assert not errors


def _suicide_body(comm):
    """Module-level (workers unpickle it): every rank sends a message, then
    rank 1 dies mid-run via SIGKILL, leaving its message block behind."""
    comm.send(np.arange(1024.0), (comm.rank + 1) % comm.size, tag=1)
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    comm.barrier()  # the surviving rank blocks here until the parent reacts
    return comm.rank


@needs_processes
def test_worker_killed_between_runs_is_reaped():
    """A worker killed while idle is reaped; the next run recovers silently."""
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
    """A rank dying mid-run raises promptly (no deadlock), the pool heals, and
    the message blocks of both pools, the dead worker's too, are unlinked."""
    MANAGER.shutdown()
    segments_before = shm_segments()
    poisoned = MANAGER.acquire(2)
    with pytest.raises(Exception, match="died|failed"):
        _spmd(_suicide_body, 2)
    assert not poisoned.alive
    assert not _message_blocks(poisoned)
    # Clean recovery: the poisoned pool was shut down and replaced.
    values, _ = _spmd(_ring_body, 2)
    assert len(values) == 2
    MANAGER.shutdown()
    assert not shm_segments() - segments_before


@needs_processes
def test_shutdown_reaps_dead_workers():
    """shutdown() finishes even when workers already died, and unlinks the
    message blocks the dead workers created."""
    MANAGER.shutdown()
    segments_before = shm_segments()
    pool = MANAGER.acquire(2)
    _spmd(_ring_body, 2)
    assert _message_blocks(pool)
    for process in pool._processes:
        os.kill(process.pid, signal.SIGKILL)
    for process in pool._processes:
        process.join(5)
    assert pool.reap_dead_workers() == [0, 1]
    pool.shutdown()  # must not hang or raise
    assert not pool.alive
    assert not shm_segments() - segments_before


def _ping_pong_body(comm, rounds):
    """Module-level (workers unpickle it): every send follows the peer's
    receive of the previous one, so each rank needs exactly one block."""
    peer = 1 - comm.rank
    landed = np.zeros(1000)
    for step in range(rounds):
        if comm.rank == 0:
            comm.send(np.full(1000, float(step)), peer, 0)
            comm.recv(landed, peer, 0)
        else:
            comm.recv(landed, peer, 0)
            comm.send(landed + 1.0, peer, 0)
    return landed[0]


def _message_blocks(pool) -> set:
    return {name for name in shm_segments() if name.startswith(pool.block_prefix)}


@needs_processes
def test_consumed_message_blocks_are_reused_by_later_runs():
    MANAGER.shutdown()
    pool = MANAGER.acquire(2)
    values, _ = _spmd(_ping_pong_body, 2, (20,))
    assert values == [20.0, 19.0]
    blocks = _message_blocks(pool)
    assert len(blocks) == 2, blocks  # one per worker, recycled 20 times
    _spmd(_ping_pong_body, 2, (20,))
    assert _message_blocks(pool) == blocks, "a second run created a block"
    MANAGER.shutdown()
    assert not _message_blocks(pool)


@needs_processes
def test_held_plan_reruns_reuse_their_message_blocks():
    """A held 2-rank wave plan keeps sending through the blocks its first
    runs created.  Which of them a step finds free depends on timing (a rank
    may post step n + 1 before its peer consumed step n), so the count is
    the most messages a worker had in flight — never more than two steps'
    worth — rather than a number fixed by the first run."""
    workload = acoustic_wave((16, 32, 32), dtype=np.float64, space_order=4)
    program = compile_stencil_program(
        workload.operator(backend="xdsl").stencil_module(dt=workload.dt),
        dmp_target((2, 1, 1)))

    def fields():
        base = np.zeros((20, 36, 36))
        base[10, 18, 18] = 1.0
        return [base.copy() for _ in range(workload.function.buffers)]

    steps, runs = 4, []
    with Session(runtime="processes") as session:
        plan = session.plan(program)
        for _ in range(5):
            runs.append(fields())
            result = plan.run(runs[-1], [steps])
            if len(runs) == 1:
                pool = session._pool_manager.pool
                first = _message_blocks(pool)
        blocks = _message_blocks(pool)
    assert first and first <= blocks, "blocks are kept across runs"
    assert len(blocks) <= 2 * result.messages_sent // steps
    assert all([a.tobytes() for a in run] == [b.tobytes() for b in runs[0]]
               for run in runs)
    assert not _message_blocks(pool)


# ---------------------------------------------------------------------------
# shared field blocks across runs
# ---------------------------------------------------------------------------

def _attached_body(comm):
    """Module-level (workers unpickle it): the names of the blocks the
    worker hosting this rank has attached so far."""
    return comm.mailbox.blocks.attached.names()


def _attached_field_blocks(session) -> list[set]:
    """Per worker of a 2-rank round, the field blocks it keeps mapped
    (message blocks left out: how many a run needs depends on timing)."""
    values, _ = session.run_spmd(_attached_body, 2)
    prefix = session._pool_manager.pool.block_prefix
    return [{name for name in names if not name.startswith(prefix)}
            for names in values]


def _spec_names(plan) -> list[set]:
    """Per rank, the names of the blocks the plan's held buffer set leases."""
    (buffers,) = plan._free
    return [{spec.name for spec in row} for row in buffers.specs]


def _assert_same_run(result, reference, fields, reference_fields):
    assert [f.tobytes() for f in fields] == [f.tobytes() for f in reference_fields]
    assert result.statistics == reference.statistics
    assert result.comm_statistics == reference.comm_statistics


@needs_processes
def test_workers_attach_each_field_block_once():
    """A held plan's later runs attach no block.  Plans of another shape
    that recycle the same blocks see them with their own shape: a worker
    caches the mapping, never the view.  (The free list hands a block to
    either rank, so the shapes alternate until every worker has met one of
    its blocks under both.)"""
    tall, wide = _compile_heat((2, 1)), _compile_heat((1, 2))
    with Session(runtime="processes") as session:
        plan = session.plan(tall)
        plan.run(list(_heat_fields()), [3])
        attached = _attached_field_blocks(session)
        leased = _spec_names(plan)
        assert all(names <= mapped for names, mapped in zip(leased, attached))
        for _ in range(3):
            plan.run(list(_heat_fields()), [3])
        assert _attached_field_blocks(session) == attached, "a rerun attached"
        plan.close()

        recycled = set().union(*leased)
        for program in (wide, wide, tall):
            plan = session.plan(program)
            for steps in (2, 3):
                fields = list(_heat_fields())
                result = plan.run(fields, [steps])
                reference_fields = list(_heat_fields())
                reference = _run(program, reference_fields, [steps],
                                 runtime="threads")
                _assert_same_run(result, reference, fields, reference_fields)
            assert set().union(*_spec_names(plan)) == recycled, \
                "a later plan recycles the first plan's blocks"
            plan.close()
        # A recycled block may land on the other rank, whose worker then
        # maps it too, but no worker maps a block the pool did not own.
        assert set().union(*_attached_field_blocks(session)) == recycled


@pytest.mark.skipif(not _forked_workers(), reason="needs forked process workers")
def test_process_plans_leak_no_block_or_worker(exploding_rank):
    """Plans of two shapes, a failed round and a healthy run leave no
    ``/dev/shm`` segment and no worker behind once the session closes,
    which stops the workers and then unlinks the field blocks they kept
    mapped."""
    small, large = _compile_heat((2, 1)), _compile_heat((2, 1), shape=(40, 40))
    reference = list(_heat_fields())
    _run(small, reference, [3], runtime="threads")
    segments_before, workers = shm_segments(), []
    with Session(runtime="processes", timeout=5.0) as session:
        held = session.plan(small)
        held.run(list(_heat_fields()), [3])
        session.plan(large).run(list(_heat_fields((42, 42))), [3])
        workers += session._pool_manager.pool._processes
        with pytest.raises(WorkerError, match="rank 1 exploded"):
            held.run(list(_heat_fields()), [POISON_STEPS])
        healthy = list(_heat_fields())
        held.run(healthy, [3])
        workers += session._pool_manager.pool._processes
    assert [f.tobytes() for f in healthy] == [f.tobytes() for f in reference]
    assert session.worker_pools_created == 2
    assert not [worker for worker in workers if worker.is_alive()]
    assert not shm_segments() - segments_before


@needs_processes
def test_only_the_process_world_copies_slabs_on_a_team():
    """Thread-world slabs are copied in the calling thread (no team); the
    process world copies every rank's slab at once on a team its warm-up
    builds, and both worlds stay bit-identical run after run."""
    with Session(runtime="threads") as session:
        plan = session.plan(_compile_heat((2, 1)))
        plan.run(list(_heat_fields()), [3])
        assert session.counters.thread_teams_created == 0
    for rank_grid, shape in [((2, 1), (16, 16)), ((3, 1), (18, 18))]:
        program = _compile_heat(rank_grid, shape=shape)
        halo_shape = tuple(extent + 2 for extent in shape)
        with Session(runtime="processes") as session:
            plan = session.plan(program)
            plan.warmup()
            teams = session.counters.thread_teams_created
            assert teams == (1 if usable_cpus() > 1 else 0)
            for steps in range(1, 6):
                fields = list(_heat_fields(halo_shape))
                result = plan.run(fields, [steps])
                reference_fields = list(_heat_fields(halo_shape))
                reference = _run(program, reference_fields, [steps],
                                 runtime="threads")
                _assert_same_run(result, reference, fields, reference_fields)
            assert session.counters.thread_teams_created == teams


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
