"""Tests of the MPI runtime: point-to-point, collectives, and SPMD rounds
through ``Session.run_spmd`` in either world."""

import time

import numpy as np
import pytest

from repro.core import Session
from repro.interp import MPIRuntimeError, SimulatedMPI
from repro.interp.mpi_runtime import merge_comm_statistics
from repro.runtime import WorkerError
from tests.conftest import RUNTIMES, run_spmd


class TestPointToPoint:
    def test_send_recv(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0, 2.0, 3.0]), dest=1, tag=7)
                return None
            buffer = np.zeros(3)
            comm.recv(buffer, source=0, tag=7)
            return buffer

        results, statistics = run_spmd(body, 2, timeout=5.0)
        assert np.allclose(results[1], [1.0, 2.0, 3.0])
        assert statistics.messages_sent == 1
        assert statistics.bytes_sent == 24

    def test_nonblocking_exchange(self):
        def body(comm):
            other = 1 - comm.rank
            outgoing = np.full(4, float(comm.rank))
            incoming = np.zeros(4)
            requests = [comm.irecv(incoming, source=other, tag=1),
                        comm.isend(outgoing, dest=other, tag=1)]
            comm.waitall(requests)
            return incoming

        results, _ = run_spmd(body, 2, timeout=5.0)
        assert np.allclose(results[0], 1.0)
        assert np.allclose(results[1], 0.0)

    def test_messages_matched_by_tag(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0]), dest=1, tag=1)
                comm.send(np.array([2.0]), dest=1, tag=2)
                return None
            second = np.zeros(1)
            first = np.zeros(1)
            comm.recv(second, source=0, tag=2)
            comm.recv(first, source=0, tag=1)
            return (first[0], second[0])

        results, _ = run_spmd(body, 2, timeout=5.0)
        assert results[1] == (1.0, 2.0)

    def test_recv_timeout_raises(self):
        def body(comm):
            if comm.rank == 1:
                comm.recv(np.zeros(1), source=0, tag=9)
            return None

        with pytest.raises(MPIRuntimeError):
            run_spmd(body, 2, timeout=0.2)

    def test_recv_times_out_under_unrelated_traffic(self):
        """A receive whose message never comes times out on time although
        another rank keeps sending: every posted message wakes every waiter,
        and a wake-up used to restart the waiter's full timeout."""
        import threading

        timeout = 0.3
        stop = threading.Event()

        def body(comm):
            if comm.rank == 0:
                started = time.monotonic()
                try:
                    with pytest.raises(MPIRuntimeError, match="timed out"):
                        comm.recv(np.zeros(1), source=1, tag=9)
                finally:
                    stop.set()
                return time.monotonic() - started
            if comm.rank == 2:  # unrelated traffic: rank 2 -> rank 1, every 50 ms
                while not stop.wait(0.05):
                    comm.send(np.zeros(1), dest=1, tag=3)
            return None

        waited = run_spmd(body, 3, timeout=timeout)[0][0]
        assert timeout <= waited < 2 * timeout

    def test_test_polls_completion(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.array([5.0]), dest=1, tag=0)
                return True
            buffer = np.zeros(1)
            request = comm.irecv(buffer, source=0, tag=0)
            while not comm.test(request):
                pass
            return buffer[0] == 5.0

        assert all(run_spmd(body, 2, timeout=5.0)[0])


class TestCollectives:
    def test_allreduce_sum(self):
        results, _ = run_spmd(
            lambda comm: comm.allreduce(np.array([float(comm.rank)])), 4, timeout=5.0)
        for result in results:
            assert np.allclose(result, 6.0)

    def test_reduce_min_to_root(self):
        results, _ = run_spmd(
            lambda comm: comm.reduce(np.array([float(10 - comm.rank)]), "min", root=0),
            3, timeout=5.0,
        )
        assert np.allclose(results[0], 8.0)
        assert results[1] is None and results[2] is None

    def test_bcast(self):
        def body(comm):
            data = np.array([42.0]) if comm.rank == 0 else np.zeros(1)
            return comm.bcast(data, root=0)

        for result in run_spmd(body, 3, timeout=5.0)[0]:
            assert np.allclose(result, 42.0)

    def test_gather(self):
        results, _ = run_spmd(
            lambda comm: comm.gather(np.array([float(comm.rank)]), root=0), 3, timeout=5.0)
        assert np.allclose(results[0].reshape(-1), [0.0, 1.0, 2.0])

    def test_barrier_counts(self):
        _, statistics = run_spmd(lambda comm: comm.barrier(), 3, timeout=5.0)
        assert statistics.barriers == 3

    def test_unknown_reduction_rejected(self):
        with pytest.raises(MPIRuntimeError):
            run_spmd(lambda comm: comm.reduce(np.ones(1), "median"), 1, timeout=5.0)


class TestWorldManagement:
    def test_invalid_world_and_ranks(self):
        with pytest.raises(MPIRuntimeError):
            SimulatedMPI(0)
        world = SimulatedMPI(2)
        with pytest.raises(MPIRuntimeError):
            world.communicator(5)
        assert world.communicator(1) is world.communicator(1)

    def test_errors_propagate_from_ranks(self):
        def body(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(ValueError, match="boom"):
            run_spmd(body, 2, timeout=2.0)

    def test_send_to_invalid_rank(self):
        world = SimulatedMPI(2, timeout=2.0)
        with pytest.raises(MPIRuntimeError):
            world.communicator(0).send(np.zeros(1), dest=7)

    def test_ranks_count_concurrent_sends_on_their_own(self):
        """Each rank counts into its own communicator, with no lock: four
        ranks sending at once lose no count, and the round's statistics are
        the ranks' merged in rank order."""
        import sys
        import threading

        start = threading.Barrier(4)

        def body(comm):
            start.wait(timeout=5.0)
            for index in range(500):
                comm.send(np.zeros(1), dest=(comm.rank + 1) % comm.size, tag=index % 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with Session() as session:
                _, per_rank = session.run_spmd(body, 4, timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert [stats.messages_sent for stats in per_rank] == [500] * 4
        merged = merge_comm_statistics(per_rank)
        assert merged.messages_sent == 2000
        assert merged.bytes_sent == sum(s.bytes_sent for s in per_rank) == 16000


def _wait_for_nobody(comm):
    """Module-level (workers unpickle it): a receive nobody answers."""
    comm.recv(np.zeros(1), source=(comm.rank + 1) % comm.size, tag=9)


def _rank_zero_explodes(comm):
    """Module-level: rank 0 raises while every other rank blocks on it."""
    if comm.rank == 0:
        raise RuntimeError("rank zero exploded")
    comm.recv(np.zeros(1), source=0, tag=3)


def _every_rank_fails(comm):
    """Module-level: all ranks meet, then each raises its own error."""
    comm.barrier()
    raise ValueError(f"rank {comm.rank} failed")


def _raised(runtime, error):
    """What a round of ``runtime`` raises for a rank that raised ``error``:
    the error itself, or a worker's as a :class:`WorkerError`."""
    return error if runtime == "threads" else WorkerError


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestSpmdDriverTimeouts:
    def test_deadlocked_world_fails_on_the_ranks_own_timeout(self, runtime):
        """A deadlocked round fails when its ranks' receives time out, once,
        not after a driver deadline per rank."""
        start = time.monotonic()
        with pytest.raises(_raised(runtime, MPIRuntimeError), match="timed out"):
            run_spmd(_wait_for_nobody, 4, runtime=runtime, timeout=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 4 * 0.5  # one timeout, not one per rank

    def test_crashed_rank_fails_fast_while_others_block(self, runtime):
        """One raising rank must surface its error, not a timeout."""
        start = time.monotonic()
        with pytest.raises(_raised(runtime, RuntimeError), match="rank zero exploded"):
            run_spmd(_rank_zero_explodes, 3, runtime=runtime, timeout=10.0)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # far below the ranks' 10s timeout

    def test_originating_error_wins_when_all_ranks_crash(self, runtime):
        # Fail-fast means whichever rank's error lands first is raised; it
        # must be one of the originating errors, never a timeout.
        with pytest.raises(_raised(runtime, ValueError), match=r"rank [01] failed"):
            run_spmd(_every_rank_fails, 2, runtime=runtime, timeout=2.0)


# ---------------------------------------------------------------------------
# lowered collectives: mpi.reduce / mpi.allreduce, as dialect ops and as the
# MPI_* library calls lower_mpi_to_func turns them into
# ---------------------------------------------------------------------------

_REDUCE_RANKS, _REDUCE_ROOT = 3, 2
_NUMPY_REDUCTIONS = {
    "sum": np.add.reduce,
    "prod": np.multiply.reduce,
    "min": np.minimum.reduce,
    "max": np.maximum.reduce,
    "land": lambda parts: np.logical_and.reduce(parts).astype(np.float64),
    "lor": lambda parts: np.logical_or.reduce(parts).astype(np.float64),
}


def _reduce_input(rank):
    """Per-rank data with a zero at a different place on every rank, so the
    logical reductions (and min/prod) do not collapse to a constant."""
    data = np.arange(1.0, 5.0) * (rank + 1)
    data[rank] = 0.0
    return data


def _run_reductions(comm, operation, lowered):
    """Module-level (process workers unpickle it): build ``kernel(send,
    to_root, to_all)`` — an mpi.reduce to ``_REDUCE_ROOT`` plus an
    mpi.allreduce — optionally lower it to MPI_* calls, and run it."""
    from repro.dialects import arith, builtin, func, mpi
    from repro.interp import Interpreter
    from repro.ir import Builder, FunctionType, IntegerAttr, MemRefType, f64, i32
    from repro.transforms.mpi import lower_mpi_to_func

    buffer_type = MemRefType([4], f64)
    kernel = func.FuncOp("kernel", FunctionType([buffer_type] * 3, []))
    b = Builder.at_end(kernel.body.block)
    send, to_root, to_all = (
        b.insert(mpi.UnwrapMemrefOp(arg)) for arg in kernel.args
    )
    root = b.insert(arith.ConstantOp(IntegerAttr(_REDUCE_ROOT, i32), i32)).result
    b.insert(mpi.ReduceOp(
        send.ptr, to_root.ptr, send.count, send.dtype, operation, root))
    b.insert(mpi.AllreduceOp(
        send.ptr, to_all.ptr, send.count, send.dtype, operation))
    b.insert(func.ReturnOp([]))
    module = builtin.ModuleOp([kernel])
    if lowered:
        assert lower_mpi_to_func(module) == 5  # 3 unwraps, reduce, allreduce
    module.verify()
    to_root_data, to_all_data = np.full(4, -7.0), np.full(4, -7.0)
    Interpreter(module, comm=comm).call(
        "kernel", _reduce_input(comm.rank), to_root_data, to_all_data
    )
    return to_root_data, to_all_data


class TestLoweredCollectives:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("lowered", [False, True], ids=["mpi-dialect", "mpi-calls"])
    def test_operation_and_root_are_honoured(self, lowered, runtime):
        """Every operation of MPICH_OP_CONSTANTS, a non-zero root: the mpi
        dialect and its MPI_* lowering both compute the NumPy reference (the
        lowered calls used to hard-code "sum" and root 0)."""
        from repro.transforms.mpi.mpi_to_func import MPICH_OP_CONSTANTS

        assert set(MPICH_OP_CONSTANTS) == set(_NUMPY_REDUCTIONS)
        inputs = np.stack([_reduce_input(rank) for rank in range(_REDUCE_RANKS)])
        with Session(runtime=runtime, timeout=30.0) as session:
            for operation in MPICH_OP_CONSTANTS:
                results, _ = session.run_spmd(
                    _run_reductions, _REDUCE_RANKS, (operation, lowered))
                expected = _NUMPY_REDUCTIONS[operation](inputs)
                for rank, (to_root, to_all) in enumerate(results):
                    # Only the root receives the reduce; everyone the allreduce.
                    wanted = expected if rank == _REDUCE_ROOT else np.full(4, -7.0)
                    assert np.array_equal(to_root, wanted), (operation, rank)
                    assert np.array_equal(to_all, expected), (operation, rank)


# ---------------------------------------------------------------------------
# the whole mpi dialect, executed: every operation runs as an mpi.* op and as
# what lower_mpi_to_func makes of it, on a 2-rank world
# ---------------------------------------------------------------------------

def _mpi_operations():
    from repro.dialects import mpi
    from repro.ir import Operation

    return sorted(
        cls.name for cls in vars(mpi).values()
        if isinstance(cls, type) and issubclass(cls, Operation)
        and cls.name.startswith("mpi.")
    )


#: Operation -> (the scenario of ``_build_scenario`` that contains it, the
#: library call it lowers to).  None: the op needs no library call and stays
#: (request bookkeeping).
_MPI_SCENARIOS = {
    "mpi.init": ("lifecycle", "MPI_Init"),
    "mpi.finalize": ("lifecycle", "MPI_Finalize"),
    "mpi.comm_rank": ("lifecycle", "MPI_Comm_rank"),
    "mpi.comm_size": ("lifecycle", "MPI_Comm_size"),
    "mpi.barrier": ("lifecycle", "MPI_Barrier"),
    "mpi.unwrap_memref": ("blocking", "llvm.inttoptr"),
    "mpi.send": ("blocking", "MPI_Send"),
    "mpi.recv": ("blocking", "MPI_Recv"),
    "mpi.allocate_requests": ("wait", None),
    "mpi.get_request": ("wait", None),
    "mpi.set_null_request": ("wait", None),
    "mpi.isend": ("wait", "MPI_Isend"),
    "mpi.irecv": ("wait", "MPI_Irecv"),
    "mpi.test": ("wait", "MPI_Test"),
    "mpi.wait": ("wait", "MPI_Wait"),
    "mpi.waitall": ("waitall", "MPI_Waitall"),
    "mpi.reduce": ("collectives", "MPI_Reduce"),
    "mpi.allreduce": ("collectives", "MPI_Allreduce"),
    "mpi.bcast": ("collectives", "MPI_Bcast"),
    "mpi.gather": ("collectives", "MPI_Gather"),
}


def _build_scenario(scenario):
    """``kernel(data, landing, gathered, notes)``, the same on both ranks.

    ``data`` (4 x f64) is what a rank owns, ``landing`` (4) what it receives,
    ``gathered`` (8) the gather target, ``notes`` (4) scalars it records.
    """
    from repro.dialects import arith, builtin, func, memref, mpi
    from repro.ir import Builder, FunctionType, MemRefType, f64, i32

    kernel = func.FuncOp("kernel", FunctionType(
        [MemRefType([4], f64), MemRefType([4], f64), MemRefType([8], f64),
         MemRefType([4], f64)], []))
    data, landing, gathered, notes = kernel.args
    b = Builder.at_end(kernel.body.block)

    def const(value, type_=i32):
        return b.insert(arith.ConstantOp.from_int(value, type_)).result

    def record(value, position):  # notes[position] = f64(value)
        as_float = b.insert(arith.SIToFPOp(value, f64)).result
        b.insert(memref.StoreOp(as_float, notes, [b.insert(
            arith.ConstantOp.from_int(position)).result]))

    rank = b.insert(mpi.CommRankOp()).rank
    peer = b.insert(arith.SubiOp(const(1), rank)).result
    tag = const(7)
    if scenario == "lifecycle":
        b.insert(mpi.InitOp())
        record(rank, 0)
        record(b.insert(mpi.CommSizeOp()).size, 1)
        b.insert(mpi.BarrierOp())
        b.insert(mpi.FinalizeOp())
    else:
        mine, theirs, everyone = (
            b.insert(mpi.UnwrapMemrefOp(buffer)) for buffer in (data, landing, gathered)
        )
        record(everyone.count, 3)
    if scenario == "blocking":  # sends are buffered: both ranks send, then receive
        b.insert(mpi.SendOp(mine.ptr, mine.count, mine.dtype, peer, tag))
        b.insert(mpi.RecvOp(theirs.ptr, mine.count, mine.dtype, peer, tag))
    if scenario in ("wait", "waitall"):
        requests = b.insert(mpi.AllocateRequestsOp(3)).requests
        sent, received, skipped = (
            b.insert(mpi.GetRequestOp(requests, slot)).results[0] for slot in range(3)
        )
        b.insert(mpi.NullRequestOp(skipped))
        b.insert(mpi.IsendOp(mine.ptr, mine.count, mine.dtype, peer, tag, sent))
        b.insert(mpi.IrecvOp(theirs.ptr, mine.count, mine.dtype, peer, tag, received))
        if scenario == "waitall":
            b.insert(mpi.WaitallOp(requests, const(3)))
        else:
            b.insert(mpi.TestOp(received))  # may or may not have landed yet
            b.insert(mpi.WaitOp(received))
            landed = b.insert(mpi.TestOp(received)).flag
            record(b.insert(arith.SelectOp(landed, const(1), const(0))).result, 2)
    if scenario == "collectives":
        root = const(1)
        b.insert(mpi.ReduceOp(mine.ptr, theirs.ptr, mine.count, mine.dtype, "sum", root))
        b.insert(mpi.AllreduceOp(mine.ptr, mine.ptr, mine.count, mine.dtype, "max"))
        b.insert(mpi.BcastOp(mine.ptr, mine.count, mine.dtype, root))
        b.insert(mpi.GatherOp(mine.ptr, everyone.ptr, mine.count, mine.dtype, const(0)))
    b.insert(func.ReturnOp([]))
    module = builtin.ModuleOp([kernel])
    module.verify()
    return module


def _scenario_module(scenario, lowered):
    """The scenario's module, its mpi ops lowered to ``MPI_*`` calls or not."""
    from repro.transforms.mpi import ConvertMPIToFuncPass

    module = _build_scenario(scenario)
    if lowered:
        ConvertMPIToFuncPass().apply(module)
        module.verify()
    return module


def _scenario_rank(comm, scenario, lowered):
    """Module-level (process workers unpickle it): one rank of a scenario,
    built by name on the rank; returns the rank's four buffers."""
    from repro.interp import Interpreter

    buffers = [np.arange(4.0) + 10 * comm.rank, np.full(4, -1.0), np.full(8, -1.0),
               np.full(4, -1.0)]
    Interpreter(_scenario_module(scenario, lowered), comm=comm).call("kernel", *buffers)
    return buffers


def test_the_scenarios_cover_the_mpi_dialect():
    assert sorted(_MPI_SCENARIOS) == _mpi_operations()


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("operation", sorted(_MPI_SCENARIOS))
def test_every_mpi_operation_runs_in_both_forms(operation, runtime):
    from repro.dialects import func

    scenario, lowers_to = _MPI_SCENARIOS[operation]
    assert operation in {op.name for op in _scenario_module(scenario, False).walk()}
    module = _scenario_module(scenario, True)
    names = {op.name for op in module.walk()}
    calls = {op.callee for op in module.walk() if isinstance(op, func.CallOp)}
    if lowers_to is None:
        assert operation in names
    else:
        assert operation not in names and lowers_to in names | calls
    with Session(runtime=runtime, timeout=10.0) as session:
        as_ops, op_statistics = session.run_spmd(_scenario_rank, 2, (scenario, False))
        as_calls, call_statistics = session.run_spmd(_scenario_rank, 2, (scenario, True))
    op_statistics = merge_comm_statistics(op_statistics)
    call_statistics = merge_comm_statistics(call_statistics)

    assert call_statistics == op_statistics
    for buffers, lowered_buffers in zip(as_ops, as_calls):
        for buffer, lowered_buffer in zip(buffers, lowered_buffers):
            assert np.array_equal(buffer, lowered_buffer)
    # ... and both forms did what the scenario says.
    (data0, landing0, gathered0, notes0), (data1, landing1, gathered1, notes1) = as_ops
    theirs0, theirs1 = np.arange(4.0) + 10, np.arange(4.0)
    if scenario == "lifecycle":
        assert (notes0[0], notes0[1], notes1[0], notes1[1]) == (0.0, 2.0, 1.0, 2.0)
        assert op_statistics.barriers == 2
    else:
        assert notes0[3] == notes1[3] == 8.0  # an unwrapped element count
    if scenario in ("blocking", "wait", "waitall"):
        assert np.array_equal(landing0, theirs0) and np.array_equal(landing1, theirs1)
        assert op_statistics.messages_sent == 2 and op_statistics.bytes_sent == 64
        assert notes0[2] == notes1[2] == (1.0 if scenario == "wait" else -1.0)
    if scenario == "collectives":
        # reduce(sum) to rank 1; allreduce(max) in place, re-broadcast from
        # rank 1 and gathered on rank 0.
        assert np.array_equal(landing1, theirs0 + theirs1) and np.all(landing0 == -1.0)
        assert np.array_equal(data0, theirs0) and np.array_equal(data1, theirs0)
        assert np.array_equal(gathered0, np.concatenate([theirs0, theirs0]))
        assert np.all(gathered1 == -1.0)
        # One message each for reduce, bcast and gather, two for the allreduce.
        assert op_statistics.messages_sent == 5 and op_statistics.collectives > 0
