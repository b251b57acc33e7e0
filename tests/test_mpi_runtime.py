"""Tests of the simulated MPI runtime (point-to-point, collectives, SPMD driver)."""

import numpy as np
import pytest

from repro.interp import MPIRuntimeError, SimulatedMPI


class TestPointToPoint:
    def test_send_recv(self):
        world = SimulatedMPI(2, timeout=5.0)

        def body(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0, 2.0, 3.0]), dest=1, tag=7)
                return None
            buffer = np.zeros(3)
            comm.recv(buffer, source=0, tag=7)
            return buffer

        results = world.run_spmd(body)
        assert np.allclose(results[1], [1.0, 2.0, 3.0])
        assert world.statistics.messages_sent == 1
        assert world.statistics.bytes_sent == 24

    def test_nonblocking_exchange(self):
        world = SimulatedMPI(2, timeout=5.0)

        def body(comm):
            other = 1 - comm.rank
            outgoing = np.full(4, float(comm.rank))
            incoming = np.zeros(4)
            requests = [comm.irecv(incoming, source=other, tag=1),
                        comm.isend(outgoing, dest=other, tag=1)]
            comm.waitall(requests)
            return incoming

        results = world.run_spmd(body)
        assert np.allclose(results[0], 1.0)
        assert np.allclose(results[1], 0.0)

    def test_messages_matched_by_tag(self):
        world = SimulatedMPI(2, timeout=5.0)

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

        results = world.run_spmd(body)
        assert results[1] == (1.0, 2.0)

    def test_recv_timeout_raises(self):
        world = SimulatedMPI(2, timeout=0.2)

        def body(comm):
            if comm.rank == 1:
                comm.recv(np.zeros(1), source=0, tag=9)
            return None

        with pytest.raises(MPIRuntimeError):
            world.run_spmd(body, timeout=2.0)

    def test_test_polls_completion(self):
        world = SimulatedMPI(2, timeout=5.0)

        def body(comm):
            if comm.rank == 0:
                comm.send(np.array([5.0]), dest=1, tag=0)
                return True
            buffer = np.zeros(1)
            request = comm.irecv(buffer, source=0, tag=0)
            while not comm.test(request):
                pass
            return buffer[0] == 5.0

        assert all(world.run_spmd(body))


class TestCollectives:
    def test_allreduce_sum(self):
        world = SimulatedMPI(4, timeout=5.0)
        results = world.run_spmd(lambda comm: comm.allreduce(np.array([float(comm.rank)])))
        for result in results:
            assert np.allclose(result, 6.0)

    def test_reduce_min_to_root(self):
        world = SimulatedMPI(3, timeout=5.0)
        results = world.run_spmd(
            lambda comm: comm.reduce(np.array([float(10 - comm.rank)]), "min", root=0)
        )
        assert np.allclose(results[0], 8.0)
        assert results[1] is None and results[2] is None

    def test_bcast(self):
        world = SimulatedMPI(3, timeout=5.0)

        def body(comm):
            data = np.array([42.0]) if comm.rank == 0 else np.zeros(1)
            return comm.bcast(data, root=0)

        for result in world.run_spmd(body):
            assert np.allclose(result, 42.0)

    def test_gather(self):
        world = SimulatedMPI(3, timeout=5.0)
        results = world.run_spmd(lambda comm: comm.gather(np.array([float(comm.rank)]), root=0))
        assert np.allclose(results[0].reshape(-1), [0.0, 1.0, 2.0])

    def test_barrier_counts(self):
        world = SimulatedMPI(3, timeout=5.0)
        world.run_spmd(lambda comm: comm.barrier())
        assert world.statistics.barriers == 3

    def test_unknown_reduction_rejected(self):
        world = SimulatedMPI(1, timeout=5.0)
        with pytest.raises(MPIRuntimeError):
            world.run_spmd(lambda comm: comm.reduce(np.ones(1), "median"))


class TestWorldManagement:
    def test_invalid_world_and_ranks(self):
        with pytest.raises(MPIRuntimeError):
            SimulatedMPI(0)
        world = SimulatedMPI(2)
        with pytest.raises(MPIRuntimeError):
            world.communicator(5)

    def test_errors_propagate_from_ranks(self):
        world = SimulatedMPI(2, timeout=2.0)

        def body(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(ValueError, match="boom"):
            world.run_spmd(body)

    def test_send_to_invalid_rank(self):
        world = SimulatedMPI(2, timeout=2.0)
        with pytest.raises(MPIRuntimeError):
            world.communicator(0).send(np.zeros(1), dest=7)


class TestSpmdDriverTimeouts:
    def test_deadlocked_world_shares_one_deadline(self):
        """Joining N deadlocked ranks must wait ~timeout once, not N times."""
        import time

        world = SimulatedMPI(4, timeout=30.0)

        def body(comm):
            # Every rank waits for a message nobody sends.
            comm.recv(np.zeros(1), source=(comm.rank + 1) % comm.size, tag=9)

        start = time.monotonic()
        with pytest.raises(MPIRuntimeError, match="deadlock"):
            world.run_spmd(body, timeout=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 4 * 0.5  # the old per-thread join would take >= 2s

    def test_crashed_rank_fails_fast_while_others_block(self):
        """One raising rank must surface its error, not a join timeout."""
        import time

        world = SimulatedMPI(3, timeout=30.0)

        def body(comm):
            if comm.rank == 0:
                raise RuntimeError("rank zero exploded")
            comm.recv(np.zeros(1), source=0, tag=3)  # blocks forever

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="rank zero exploded"):
            world.run_spmd(body, timeout=20.0)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # far below the 20s join budget

    def test_originating_error_wins_when_all_ranks_crash(self):
        world = SimulatedMPI(2, timeout=2.0)
        barrier = __import__("threading").Barrier(2)

        def body(comm):
            barrier.wait(timeout=2.0)
            raise ValueError(f"rank {comm.rank} failed")

        # Fail-fast means whichever rank's error lands first is raised; it
        # must be one of the originating errors, never a join timeout.
        with pytest.raises(ValueError, match=r"rank [01] failed"):
            world.run_spmd(body)


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
    @pytest.fixture(scope="class")
    def pool(self):
        from repro.runtime import PoolManager, processes_available

        if not processes_available():
            pytest.skip("process runtime unavailable on this platform")
        manager = PoolManager()
        yield manager
        manager.shutdown()

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize("lowered", [False, True], ids=["mpi-dialect", "mpi-calls"])
    def test_operation_and_root_are_honoured(self, lowered, world, request):
        """Every operation of MPICH_OP_CONSTANTS, a non-zero root: the mpi
        dialect and its MPI_* lowering both compute the NumPy reference (the
        lowered calls used to hard-code "sum" and root 0)."""
        from repro.transforms.mpi.mpi_to_func import MPICH_OP_CONSTANTS

        assert set(MPICH_OP_CONSTANTS) == set(_NUMPY_REDUCTIONS)
        inputs = np.stack([_reduce_input(rank) for rank in range(_REDUCE_RANKS)])
        for operation in MPICH_OP_CONSTANTS:
            if world == "processes":
                results, _ = request.getfixturevalue("pool").run_spmd(
                    _run_reductions, _REDUCE_RANKS, (operation, lowered), 30.0
                )
            else:
                results = SimulatedMPI(_REDUCE_RANKS, timeout=10.0).run_spmd(
                    lambda comm: _run_reductions(comm, operation, lowered)
                )
            expected = _NUMPY_REDUCTIONS[operation](inputs)
            for rank, (to_root, to_all) in enumerate(results):
                # Only the root receives the reduce; everyone the allreduce.
                wanted = expected if rank == _REDUCE_ROOT else np.full(4, -7.0)
                assert np.array_equal(to_root, wanted), (operation, rank)
                assert np.array_equal(to_all, expected), (operation, rank)
