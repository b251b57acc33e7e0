"""Tests for the multi-tenant serving layer (repro.serve).

Covers the ISSUE 9 robustness checklist: queue-full backpressure returns the
typed error synchronously (no hang), cancellation has queue semantics, a
failed client's job doesn't poison the shared batch/pool (riding the worker
reaping of the process runtime), per-tenant statistics are bit-identical to
standalone-Session runs of the same jobs, and the cross-tenant plan cache
shares one compiled plan between tenants.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    ExecutionError,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.obs import MetricsRegistry
from repro.runtime import WorkerError, processes_available
from repro.serve import (
    JobCancelledError,
    QueueFullError,
    Server,
    ServerClosedError,
)
from repro.workloads import heat_diffusion
from tests.conftest import FAILURE_WORLDS, POISON_STEPS

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


def _compile_heat(rank_grid=None, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    target = dmp_target(rank_grid) if rank_grid is not None else cpu_target()
    return compile_stencil_program(module, target)


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1,
       shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return [u0, u0.copy()]


def _standalone_reference(program, steps, config):
    """Fields + result of one run on a plain standalone Session."""
    with Session(config) as session:
        fields = _heat_fields()
        result = session.plan(program).run(fields, [steps])
    return fields, result


# ---------------------------------------------------------------------------
# admission control: bounded queue, typed backpressure, cancellation
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_queue_full_rejects_fast_with_typed_error(self):
        """A full queue raises QueueFullError synchronously — no blocking."""
        program = _compile_heat((2, 1))
        # start=False: nothing drains, so the queue state is deterministic.
        server = Server(max_pending=2, start=False)
        try:
            first = server.submit(program, _heat_fields(), [1])
            second = server.submit(program, _heat_fields(), [1])
            began = time.monotonic()
            with pytest.raises(QueueFullError, match="full"):
                server.submit(program, _heat_fields(), [1])
            assert time.monotonic() - began < 1.0, "rejection must not block"
            assert server.metrics.get("serve.jobs_rejected") == 1
            assert server.queue_depth() == 2
        finally:
            server.close(drain=False)
        # The non-draining close cancelled the queued jobs.
        for handle in (first, second):
            with pytest.raises(JobCancelledError):
                handle.result(timeout=5.0)

    def test_submit_after_close_raises_typed_error(self):
        program = _compile_heat((2, 1))
        server = Server(start=False)
        server.close(drain=False)
        with pytest.raises(ServerClosedError):
            server.submit(program, _heat_fields(), [1])

    def test_cancel_only_while_queued(self):
        """cancel() succeeds for queued jobs and fails for finished ones."""
        program = _compile_heat((2, 1))
        server = Server(start=False)
        try:
            handle = server.submit(program, _heat_fields(), [1])
            assert handle.cancel() is True
            assert handle.cancel() is False  # already terminal
            with pytest.raises(JobCancelledError):
                handle.result(timeout=5.0)
            assert server.metrics.get("serve.jobs_cancelled") == 1
        finally:
            server.close(drain=False)
        with Server() as server:
            done = server.submit(program, _heat_fields(), [2])
            assert done.result(timeout=60.0) is not None
            assert done.cancel() is False  # completed jobs cannot be cancelled


# ---------------------------------------------------------------------------
# batched dispatch: bit-identity, plan sharing, error isolation
# ---------------------------------------------------------------------------

class TestBatchedDispatch:
    def test_results_and_tenant_stats_bit_identical_to_standalone(self):
        """Batched jobs reproduce a standalone Session run bit for bit."""
        program = _compile_heat((2, 1))
        config = ExecutionConfig(runtime="threads")
        ref_fields, ref_result = _standalone_reference(program, 5, config)

        with Server(config, max_batch=8) as server:
            fieldsets = [_heat_fields() for _ in range(6)]
            handles = [
                server.submit(program, fields, [5], tenant=f"tenant{i % 2}")
                for i, fields in enumerate(fieldsets)
            ]
            results = [handle.result(timeout=60.0) for handle in handles]
            for fields in fieldsets:
                assert np.array_equal(fields[0], ref_fields[0])
                assert np.array_equal(fields[1], ref_fields[1])

            # Per-tenant statistics must equal the same runs merged through a
            # registry the way a standalone session merges them.
            reference = MetricsRegistry()
            for _ in range(3):  # each tenant completed 3 of the 6 jobs
                reference.ingest_all(ref_result.statistics, "exec.")
                reference.ingest(ref_result.comm_statistics, "comm.")
            for name in ("tenant0", "tenant1"):
                stats = server.tenant(name)
                assert stats.runs == 3
                assert stats.exec_statistics() == reference.as_exec_statistics()
                assert stats.comm_statistics() == reference.as_comm_statistics()
            assert all(result.runtime == "threads" for result in results)

    def test_plan_cache_shared_across_tenants(self):
        """Two tenants with the same (program, config) share one Plan."""
        program = _compile_heat((2, 1))
        with Server(ExecutionConfig(runtime="threads")) as server:
            for tenant in ("alice", "bob", "alice", "bob"):
                server.submit(
                    program, _heat_fields(), [2], tenant=tenant
                ).result(timeout=60.0)
            assert server.session.counters.plans_created == 1
            assert server.metrics.get("serve.plan_cache_miss") == 1
            assert server.metrics.get("serve.plan_cache_hit") == 3

    def test_failed_job_does_not_poison_its_batch(self):
        """A job that cannot even stage fails alone; siblings complete."""
        program = _compile_heat((2, 1))
        with Server(ExecutionConfig(runtime="threads"), start=False) as server:
            good_before = server.submit(program, _heat_fields(), [2])
            bad = server.submit(program, _heat_fields(), [2, 3])  # arg count
            good_after = server.submit(program, _heat_fields(), [2])
            server.start()  # all three land in one dispatch round
            assert good_before.result(timeout=60.0) is not None
            with pytest.raises(ExecutionError, match="expects"):
                bad.result(timeout=60.0)
            assert good_after.result(timeout=60.0) is not None
            assert server.metrics.get("serve.jobs_failed") == 1
            assert server.metrics.get("serve.jobs_completed") == 2
            assert server.tenant("default").jobs_failed == 1
            # The shared session still serves fresh jobs afterwards.
            assert server.submit(
                program, _heat_fields(), [2]
            ).result(timeout=60.0) is not None

    @pytest.mark.parametrize("runtime", FAILURE_WORLDS)
    def test_rank_failing_mid_round_fails_its_job_alone_and_at_once(
        self, runtime, exploding_rank
    ):
        """One round, a healthy job and one whose rank 1 raises mid-run: the
        sibling completes without waiting out the victim's 5 s comm timeout,
        the bad job reports the root cause rather than its peer's timeout,
        and a worker pool that hosted the abandoned rank is retired exactly
        once (scheduled thread-world ranks never occupy the rank executor)."""
        program = _compile_heat((2, 1))
        config = ExecutionConfig(runtime=runtime, timeout=5.0)
        ref_fields, _ = _standalone_reference(program, 5, config)
        with Server(config, start=False) as server:
            session = server.session

            def hosts_created():
                return (session.worker_pools_created if runtime == "processes"
                        else session.counters.rank_executors_created)

            # Warm a round of the same shape: two 2-rank jobs.
            warm = [server.submit(program, _heat_fields(), [5]) for _ in range(2)]
            server.start()
            for handle in warm:
                handle.result(timeout=60.0)
            hosts = 1 if runtime == "processes" else 0
            assert hosts_created() == hosts

            good_fields = _heat_fields()
            began = time.monotonic()
            with server._condition:  # both jobs land in one dispatch round
                good = server.submit(program, good_fields, [5])
                bad = server.submit(program, _heat_fields(), [POISON_STEPS])
            good.result(timeout=60.0)
            assert time.monotonic() - began < 1.0, (
                "the healthy sibling waited for the failed job's peers"
            )
            assert np.array_equal(good_fields[0], ref_fields[0])
            assert np.array_equal(good_fields[1], ref_fields[1])
            if runtime == "processes":
                with pytest.raises(WorkerError, match="rank 1 exploded") as info:
                    bad.result(timeout=60.0)
                failure = info.value.failure
                assert (failure.rank, failure.exception, failure.message) == (
                    1, "RuntimeError", "rank 1 exploded"
                )
            else:
                with pytest.raises(RuntimeError, match="^rank 1 exploded$"):
                    bad.result(timeout=60.0)
            assert server.metrics.get("serve.batches") == 2
            assert server.metrics.get("serve.jobs_failed") == 1

            # The same server serves the next job, on a fresh executor/pool.
            after_fields = _heat_fields()
            server.submit(program, after_fields, [5]).result(timeout=60.0)
            assert np.array_equal(after_fields[0], ref_fields[0])
            assert np.array_equal(after_fields[1], ref_fields[1])
            assert hosts_created() == 2 * hosts
            assert session.metrics.get("round.ranks_threaded") == 0
            assert server.metrics.get("serve.jobs_completed") == 4

    def test_local_programs_ride_the_same_queue(self):
        """Non-distributed programs are served (and batched) too."""
        program = _compile_heat(None)
        config = ExecutionConfig()
        ref_fields, ref_result = _standalone_reference(program, 4, config)
        with Server(config) as server:
            fields = _heat_fields()
            result = server.submit(program, fields, [4]).result(timeout=60.0)
            assert result.runtime == "local"
            assert np.array_equal(fields[0], ref_fields[0])
            assert np.array_equal(fields[1], ref_fields[1])
            stats = server.tenant("default")
            assert stats.exec_statistics() == ref_result.statistics[0]

    def test_mixed_configs_get_separate_plans(self):
        """Different ExecutionConfigs never share a cache entry."""
        program = _compile_heat((2, 1))
        with Server(ExecutionConfig(runtime="threads")) as server:
            server.submit(program, _heat_fields(), [2]).result(timeout=60.0)
            server.submit(
                program, _heat_fields(), [2], codegen="planned"
            ).result(timeout=60.0)
            assert server.session.counters.plans_created == 2
            assert server.metrics.get("serve.plan_cache_miss") == 2


@pytest.mark.parametrize(
    "runtime", ["threads", pytest.param("processes", marks=needs_processes)]
)
def test_closing_a_server_closes_its_plans(runtime):
    """A server on a caller's session leaves no plan, and no buffer set, behind."""
    program = _compile_heat((2, 1))
    with Session(runtime=runtime) as session:
        for _ in range(3):
            with Server(session=session) as server:
                server.submit(program, _heat_fields(), [2]).result(timeout=120.0)
            assert session._plans == []
            if runtime == "processes":
                # 2 ranks x 2 fields, leased once and recycled by each server.
                assert len(session._field_pool._owned) == 4


# ---------------------------------------------------------------------------
# process world: pooled batching + worker-reaping robustness
# ---------------------------------------------------------------------------

@needs_processes
class TestProcessServe:
    def test_process_batch_bit_identical(self):
        program = _compile_heat((2, 1))
        config = ExecutionConfig(runtime="processes")
        ref_fields, ref_result = _standalone_reference(program, 5, config)
        with Server(config, max_batch=4) as server:
            fieldsets = [_heat_fields() for _ in range(4)]
            handles = [server.submit(program, f, [5]) for f in fieldsets]
            results = [handle.result(timeout=120.0) for handle in handles]
            for fields in fieldsets:
                assert np.array_equal(fields[0], ref_fields[0])
                assert np.array_equal(fields[1], ref_fields[1])
            assert all(result.runtime == "processes" for result in results)
            stats = server.tenant("default")
            reference = MetricsRegistry()
            for _ in range(4):
                reference.ingest_all(ref_result.statistics, "exec.")
                reference.ingest(ref_result.comm_statistics, "comm.")
            assert stats.exec_statistics() == reference.as_exec_statistics()
            # One pooled round served all four jobs (8 workers partitioned).
            assert server.metrics.get("serve.batches") == 1

    def test_dead_worker_is_reaped_not_poisonous(self):
        """A tenant's worker dying between rounds never hangs the server.

        Rides the worker-reaping discipline: the dead worker is detected at
        the next round's entry, the pool is transparently replaced, and the
        queued jobs complete on the fresh pool.
        """
        program = _compile_heat((2, 1))
        config = ExecutionConfig(runtime="processes")
        with Server(config) as server:
            first = server.submit(program, _heat_fields(), [2])
            assert first.result(timeout=120.0) is not None
            victim = server.session._pool_manager.pool._processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5)
            fields = _heat_fields()
            second = server.submit(program, fields, [2])
            assert second.result(timeout=120.0) is not None
            assert server.metrics.get("serve.jobs_completed") == 2
