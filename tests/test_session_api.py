"""Tests for the Session/Plan execution API (repro.core.session).

Covers the satellite checklist of the API redesign: ExecutionConfig
validation, session lifecycle (double-close, run-after-close, resource-reuse
counters), held-plan parity against one-shot ``Session.run`` across the
{threads, processes} x {1, 2 threads_per_rank} matrix, and the
runtime-fallback warning.
"""

import dataclasses
import threading
import time
import warnings

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
from repro.runtime import WorkerError, processes_available
from repro.workloads import heat_diffusion
from tests.conftest import (
    FAILURE_WORLDS,
    POISON_STEPS,
    build_jacobi_module,
    jacobi_reference,
    shm_segments,
)

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    default_session().close()


def _compile_heat(rank_grid, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, dmp_target(rank_grid))


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1,
       shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return [u0, u0.copy()]


# ---------------------------------------------------------------------------
# ExecutionConfig validation
# ---------------------------------------------------------------------------

class TestExecutionConfig:
    def test_defaults_valid(self):
        config = ExecutionConfig()
        assert config.backend == "auto" and config.runtime == "threads"

    def test_holds_only_what_a_caller_decides(self):
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "backend", "runtime", "codegen", "threads_per_rank", "timeout",
            "trace",
        ]

    def test_bad_backend(self):
        with pytest.raises(ExecutionError, match="unknown execution backend"):
            ExecutionConfig(backend="jit")

    def test_bad_runtime(self):
        with pytest.raises(ExecutionError, match="unknown execution runtime"):
            ExecutionConfig(runtime="mpi")

    @pytest.mark.parametrize("threads", [0, -1, 1.5, "two"])
    def test_bad_threads_per_rank(self, threads):
        with pytest.raises(ExecutionError, match="threads_per_rank"):
            ExecutionConfig(threads_per_rank=threads)

    @pytest.mark.parametrize("timeout", [0, -3, "fast"])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ExecutionError, match="timeout"):
            ExecutionConfig(timeout=timeout)

    def test_replace_revalidates(self):
        config = ExecutionConfig()
        with pytest.raises(ExecutionError, match="unknown execution runtime"):
            config.replace(runtime="gpu")
        assert config.replace(runtime="processes").runtime == "processes"

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ExecutionError, match="unknown ExecutionConfig field"):
            ExecutionConfig().replace(nranks=4)

    #: Fields the program decides: the rank count comes from its rank grid,
    #: the array layout from its field bounds, overlap from what the
    #: megakernel proves safe; warming up is ``Session.warmup``.
    DELETED = {"overlap_halos": False, "warm_start": True, "ranks": 2,
               "margin": (1, 1)}

    @pytest.mark.parametrize("name", sorted(DELETED))
    def test_deleted_field_is_unknown_to_session(self, name):
        with pytest.raises(ExecutionError, match="unknown ExecutionConfig field"):
            Session(**{name: self.DELETED[name]})

    @pytest.mark.parametrize("name", sorted(DELETED))
    def test_deleted_field_is_unknown_to_replace(self, name):
        with pytest.raises(ExecutionError, match="unknown ExecutionConfig field"):
            ExecutionConfig().replace(**{name: self.DELETED[name]})

    @pytest.mark.parametrize("name", sorted(DELETED))
    def test_deleted_field_is_unknown_to_plan(self, name):
        program = _compile_heat((2, 1))
        with Session() as session:
            with pytest.raises(
                ExecutionError, match="unknown ExecutionConfig field"
            ):
                session.plan(program, **{name: self.DELETED[name]})
            assert not session._plans


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------

class TestSessionLifecycle:
    def test_double_close_is_idempotent(self):
        session = Session()
        session.close()
        session.close()  # no error
        assert session.closed

    def test_run_after_close_raises(self):
        program = _compile_heat((2, 1))
        session = Session()
        session.close()
        with pytest.raises(ExecutionError, match="session is closed"):
            session.run(program, _heat_fields(), [1])
        with pytest.raises(ExecutionError, match="session is closed"):
            session.plan(program)
        with pytest.raises(ExecutionError, match="session is closed"):
            session.warmup(ranks=2)

    def test_plan_run_after_session_close_raises(self):
        program = _compile_heat((2, 1))
        session = Session()
        plan = session.plan(program)
        session.close()
        assert plan.closed  # session close closes its plans
        with pytest.raises(ExecutionError, match="plan is closed"):
            plan.run(_heat_fields(), [1])

    def test_context_manager_closes(self):
        with Session() as session:
            assert not session.closed
        assert session.closed

    def test_rank_executor_reused_across_runs(self):
        """Tree-walker ranks keep their rank threads, on one executor."""
        program = _compile_heat((2, 1))
        with Session() as session:
            plan = session.plan(program, backend="interpreter")
            for _ in range(4):
                plan.run(_heat_fields(), [2])
            assert session.metrics.get("runs") == 4
            assert session.counters.rank_executors_created == 1
            assert plan.runs_completed == 4
            # The session counts every plan's runs, session.run's included;
            # a plan counts only its own.
            second = session.plan(program)
            second.run(_heat_fields(), [1])
            session.run(program, _heat_fields(), [1])
            assert session.metrics.get("runs") == 6
            assert (plan.runs_completed, second.runs_completed) == (4, 1)

    def test_plan_buffers_cached_across_runs(self):
        program = _compile_heat((2, 1))
        with Session() as session:
            plan = session.plan(program)
            fields = _heat_fields()
            plan.run(fields, [2])
            (buffers,) = plan._free
            assert buffers is not None
            plan.run(_heat_fields(), [2])
            assert plan._free == [buffers], "same shapes must reuse the buffers"
            reference = _heat_fields()
            run_once(program, reference, [2])
            repeated = _heat_fields()
            plan.run(repeated, [2])
            assert np.array_equal(repeated[0], reference[0])
            assert np.array_equal(repeated[1], reference[1])

    def test_session_runs_local_programs_too(self):
        module = build_jacobi_module()
        program = compile_stencil_program(module, cpu_target())
        data = np.zeros(10)
        data[1:9] = np.arange(8, dtype=float)
        a, b = data.copy(), data.copy()
        with Session() as session:
            plan = session.plan(program)
            result = plan.run([a, b], [3])
        assert result.runtime == "local" and not result.degraded
        assert np.allclose(b, jacobi_reference(data, 3))


def run_once(program, fields, scalars=(), **config):
    """Plan, run once, dispose — on the process-wide default session."""
    return default_session().run(program, fields, scalars, **config)


# ---------------------------------------------------------------------------
# held plan vs one-shot run: {threads, processes} x {1, 2 threads_per_rank}
# ---------------------------------------------------------------------------

PARITY_CELLS = [
    ("threads", 1), ("threads", 2),
    pytest.param("processes", 1, marks=needs_processes),
    pytest.param("processes", 2, marks=needs_processes),
]


@pytest.mark.parametrize("runtime,threads_per_rank", PARITY_CELLS)
def test_plan_matches_session_run_bit_identically(runtime, threads_per_rank):
    """plan.run == Session.run: fields, ExecStatistics and CommStatistics."""
    program = _compile_heat((2, 2))
    once_fields = _heat_fields()
    once = run_once(
        program, once_fields, [3],
        runtime=runtime, threads_per_rank=threads_per_rank,
    )
    with Session(runtime=runtime, threads_per_rank=threads_per_rank) as session:
        plan = session.plan(program)
        for repeat in range(3):  # repeated runs reuse buffers and must agree
            plan_fields = _heat_fields()
            result = plan.run(plan_fields, [3])
            for mine, theirs in zip(plan_fields, once_fields):
                assert np.array_equal(mine, theirs), (
                    f"{runtime} x{threads_per_rank} repeat {repeat}: "
                    "fields diverged from the one-shot path"
                )
            assert result.statistics == once.statistics
            assert result.comm_statistics == once.comm_statistics
            assert result.messages_sent == once.messages_sent > 0
            assert result.runtime == once.runtime == runtime
            assert result.threads_per_rank == threads_per_rank


def test_plan_local_matches_session_run():
    module = build_jacobi_module()
    program = compile_stencil_program(module, cpu_target())
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    a1, b1 = data.copy(), data.copy()
    once = run_once(program, [a1, b1, 4])
    a2, b2 = data.copy(), data.copy()
    with Session() as session:
        result = session.plan(program).run([a2, b2], [4])
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert result.statistics == once.statistics


@needs_processes
def test_plan_holds_leases_across_runs():
    """A held plan's shared blocks persist: every re-run reuses all of them."""
    program = _compile_heat((2, 1))
    with Session(runtime="processes") as session:
        plan = session.plan(program)
        first = plan.run(_heat_fields(), [2])
        assert first.comm_statistics.bytes_elided > 0
        second = plan.run(_heat_fields(), [2])
        # 2 ranks x 2 fields leased once and kept across runs.
        assert second.comm_statistics.shared_blocks_reused == 4
        assert session.worker_pools_created == 1


# ---------------------------------------------------------------------------
# runtime fallback warning
# ---------------------------------------------------------------------------

def test_fallback_warns_and_records_request(monkeypatch):
    import repro.runtime as runtime_module

    monkeypatch.setattr(runtime_module, "processes_available", lambda: False)
    program = _compile_heat((2, 1))
    with Session() as session:
        with pytest.warns(RuntimeFallbackWarning, match="falling back"):
            result = session.run(program, _heat_fields(), [1], runtime="processes")
    assert result.runtime == "threads"
    assert result.runtime_requested == "processes"
    assert result.degraded
    assert result.messages_sent > 0


def test_no_fallback_warning_when_runtime_honoured():
    program = _compile_heat((2, 1))
    with Session() as session:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeFallbackWarning)
            result = session.run(program, _heat_fields(), [1], runtime="threads")
    assert result.runtime == result.runtime_requested == "threads"
    assert not result.degraded


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

def test_threads_warmup_prespawns_executor_and_team():
    program = _compile_heat((2, 1))
    with Session(runtime="threads", threads_per_rank=2) as session:
        session.warmup(program)  # two ranks: the program's rank grid
        assert session.counters.warmups == 1
        assert session.counters.rank_executors_created == 1
        assert session.counters.thread_teams_created == 1
        plan = session.plan(program)
        plan.run(_heat_fields(), [2])
        # The first run found everything already spawned.
        assert session.counters.rank_executors_created == 1
        assert session.counters.thread_teams_created == 1


@needs_processes
def test_process_warmup_prespawns_pool_and_ships_program():
    program = _compile_heat((2, 1))
    with Session(runtime="processes") as session:
        plan = session.plan(program)
        plan.warmup()
        assert session.worker_pools_created == 1
        pool = session._pool_manager.pool
        shipped = pool.programs_shipped
        assert shipped == 2  # one copy per worker, shipped at warm-up
        plan.run(_heat_fields(), [2])
        # The run spawned nothing and shipped nothing new.
        assert session.worker_pools_created == 1
        assert session._pool_manager.pool is pool
        assert pool.programs_shipped == shipped


@needs_processes
def test_plan_warmup_honours_plan_runtime_override():
    """A plan's runtime override (not the session default) gets warmed."""
    program = _compile_heat((2, 1))
    with Session() as session:  # session default: threads
        plan = session.plan(program, runtime="processes")
        plan.warmup()
        assert session.worker_pools_created == 1, (
            "plan.warmup() must pre-spawn the plan's runtime, not the session's"
        )
        pool = session._pool_manager.pool
        assert pool is not None and pool.programs_shipped == 2
        plan.run(_heat_fields(), [1])
        assert session.worker_pools_created == 1
        assert pool.programs_shipped == 2


def test_plan_rejects_scalar_in_fields():
    """Scalars mixed into the distributed fields list get a clear error."""
    program = _compile_heat((2, 1))
    with Session() as session:
        plan = session.plan(program)
        u0, u1 = _heat_fields()
        with pytest.raises(ExecutionError, match="not a numpy array"):
            plan.run([u0, u1, 2])  # timesteps belongs in scalars


def test_concurrent_runs_on_one_plan_serialize():
    """Two caller threads sharing one plan must not corrupt each other."""
    import threading

    program = _compile_heat((2, 1))
    reference = _heat_fields()
    run_once(program, reference, [2])
    with Session() as session:
        plan = session.plan(program)
        errors = []

        def hammer():
            try:
                for _ in range(4):
                    fields = _heat_fields()
                    plan.run(fields, [2])
                    assert np.array_equal(fields[0], reference[0])
                    assert np.array_equal(fields[1], reference[1])
            except Exception as err:  # noqa: BLE001 - assert in the main thread
                errors.append(err)

        callers = [threading.Thread(target=hammer) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
        assert not errors, f"concurrent plan runs corrupted results: {errors}"


@pytest.mark.parametrize(
    "runtime", ["threads", pytest.param("processes", marks=needs_processes)]
)
def test_plan_recycles_one_buffer_set_per_concurrent_run(runtime):
    """The plan's free list holds at most a set per run it hosted at once."""
    program = _compile_heat((2, 1))
    reference = _heat_fields()
    run_once(program, reference, [3])
    with Session(runtime=runtime) as session:
        plan = session.plan(program)
        outputs = [_heat_fields(), _heat_fields()]
        start = threading.Barrier(2)

        def run(fields):
            start.wait(timeout=60)
            plan.run(fields, [3])

        callers = [threading.Thread(target=run, args=(f,)) for f in outputs]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
        for fields in outputs:
            assert np.array_equal(fields[0], reference[0])
            assert np.array_equal(fields[1], reference[1])
        assert 1 <= len(plan._free) <= 2
        free = {id(buffers) for buffers in plan._free}
        plan.run(_heat_fields(), [3])
        assert {id(buffers) for buffers in plan._free} == free
        plan.close()
        if runtime == "processes":
            pool = session._field_pool
            assert sum(map(len, pool._free.values())) == len(pool._owned) >= 4


@pytest.mark.parametrize("runtime", FAILURE_WORLDS)
def test_rank_failing_mid_run_raises_the_root_cause_at_once(runtime, exploding_rank):
    """``plan.run`` is a round of one: the semantics ``tests/test_serve.py``
    pins for a served job — root cause, no waiting on the victim's 5 s comm
    timeout, executor/pool retired once, plan still usable — hold here too."""
    program = _compile_heat((2, 1))
    reference = _heat_fields()
    run_once(program, reference, [2])
    with Session(runtime=runtime, timeout=5.0) as session:
        plan = session.plan(program)
        plan.run(_heat_fields(), [2])
        began = time.monotonic()
        if runtime == "processes":
            with pytest.raises(WorkerError, match="rank 1 exploded") as info:
                plan.run(_heat_fields(), [POISON_STEPS])
            assert info.value.failure.exception == "RuntimeError"
            assert session.metrics.get("worker.errors") == 1
        else:
            with pytest.raises(RuntimeError, match="^rank 1 exploded$"):
                plan.run(_heat_fields(), [POISON_STEPS])
        assert time.monotonic() - began < 1.0
        assert plan._free == [], "a failed run must not hand its buffers back"
        fields = _heat_fields()
        plan.run(fields, [2])
        assert np.array_equal(fields[0], reference[0])
        assert np.array_equal(fields[1], reference[1])
        # The pool that hosted the failed rank is retired once; scheduled
        # thread-world ranks never occupy the rank executor.
        created = (session.worker_pools_created if runtime == "processes"
                   else session.counters.rank_executors_created)
        assert created == (2 if runtime == "processes" else 0)
        assert session.metrics.get("round.ranks_threaded") == 0
        assert plan.runs_completed == 2


def test_silent_thread_job_fails_at_the_collector_deadline(monkeypatch):
    """A threaded job (tree-walker ranks) whose ranks never report fails as
    a process job does: the collector's ``WorkerError``, counted in
    ``worker.errors``, and the rank executor its silent ranks occupy is
    replaced."""
    import repro.core.rank as rank_module
    from repro.runtime import worker_pool

    monkeypatch.setattr(worker_pool, "REPORT_MARGIN", 0.0)
    run_rank = rank_module.run_rank

    def stalling(program, function, config, args, **context):
        if args[-1] == POISON_STEPS:
            time.sleep(1.0)
        return run_rank(program, function, config, args, **context)

    monkeypatch.setattr(rank_module, "run_rank", stalling)
    program = _compile_heat((2, 1))
    with Session(timeout=0.3) as session:
        plan = session.plan(program, backend="interpreter")
        plan.run(_heat_fields(), [2])
        began = time.monotonic()
        with pytest.raises(WorkerError, match="did not report within 0.3s"):
            plan.run(_heat_fields(), [POISON_STEPS])
        assert time.monotonic() - began < 0.9
        assert session.metrics.get("worker.errors") == 1
        plan.run(_heat_fields(), [2])
        assert session.counters.rank_executors_created == 2


@pytest.mark.parametrize("runtime", FAILURE_WORLDS)
def test_fault_inside_a_megakernel_leaks_nothing(runtime, exploding_kernel):
    """Every rank's generated kernel raises mid-step 2, buffers half written:
    the typed error arrives within the timeout, no shared-memory segment or
    rank thread outlives the sessions, and the same session then runs the
    program bit-identically to a fresh one."""
    threads_before, segments_before = set(threading.enumerate()), shm_segments()
    with Session(runtime=runtime, timeout=5.0) as session:
        plan = session.plan(_compile_heat((2, 1)))
        began = time.monotonic()
        if runtime == "processes":
            with pytest.raises(WorkerError, match="injected fault in step 2") as info:
                plan.run(_heat_fields(), [POISON_STEPS])
            assert info.value.failure.exception == "FloatingPointError"
        else:
            with pytest.raises(FloatingPointError, match="^injected fault in step 2$"):
                plan.run(_heat_fields(), [POISON_STEPS])
        assert time.monotonic() - began < 5.0
        survived = _heat_fields()
        plan.run(survived, [3])
        assert session.metrics.get("megakernel.engaged") == 2
        # The thread world ran every rank on its scheduler, none on a thread.
        assert session.metrics.get("round.ranks_threaded") == 0
        if runtime == "processes":
            # The halos travelled through message blocks, which the leak
            # check below must therefore see unlinked.
            prefix = session._pool_manager.pool.block_prefix
            assert any(name.startswith(prefix) for name in shm_segments())
    fresh = _heat_fields()
    with Session(runtime=runtime) as other:
        other.run(_compile_heat((2, 1)), fresh, [3])
    assert [field.tobytes() for field in survived] == [
        field.tobytes() for field in fresh]
    deadline = time.monotonic() + 10.0  # pool threads wind down after close
    while True:
        leaked_threads = set(threading.enumerate()) - threads_before
        leaked_segments = shm_segments() - segments_before
        if not (leaked_threads or leaked_segments) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not leaked_threads, leaked_threads
    assert not leaked_segments, leaked_segments


# ---------------------------------------------------------------------------
# the default session
# ---------------------------------------------------------------------------

def test_default_session_is_replaced_after_close():
    first = default_session()
    first.close()
    second = default_session()
    assert second is not first and not second.closed


def test_default_session_owns_its_runtime():
    """An ordinary session: its own pool manager and field pool, released on
    close like any other."""
    session = default_session()
    other = Session()
    assert session._pool_manager is not other._pool_manager
    assert session._field_pool is not other._field_pool
    other.close()
    session.close()
    assert session._pool_manager.pool is None
