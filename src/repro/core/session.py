"""Explicit execution lifecycle: sessions own runtime resources, plans own
the per-program hot path.

The paper's stack compiles once and runs many times; this module gives that
shape a first-class API:

* :class:`~repro.core.config.ExecutionConfig` — one validated configuration
  object shared by every frontend (see :mod:`repro.core.config`);
* :class:`Session` — a context manager that *owns* the execution resources:
  the persistent OS-process worker pool, the shared-memory field-block
  pool, the intra-rank thread teams and the thread-world rank executor.
  ``warmup()`` pre-spawns them, ``close()`` releases them, and every plan of
  the session reuses them across runs;
* :class:`Plan` — returned by :meth:`Session.plan`; pre-resolves everything
  per-run work used to recompute: the default-function lookup, the
  megakernel trace, the decomposition strategy and the scatter/gather slice
  plans — all read off the program, whose rank grid fixes the rank count and
  whose field bounds fix the layout of a global array — and the
  shared-memory block leases.  ``plan.run(fields, scalars)`` is therefore a
  thin hot path suitable for serving many requests.

There is one way to run a round of ranks: :meth:`Plan.prepare` stages a job
(a :class:`PreparedRun`), :meth:`Session.execute_batch` launches every rank
of every job of the round and applies the one deadline / fail-fast /
retirement policy, and :meth:`PreparedRun.finish` gathers.  ``plan.run()`` is
that sequence with one job; :mod:`repro.serve` packs many.  Every rank of
every world — local, thread, process worker — is executed by
:func:`repro.core.rank.run_rank`; this module only decides who owns what and
moves the data.
"""

from __future__ import annotations

import atexit
import threading
import time
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .. import runtime as _process_runtime
from ..interp import SimulatedMPI
from ..interp.codegen import CodegenFallback
from ..interp.mpi_runtime import CommStatistics, MPIRuntimeError, merge_comm_statistics
from ..interp.thread_team import ThreadTeam
from ..obs import MetricsRegistry, Tracer, TraceTimeline
from ..runtime.stats import sort_rank_stats
from ..runtime.worker_pool import REPORT_MARGIN, PoolBatchJob, WorkerError
from ..transforms.distribute import GridSlicingStrategy
from .config import ExecutionConfig, ExecutionError, RuntimeFallbackWarning
from .executor import ExecutionResult, core_field_slices, local_field_slices
from .pipeline import CompiledProgram
from .rank import codegen_wanted, megakernel_trace, run_rank


def _default_function(program: CompiledProgram) -> str:
    names = sorted(program.function_names)
    if not names:
        raise ExecutionError("compiled module contains no function definitions")
    if "kernel" in names:
        return "kernel"
    if len(names) == 1:
        return names[0]
    raise ExecutionError(
        "compiled module defines several functions "
        f"({', '.join(repr(n) for n in names)}) and none is named 'kernel'; "
        "pass function=... to select one"
    )


@dataclass
class SessionCounters:
    """Observable lifecycle counters (tests assert reuse across runs)."""

    plans_created: int = 0
    warmups: int = 0
    #: Thread-world rank executors constructed (reuse keeps this at 1).
    rank_executors_created: int = 0
    #: Session-owned intra-rank thread teams constructed.
    thread_teams_created: int = 0


class Session:
    """Owns the execution runtime: worker pool, shared blocks, thread teams.

    ::

        with Session(ExecutionConfig(runtime="processes")) as session:
            plan = session.plan(program)
            for request in requests:
                plan.run([u0, u1], [timesteps])   # thin, amortized hot path

    A session is cheap to construct — resources are spawned on first use, or
    ahead of time by :meth:`warmup`.  ``close()`` (or leaving the
    ``with`` block) releases everything the session created; a closed session
    rejects further work.  One-shot callers can use :meth:`run`, which builds
    and disposes a plan around a single execution (itself a round of one
    job, see :meth:`execute_batch`).  Megakernels are cached on
    the compiled program, so every plan and session running it shares them.
    """

    def __init__(self, config: Optional[ExecutionConfig] = None, **overrides):
        self.config = ExecutionConfig.coerce(config, **overrides)
        self.counters = SessionCounters()
        #: Unified counter registry: every run's ExecStatistics/CommStatistics
        #: are ingested here (``exec.*`` / ``comm.*``) alongside session-level
        #: counters such as megakernel cache hits and worker errors.
        self.metrics = MetricsRegistry()
        #: Lifecycle tracer ("session" track) when the session config traces.
        self.tracer: Optional[Tracer] = (
            Tracer(self.config.trace, track="session")
            if self.config.trace != "off" else None
        )
        self._last_trace: Optional[TraceTimeline] = None
        self._closed = False
        self._lock = threading.Lock()
        #: Serializes thread-world runs: interleaving two SPMD worlds on one
        #: bounded executor could starve ranks of a partially-admitted run.
        self._thread_run_lock = threading.Lock()
        self._plans: list[Plan] = []
        self._teams: dict[int, ThreadTeam] = {}
        self._rank_executor: Optional[ThreadPoolExecutor] = None
        self._rank_executor_size = 0
        #: The session's own worker pool and shared-memory field blocks.
        self._pool_manager = _process_runtime.PoolManager()
        self._field_pool = _process_runtime.SharedFieldPool()

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_pools_created(self) -> int:
        """How many OS-process worker pools this session's manager spawned."""
        return self._pool_manager.pools_created

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is closed; create a new Session")

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release every resource this session created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for plan in list(self._plans):
            plan.close()
        with self._lock:
            if self._rank_executor is not None:
                self._rank_executor.shutdown(wait=False)
                self._rank_executor = None
                self._rank_executor_size = 0
            for team in self._teams.values():
                team.shutdown()
            self._teams.clear()
        self._pool_manager.shutdown()
        self._field_pool.clear()

    def warmup(
        self,
        program: Optional[CompiledProgram] = None,
        *,
        ranks: Optional[int] = None,
        threads_per_rank: Optional[int] = None,
        runtime: Optional[str] = None,
    ) -> None:
        """Pre-spawn the runtime so the first ``plan.run()`` pays no latency.

        Spawns the worker processes (``runtime="processes"``) or the rank
        threads (``runtime="threads"``), the intra-rank thread teams on both
        sides, and — when ``program`` is given — ships the pickled program to
        the workers ahead of the first run.  ``ranks`` defaults to the
        program's rank grid (no ranks: only the thread team); ``runtime``
        defaults to the session config's (``Plan.warmup`` passes the plan's
        resolved runtime, which may override the session's).
        """
        self._ensure_open()
        config = self.config
        span = self.tracer.begin("session.warmup") if self.tracer is not None else 0.0
        if ranks is None and program is not None \
                and program.target.rank_grid is not None:
            ranks = GridSlicingStrategy(program.target.rank_grid).rank_count
        threads = threads_per_rank if threads_per_rank is not None \
            else config.threads_per_rank
        runtime = runtime if runtime is not None else config.runtime
        if ranks is not None and ranks >= 1:
            if runtime == "processes" and \
                    _process_runtime.processes_available():
                self._pool_manager.warmup(ranks, threads, timeout=config.timeout)
                if program is not None:
                    pool = self._pool_manager.acquire(ranks)
                    pool.ship_program(program, ranks)
            else:
                self._prespawn_rank_threads(ranks)
                if threads > 1:
                    self._team(threads)
        elif threads > 1:
            self._team(threads)
        if self.tracer is not None:
            self.tracer.end("session.warmup", span)
        self.counters.warmups += 1

    def dump_trace(self, path: str) -> str:
        """Write the most recent traced run's timeline as Chrome trace JSON.

        The file loads directly in Perfetto (ui.perfetto.dev) or
        ``chrome://tracing``: one track per rank plus the compile, session and
        plan tracks.  Requires a prior run with ``trace="timeline"`` or
        ``trace="summary"`` on this session.
        """
        if self._last_trace is None:
            raise ExecutionError(
                "no traced run to dump; run a plan with "
                "ExecutionConfig(trace='timeline') (or REPRO_TRACE=timeline) "
                "first"
            )
        self._last_trace.dump(path)
        return path

    # -- planning and running -------------------------------------------------
    def plan(
        self,
        program: CompiledProgram,
        function: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> "Plan":
        """Pre-resolve one program/function pair for repeated execution.

        ``config`` (default: the session's) with ``overrides`` applied
        configures the plan; the plan is tracked by the session and released
        with it (or earlier via ``plan.close()``).
        """
        self._ensure_open()
        resolved = ExecutionConfig.coerce(config or self.config, **overrides)
        plan = Plan(self, program, function, resolved)
        self._plans.append(plan)
        self.counters.plans_created += 1
        return plan

    def run(
        self,
        program: CompiledProgram,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any] = (),
        *,
        function: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> ExecutionResult:
        """One-shot convenience: plan, run once, dispose the plan.

        The same path as a held plan, minus the amortization: buffers and
        slice plans are rebuilt per call.  Hold a :meth:`plan` to keep them.
        """
        plan = self.plan(program, function, config, **overrides)
        try:
            return plan.run(fields, scalars)
        finally:
            plan.close()

    # -- session-owned resources ----------------------------------------------
    def _team(self, size: int) -> Optional[ThreadTeam]:
        """The session-owned intra-rank thread team of ``size`` threads."""
        if size <= 1:
            return None
        with self._lock:
            team = self._teams.get(size)
            if team is None:
                team = ThreadTeam(size)
                self._teams[size] = team
                self.counters.thread_teams_created += 1
            return team

    def _acquire_rank_executor(self, size: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._rank_executor is None or self._rank_executor_size < size:
                if self._rank_executor is not None:
                    self._rank_executor.shutdown(wait=False)
                self._rank_executor = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-session-rank"
                )
                self._rank_executor_size = size
                self.counters.rank_executors_created += 1
            return self._rank_executor

    def _discard_rank_executor(self) -> None:
        """Drop a poisoned executor (stale blocked rank threads occupy it)."""
        with self._lock:
            if self._rank_executor is not None:
                self._rank_executor.shutdown(wait=False)
                self._rank_executor = None
                self._rank_executor_size = 0

    def _prespawn_rank_threads(self, size: int) -> None:
        """Force the rank executor to actually start ``size`` worker threads."""
        executor = self._acquire_rank_executor(size)
        barrier = threading.Barrier(size)
        futures = [executor.submit(barrier.wait, 30.0) for _ in range(size)]
        done, pending = futures_wait(futures, timeout=60.0)
        if pending or any(f.exception() is not None for f in done):
            self._discard_rank_executor()
            raise ExecutionError("session warm-up failed to start rank threads")

    def execute_batch(self, prepared: Sequence["PreparedRun"]) -> None:
        """Run independent prepared runs — one or many — as ONE round.

        The single dispatch primitive: ``plan.run()`` is a round of one job,
        the serving layer (:mod:`repro.serve`) packs many.  Process-world
        jobs partition the worker pool (``PoolManager.run_program_batch``),
        thread-world and local jobs partition the persistent rank executor —
        each distributed job in a private :class:`SimulatedMPI` world of its
        own size, each local job in one slot — so N small jobs pay the
        dispatch latency (lock handoff, executor or pool round trip, join)
        once instead of N times.  A round that is a single thread-world or
        local rank has nothing to run beside it and runs in the calling
        thread.

        One failure policy, the same in both worlds: a job is failed the
        moment any of its ranks raises, and that first error — the root
        cause, not a peer's later timeout — is recorded on *its*
        :class:`PreparedRun` (``finish()`` re-raises it).  Its remaining
        ranks are abandoned to their communication timeouts; sibling jobs
        keep running and the round returns as soon as every job has completed
        or failed, ``REPORT_MARGIN`` past the longest job timeout at the
        latest.  Ranks still running when the round returns poison what
        hosts them — the rank executor, the worker pool — which is retired
        and transparently replaced by the next round.
        """
        self._ensure_open()
        pooled = [job for job in prepared if job.runtime == "processes"]
        threaded = [job for job in prepared if job.runtime != "processes"]
        if pooled:
            self._run_pooled_round(pooled)
        if threaded:
            self._run_threaded_round(threaded)

    def _run_pooled_round(self, jobs: Sequence["PreparedRun"]) -> None:
        """The process-world jobs of a round, on the partitioned worker pool."""
        try:
            outcomes = self._pool_manager.run_program_batch(
                [
                    PoolBatchJob(
                        job.plan.program, job.plan.function, job.plan.config,
                        job.buffers.specs, job.scalars,
                    )
                    for job in jobs
                ],
                max(job.plan.config.timeout for job in jobs),
            )
        except WorkerError as error:  # the round itself could not run
            outcomes = [error] * len(jobs)
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, WorkerError):
                job.error = outcome
                self.metrics.inc("worker.errors")
                if job.plan.tracer is not None:
                    job.plan.tracer.instant("worker.error")
            else:
                job.reports = outcome

    def _run_threaded_round(self, jobs: Sequence["PreparedRun"]) -> None:
        """The thread-world and local jobs of a round, on the rank executor."""
        for job in jobs:
            if job.plan.distributed:
                job.world = SimulatedMPI(job.size, timeout=job.plan.config.timeout)
        total = sum(job.size for job in jobs)
        if total == 1:
            (job,) = jobs
            try:
                job.body(job.world.communicator(0) if job.world else None)
            except BaseException as error:  # noqa: BLE001 - finish() re-raises
                job.error = error
            return
        deadline = time.monotonic() + REPORT_MARGIN + max(
            job.plan.config.timeout for job in jobs
        )
        with self._thread_run_lock:
            executor = self._acquire_rank_executor(total)
            running = {
                executor.submit(
                    job.body, job.world.communicator(rank) if job.world else None
                ): job
                for job in jobs for rank in range(job.size)
            }
            abandoned = []
            while running:
                done = futures_wait(
                    running, timeout=max(0.0, deadline - time.monotonic()),
                    return_when=FIRST_EXCEPTION,
                )[0]
                for future in done:
                    job = running.pop(future)
                    job.error = job.error or future.exception()
                if not done:  # the round deadline passed
                    for job in running.values():
                        job.error = job.error or MPIRuntimeError(
                            f"job rank(s) did not finish within "
                            f"{job.plan.config.timeout}s (deadlock?)"
                        )
                # The other ranks of a failed job are abandoned, not awaited.
                stuck = [f for f, job in running.items() if job.error is not None]
                for future in stuck:
                    del running[future]
                abandoned += stuck
            if not all(future.done() for future in abandoned):
                self._discard_rank_executor()


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _field_signature(fields: Sequence[np.ndarray]) -> tuple:
    """The layout key of a field list: per-array (shape, dtype)."""
    return tuple((array.shape, array.dtype.str) for array in fields)


class _RunBuffers:
    """Per-field-signature state a plan reuses across runs.

    Holds the pre-computed scatter/gather slice tuples for every
    (rank, field) pair plus the per-rank local buffers: preallocated NumPy
    arrays for the thread world, leased shared-memory blocks (kept across
    runs) for the process world.
    """

    __slots__ = ("signature", "scatter_slices", "gather_slices", "locals",
                 "leases", "specs", "pool_generation", "fresh_reused", "runs")

    def __init__(self):
        self.signature = None
        self.scatter_slices: list[list[tuple]] = []
        self.gather_slices: list[list[tuple[tuple, tuple]]] = []
        self.locals: list[list[np.ndarray]] = []
        self.leases: list[list] = []
        self.specs: list[list] = []
        self.pool_generation = -1
        self.fresh_reused = 0
        self.runs = 0


class Plan:
    """A pre-resolved execution of one function of one compiled program.

    Construction performs every piece of work that does not depend on the
    field arrays — function lookup, megakernel tracing (which compiles the
    nests), decomposition geometry, runtime fallback resolution — and the
    first :meth:`run` additionally fixes the scatter/gather slice plans and
    buffers for the observed field shapes.  Subsequent runs only scatter,
    execute and gather.
    """

    def __init__(
        self,
        session: Session,
        program: CompiledProgram,
        function: Optional[str],
        config: ExecutionConfig,
    ):
        self.session = session
        self.program = program
        self.config = config
        #: Lifecycle tracer ("plan" track): plan.build, run.scatter/run.gather
        #: spans land here when the plan's config traces.
        self.tracer: Optional[Tracer] = (
            Tracer(config.trace, track="plan") if config.trace != "off" else None
        )
        build_span = self.tracer.begin("plan.build") if self.tracer is not None else 0.0
        self.function = function or _default_function(program)
        self.distributed = (
            program.distribution is not None and program.target.rank_grid is not None
        )
        self.runs_completed = 0
        self._closed = False
        self._buffers: Optional[_RunBuffers] = None
        #: Serializes the scatter-execute-gather span: the plan's local
        #: buffers are shared state, so two threads racing the same plan
        #: would overwrite each other's inputs mid-run.
        self._run_lock = threading.Lock()

        if self.distributed:
            self.runtime_requested = config.runtime
            runtime = config.runtime
            if runtime == "processes" and not _process_runtime.processes_available():
                runtime = "threads"
                warnings.warn(
                    "runtime='processes' was requested but the process runtime "
                    "is unavailable on this platform; falling back to "
                    "runtime='threads' (bit-identical results, no multi-core "
                    "scaling). Compare ExecutionResult.runtime_requested with "
                    ".runtime to detect degraded runs.",
                    RuntimeFallbackWarning,
                    stacklevel=3,
                )
            self.runtime = runtime
        else:
            self.runtime = self.runtime_requested = "local"

        self._func_op = program.functions[self.function]

        #: Why the megakernel tier is not running this plan, when it was
        #: wanted (see :func:`repro.core.rank.codegen_wanted`) but rejected.
        self.codegen_fallback: Optional[CodegenFallback] = None
        # Trace the function now, so an untraceable program records its
        # reason before the first run.  Process-world plans skip the parent-side trace: workers trace
        # (and cache) their own from the shipped program and report the
        # reason with their rank statistics (see PreparedRun.finish).
        if codegen_wanted(config) and self.runtime != "processes":
            self.compile()

        if self.distributed:
            self.strategy = GridSlicingStrategy(program.target.rank_grid)
            distribution = program.distribution
            domain = distribution.local_domain
            self.halo_lower = domain.halo_lower
            self.halo_upper = domain.halo_upper
            self.global_shape = distribution.global_shape
            #: A global array is laid out as its field's bounds.
            self.margin = distribution.margin_lower
            self.field_shape = tuple(
                lower + extent + upper for lower, extent, upper in zip(
                    distribution.margin_lower, self.global_shape,
                    distribution.margin_upper,
                )
            )
        if self.tracer is not None:
            self.tracer.end("plan.build", build_span)

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the plan's buffers (leased shared blocks return to the pool)."""
        if self._closed:
            return
        self._closed = True
        self._release_buffers()
        try:
            self.session._plans.remove(self)
        except ValueError:
            pass

    def _release_buffers(self) -> None:
        buffers = self._buffers
        self._buffers = None
        if buffers is not None:
            _release_run_buffers(buffers)

    def warmup(self) -> None:
        """Pre-spawn this plan's runtime (workers, teams) and ship the program."""
        ranks = self.strategy.rank_count if self.distributed else None
        self.session.warmup(
            self.program if self.runtime == "processes" else None,
            ranks=ranks,
            threads_per_rank=self.config.threads_per_rank,
            # The plan's *resolved* runtime: it may override the session's,
            # and a processes->threads fallback must warm threads instead.
            runtime=self.runtime if self.distributed else "threads",
        )

    # -- megakernel codegen ---------------------------------------------------
    def compile(self):
        """Trace the plan's function for megakernel execution.

        Called automatically at construction whenever the configuration
        engages codegen; callable explicitly to see why a plan does not.
        Returns the trace, or None with the reason recorded on
        :attr:`codegen_fallback`.  The generated
        function itself is emitted (and cached on the program) on first run,
        when the concrete buffer layout is known.
        """
        found = megakernel_trace(self.program, self.function)
        if isinstance(found, CodegenFallback):
            self.codegen_fallback = found
            return None
        return found

    def _record_fallback(self, fallback: CodegenFallback) -> None:
        self.codegen_fallback = fallback

    def _run_rank(self, args: Sequence[Any], comm, tracer: Optional[Tracer]):
        """One rank of this plan through the shared rank-execution path."""
        return run_rank(
            self.program, self.function, self.config, args,
            comm=comm,
            team=self.session._team(self.config.threads_per_rank),
            tracer=tracer,
            metrics=self.session.metrics,
            on_fallback=self._record_fallback,
        )

    # -- the hot path ---------------------------------------------------------
    def prepare(
        self,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any] = (),
        buffers: Optional[_RunBuffers] = None,
    ) -> "PreparedRun":
        """Stage one run for a :meth:`Session.execute_batch` round.

        The returned :class:`PreparedRun` owns its buffer set, so many jobs
        of the same plan can be in flight inside one round.  ``buffers``
        hands it a previous job's set to recycle when the signature still
        matches (the serving layer keeps a small free list per plan,
        :meth:`run` keeps the plan's own); the job owns that set from here
        on and releases it if it does not fit or staging fails.
        """
        if self._closed:
            raise ExecutionError("plan is closed; create a new plan")
        self.session._ensure_open()
        return PreparedRun(self, fields, scalars, buffers)

    def run(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any] = ()
    ) -> ExecutionResult:
        """Execute once: scatter, run every rank, gather.  Repeatable.

        A run *is* a round of one job: the same :meth:`prepare` →
        :meth:`Session.execute_batch` → :meth:`PreparedRun.finish` sequence
        the serving layer drives, recycling the plan's own buffer set.
        """
        # The plan's buffers are shared state: serialize the whole
        # scatter-execute-gather span against concurrent callers.
        with self._run_lock:
            # The job owns them while it runs and only a run that finished
            # hands them back: ranks abandoned by a failed one may still be
            # writing into them.
            held, self._buffers = self._buffers, None
            job = self.prepare(fields, scalars, buffers=held)
            try:
                self.session.execute_batch([job])
                result = job.finish()
            except BaseException:
                job.release()
                raise
            self._buffers = job.buffers
            return result

    def _finish_run(self, result: ExecutionResult) -> None:
        """Post-run bookkeeping: lifecycle counters and the metric ingest."""
        self.runs_completed += 1
        metrics = self.session.metrics
        metrics.inc("runs")
        metrics.ingest_all(result.statistics, "exec.")
        if result.comm_statistics is not None:
            metrics.ingest(result.comm_statistics, "comm.")

    def _buffers_valid(
        self, buffers: Optional[_RunBuffers], fields: Sequence[np.ndarray]
    ) -> bool:
        """Whether a buffer set still matches these fields (and the pool)."""
        if buffers is None or buffers.signature != _field_signature(fields):
            return False
        return self.runtime != "processes" or \
            buffers.pool_generation == self.session._field_pool.generation

    def _build_buffers(self, fields: Sequence[np.ndarray]) -> _RunBuffers:
        """Fresh slice plans and local buffers for these field shapes.

        One set per in-flight job, so a round can run several jobs of the
        *same* plan concurrently; sets are recycled through
        :meth:`prepare`'s ``buffers`` argument.
        """
        for index, array in enumerate(fields):
            if array.shape != self.field_shape:
                raise ExecutionError(
                    f"distributed field {index} has shape {array.shape}, but "
                    f"the program's field bounds lay a global array out as "
                    f"{self.field_shape}"
                )
        buffers = _RunBuffers()
        buffers.signature = _field_signature(fields)
        strategy, margin = self.strategy, self.margin
        halo_lower, halo_upper = self.halo_lower, self.halo_upper
        leased = self.runtime == "processes"
        if leased:
            pool = self.session._field_pool
            buffers.pool_generation = pool.generation
        for rank in range(strategy.rank_count):
            scatter_row, gather_row, local_row = [], [], []
            lease_row, spec_row = [], []
            for array in fields:
                slices = local_field_slices(
                    self.global_shape, strategy, rank, halo_lower, halo_upper,
                    margin,
                )
                scatter_row.append(slices)
                shape = tuple(s.stop - s.start for s in slices)
                gather_row.append(core_field_slices(
                    self.global_shape, strategy, rank, halo_lower, margin
                ))
                if leased:
                    lease = pool.lease(shape, array.dtype)
                    lease_row.append(lease)
                    spec_row.append(lease.spec)
                    local_row.append(lease.array)
                    if lease.reused:
                        buffers.fresh_reused += 1
                else:
                    local_row.append(np.empty(shape, dtype=array.dtype))
            buffers.scatter_slices.append(scatter_row)
            buffers.gather_slices.append(gather_row)
            buffers.locals.append(local_row)
            if leased:
                buffers.leases.append(lease_row)
                buffers.specs.append(spec_row)
        return buffers

    def _scatter(self, buffers: _RunBuffers, fields: Sequence[np.ndarray]) -> None:
        for rank in range(self.strategy.rank_count):
            slices_row = buffers.scatter_slices[rank]
            local_row = buffers.locals[rank]
            for index, array in enumerate(fields):
                local_row[index][...] = array[slices_row[index]]

    def _gather(self, buffers: _RunBuffers, fields: Sequence[np.ndarray]) -> None:
        for rank in range(self.strategy.rank_count):
            gather_row = buffers.gather_slices[rank]
            local_row = buffers.locals[rank]
            for index, array in enumerate(fields):
                global_slices, local_slices = gather_row[index]
                array[global_slices] = local_row[index][local_slices]

    @staticmethod
    def _check_fields(fields: Sequence[Any]) -> None:
        for index, array in enumerate(fields):
            if not isinstance(array, np.ndarray):
                raise ExecutionError(
                    f"distributed field {index} is {type(array).__name__}, "
                    "not a numpy array; pass scalar arguments (e.g. the "
                    "timestep count) via the scalars sequence"
                )

    def _check_arity(self, fields: Sequence[Any], scalars: Sequence[Any]) -> None:
        expected = len(self._func_op.body.block.args)
        provided = len(fields) + len(scalars)
        if provided != expected:
            raise ExecutionError(
                f"{self.function} expects {expected} arguments, got {provided}"
            )

    def _rank_tracers(self, size: int) -> Optional[list[Tracer]]:
        if self.config.trace == "off":
            return None
        return [
            Tracer(self.config.trace, track=f"rank {rank}")
            for rank in range(size)
        ]

    @staticmethod
    def _pooled_comm_statistics(
        buffers: _RunBuffers, reports: Sequence[Any]
    ) -> CommStatistics:
        """The world-wide counters of a finished process-world run."""
        comm = merge_comm_statistics([report.comm_stats for report in reports])
        # Copy-elision accounting: scatter wrote straight into (and gather
        # reads straight out of) the leased blocks — two memcpys per field
        # per rank elided.  On the first run of a buffer set the reuse count
        # reflects the pool's free list; afterwards every held lease is by
        # definition recycled across runs.
        comm.bytes_elided = sum(
            2 * local.nbytes for row in buffers.locals for local in row
        )
        if buffers.runs > 0:
            comm.shared_blocks_reused = sum(len(row) for row in buffers.leases)
        else:
            comm.shared_blocks_reused = buffers.fresh_reused
        buffers.runs += 1
        return comm

    def _traced_move(self, name: str, move, buffers: _RunBuffers, fields) -> None:
        """Run a scatter/gather helper under a plan-track span when tracing."""
        if self.tracer is None:
            move(buffers, fields)
            return
        span = self.tracer.begin(name)
        try:
            move(buffers, fields)
        finally:
            self.tracer.end(name, span)

    def _attach_trace(
        self, result: ExecutionResult, rank_traces: Optional[Sequence[Any]]
    ) -> ExecutionResult:
        """Merge the run's records into one timeline on ``result.trace``.

        Tracks, in order: the compile pipeline's record (captured at
        ``compile_stencil_program`` time and carried on the program), the
        session and plan lifecycle tracers, then one track per rank.  Rank
        entries may be live :class:`Tracer` instances (local/thread worlds)
        or picklable :class:`TraceRecord` payloads shipped back by process
        workers; either way their monotonic clocks are re-aligned against
        wall time by the timeline merge.
        """
        if self.config.trace == "off":
            return result
        timeline = TraceTimeline()
        timeline.add(getattr(self.program, "compile_record", None))
        session_tracer = self.session.tracer
        if session_tracer is not None:
            timeline.add(session_tracer.record())
        if self.tracer is not None:
            timeline.add(self.tracer.record())
        for entry in rank_traces or ():
            if isinstance(entry, Tracer):
                entry = entry.record()
            timeline.add(entry)
        result.trace = timeline
        self.session._last_trace = timeline
        return result

    def _result(
        self, statistics: list, comm: Optional[CommStatistics]
    ) -> ExecutionResult:
        """Assemble a result; ``comm`` is None for non-distributed runs."""
        return ExecutionResult(
            statistics=statistics,
            messages_sent=comm.messages_sent if comm is not None else 0,
            bytes_sent=comm.bytes_sent if comm is not None else 0,
            comm_statistics=comm,
            runtime=self.runtime,
            threads_per_rank=self.config.threads_per_rank,
            runtime_requested=self.runtime_requested,
        )


class PreparedRun:
    """One job of a dispatch round, staged and self-contained.

    Built by :meth:`Plan.prepare`.  Construction is the front half of a run
    — argument validation, buffers (recycled when they still fit, else
    fresh), the traced scatter — so a round only has to launch ranks:
    :meth:`body` per rank for thread-world and local jobs, the leased
    shared-memory ``buffers.specs`` for process-world ones.
    :meth:`Session.execute_batch` leaves either the job's :attr:`error` or
    its per-rank statistics/worker reports behind, and :meth:`finish` is the
    back half: the completeness check, gather, trace attachment and the
    session metric ingest.  ``plan.run()`` and a served job are this same
    sequence, so they agree bit for bit — fields, ``ExecStatistics``,
    ``CommStatistics`` — and span for span.
    """

    def __init__(
        self,
        plan: Plan,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any],
        buffers: Optional[_RunBuffers] = None,
    ):
        self.plan = plan
        self.fields = list(fields)
        self.scalars = list(scalars)
        self.runtime = plan.runtime
        self.size = plan.strategy.rank_count if plan.distributed else 1
        #: The job's SimulatedMPI world (thread-world jobs; set at dispatch).
        self.world: Optional[SimulatedMPI] = None
        #: Worker reports (process-world jobs; set at dispatch).
        self.reports: Optional[list] = None
        #: The first error of any rank of this job (leaves siblings alone).
        self.error: Optional[BaseException] = None
        self.statistics: list = [None] * self.size
        self.tracers: Optional[list[Tracer]] = None
        #: Owned from here on: released when they do not fit or staging fails.
        self.buffers = buffers
        try:
            plan._check_arity(self.fields, self.scalars)
            if plan.distributed:
                plan._check_fields(self.fields)
                if not plan._buffers_valid(self.buffers, self.fields):
                    self.release()
                    self.buffers = plan._build_buffers(self.fields)
                plan._traced_move(
                    "run.scatter", plan._scatter, self.buffers, self.fields
                )
            if self.runtime != "processes":  # workers trace their own ranks
                self.tracers = plan._rank_tracers(self.size)
        except BaseException:
            self.release()
            raise

    def body(self, comm) -> None:
        """One rank of a thread-world job, or the local job (``comm`` None)."""
        rank = comm.rank if comm is not None else 0
        local = self.buffers.locals[rank] if self.buffers is not None \
            else self.fields
        self.statistics[rank] = self.plan._run_rank(
            [*local, *self.scalars], comm,
            self.tracers[rank] if self.tracers is not None else None,
        )

    def finish(self) -> ExecutionResult:
        """Gather and assemble the result; raises the job's recorded error."""
        if self.error is not None:
            raise self.error
        plan = self.plan
        if self.runtime == "processes":
            reports = sort_rank_stats(self.reports or ())
            for report in reports:
                plan.session.metrics.merge_counts(report.counters)
                if report.codegen_fallback is not None:
                    plan.codegen_fallback = report.codegen_fallback
            statistics = [report.exec_stats for report in reports]
            traces = [report.trace for report in reports]
            comm = plan._pooled_comm_statistics(self.buffers, reports)
        else:
            statistics = [s for s in self.statistics if s is not None]
            traces = self.tracers
            comm = self.world.statistics if self.world is not None else None
        if len(statistics) != self.size:
            raise ExecutionError(
                f"{self.size - len(statistics)} rank(s) finished without "
                "reporting statistics; the round did not complete"
            )
        if plan.distributed:
            plan._traced_move("run.gather", plan._gather, self.buffers, self.fields)
        result = plan._attach_trace(plan._result(statistics, comm), traces)
        plan._finish_run(result)
        return result

    def release(self) -> None:
        """Release leased shared blocks (no-op for thread-world buffers)."""
        buffers = self.buffers
        self.buffers = None
        if buffers is not None:
            _release_run_buffers(buffers)


def _release_run_buffers(buffers: _RunBuffers) -> None:
    for rank_leases in buffers.leases:
        for lease in rank_leases:
            lease.release()


# ---------------------------------------------------------------------------
# the default session
# ---------------------------------------------------------------------------

_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session frontends fall back to when given none.

    An ordinary :class:`Session` with the default configuration, created on
    first use (``Operator.apply()``, ``PsycloneXDSLBackend.run()``), closed
    at interpreter exit, and replaced transparently if something closed it.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        session = _DEFAULT_SESSION
        if session is None or session.closed:
            if session is None:
                atexit.register(_close_default_session)
            session = _DEFAULT_SESSION = Session()
        return session


def _close_default_session() -> None:
    if _DEFAULT_SESSION is not None:
        _DEFAULT_SESSION.close()
