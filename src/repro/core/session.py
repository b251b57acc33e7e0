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
  per-run work used to recompute: the default-function lookup, the kernel
  selection, the megakernel trace, the decomposition strategy and
  halo/margin geometry, the scatter/gather slice plans and the
  shared-memory block leases.  ``plan.run(fields, scalars)`` is therefore a
  thin hot path suitable for serving many requests.

Every rank of every world — local, thread, batched, process worker — is
executed by :func:`repro.core.rank.run_rank`; this module only decides who
owns what and moves the data.
"""

from __future__ import annotations

import atexit
import threading
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .. import runtime as _process_runtime
from ..interp import SimulatedMPI
from ..interp.codegen import CodegenFallback
from ..interp.mpi_runtime import CommStatistics, MPIRuntimeError
from ..interp.thread_team import ThreadTeam
from ..obs import MetricsRegistry, Tracer, TraceTimeline
from ..runtime.stats import merge_comm_statistics, sort_rank_stats
from ..transforms.distribute import GridSlicingStrategy
from .config import (
    ExecutionConfig,
    ExecutionError,
    RuntimeFallbackWarning,
    normalize_margin,
)
from .executor import ExecutionResult, local_field_slices
from .pipeline import CompiledProgram
from .rank import codegen_wanted, kernel_for_backend, megakernel_trace, run_rank


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
    runs_completed: int = 0
    warmups: int = 0
    #: Thread-world rank executors constructed (reuse keeps this at 1).
    rank_executors_created: int = 0
    #: Session-owned intra-rank thread teams constructed.
    thread_teams_created: int = 0


class Session:
    """Owns the execution runtime: worker pool, shared blocks, thread teams.

    ::

        with Session(ExecutionConfig(runtime="processes", ranks=4)) as session:
            plan = session.plan(program)
            for request in requests:
                plan.run([u0, u1], [timesteps])   # thin, amortized hot path

    A session is cheap to construct — resources are spawned on first use, or
    ahead of time by :meth:`warmup` (also triggered by entering a session
    whose config has ``warm_start=True``).  ``close()`` (or leaving the
    ``with`` block) releases everything the session created; a closed session
    rejects further work.  One-shot callers can use :meth:`run`, which builds
    and disposes a plan around a single execution.  Megakernels are cached on
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
        if self.config.warm_start:
            self.warmup()
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
        program's rank grid, then to ``config.ranks``; ``runtime`` defaults to
        the session config's (``Plan.warmup`` passes the plan's resolved
        runtime, which may override the session's).
        """
        self._ensure_open()
        config = self.config
        span = self.tracer.begin("session.warmup") if self.tracer is not None else 0.0
        if ranks is None:
            if program is not None and program.target.rank_grid is not None:
                ranks = GridSlicingStrategy(program.target.rank_grid).rank_count
            else:
                ranks = config.ranks
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

    def _run_threads_world(self, size: int, body, timeout: float) -> SimulatedMPI:
        """Run ``body(comm)`` per rank on the persistent rank executor.

        Same semantics as ``SimulatedMPI.run_spmd`` — shared join deadline,
        fail-fast on the first rank error — but without spawning ``size``
        fresh OS threads per run.  A failed or timed-out run discards the
        executor (its blocked rank threads die on their own communication
        timeouts); the next run starts a fresh one.
        """
        with self._thread_run_lock:
            world = SimulatedMPI(size, timeout=timeout)
            executor = self._acquire_rank_executor(size)
            futures = [
                executor.submit(body, world.communicator(rank))
                for rank in range(size)
            ]
            done, pending = futures_wait(
                futures, timeout=timeout, return_when=FIRST_EXCEPTION
            )
            for future in done:
                error = future.exception()
                if error is not None:
                    self._discard_rank_executor()
                    raise error
            if pending:
                self._discard_rank_executor()
                raise MPIRuntimeError(
                    f"{len(pending)} rank(s) did not finish within {timeout}s "
                    "(deadlock?)"
                )
            return world

    def execute_batch(
        self,
        prepared: Sequence["PreparedRun"],
        timeout: Optional[float] = None,
    ) -> None:
        """Run many independent prepared runs in ONE rank-executor round.

        The batched-dispatch primitive of the serving layer
        (:mod:`repro.serve`): the persistent rank executor is partitioned
        across jobs — each distributed thread-world job gets a private
        :class:`SimulatedMPI` world of its own size, each local job one
        executor slot — and a single ``futures_wait`` covers the whole round,
        so N small jobs pay the dispatch latency (lock handoff, executor
        round trip, join) once instead of N times.

        Error isolation is per job: a failing rank records its exception on
        *its* :class:`PreparedRun` (``finish()`` re-raises it) and never
        touches sibling jobs; its own peer ranks terminate on their
        communication deadlines.  Only rank threads that are still stuck
        after the round deadline poison the executor, which is then discarded
        exactly as a failed standalone run would.

        Process-world jobs are not handled here — the serving layer routes
        them through ``PoolManager.run_program_batch``, which partitions the
        worker pool the same way.
        """
        self._ensure_open()
        jobs = [job for job in prepared if job.runtime != "processes"]
        if not jobs:
            return
        if timeout is None:
            timeout = max(job.plan.config.timeout for job in jobs)
        with self._thread_run_lock:
            total = sum(job.size for job in jobs)
            executor = self._acquire_rank_executor(total)
            groups: list[list] = []
            for job in jobs:
                if job.distributed:
                    world = SimulatedMPI(job.size, timeout=timeout)
                    job.world = world
                    futures = [
                        executor.submit(job.body, world.communicator(rank))
                        for rank in range(job.size)
                    ]
                else:
                    futures = [executor.submit(job.body, None)]
                groups.append(futures)
            pending = futures_wait(
                [future for futures in groups for future in futures],
                timeout=timeout + 10.0,
            )[1]
            if pending:
                # Stuck rank threads occupy the executor past the round:
                # discard it (they die on their own communication timeouts)
                # exactly as a failed standalone threads run would.
                self._discard_rank_executor()
            for job, futures in zip(jobs, groups):
                for future in futures:
                    if future in pending:
                        if job.error is None:
                            job.error = MPIRuntimeError(
                                f"job rank(s) did not finish within {timeout}s "
                                "(deadlock?)"
                            )
                        continue
                    error = future.exception()
                    if error is not None and job.error is None:
                        job.error = error


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
    field arrays — function lookup, kernel compilation/selection, megakernel
    tracing, decomposition geometry, runtime fallback resolution — and the
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

        # Kernel selection, ahead of the first run: the thread world and
        # local runs share one parent-compiled kernel; process workers
        # rebuild their own, so the parent only compiles when the kernel is
        # used here — or when the backend="vectorized" nest-count validation
        # requires it.
        if self.runtime in ("local", "threads") or config.backend == "vectorized":
            kernel_for_backend(program, self.function, config.backend)
        self._func_op = program.functions[self.function]

        #: Why the megakernel tier is not running this plan, when it was
        #: wanted (see :func:`repro.core.rank.codegen_wanted`) but rejected.
        self.codegen_fallback: Optional[CodegenFallback] = None
        # Trace the time loop now, so an untraceable program records its
        # reason (or, with codegen="megakernel", raises) before the first
        # run.  Process-world plans skip the parent-side trace: workers trace
        # (and cache) their own from the shipped program.
        if codegen_wanted(config) and self.runtime != "processes":
            self.compile()

        if self.distributed:
            self.strategy = GridSlicingStrategy(program.target.rank_grid)
            if config.ranks is not None and config.ranks != self.strategy.rank_count:
                raise ExecutionError(
                    f"config.ranks={config.ranks} conflicts with the program's "
                    f"rank grid {program.target.rank_grid} "
                    f"({self.strategy.rank_count} ranks)"
                )
            domain = program.distribution.local_domain
            self.halo_lower = domain.halo_lower
            self.halo_upper = domain.halo_upper
            self.margin = normalize_margin(config.margin, self.halo_lower)
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
        """Trace the plan's time loop for megakernel execution.

        Called automatically at construction whenever the configuration
        engages codegen; callable explicitly to see why a plan does not.
        Returns the trace, or None with the reason recorded on
        :attr:`codegen_fallback` — unless ``codegen="megakernel"`` is forced,
        in which case failure raises :class:`ExecutionError`.  The generated
        function itself is emitted (and cached on the program) on first run,
        when the concrete buffer layout is known.
        """
        found = megakernel_trace(self.program, self.function, self.config)
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

    # -- batched dispatch (the repro.serve substrate) -------------------------
    def prepare(
        self,
        fields: Sequence[np.ndarray],
        scalars: Sequence[Any] = (),
        buffers: Optional[_RunBuffers] = None,
    ) -> "PreparedRun":
        """Stage one run for a shared batched round (see :mod:`repro.serve`).

        Unlike :meth:`run`, the returned :class:`PreparedRun` owns *its own*
        buffer set, so many jobs of the same plan can be in flight inside one
        :meth:`Session.execute_batch` round.  ``buffers`` recycles a previous
        job's set when its signature still matches (the serving layer keeps a
        small free list per plan).
        """
        if self._closed:
            raise ExecutionError("plan is closed; create a new plan")
        self.session._ensure_open()
        return PreparedRun(self, fields, scalars, buffers)

    # -- the hot path ---------------------------------------------------------
    def run(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any] = ()
    ) -> ExecutionResult:
        """Execute once: scatter, run every rank, gather.  Repeatable."""
        if self._closed:
            raise ExecutionError("plan is closed; create a new plan")
        self.session._ensure_open()
        if not self.distributed:
            result = self._run_single(fields, scalars)
        else:
            self._check_fields(fields)
            # The plan's buffers are shared state: serialize the whole
            # scatter-execute-gather span against concurrent callers.
            with self._run_lock:
                if self.runtime == "processes":
                    result = self._run_processes(fields, scalars)
                else:
                    result = self._run_threads(fields, scalars)
        self._finish_run(result)
        return result

    def _finish_run(self, result: ExecutionResult) -> None:
        """Post-run bookkeeping shared by :meth:`run` and batched dispatch."""
        self.runs_completed += 1
        self.session.counters.runs_completed += 1
        metrics = self.session.metrics
        metrics.inc("runs")
        metrics.ingest_all(result.statistics, "exec.")
        if result.comm_statistics is not None:
            metrics.ingest(result.comm_statistics, "comm.")

    def _run_single(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ) -> ExecutionResult:
        """One non-distributed run, in the calling thread."""
        self._check_arity(fields, scalars)
        tracers = self._rank_tracers(1)
        stats = self._run_rank(
            [*fields, *scalars], None, tracers[0] if tracers else None
        )
        return self._attach_trace(self._single_result(stats), tracers)

    def _single_result(self, stats) -> ExecutionResult:
        return ExecutionResult(
            statistics=[stats],
            runtime="local",
            runtime_requested="local",
            threads_per_rank=self.config.threads_per_rank,
        )

    def _buffers_for(self, fields: Sequence[np.ndarray]) -> _RunBuffers:
        """The cached slice plans and local buffers for these field shapes."""
        buffers = self._buffers
        if self._buffers_valid(buffers, fields):
            return buffers
        self._release_buffers()
        buffers = self._build_buffers(fields)
        self._buffers = buffers
        return buffers

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

        Uncached — the serving layer builds one set per in-flight job so a
        batch can run several jobs of the *same* plan concurrently; the plan's
        own :meth:`_buffers_for` wraps this with its per-signature cache.
        """
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
                    array, strategy, rank, halo_lower, halo_upper, margin
                )
                scatter_row.append(slices)
                shape = tuple(s.stop - s.start for s in slices)
                core_shape = tuple(
                    int(extent) - 2 * int(m)
                    for extent, m in zip(array.shape, margin)
                )
                start, end = strategy.global_slab(core_shape, rank)
                gather_row.append((
                    tuple(
                        slice(start[d] + margin[d], end[d] + margin[d])
                        for d in range(array.ndim)
                    ),
                    tuple(
                        slice(halo_lower[d], halo_lower[d] + (end[d] - start[d]))
                        for d in range(array.ndim)
                    ),
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

    def _run_threads(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ) -> ExecutionResult:
        buffers = self._buffers_for(fields)
        self._check_arity(fields, scalars)
        self._traced_move("run.scatter", self._scatter, buffers, fields)
        size = self.strategy.rank_count
        statistics: list = [None] * size
        tracers = self._rank_tracers(size)
        body = self._rank_body(buffers, list(scalars), statistics, tracers)
        world = self.session._run_threads_world(size, body, self.config.timeout)
        return self._threads_result(buffers, fields, statistics, world, tracers)

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

    def _rank_body(
        self,
        buffers: _RunBuffers,
        scalars: Sequence[Any],
        statistics: list,
        tracers: Optional[list[Tracer]],
    ):
        """One rank's SPMD body over these buffers (thread world).

        Shared verbatim by :meth:`_run_threads` and the serving layer's
        batched dispatch, so a batched job is bit-identical — fields,
        statistics, megakernel engagement — to a standalone run.
        """
        def body(comm) -> None:
            rank = comm.rank
            statistics[rank] = self._run_rank(
                [*buffers.locals[rank], *scalars], comm,
                tracers[rank] if tracers is not None else None,
            )

        return body

    def _threads_result(
        self, buffers: _RunBuffers, fields, statistics: list, world,
        tracers: Optional[list[Tracer]],
    ) -> ExecutionResult:
        """Gather and assemble a finished thread-world run."""
        missing = [rank for rank, stats in enumerate(statistics) if stats is None]
        if missing:
            raise ExecutionError(
                f"ranks {missing} finished without reporting statistics; "
                "the SPMD execution did not complete"
            )
        self._traced_move("run.gather", self._gather, buffers, fields)
        return self._attach_trace(
            self._result(list(statistics), world.statistics), tracers
        )

    def _run_processes(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ) -> ExecutionResult:
        buffers = self._buffers_for(fields)
        self._traced_move("run.scatter", self._scatter, buffers, fields)
        try:
            reports = self.session._pool_manager.run_program_specs(
                self.program, self.function, self.config, buffers.specs,
                list(scalars),
            )
        except _process_runtime.WorkerError:
            self.session.metrics.inc("worker.errors")
            if self.tracer is not None:
                self.tracer.instant("worker.error")
            raise
        return self._processes_result(buffers, fields, reports)

    def _processes_result(
        self, buffers: _RunBuffers, fields, reports: Sequence[Any]
    ) -> ExecutionResult:
        """Account, gather and assemble a finished process-world run.

        Shared by :meth:`_run_processes` and the serving layer's process-world
        batched dispatch so both account identically.
        """
        ordered = sort_rank_stats(reports)
        statistics = [report.exec_stats for report in ordered]
        comm = merge_comm_statistics([report.comm_stats for report in ordered])
        # Copy-elision accounting: scatter wrote straight into (and gather
        # reads straight out of) the leased blocks — two memcpys per field
        # per rank elided.  On the first run of a buffer set the reuse count
        # reflects the pool's free list; afterwards every held lease is by
        # definition recycled across runs.
        comm.bytes_elided = sum(
            2 * local.nbytes for row in buffers.locals for local in row
        )
        if buffers.runs > 0:
            comm.shared_blocks_reused = self._lease_count(buffers)
        else:
            comm.shared_blocks_reused = buffers.fresh_reused
        buffers.runs += 1
        self._traced_move("run.gather", self._gather, buffers, fields)
        return self._attach_trace(
            self._result(statistics, comm), [report.trace for report in ordered]
        )

    @staticmethod
    def _lease_count(buffers: _RunBuffers) -> int:
        return sum(len(row) for row in buffers.leases)

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
        self, statistics: list, comm: CommStatistics
    ) -> ExecutionResult:
        return ExecutionResult(
            statistics=statistics,
            messages_sent=comm.messages_sent,
            bytes_sent=comm.bytes_sent,
            comm_statistics=comm,
            runtime=self.runtime,
            threads_per_rank=self.config.threads_per_rank,
            runtime_requested=self.runtime_requested,
        )


class PreparedRun:
    """One job of a batched dispatch round, staged and self-contained.

    Built by :meth:`Plan.prepare`.  Construction performs the per-job front
    half of :meth:`Plan.run` — argument validation, buffer building (fresh or
    recycled, *never* the plan's shared cache), scatter and body
    construction — so a batch round only has to launch bodies.  After the
    round, :meth:`finish` replays the back half: missing-statistics checks,
    gather, trace attachment and the session metric ingest.  Every step calls
    the same ``Plan`` helpers the standalone path uses, so a batched job is
    bit-identical — fields, ``ExecStatistics``, ``CommStatistics`` — to the
    same job on a standalone plan.

    Thread-world (and local) jobs carry per-rank ``body(comm)`` callables for
    :meth:`Session.execute_batch`; process-world jobs carry the leased
    shared-memory ``specs`` for ``PoolManager.run_program_batch``, with the
    worker reports assigned to :attr:`reports` before ``finish()``.
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
        self.distributed = plan.distributed
        self.runtime = plan.runtime
        self.size = plan.strategy.rank_count if plan.distributed else 1
        #: The job's SimulatedMPI world (thread-world jobs; set at dispatch).
        self.world: Optional[SimulatedMPI] = None
        #: Worker reports (process-world jobs; set by the batch runner).
        self.reports: Optional[list] = None
        #: The first error of any rank of this job (leaves siblings alone).
        self.error: Optional[BaseException] = None
        self.buffers: Optional[_RunBuffers] = None

        plan._check_arity(self.fields, self.scalars)
        self.statistics: list = [None] * self.size
        self.tracers = plan._rank_tracers(self.size)

        if not self.distributed:
            tracer = self.tracers[0] if self.tracers is not None else None

            def single_body(comm=None) -> None:
                self.statistics[0] = plan._run_rank(
                    [*self.fields, *self.scalars], None, tracer
                )

            self.body = single_body
            return

        plan._check_fields(self.fields)
        if buffers is not None and plan._buffers_valid(buffers, self.fields):
            self.buffers = buffers
        else:
            if buffers is not None:
                _release_run_buffers(buffers)
            self.buffers = plan._build_buffers(self.fields)
        plan._scatter(self.buffers, self.fields)
        if self.runtime == "processes":
            self.body = None
        else:
            self.body = plan._rank_body(
                self.buffers, self.scalars, self.statistics, self.tracers
            )

    def finish(self) -> ExecutionResult:
        """Gather and assemble the result; raises the job's recorded error."""
        if self.error is not None:
            raise self.error
        plan = self.plan
        if not self.distributed:
            stats = self.statistics[0]
            if stats is None:
                raise ExecutionError(
                    "the job finished without reporting statistics; "
                    "the batched execution did not complete"
                )
            result = plan._attach_trace(plan._single_result(stats), self.tracers)
        elif self.runtime == "processes":
            if self.reports is None:
                raise ExecutionError(
                    "the job finished without worker reports; "
                    "the batched execution did not complete"
                )
            result = plan._processes_result(
                self.buffers, self.fields, self.reports
            )
        else:
            result = plan._threads_result(
                self.buffers, self.fields, self.statistics, self.world,
                self.tracers,
            )
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
