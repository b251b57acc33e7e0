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
(a :class:`PreparedRun`, with a buffer set from the plan's free list),
:meth:`Session.execute_batch` launches every rank of every job of the round
and hands the round's reports to the one collector,
:func:`repro.runtime.worker_pool.collect_reports` (deadline, fail-fast,
silent ranks), and :meth:`PreparedRun.finish` merges and gathers, then
returns the buffer set to its plan.  ``plan.run()`` is that sequence with one
job; :mod:`repro.serve` packs many.  Every rank of every world — local,
thread, process worker — is executed and reported by
:func:`repro.core.rank.rank_report`, as the same
:class:`~repro.runtime.stats.RankStats`; this module only decides who owns
what and moves the data.

A round is a list of :class:`~repro.runtime.worker_pool.RoundJob` records,
``body(comm, *args)`` on each rank, whatever the world.  A plan's rank body
is :func:`~repro.core.rank.rank_report`, a warm-up's a barrier, and
:meth:`Session.run_spmd` runs a caller's function the same way.
"""

from __future__ import annotations

import atexit
import functools
import pickle
import queue
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .. import runtime as _process_runtime
from ..interp import SimulatedMPI
from ..interp.codegen import CodegenFallback
from ..interp.mpi_runtime import CommStatistics, merge_comm_statistics
from ..interp.thread_team import ThreadTeam, get_thread_team
from ..obs import MetricsRegistry, Tracer, TraceTimeline
from ..runtime.stats import RankStats, sort_rank_stats
from ..runtime.worker_pool import RoundJob, WorkerError, collect_reports
from ..transforms.distribute import GridSlicingStrategy
from .config import ExecutionConfig, ExecutionError, RuntimeFallbackWarning, usable_cpus
from .executor import ExecutionResult, core_field_slices, local_field_slices
from .pipeline import CompiledProgram
from .rank import (
    codegen_wanted,
    megakernel_trace,
    rank_coroutine,
    rank_report,
    run_blocking,
    run_scheduled,
)


def default_function(program: CompiledProgram) -> str:
    """The function a run of ``program`` executes when none is named.

    ``kernel`` if the module defines it, else its only function.
    """
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
    #: Thread-world rank executors constructed (reuse keeps this at 1;
    #: a session whose jobs all run on the scheduler creates none).
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
        #: Serializes thread-world rounds that use the rank executor:
        #: interleaving two SPMD worlds on one bounded executor could starve
        #: ranks of a partially-admitted run.
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
        # Workers map the field blocks until they exit: stop them first,
        # then unlink the blocks.
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

        A warm-up is a round whose ranks meet at a barrier: it spawns the
        worker processes (``runtime="processes"``) or the rank threads
        (``runtime="threads"``), and the intra-rank thread teams on both
        sides — a worker builds its own before it meets the others — and,
        when ``program`` is given, ships the pickled program to the workers
        inside the same round.  A process-world warm-up also builds the
        parent's team that copies the ranks' slabs.  ``ranks`` defaults to
        the program's rank grid (no ranks: only the thread team); ``runtime``
        defaults to the session config's (``Plan.warmup`` passes the plan's
        resolved runtime, which may override the session's).
        """
        self._ensure_open()
        config = ExecutionConfig.coerce(self.config, threads_per_rank=threads_per_rank)
        span = self.tracer.begin("session.warmup") if self.tracer is not None else 0.0
        if ranks is None and program is not None \
                and program.target.rank_grid is not None:
            ranks = program.target.ranks
        processes = (runtime or config.runtime) == "processes" \
            and _process_runtime.processes_available()
        if not processes or not ranks:
            self._team(config.team_size(ranks or 1))
        if ranks:
            if processes:
                # The team a process-world plan copies its slabs on.
                self._team(_copy_threads(ranks))
            job = RoundJob(
                _warm_rank, [(config if processes else None,)] * ranks,
                config.timeout, program if processes else None,
            )
            (outcome,) = self._run_round([job], processes)
            if isinstance(outcome, BaseException):
                raise outcome
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

    def run_spmd(
        self,
        body: Callable[..., Any],
        size: int,
        args: Sequence[Any] = (),
        **overrides,
    ) -> tuple[list[Any], list[CommStatistics]]:
        """Run ``body(comm, *args)`` on ``size`` ranks: a round of one job.

        The session config with ``overrides`` applied picks the world and
        the ranks' communication ``timeout``.  Returns each rank's value and
        its :class:`~repro.interp.CommStatistics`, in rank order.  The round
        fails like any other (see :meth:`execute_batch`): the first rank
        error in time is re-raised — a worker's as a :class:`WorkerError` —
        and a deadlocked round fails on its ranks' own communication
        timeout.  The process world pickles ``body`` and ``args``, so a
        closure is only accepted on the thread world.
        """
        self._ensure_open()
        if size < 1:
            raise ExecutionError("run_spmd needs at least one rank")
        config = ExecutionConfig.coerce(self.config, **overrides)
        processes = _resolve_runtime(config.runtime, 2) == "processes"
        if processes:
            try:
                pickle.dumps((body, tuple(args)))
            except Exception as error:
                raise ExecutionError(
                    "run_spmd on the process world needs a module-level body "
                    f"and picklable args: {error}"
                ) from error
        job = RoundJob(_spmd_rank, [(body, *args)] * size, config.timeout)
        (outcome,) = self._run_round([job], processes)
        if isinstance(outcome, BaseException):
            raise outcome
        return [value for value, _ in outcome], [stats for _, stats in outcome]

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

    def execute_batch(self, prepared: Sequence["PreparedRun"]) -> None:
        """Run independent prepared runs — one or many — as ONE round.

        The single dispatch primitive: ``plan.run()`` is a round of one job,
        the serving layer (:mod:`repro.serve`) packs many.  Each job is a
        :class:`~repro.runtime.worker_pool.RoundJob` whose ranks run
        :func:`~repro.core.rank.rank_report`.  Process-world jobs partition
        the worker pool (``PoolManager.run_round``).  Thread-world and local
        jobs each get a private :class:`SimulatedMPI` world of their own
        size, and their ranks are coroutines: a one-rank job, and a job
        whose ranks communicate only through their megakernels' halos, run
        on one deterministic scheduler in the calling thread (the
        dispatcher, under :mod:`repro.serve`); only the others — the tree
        walker, islands that pass messages — partition the persistent rank
        executor, one thread per rank (see :meth:`_run_threaded_round`).
        Either way N small jobs pay the dispatch latency once instead of N
        times.

        One failure policy, the same in both worlds: a job is failed the
        moment any of its ranks raises, and that first error — the root
        cause, not a peer's later timeout — is recorded on *its*
        :class:`PreparedRun` (``finish()`` re-raises it).  A scheduled job
        closes its other ranks at once, and one none of whose ranks can
        progress fails at once with an :class:`~repro.interp.MPIRuntimeError`
        naming what each rank waits for.  Ranks on threads and workers
        report to one collector
        (:func:`~repro.runtime.worker_pool.collect_reports`); a failed job's
        remaining ranks there are abandoned to their communication
        timeouts, sibling jobs keep running and the round returns as soon as
        every job has completed or failed, ``REPORT_MARGIN`` past the
        longest job timeout at the latest (a silent job then fails with a
        :class:`WorkerError`, counted in ``worker.errors`` like every
        worker's).  Ranks that never reported poison what hosts them — the
        rank executor, the worker pool — which is retired and transparently
        replaced by the next round.
        """
        self._ensure_open()
        pooled = [job for job in prepared if job.runtime == "processes"]
        threaded = [job for job in prepared if job.runtime != "processes"]
        outcomes = []
        if pooled:
            outcomes += self._run_round(
                [job.round_job() for job in pooled], processes=True)
        if threaded:
            outcomes += self._run_round(
                [job.round_job() for job in threaded], processes=False)
        for job, outcome in zip([*pooled, *threaded], outcomes):
            if not isinstance(outcome, BaseException):
                job.reports = outcome
                continue
            job.error = outcome
            if isinstance(outcome, WorkerError) and job.plan.tracer is not None:
                job.plan.tracer.instant("worker.error")

    def _run_round(self, jobs: Sequence[RoundJob], processes: bool) -> list:
        """One round of ``jobs`` in one world: one outcome per job.

        The process world runs it on the worker pool, the thread world on
        its scheduler and the rank executor; each :class:`WorkerError` among
        the outcomes counts in ``worker.errors``.
        """
        if processes:
            try:
                outcomes = self._pool_manager.run_round(jobs)
            except WorkerError as error:  # the round itself could not run
                outcomes = [error] * len(jobs)
        else:
            outcomes = self._run_threaded_round(jobs)
        for outcome in outcomes:
            if isinstance(outcome, WorkerError):
                self.metrics.inc("worker.errors")
        return outcomes

    def _run_threaded_round(self, jobs: Sequence[RoundJob]) -> list:
        """The thread world's round: each job in a private :class:`SimulatedMPI`.

        Each job's ranks are launched first, as coroutines whose tier is
        chosen (and whose megakernel is emitted) now.  A one-rank job, and
        a job whose every rank communicates only through its megakernel's
        halos, runs on the scheduler in the calling thread
        (:func:`~repro.core.rank.run_scheduled`): no rank thread, and a
        deadlock fails it at once.  Every other job's ranks run on the rank
        executor, one thread each, and put their reports on the round's
        queue, which :func:`~repro.runtime.worker_pool.collect_reports`
        reads as it reads the worker pool's; ranks that never reported
        still occupy executor threads, so the executor is discarded after
        such a round.  ``round.ranks_scheduled`` and ``round.ranks_threaded``
        on :attr:`metrics` count the ranks run each way, and
        ``round.threaded.<reason>`` each job that kept its rank threads, by
        why (:func:`~repro.core.rank.rank_coroutine`'s reasons, or
        ``"body"`` for a rank body with no coroutine form: a warm-up or
        :meth:`run_spmd`).
        """
        outcomes: list = [None] * len(jobs)
        scheduled, threaded = [], []
        for index, job in enumerate(jobs):
            world = SimulatedMPI(job.size, timeout=job.timeout)
            comms = [world.communicator(rank) for rank in range(job.size)]
            try:
                launched, reason = _launch(job, comms)
            except Exception as error:  # noqa: BLE001 - the job's outcome
                outcomes[index] = error
                continue
            if reason is None or job.size == 1:
                scheduled.append((index, launched))
                self.metrics.inc("round.ranks_scheduled", job.size)
            else:
                threaded.append((index, job, list(zip(comms, launched))))
                self.metrics.inc("round.ranks_threaded", job.size)
                self.metrics.inc(f"round.threaded.{reason}")

        def schedule() -> None:
            ran = run_scheduled([launched for _, launched in scheduled])
            for (index, _), outcome in zip(scheduled, ran):
                outcomes[index] = outcome

        if not threaded:
            schedule()
            return outcomes
        results: queue.SimpleQueue = queue.SimpleQueue()
        with self._thread_run_lock:
            executor = self._acquire_rank_executor(
                sum(job.size for _, job, _ in threaded))
            for index, _, ranks in threaded:
                for comm, steps in ranks:
                    executor.submit(_run_body, results, index, comm, steps)
            schedule()
            collected, silent = collect_reports(
                results, [index for index, _, _ in threaded],
                [job.size for _, job, _ in threaded],
                max(job.timeout for _, job, _ in threaded),
            )
            if any(silent.values()):
                self._discard_rank_executor()
        for (index, _, _), outcome in zip(threaded, collected):
            outcomes[index] = outcome
        return outcomes


def _launch(job: RoundJob, comms: Sequence) -> tuple[list, Optional[str]]:
    """A job's ranks as coroutines, and why the scheduler may not run them
    (None: it may)."""
    if job.coroutine is None:
        return [_body_steps(job.body, comm, job.rank_args[comm.rank])
                for comm in comms], "body"
    launched = [job.coroutine(comm, *job.rank_args[comm.rank]) for comm in comms]
    reasons = [reason for _, reason in launched if reason is not None]
    return [steps for steps, _ in launched], (reasons[0] if reasons else None)


def _body_steps(body: Callable[..., Any], comm, args: Sequence[Any]):
    """A rank body as a coroutine that completes no halo of its own."""
    yield from ()
    return body(comm, *args)


def _run_body(results, index: int, comm, steps) -> None:
    """One thread-world rank of a round's job ``index``, on a rank thread.

    Puts the value of ``steps`` (run by the blocking driver) — or the
    rank's own exception — on ``results``.
    """
    try:
        value = run_blocking(comm, steps)
    except BaseException as error:  # noqa: BLE001 - the collector hands it on
        results.put(("error", index, comm.rank, error))
    else:
        results.put(("done", index, comm.rank, value))


def _local_coroutine(comm, *args):
    """The coroutine of a local job: one rank, no communicator."""
    return rank_coroutine(None, *args)


def _local_report(comm, *args) -> RankStats:
    """The rank body of a local job: one rank, no communicator."""
    return rank_report(None, *args)


def _warm_rank(comm, config: Optional[ExecutionConfig]) -> None:
    """The rank body of a warm-up: build the thread team ``config`` gives
    each rank (None: none, the caller's is shared), meet the others."""
    if config is not None:
        get_thread_team(config.team_size(comm.size))
    comm.barrier()


def _spmd_rank(comm, body, *args) -> tuple[Any, CommStatistics]:
    """The rank body of :meth:`Session.run_spmd`: the value and the counts."""
    return body(comm, *args), comm.statistics


def _copy_threads(ranks: int) -> int:
    """The team size a process-world plan of ``ranks`` ranks copies slabs on."""
    return min(ranks, usable_cpus())


def _resolve_runtime(requested: str, stacklevel: int) -> str:
    """The world a distributed round of ``requested`` runs in.

    ``"processes"`` degrades to ``"threads"``, with a
    :class:`RuntimeFallbackWarning`, where shared memory is unavailable.
    """
    if requested == "processes" and not _process_runtime.processes_available():
        warnings.warn(
            "runtime='processes' was requested but the process runtime "
            "is unavailable on this platform; falling back to "
            "runtime='threads' (bit-identical results, no multi-core "
            "scaling). Compare ExecutionResult.runtime_requested with "
            ".runtime to detect degraded runs.",
            RuntimeFallbackWarning,
            stacklevel=stacklevel + 1,
        )
        return "threads"
    return requested


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _field_signature(fields: Sequence[np.ndarray]) -> tuple:
    """The layout key of a field list: per-array (shape, dtype)."""
    return tuple((array.shape, array.dtype.str) for array in fields)


class _RunBuffers:
    """One job's buffer set for one field signature, recycled by its plan.

    Holds the pre-computed scatter/gather slice tuples for every
    (rank, field) pair plus the per-rank local buffers: preallocated NumPy
    arrays for the thread world, leased shared-memory blocks (kept across
    runs) for the process world.  A worker attaches a leased block the
    first time its spec arrives and keeps it mapped, so a set's later runs
    cost the workers no mapping; the parent copies every rank's slab at
    once (see :meth:`Plan._copy_slabs`).
    """

    __slots__ = ("signature", "scatter_slices", "gather_slices", "locals",
                 "leases", "specs", "fresh_reused", "runs")

    def __init__(self):
        self.signature = None
        self.scatter_slices: list[list[tuple]] = []
        self.gather_slices: list[list[tuple[tuple, tuple]]] = []
        self.locals: list[list[np.ndarray]] = []
        self.leases: list[list] = []
        self.specs: list[list] = []
        self.fresh_reused = 0
        self.runs = 0

    def release(self) -> None:
        """Return the leased shared blocks (no-op for thread-world arrays)."""
        for rank_leases in self.leases:
            for lease in rank_leases:
                lease.release()


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
        self.function = function or default_function(program)
        self.distributed = (
            program.distribution is not None and program.target.rank_grid is not None
        )
        self.runs_completed = 0
        self._closed = False
        #: Buffer sets of finished jobs, free for the next job that fits:
        #: one per job of this plan in flight at once, so concurrent runs
        #: and a round's jobs of the same plan never share one.
        self._free: list[_RunBuffers] = []
        self._free_lock = threading.Lock()

        if self.distributed:
            self.runtime_requested = config.runtime
            self.runtime = _resolve_runtime(config.runtime, 3)
        else:
            self.runtime = self.runtime_requested = "local"

        self._func_op = program.functions[self.function]

        #: Why the megakernel tier did not run this plan's last run on some
        #: rank, when it was wanted (see
        #: :func:`repro.core.rank.codegen_wanted`); None once a run ran it on
        #: every rank.  A trace rejection is recorded as the plan is built.
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
        """Release the plan's buffers (leased shared blocks return to the pool).

        A job still in flight releases its set when it finishes.
        """
        with self._free_lock:
            if self._closed:
                return
            self._closed = True
            free, self._free = self._free, []
        for buffers in free:
            buffers.release()
        try:
            self.session._plans.remove(self)
        except ValueError:
            pass

    def warmup(self) -> None:
        """Pre-spawn this plan's runtime (workers, teams) and ship the program."""
        ranks = self.program.target.ranks if self.distributed else None
        self.session.warmup(
            self.program if self.runtime == "processes" else None,
            ranks=ranks,
            threads_per_rank=self.config.team_size(ranks or 1),
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

    # -- the hot path ---------------------------------------------------------
    def prepare(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any] = ()
    ) -> "PreparedRun":
        """Stage one run for a :meth:`Session.execute_batch` round.

        The returned :class:`PreparedRun` owns a buffer set of its own — a
        finished job's from the plan's free list when one fits, else a fresh
        one — so many jobs of the same plan can be in flight at once, inside
        one round or from several threads.
        """
        if self._closed:
            raise ExecutionError("plan is closed; create a new plan")
        self.session._ensure_open()
        return PreparedRun(self, fields, scalars)

    def run(
        self, fields: Sequence[np.ndarray], scalars: Sequence[Any] = ()
    ) -> ExecutionResult:
        """Execute once: scatter, run every rank, gather.  Repeatable.

        A run *is* a round of one job: the same :meth:`prepare` →
        :meth:`Session.execute_batch` → :meth:`PreparedRun.finish` sequence
        the serving layer drives.
        """
        job = self.prepare(fields, scalars)
        try:
            self.session.execute_batch([job])
        except BaseException:
            job.release()
            raise
        return job.finish()

    def _finish_run(self, result: ExecutionResult) -> None:
        """Post-run bookkeeping: lifecycle counters and the metric ingest."""
        self.runs_completed += 1
        metrics = self.session.metrics
        metrics.inc("runs")
        metrics.ingest_all(result.statistics, "exec.")
        if result.comm_statistics is not None:
            metrics.ingest(result.comm_statistics, "comm.")

    def _take_buffers(self, fields: Sequence[np.ndarray]) -> _RunBuffers:
        """A free buffer set that fits these fields, else a fresh one."""
        signature = _field_signature(fields)
        with self._free_lock:
            for index, buffers in enumerate(self._free):
                if buffers.signature == signature:
                    return self._free.pop(index)
        return self._build_buffers(fields)

    def _hand_back(self, buffers: _RunBuffers) -> None:
        """Return a finished job's set to the free list (released if closed)."""
        with self._free_lock:
            if not self._closed:
                self._free.append(buffers)
                return
        buffers.release()

    def _build_buffers(self, fields: Sequence[np.ndarray]) -> _RunBuffers:
        """Fresh slice plans and local buffers for these field shapes."""
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
        pool = self.session._field_pool
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

    def _copy_slabs(self, name: str, copy_rank, buffers: _RunBuffers,
                    fields) -> None:
        """``copy_rank(buffers, fields, rank)`` for every rank, under the
        plan-track span ``name`` when tracing.

        The process world copies every rank's slab at once, one task per
        rank on the session's team: its ranks live in other processes, so
        the parent's cores are idle here.  That is safe because a scatter
        only reads the caller's arrays and each rank's gather writes a
        disjoint core region.  Thread-world slabs are kilobytes and a team
        hand-off costs tens of microseconds, so they stay in the calling
        thread.
        """
        ranks = range(self.strategy.rank_count)
        team = self.session._team(_copy_threads(len(ranks))) \
            if self.runtime == "processes" else None
        span = self.tracer.begin(name) if self.tracer is not None else 0.0
        try:
            if team is None:
                for rank in ranks:
                    copy_rank(buffers, fields, rank)
            else:
                team.map(functools.partial(copy_rank, buffers, fields), ranks)
        finally:
            if self.tracer is not None:
                self.tracer.end(name, span)

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

    def _attach_trace(
        self, result: ExecutionResult, rank_traces: Sequence[Any]
    ) -> ExecutionResult:
        """Merge the run's records into one timeline on ``result.trace``.

        Tracks, in order: the compile pipeline's record (captured at
        ``compile_stencil_program`` time and carried on the program), the
        session and plan lifecycle tracers, then one track per rank: the
        :class:`TraceRecord` each rank reported, its monotonic clock
        re-aligned against wall time by the timeline merge.
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
        for record in rank_traces:
            timeline.add(record)
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
            threads_per_rank=self.config.team_size(
                self.program.target.ranks if self.distributed else 1),
            runtime_requested=self.runtime_requested,
        )


def _scatter_rank(buffers: _RunBuffers, fields, rank: int) -> None:
    """Copy rank ``rank``'s slab (core and halo) of every field in."""
    slices_row = buffers.scatter_slices[rank]
    local_row = buffers.locals[rank]
    for index, array in enumerate(fields):
        local_row[index][...] = array[slices_row[index]]


def _gather_rank(buffers: _RunBuffers, fields, rank: int) -> None:
    """Copy rank ``rank``'s core region of every field back out."""
    gather_row = buffers.gather_slices[rank]
    local_row = buffers.locals[rank]
    for index, array in enumerate(fields):
        global_slices, local_slices = gather_row[index]
        array[global_slices] = local_row[index][local_slices]


class PreparedRun:
    """One job of a dispatch round, staged and self-contained.

    Built by :meth:`Plan.prepare`.  Construction is the front half of a run
    — argument validation, a buffer set of its own, the traced scatter — so
    a round only has to launch ranks.  :meth:`Session.execute_batch` leaves
    either the job's :attr:`error` or its ranks' :attr:`reports` behind —
    the same :class:`~repro.runtime.stats.RankStats` in every world — and
    :meth:`finish` is the back half: gather, statistics merge, trace
    attachment, the session metric ingest, and the buffer set's return to
    the plan.  ``plan.run()`` and a served job are this same sequence, so
    they agree bit for bit — fields, ``ExecStatistics``, ``CommStatistics``
    — and span for span.

    In the process world both halves copy every rank's slab at once on the
    session's team (scatter into, gather out of the leased blocks the
    workers keep mapped); in the thread world they copy in the calling
    thread.
    """

    def __init__(
        self, plan: Plan, fields: Sequence[np.ndarray], scalars: Sequence[Any]
    ):
        self.plan = plan
        self.fields = list(fields)
        self.scalars = list(scalars)
        self.runtime = plan.runtime
        self.size = plan.strategy.rank_count if plan.distributed else 1
        #: The ranks' reports, in rank order (set by the round).
        self.reports: Optional[list[RankStats]] = None
        #: The first error of any rank of this job (leaves siblings alone).
        self.error: Optional[BaseException] = None
        #: The job's buffer set (distributed jobs): finish() hands it back
        #: to the plan, a failed job releases it.
        self.buffers: Optional[_RunBuffers] = None
        plan._check_arity(self.fields, self.scalars)
        if plan.distributed:
            plan._check_fields(self.fields)
            self.buffers = plan._take_buffers(self.fields)
            try:
                plan._copy_slabs(
                    "run.scatter", _scatter_rank, self.buffers, self.fields
                )
            except BaseException:
                self.release()
                raise

    def finish(self) -> ExecutionResult:
        """Gather and assemble the result; raises the job's recorded error.

        A failed job releases its buffer set rather than handing it back:
        ranks it abandoned may still be writing into it.
        """
        try:
            result = self._assemble()
        except BaseException:
            self.release()
            raise
        if self.buffers is not None:
            self.plan._hand_back(self.buffers)
            self.buffers = None
        return result

    def _assemble(self) -> ExecutionResult:
        if self.error is not None:
            raise self.error
        plan = self.plan
        reports = sort_rank_stats(self.reports or ())
        if len(reports) != self.size:
            raise ExecutionError(
                f"{self.size - len(reports)} rank(s) finished without "
                "reporting statistics; the round did not complete"
            )
        # This run's reason alone: None once every rank ran the megakernel.
        plan.codegen_fallback = None
        for report in reports:
            plan.session.metrics.merge_counts(report.counters)
            if report.codegen_fallback is not None:
                plan.codegen_fallback = report.codegen_fallback
        comm = None
        if plan.distributed:
            comm = merge_comm_statistics([report.comm_stats for report in reports])
            if self.runtime == "processes":
                _account_copy_elision(comm, self.buffers)
            plan._copy_slabs("run.gather", _gather_rank, self.buffers, self.fields)
        result = plan._result([report.exec_stats for report in reports], comm)
        plan._attach_trace(result, [report.trace for report in reports])
        plan._finish_run(result)
        return result

    def round_job(self) -> RoundJob:
        """The job's ranks as a round runs them: :func:`rank_report` each,
        or :func:`~repro.core.rank.rank_coroutine` on the thread world.

        A process-world rank gets its fields as shared-memory specs (the
        worker maps each block the first time it meets it and keeps it
        mapped) and no team (the worker has its own); a thread-world rank
        gets its local arrays and the session's teams, of which its kernel
        takes one only when it deals a box's blocks to a team.
        """
        plan = self.plan
        if self.runtime == "processes":
            per_rank, teams = self.buffers.specs, None
        else:
            per_rank = self.buffers.locals if self.buffers is not None \
                else [self.fields]
            teams = plan.session._team
        return RoundJob(
            rank_report if plan.distributed else _local_report,
            [
                (plan.program, plan.function, plan.config,
                 [*fields, *self.scalars], teams)
                for fields in per_rank
            ],
            plan.config.timeout,
            plan.program,
            rank_coroutine if plan.distributed else _local_coroutine,
        )

    def release(self) -> None:
        """Release the job's buffer set instead of handing it back."""
        buffers = self.buffers
        self.buffers = None
        if buffers is not None:
            buffers.release()


def _account_copy_elision(comm: CommStatistics, buffers: _RunBuffers) -> None:
    """Count what a process-world run saved by running in leased blocks.

    Scatter wrote straight into (and gather reads straight out of) the
    leased blocks — two memcpys per field per rank elided.  On the first run
    of a buffer set the reuse count reflects the pool's free list;
    afterwards every held lease is by definition recycled across runs.
    """
    comm.bytes_elided = sum(
        2 * local.nbytes for row in buffers.locals for local in row
    )
    if buffers.runs > 0:
        comm.shared_blocks_reused = sum(len(row) for row in buffers.leases)
    else:
        comm.shared_blocks_reused = buffers.fresh_reused
    buffers.runs += 1


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
