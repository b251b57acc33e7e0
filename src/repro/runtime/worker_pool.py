"""A persistent pool of SPMD worker processes.

Spawning an OS process and importing the compiler stack costs far more than
one small stencil run, so the pool is *persistent*: workers are started once
per :class:`PoolManager` (one per :class:`repro.core.session.Session`) and
reused by every subsequent ``runtime="processes"`` run.  Programs are compiled
once in the parent, pickled once per worker (the vectorized-kernel and
megakernel caches are dropped on the wire and rebuilt lazily), and cached
worker-side on the unpickled :class:`~repro.core.CompiledProgram` itself — so
repeated runs, e.g. a benchmark's timing loop, ship nothing and recompile
nothing.

Protocol (all tuples over per-worker command queues and one shared result
queue; rank-to-rank messages do not travel here but through shared-memory
message blocks and per-rank envelope inboxes, see
:mod:`repro.runtime.mp_world`):

* ``("program", key, payload)`` — cache a pickled program under ``key``;
* ``("run", run_id, key, rank, size, base, function, config, field_specs,
  scalars)`` — attach the shared-memory fields and execute one rank through
  :func:`repro.core.rank.rank_report` under the caller's frozen
  :class:`~repro.core.config.ExecutionConfig` — the same function, the same
  configuration and therefore the same tier choice, thread-team size,
  tracing and :class:`~repro.runtime.stats.RankStats` report as a
  thread-world rank;
* ``("spmd", run_id, rank, size, payload, timeout)`` — run an arbitrary
  picklable ``fn(comm, *args)`` (tests and ad-hoc experiments);
* ``("warmup", run_id, rank, threads_per_rank)`` — pre-spawn the worker's
  intra-rank thread team so the first hybrid run pays no spawn latency;
* ``("stop",)`` — exit the worker loop.

Workers answer ``("done", run_id, rank, payload)`` — the rank's
``RankStats``, ``(value, comm_stats)`` for ``spmd``, None for ``warmup`` —
or ``("error", run_id, rank, failure)`` where ``failure`` is a picklable
:class:`WorkerFailure` (rank, phase, exception type, traceback text).  The
ranks of a thread-world round put the same tuples on a local queue, and
:func:`collect_reports` reads either: it applies the one round failure
policy of both worlds.  A failed or timed-out run poisons the pool (peers
may still be blocked in receives), so the pool is shut down and the next
run transparently starts a fresh one.

Each worker owns the message blocks it sends through, named from the pool's
:attr:`WorkerPool.block_prefix`, its index and a counter.  They persist across
runs, which recycle them, and :meth:`WorkerPool.shutdown` unlinks them all by
name once the workers are gone, including after a failed round and for
workers killed with SIGKILL.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import queue as queue_module
import secrets
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..interp.mpi_runtime import CommStatistics, Communicator
from .mp_world import (
    FORK_LOCK,
    MessageBlocks,
    ProcessMailbox,
    SharedField,
    SharedFieldSpec,
    default_context,
    unlink_message_blocks,
)

if TYPE_CHECKING:  # pragma: no cover - ``repro.core`` sits above this package
    from ..core.config import ExecutionConfig


@dataclass
class WorkerFailure:
    """Structured, picklable description of one rank's failure.

    Replaces the raw ``traceback.format_exc()`` strings the workers used to
    ship: the parent can now attribute a failure to a rank and phase
    programmatically (it rides on :attr:`WorkerError.failure` and lands in
    session metrics) while :meth:`describe` keeps the full human-readable
    detail, traceback included.
    """

    rank: int
    #: Which worker phase failed: ``"run"``, ``"spmd"`` or ``"warmup"``.
    phase: str
    #: Exception class name (the exception object itself may not pickle).
    exception: str
    message: str
    traceback_text: str

    def describe(self) -> str:
        return (
            f"rank {self.rank} failed during {self.phase}: "
            f"{self.exception}: {self.message}\n{self.traceback_text}"
        )


class WorkerError(RuntimeError):
    """A worker rank failed or the pool timed out; carries the remote detail.

    When the failure came from a worker rank (rather than a parent-side
    timeout), :attr:`failure` holds the structured :class:`WorkerFailure`.
    """

    failure: Optional[WorkerFailure] = None


#: How long past a round's ``timeout`` the parent waits for rank reports, in
#: both worlds: ranks time out on their own communication after ``timeout``,
#: and the margin lets that root-cause error arrive before the parent's
#: generic "did not report" one.
REPORT_MARGIN = 10.0


class _PoolReplacedError(Exception):
    """Internal: the pool was shut down (grown/replaced) before this run
    acquired it; the caller should fetch the current pool and retry."""


@dataclass
class PoolBatchJob:
    """One job of a batched pooled round (``run_program_batch``).

    ``field_specs[rank]`` are the pre-scattered shared-memory specs of that
    rank's fields; the job occupies ``len(field_specs)`` contiguous workers.
    """

    program: Any
    function_name: str
    config: "ExecutionConfig"
    field_specs: Sequence[Sequence["SharedFieldSpec"]]
    scalars: Sequence[Any]


@contextlib.contextmanager
def _deep_recursion(limit: int = 10_000):
    """Temporarily raise the recursion limit for (un)pickling IR modules.

    The pickler walks the use-def graph recursively, so serialization depth
    grows with the length of SSA dependency chains — a few thousand frames
    for the larger lowered modules, past the default limit of 1000.
    """
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _failure(rank: int, phase: str, err: BaseException) -> WorkerFailure:
    """Build the structured failure shipped to the parent (must pickle)."""
    return WorkerFailure(
        rank=rank,
        phase=phase,
        exception=type(err).__name__,
        message=str(err),
        traceback_text=traceback.format_exc(),
    )


def _worker_main(worker_index: int, commands, results, inboxes,
                 block_prefix: str) -> None:
    """The worker loop: cache programs, execute ranks, report statistics."""
    # Imported here, in the child: ``repro.core`` sits above this package.
    from ..core.rank import rank_report

    programs: dict[int, Any] = {}
    blocks = MessageBlocks(block_prefix, worker_index)
    while True:
        command = commands.get()
        kind = command[0]
        if kind == "stop":
            return
        if kind == "program":
            _, key, payload = command
            with _deep_recursion():
                programs[key] = pickle.loads(payload)
            continue
        if kind == "run":
            (_, run_id, key, rank, size, base, function_name, config,
             field_specs, scalars) = command
            fields: list[SharedField] = []
            # ``base`` partitions the pool across the jobs of one batched
            # round: this rank's world is the ``size`` workers starting at
            # ``base``, so its job-local inbox indices stay 0..size-1 and
            # concurrent jobs can never cross-deliver.
            mailbox = ProcessMailbox(inboxes[base:base + size], run_id, blocks)
            try:
                fields = [SharedField.attach(spec) for spec in field_specs]
                # Kernels and megakernels are cached on the worker's
                # CompiledProgram: built on the first run of this program and
                # shared by every later run.
                report = rank_report(
                    programs[key], function_name, config,
                    [field.array for field in fields] + list(scalars),
                    Communicator(mailbox, rank, size, config.timeout), None,
                )
                results.put(("done", run_id, rank, report))
            except BaseException as err:  # noqa: BLE001 - ship to the parent
                results.put(("error", run_id, rank, _failure(rank, "run", err)))
            finally:
                mailbox.close()
                for field in fields:
                    field.release()
            continue
        if kind == "spmd":
            _, run_id, rank, size, payload, timeout = command
            mailbox = ProcessMailbox(inboxes, run_id, blocks)
            try:
                fn, args = pickle.loads(payload)
                comm = Communicator(mailbox, rank, size, timeout)
                value = fn(comm, *args)
                results.put(("done", run_id, rank, (value, comm.statistics)))
            except BaseException as err:  # noqa: BLE001 - ship to the parent
                results.put(("error", run_id, rank, _failure(rank, "spmd", err)))
            finally:
                mailbox.close()
            continue
        if kind == "warmup":
            # Pre-spawn the intra-rank thread team (the ROADMAP warm-up item):
            # the first hybrid run then pays no team-spawn latency.
            _, run_id, rank, threads_per_rank = command
            try:
                if threads_per_rank > 1:
                    from ..interp.thread_team import get_thread_team

                    get_thread_team(threads_per_rank)
                results.put(("done", run_id, rank, None))
            except BaseException as err:  # noqa: BLE001 - ship to the parent
                results.put(
                    ("error", run_id, rank, _failure(rank, "warmup", err))
                )
            continue


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def collect_reports(
    results,
    run_ids: Sequence[int],
    sizes: Sequence[int],
    timeout: float,
    idle: Optional[Callable[[], Optional[str]]] = None,
) -> tuple[list[Any], dict[int, list[int]]]:
    """Collect one round's rank reports: the round failure policy, once.

    ``results`` is any queue of ``("done" | "error", run_id, rank, payload)``
    tuples — a worker pool's result queue or a thread round's
    ``queue.SimpleQueue`` — and job ``i`` of the round is ``sizes[i]`` ranks
    reporting under ``run_ids[i]``.  A job fails the moment any of its ranks
    reports an error: the first error in time is the root cause, and its
    peers' later reports are dropped, like reports of run ids that are not
    (or no longer) collected.  Sibling jobs keep collecting.  A job still
    silent ``REPORT_MARGIN`` past ``timeout`` fails as a deadlock, and
    ``idle()``, asked whenever the queue stays empty for half a second, may
    name a reason (dead workers) that fails every remaining job.

    Returns one outcome per job, in order — its payloads in rank order, or
    the exception that failed it (a thread rank's own, a worker's
    :class:`WorkerFailure` as a :class:`WorkerError`, or the collector's
    :class:`WorkerError`) — and, for each failed job, the ranks that never
    reported: whatever hosts them must stop or abandon them.
    """
    deadline = time.monotonic() + timeout + REPORT_MARGIN
    by_run = {run_id: index for index, run_id in enumerate(run_ids)}
    reports: list[dict[int, Any]] = [{} for _ in run_ids]
    outcomes: list[Any] = [None] * len(run_ids)
    remaining = set(range(len(run_ids)))
    while remaining:
        budget = deadline - time.monotonic()
        if budget <= 0:
            for index in remaining:
                outcomes[index] = WorkerError(
                    f"job {index} of the round did not report within "
                    f"{timeout}s (deadlock?)"
                )
            break
        try:
            tag, run_id, rank, payload = results.get(timeout=min(budget, 0.5))
        except queue_module.Empty:
            reason = idle() if idle is not None else None
            if reason:
                for index in remaining:
                    outcomes[index] = WorkerError(reason)
                break
            continue
        index = by_run.get(run_id)
        if index is None:
            continue  # stale report from a failed earlier round
        heard = reports[index]
        heard[rank] = payload
        if index not in remaining:
            continue  # a failed job's late report: dropped, its rank is done
        if tag == "error":
            if isinstance(payload, WorkerFailure):
                error = WorkerError(payload.describe())
                error.failure = payload
                payload = error
            outcomes[index] = payload
            remaining.discard(index)
            continue
        if len(heard) == sizes[index]:
            outcomes[index] = [heard[r] for r in range(sizes[index])]
            remaining.discard(index)
    silent = {
        index: [rank for rank in range(sizes[index]) if rank not in reports[index]]
        for index, outcome in enumerate(outcomes)
        if isinstance(outcome, BaseException)
    }
    return outcomes, silent


_PROGRAM_KEYS = itertools.count(1)


class WorkerPool:
    """A fixed-size set of long-lived worker processes plus their queues."""

    def __init__(self, size: int):
        self._ctx = default_context()
        self.size = size
        self.alive = True
        # One round at a time: the workers and the result queue are shared
        # state, so concurrent rounds (e.g. from two caller threads) must
        # serialize — interleaved rank commands would cross-deadlock and each
        # collector would discard the other round's reports.
        self._run_lock = threading.Lock()
        #: Programs shipped per worker (so re-runs ship nothing).
        self._shipped: list[set[int]] = [set() for _ in range(size)]
        self.programs_shipped = 0
        self._run_ids = itertools.count(1)
        #: Names every message block of this pool's workers
        #: (:func:`~repro.runtime.mp_world.message_block_name`).
        self.block_prefix = f"rmsg_{secrets.token_hex(4)}"
        self._inboxes = [self._ctx.Queue() for _ in range(size)]
        self._results = self._ctx.Queue()
        self._commands = [self._ctx.Queue() for _ in range(size)]
        self._processes = [
            self._ctx.Process(
                target=_worker_main,
                args=(index, self._commands[index], self._results, self._inboxes,
                      self.block_prefix),
                daemon=True,
                name=f"repro-spmd-worker-{index}",
            )
            for index in range(size)
        ]
        with FORK_LOCK:
            if os.name == "posix":
                # Workers register the message blocks they create with the
                # parent's resource tracker (forked workers start their own
                # otherwise): shutdown() unregisters them as it unlinks them,
                # and the tracker still unlinks them should the parent die
                # first.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            for process in self._processes:
                process.start()

    # -- program shipping -----------------------------------------------------
    def ship_program(self, program, ranks: int, base: int = 0) -> int:
        """Serialize ``program`` once and send it to ``ranks`` workers at ``base``.

        The key is stashed on the program object, so re-running the same
        compiled program never re-pickles or re-sends it.
        """
        key = getattr(program, "_pool_program_key", None)
        if key is None:
            key = next(_PROGRAM_KEYS)
            program._pool_program_key = key
        payload: Optional[bytes] = None
        for index in range(base, base + ranks):
            if key in self._shipped[index]:
                continue
            if payload is None:
                with _deep_recursion():
                    payload = pickle.dumps(program)
            self._commands[index].put(("program", key, payload))
            self._shipped[index].add(key)
            self.programs_shipped += 1
        return key

    # -- execution ------------------------------------------------------------
    def reap_dead_workers(self) -> list[int]:
        """Indices of workers that died (crashed or were killed) since start."""
        return [
            index for index, process in enumerate(self._processes)
            if not process.is_alive()
        ]

    @contextlib.contextmanager
    def _round(self, ranks: int):
        """Hold the pool for one round of ``ranks`` ranks.

        A dead worker would silently swallow its rank's command and hang the
        round until the collect deadline, so a pool that lost one between
        rounds is retired here instead: ``_PoolReplacedError`` makes the
        manager's entry points retry on a fresh pool, transparently.
        """
        if ranks > self.size:
            raise WorkerError(
                f"pool of {self.size} workers cannot host {ranks} ranks"
            )
        with self._run_lock:
            if not self.alive:
                raise _PoolReplacedError
            if self.reap_dead_workers():
                self.shutdown()
                raise _PoolReplacedError
            yield

    def run_program_batch(
        self, jobs: Sequence["PoolBatchJob"], timeout: float
    ) -> list[Any]:
        """Run independent SPMD jobs — one or many — in ONE pooled round.

        The pool's workers are partitioned across the jobs — job ``i`` of
        ``r_i`` ranks owns the contiguous worker range starting at
        ``sum(r_0..r_{i-1})`` and communicates only within it (its
        communicator sees a job-local inbox window, see ``_worker_main``) —
        so many small runs share one dispatch/collect round instead of
        serializing.  Returns one entry per job, in order: a ``RankStats``
        list on success, or the :class:`WorkerError` that failed the job
        (see :func:`collect_reports` for the failure policy).
        """
        with self._round(sum(len(job.field_specs) for job in jobs)):
            run_ids: list[int] = []
            sizes: list[int] = []
            base = 0
            for job in jobs:
                size = len(job.field_specs)
                key = self.ship_program(job.program, size, base)
                run_id = next(self._run_ids)
                scalars = list(job.scalars)
                for rank in range(size):
                    self._commands[base + rank].put(
                        ("run", run_id, key, rank, size, base,
                         job.function_name, job.config,
                         list(job.field_specs[rank]), scalars)
                    )
                run_ids.append(run_id)
                sizes.append(size)
                base += size
            return self._collect(run_ids, sizes, timeout)

    def _collect(
        self, run_ids: Sequence[int], sizes: Sequence[int], timeout: float
    ) -> list[Any]:
        """One round's outcomes (see :func:`collect_reports`).

        Any failure retires the pool after the round, because abandoned ranks
        still occupy its workers.
        """
        outcomes, silent = collect_reports(
            self._results, run_ids, sizes, timeout, idle=self._dead_workers
        )
        if silent:
            # Abandoned ranks sit in receives and would each wait out the
            # polite stop of shutdown(); kill them first, so retiring the
            # pool does not hold back the siblings' results.  (Every round
            # packs its jobs onto contiguous workers, in order, from 0.)
            bases = list(itertools.accumulate(sizes, initial=0))
            for index, ranks in silent.items():
                for rank in ranks:
                    self._processes[bases[index] + rank].terminate()
            self.shutdown()
        return outcomes

    def _dead_workers(self) -> Optional[str]:
        dead = self.reap_dead_workers()
        return f"worker processes {dead} died mid-round" if dead else None

    def _collect_one(self, run_id: int, size: int, timeout: float) -> list[Any]:
        """The payloads of a round of one job, rank-ordered; raises its error."""
        (outcome,) = self._collect([run_id], [size], timeout)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def run_spmd(
        self,
        fn: Callable,
        size: int,
        args: Sequence[Any],
        timeout: float,
    ) -> tuple[list[Any], list[CommStatistics]]:
        """Run ``fn(comm, *args)`` on ``size`` ranks; return per-rank results."""
        with self._round(size):
            run_id = next(self._run_ids)
            payload = pickle.dumps((fn, tuple(args)))
            for rank in range(size):
                self._commands[rank].put(("spmd", run_id, rank, size, payload, timeout))
            reports = self._collect_one(run_id, size, timeout)
        return (
            [value for value, _ in reports],
            [comm_stats for _, comm_stats in reports],
        )

    def warmup(self, ranks: int, threads_per_rank: int = 1,
               timeout: float = 60.0) -> None:
        """Pre-spawn the first ``ranks`` workers' intra-rank thread teams.

        The workers themselves were spawned by the pool constructor; this
        round-trip additionally forces each of them to build (and cache) its
        ``threads_per_rank``-sized team and proves the command loop is alive,
        so the first real hybrid run pays neither spawn latency.
        """
        with self._round(ranks):
            run_id = next(self._run_ids)
            for rank in range(ranks):
                self._commands[rank].put(("warmup", run_id, rank, threads_per_rank))
            self._collect_one(run_id, ranks, timeout)

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker, unlink its message blocks and release the
        queues; the pool is dead after.

        Workers that already died (crashed mid-run, killed externally) are
        reaped rather than waited on: the stop command is only sent to live
        ones, joins on corpses return immediately, and a worker that ignores
        ``terminate`` is force-killed — shutdown always finishes.
        """
        if not self.alive:
            return
        self.alive = False
        for commands, process in zip(self._commands, self._processes):
            if not process.is_alive():
                continue  # already dead: nobody will read the stop command
            try:
                commands.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=1.0)
        unlink_message_blocks(self.block_prefix, self.size)
        for q in [*self._commands, *self._inboxes, self._results]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - queue already broken
                pass


class PoolManager:
    """Owns (at most) one :class:`WorkerPool` and its replacement policy.

    An explicit resource: a :class:`repro.core.session.Session` holds one,
    reuses it across runs and tears it down deterministically; tests and
    ad-hoc SPMD experiments build their own.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool: Optional[WorkerPool] = None
        #: How many pools this manager ever constructed (a warmed-up manager
        #: serving repeated runs stays at 1 — asserted by the session tests).
        self.pools_created = 0

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The current pool, if any (no spawning)."""
        return self._pool

    def acquire(self, size: int) -> WorkerPool:
        """The persistent pool, grown (by replacement) when too small."""
        with self._lock:
            pool = self._pool
            if pool is not None and pool.alive and pool.size >= size:
                return pool
            previous = pool.size if pool is not None else 0
            if pool is not None:
                # Replacing a too-small pool must wait for any in-flight run
                # to finish, or the shutdown would terminate its busy workers.
                with pool._run_lock:
                    pool.shutdown()
            self._pool = WorkerPool(max(size, previous))
            self.pools_created += 1
            return self._pool

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    # -- retrying entry points (transparent pool replacement) -----------------
    def run_program_batch(
        self, jobs: Sequence[PoolBatchJob], timeout: float
    ) -> list[Any]:
        """Run several independent jobs in one pooled round (see the pool).

        The pool is grown (by replacement) to the batch's total rank count;
        per-job outcomes are returned in order — ``RankStats`` lists for
        successes, :class:`WorkerError` instances for failed jobs.
        """
        total = sum(len(job.field_specs) for job in jobs)
        for _ in _pool_attempts():
            pool = self.acquire(total)
            try:
                return pool.run_program_batch(jobs, timeout)
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers

    def run_spmd(
        self, fn: Callable, size: int, args: Sequence[Any], timeout: float
    ) -> tuple[list[Any], list[CommStatistics]]:
        for _ in _pool_attempts():
            pool = self.acquire(size)
            try:
                return pool.run_spmd(fn, size, args, timeout)
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers

    def warmup(self, ranks: int, threads_per_rank: int = 1,
               timeout: float = 60.0) -> None:
        """Spawn ``ranks`` workers (and their thread teams) ahead of a run."""
        for _ in _pool_attempts():
            pool = self.acquire(ranks)
            try:
                pool.warmup(ranks, threads_per_rank, timeout)
                return
            except _PoolReplacedError:
                continue  # the pool was grown, replaced, or had dead workers


def _pool_attempts(limit: int = 5):
    """Bounded retry loop for transparently replaced pools.

    A replaced pool (growth race, reaped dead workers) is retried against a
    fresh one; but workers that die *at startup* (ImportError in the child,
    fd exhaustion) would otherwise respawn pools forever — after ``limit``
    replacements the failure surfaces as a WorkerError instead.
    """
    yield from range(limit)
    raise WorkerError(
        f"worker pool was replaced {limit} times in a row; workers appear "
        "to be dying at startup (see the system log for the child error)"
    )
