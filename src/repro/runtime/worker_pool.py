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

A round is a list of :class:`RoundJob` records, the same in both worlds:
job ``i`` runs ``body(comm, *rank_args[rank])`` on each of its ranks.  The
body is a plan rank (:func:`repro.core.rank.rank_report`), a warm-up (the
ranks meet at a barrier) or a caller's SPMD function
(:meth:`repro.core.session.Session.run_spmd`).  The protocol has three
commands (tuples over per-worker command queues and one shared result
queue; rank-to-rank messages do not travel here but through shared-memory
message blocks and per-rank envelope inboxes, see
:mod:`repro.runtime.mp_world`):

* ``("program", key, payload)`` — cache a pickled program under ``key``;
* ``("run", run_id, rank, size, base, timeout, body, args)`` — run one rank
  of a job.  An argument that is the job's shipped program arrives as the
  worker's cached copy, and a :class:`~repro.runtime.mp_world.SharedFieldSpec`
  (alone or in a list) as an array over its block.  Each worker attaches a
  block the first time it meets its name and keeps it mapped for its
  lifetime (:class:`~repro.runtime.mp_world.AttachedBlocks`), so repeated
  runs of a held plan map, fault in and unmap nothing;
* ``("stop",)`` — exit the worker loop.

Workers answer ``("done", run_id, rank, value)`` — whatever the body
returned — or ``("error", run_id, rank, failure)`` where ``failure`` is a
picklable :class:`WorkerFailure` (rank, exception type, traceback text).
The ranks of a thread-world round put the same tuples on a local queue, and
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
from typing import Any, Callable, Optional, Sequence

from ..interp.mpi_runtime import Communicator
from .mp_world import (
    FORK_LOCK,
    AttachedBlocks,
    MessageBlocks,
    ProcessMailbox,
    SharedFieldSpec,
    default_context,
    unlink_message_blocks,
)


@dataclass
class WorkerFailure:
    """Structured, picklable description of one rank's failure.

    Replaces the raw ``traceback.format_exc()`` strings the workers used to
    ship: the parent can now attribute a failure to a rank
    programmatically (it rides on :attr:`WorkerError.failure` and lands in
    session metrics) while :meth:`describe` keeps the full human-readable
    detail, traceback included.
    """

    rank: int
    #: Exception class name (the exception object itself may not pickle).
    exception: str
    message: str
    traceback_text: str

    def describe(self) -> str:
        return (
            f"rank {self.rank} failed: "
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
class RoundJob:
    """One job of a round: ``body(comm, *rank_args[rank])`` on each rank.

    The record both worlds run.  ``timeout`` is the communication deadline
    of the job's ranks.  ``program``, when set, is shipped once to each
    worker the job occupies, and a rank argument that *is* it reaches the
    worker's body as the worker's cached copy; the thread world passes
    every argument as it is.  ``coroutine``, when set, is the body as the
    thread world may schedule it: ``coroutine(comm, *rank_args[rank])``
    returns ``(steps, reason)`` as :func:`repro.core.rank.rank_coroutine`
    does.
    """

    body: Callable[..., Any]
    rank_args: Sequence[Sequence[Any]]
    timeout: float
    program: Any = None
    coroutine: Optional[Callable[..., Any]] = None

    @property
    def size(self) -> int:
        return len(self.rank_args)


@dataclass(frozen=True)
class _ShippedProgram:
    """A job's program on the wire: its key in the worker's program cache."""

    key: int


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

def _failure(rank: int, err: BaseException) -> WorkerFailure:
    """Build the structured failure shipped to the parent (must pickle)."""
    return WorkerFailure(
        rank=rank,
        exception=type(err).__name__,
        message=str(err),
        traceback_text=traceback.format_exc(),
    )


def _arrived(arg, programs: dict, attached: AttachedBlocks):
    """A rank argument as the worker's body sees it (see the protocol)."""
    if isinstance(arg, _ShippedProgram):
        return programs[arg.key]
    if isinstance(arg, SharedFieldSpec):
        return attached.view(arg)
    if isinstance(arg, list):
        return [_arrived(item, programs, attached) for item in arg]
    return arg


def _worker_main(worker_index: int, commands, results, inboxes,
                 block_prefix: str) -> None:
    """The worker loop: cache programs, run rank bodies, report."""
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
        # "run": one rank of a round's job.
        _, run_id, rank, size, base, timeout, body, args = command
        # ``base`` partitions the pool across the jobs of one round: this
        # rank's world is the ``size`` workers starting at ``base``, so its
        # job-local inbox indices stay 0..size-1 and concurrent jobs can
        # never cross-deliver.
        mailbox = ProcessMailbox(inboxes[base:base + size], run_id, blocks)
        try:
            # Kernels and megakernels are cached on the worker's
            # CompiledProgram: built on the first run of this program and
            # shared by every later run.
            args = [_arrived(arg, programs, blocks.attached) for arg in args]
            value = body(Communicator(mailbox, rank, size, timeout), *args)
            results.put(("done", run_id, rank, value))
        except BaseException as err:  # noqa: BLE001 - ship to the parent
            results.put(("error", run_id, rank, _failure(rank, err)))
        finally:
            mailbox.close()


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
        manager's entry point retry on a fresh pool, transparently.
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

    def run_round(self, jobs: Sequence[RoundJob]) -> list[Any]:
        """Run independent jobs — one or many — as ONE round.

        The pool's workers are partitioned across the jobs — job ``i`` of
        ``r_i`` ranks owns the contiguous worker range starting at
        ``sum(r_0..r_{i-1})`` and communicates only within it (its
        communicator sees a job-local inbox window, see ``_worker_main``) —
        so many small runs share one dispatch/collect round instead of
        serializing.  Each job's program is shipped inside the round.
        Returns one entry per job, in order: its ranks' values on success,
        or the :class:`WorkerError` that failed the job (see
        :func:`collect_reports` for the failure policy).
        """
        with self._round(sum(job.size for job in jobs)):
            run_ids: list[int] = []
            base = 0
            for job in jobs:
                shipped = None
                if job.program is not None:
                    shipped = _ShippedProgram(
                        self.ship_program(job.program, job.size, base)
                    )
                run_id = next(self._run_ids)
                for rank, args in enumerate(job.rank_args):
                    if shipped is not None:
                        args = [shipped if arg is job.program else arg
                                for arg in args]
                    self._commands[base + rank].put(
                        ("run", run_id, rank, job.size, base, job.timeout,
                         job.body, list(args))
                    )
                run_ids.append(run_id)
                base += job.size
            return self._collect(
                run_ids, [job.size for job in jobs],
                max(job.timeout for job in jobs),
            )

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

    # -- the retrying entry point (transparent pool replacement) ----------------
    def run_round(self, jobs: Sequence[RoundJob]) -> list[Any]:
        """Run one round of jobs on the pool (see :meth:`WorkerPool.run_round`).

        The pool is grown (by replacement) to the round's total rank count;
        per-job outcomes are returned in order — the ranks' values for
        successes, :class:`WorkerError` instances for failed jobs.
        """
        total = sum(job.size for job in jobs)
        for _ in _pool_attempts():
            pool = self.acquire(total)
            try:
                return pool.run_round(jobs)
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
