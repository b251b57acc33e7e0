"""A simulated MPI runtime.

The paper runs its generated code on ARCHER2 with mpich; here the same lowered
communication code runs on an in-process message-passing runtime.  Every rank
executes in its own thread against a shared :class:`SimulatedMPI` world:

* point-to-point messages are *buffered*: ``isend``/``send`` never block,
  ``recv``/``wait`` block until a matching message (by source and tag) arrives;
* non-blocking operations return request objects compatible with
  ``wait``/``waitall``/``test``;
* the collective subset of the paper (reduce, allreduce, bcast, gather,
  barrier) is implemented on top of point-to-point messages with reserved tags.

Statistics (message and byte counts) are recorded so tests and the performance
model can check communication volumes against the analytic expectations.

:class:`CommunicatorBase` is the rank-level interface the interpreter programs
against.  It owns the collective algorithms (expressed purely in terms of the
abstract point-to-point primitives and the reserved tag space), so every world
implementation — the thread-backed :class:`SimulatedMPI` here and the
OS-process world in :mod:`repro.runtime.mp_world` — exhibits byte-identical
message traffic and statistics for the same program.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

#: Tag space reserved for collective operations (user tags must be smaller).
_COLLECTIVE_TAG_BASE = 1_000_000


class MPIRuntimeError(Exception):
    """Raised on misuse of the simulated runtime (bad rank, timeout, ...)."""


@dataclass
class CommStatistics:
    """Per-world communication counters.

    The ``bytes_elided`` / ``shared_blocks_reused`` pair describes the
    process runtime's shared-memory copy elision (fields scattered into and
    gathered out of the ``multiprocessing.shared_memory`` blocks directly,
    blocks recycled across runs).  They are *excluded from equality* because
    they measure a transport property of one runtime, not the program's
    communication behaviour — the thread and process worlds must still
    compare equal on everything the program itself caused.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    collectives: int = 0
    barriers: int = 0
    #: Field bytes that were *not* memcpy'd thanks to scatter/gather reading
    #: and writing the shared-memory blocks directly (process runtime only).
    bytes_elided: int = field(default=0, compare=False)
    #: Shared-memory blocks recycled from a previous run instead of allocated.
    shared_blocks_reused: int = field(default=0, compare=False)


class SimRequest:
    """A request handle returned by the non-blocking operations."""

    __slots__ = ("kind", "comm", "source", "tag", "buffer", "completed")

    def __init__(self, kind: str, comm: "RankCommunicator", source: int, tag: int,
                 buffer: Optional[np.ndarray]):
        self.kind = kind
        self.comm = comm
        self.source = source
        self.tag = tag
        self.buffer = buffer
        self.completed = kind == "send"  # buffered sends complete immediately

    def test(self) -> bool:
        if self.completed:
            return True
        if self.kind == "recv":
            done = self.comm.world.try_complete_recv(self)
            self.completed = done
            return done
        return True

    def wait(self, timeout: float) -> None:
        if self.completed:
            return
        self.comm.world.wait_recv(self, timeout)
        self.completed = True


class CommunicatorBase(ABC):
    """The per-rank MPI interface both execution runtimes implement.

    Subclasses provide the point-to-point transport (buffered sends, blocking
    and non-blocking receives) and the statistics hooks; the collective subset
    of the paper is implemented *here*, on top of those primitives, with
    reserved tags — so the thread world and the process world produce the same
    message counts, byte counts and deterministic reduction order.
    """

    rank: int

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the world."""

    # -- point to point (transport-specific) ---------------------------------
    @abstractmethod
    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered send: never blocks."""

    @abstractmethod
    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Any:
        """Non-blocking send; returns a request with ``test``/``wait``."""

    @abstractmethod
    def recv(self, buffer: np.ndarray, source: int, tag: int = 0) -> np.ndarray:
        """Blocking receive into ``buffer`` (matched by source and tag)."""

    @abstractmethod
    def irecv(self, buffer: np.ndarray, source: int, tag: int = 0) -> Any:
        """Non-blocking receive; returns a request with ``test``/``wait``."""

    @abstractmethod
    def wait(self, request: Any) -> None:
        """Block until a request completes."""

    def waitall(self, requests: Sequence[Any]) -> None:
        for request in requests:
            if request is not None:
                self.wait(request)

    def test(self, request: Any) -> bool:
        return request.test()

    # -- statistics hooks ----------------------------------------------------
    @abstractmethod
    def _record_collective(self) -> None:
        """Count one collective invocation on this rank."""

    @abstractmethod
    def _record_barrier(self) -> None:
        """Count one barrier invocation on this rank."""

    # -- collectives (shared by all transports) ------------------------------
    def barrier(self) -> None:
        self._record_barrier()
        token = np.zeros(1, dtype=np.int8)
        self._collective_gather_scatter(token)

    def reduce(self, data: np.ndarray, operation: str = "sum", root: int = 0) -> Optional[np.ndarray]:
        if operation not in ("sum", "prod", "min", "max", "land", "lor"):
            raise MPIRuntimeError(f"unknown reduction operation {operation!r}")
        self._record_collective()
        tag = _COLLECTIVE_TAG_BASE + 1
        data = np.asarray(data)
        if self.rank == root:
            accumulator = np.array(data, copy=True)
            for source in range(self.size):
                if source == root:
                    continue
                contribution = np.empty_like(data)
                self.recv(contribution, source, tag)
                accumulator = _combine(accumulator, contribution, operation)
            return accumulator
        self.send(data, root, tag)
        return None

    def allreduce(self, data: np.ndarray, operation: str = "sum") -> np.ndarray:
        reduced = self.reduce(data, operation, root=0)
        return self.bcast(reduced if self.rank == 0 else np.empty_like(np.asarray(data)), root=0)

    def bcast(self, data: np.ndarray, root: int = 0) -> np.ndarray:
        self._record_collective()
        tag = _COLLECTIVE_TAG_BASE + 2
        data = np.asarray(data)
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.send(data, dest, tag)
            return data
        buffer = np.empty_like(data)
        self.recv(buffer, root, tag)
        return buffer

    def gather(self, data: np.ndarray, root: int = 0) -> Optional[np.ndarray]:
        self._record_collective()
        tag = _COLLECTIVE_TAG_BASE + 3
        data = np.asarray(data)
        if self.rank == root:
            parts = [None] * self.size
            parts[root] = np.array(data, copy=True)
            for source in range(self.size):
                if source == root:
                    continue
                buffer = np.empty_like(data)
                self.recv(buffer, source, tag)
                parts[source] = buffer
            return np.stack(parts)
        self.send(data, root, tag)
        return None

    def _collective_gather_scatter(self, token: np.ndarray) -> None:
        """A naive barrier: gather tokens at rank 0, then broadcast a release."""
        tag_in = _COLLECTIVE_TAG_BASE + 4
        tag_out = _COLLECTIVE_TAG_BASE + 5
        if self.rank == 0:
            for source in range(1, self.size):
                self.recv(np.empty_like(token), source, tag_in)
            for dest in range(1, self.size):
                self.send(token, dest, tag_out)
        else:
            self.send(token, 0, tag_in)
            self.recv(np.empty_like(token), 0, tag_out)


class SimulatedMPI:
    """The shared state of one simulated MPI_COMM_WORLD."""

    def __init__(self, size: int, timeout: float = 30.0):
        if size < 1:
            raise MPIRuntimeError("world size must be at least 1")
        self.size = size
        self.timeout = timeout
        self.statistics = CommStatistics()
        self._lock = threading.Condition()
        # mailbox[rank][(source, tag)] -> deque of numpy arrays
        self._mailboxes: list[dict[tuple[int, int], deque]] = [
            defaultdict(deque) for _ in range(size)
        ]

    # -- communicator construction ------------------------------------------
    def communicator(self, rank: int) -> "RankCommunicator":
        if not 0 <= rank < self.size:
            raise MPIRuntimeError(f"rank {rank} outside world of size {self.size}")
        return RankCommunicator(self, rank)

    # -- message transport ------------------------------------------------------
    def post_message(self, source: int, dest: int, tag: int, data: np.ndarray) -> None:
        if not 0 <= dest < self.size:
            raise MPIRuntimeError(f"send to invalid rank {dest}")
        payload = np.array(data, copy=True)
        with self._lock:
            self._mailboxes[dest][(source, tag)].append(payload)
            self.statistics.messages_sent += 1
            self.statistics.bytes_sent += payload.nbytes
            self._lock.notify_all()

    def _pop_message(self, dest: int, source: int, tag: int) -> Optional[np.ndarray]:
        queue = self._mailboxes[dest].get((source, tag))
        if queue:
            return queue.popleft()
        return None

    def try_complete_recv(self, request: SimRequest) -> bool:
        with self._lock:
            message = self._pop_message(request.comm.rank, request.source, request.tag)
            if message is None:
                return False
        _copy_into(request.buffer, message)
        return True

    def wait_recv(self, request: SimRequest, timeout: Optional[float] = None) -> None:
        # One deadline for the whole wait: every message posted anywhere in
        # the world wakes this thread, and a wake-up must not restart the clock.
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        with self._lock:
            message = self._pop_message(request.comm.rank, request.source, request.tag)
            while message is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPIRuntimeError(
                        f"rank {request.comm.rank} timed out waiting for a message "
                        f"from rank {request.source} with tag {request.tag}"
                    )
                self._lock.wait(timeout=remaining)
                message = self._pop_message(request.comm.rank, request.source, request.tag)
        _copy_into(request.buffer, message)

    # -- SPMD driver -------------------------------------------------------------
    def run_spmd(
        self,
        body: Callable[["RankCommunicator"], object],
        *,
        timeout: Optional[float] = None,
    ) -> list[object]:
        """Run ``body(comm)`` on every rank, each in its own thread.

        All joins share a single deadline, so a deadlocked world of N ranks
        waits the intended timeout *once* rather than N times, and the first
        rank that raises fails the whole run immediately (its exception is
        re-raised; the other, possibly still blocked, daemon threads are
        abandoned to their own timeouts).
        """
        results: list[object] = [None] * self.size
        errors: list[Optional[BaseException]] = [None] * self.size

        def worker(rank: int) -> None:
            try:
                results[rank] = body(self.communicator(rank))
            except BaseException as err:  # noqa: BLE001 - propagate to the caller
                errors[rank] = err
                with self._lock:
                    self._lock.notify_all()

        threads = [
            threading.Thread(target=worker, args=(rank,), daemon=True)
            for rank in range(self.size)
        ]
        for thread in threads:
            thread.start()
        join_timeout = timeout if timeout is not None else self.timeout * 4
        deadline = time.monotonic() + join_timeout
        pending = list(threads)
        while pending:
            if any(error is not None for error in errors):
                break  # fail fast: a rank already crashed
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            pending[0].join(timeout=min(0.05, remaining))
            pending = [thread for thread in pending if thread.is_alive()]
        for error in errors:
            if error is not None:
                raise error
        for rank, thread in enumerate(threads):
            if thread.is_alive():
                raise MPIRuntimeError(
                    f"rank {rank} did not finish within {join_timeout}s (deadlock?)"
                )
        return results


class RankCommunicator(CommunicatorBase):
    """The thread-world rank interface used by the interpreter and examples."""

    def __init__(self, world: SimulatedMPI, rank: int):
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    # -- point to point ----------------------------------------------------------
    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        self.world.post_message(self.rank, dest, tag, np.asarray(data))

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> SimRequest:
        self.send(data, dest, tag)
        return SimRequest("send", self, dest, tag, None)

    def recv(self, buffer: np.ndarray, source: int, tag: int = 0) -> np.ndarray:
        request = SimRequest("recv", self, source, tag, np.asarray(buffer))
        self.world.wait_recv(request)
        return buffer

    def irecv(self, buffer: np.ndarray, source: int, tag: int = 0) -> SimRequest:
        return SimRequest("recv", self, source, tag, np.asarray(buffer))

    def wait(self, request: SimRequest) -> None:
        request.wait(self.world.timeout)

    # -- statistics hooks --------------------------------------------------------
    def _record_collective(self) -> None:
        self.world.statistics.collectives += 1

    def _record_barrier(self) -> None:
        self.world.statistics.barriers += 1


def _copy_into(buffer: Optional[np.ndarray], message: np.ndarray) -> None:
    if buffer is None:
        return
    np.copyto(buffer, message.reshape(buffer.shape).astype(buffer.dtype, copy=False))


def _combine(lhs: np.ndarray, rhs: np.ndarray, operation: str) -> np.ndarray:
    if operation == "sum":
        return lhs + rhs
    if operation == "prod":
        return lhs * rhs
    if operation == "min":
        return np.minimum(lhs, rhs)
    if operation == "max":
        return np.maximum(lhs, rhs)
    if operation == "land":
        return np.logical_and(lhs, rhs).astype(lhs.dtype)
    if operation == "lor":
        return np.logical_or(lhs, rhs).astype(lhs.dtype)
    raise MPIRuntimeError(f"unknown reduction operation {operation!r}")
