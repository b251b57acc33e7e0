"""A simulated MPI runtime.

The paper runs its generated code on ARCHER2 with mpich; here the same lowered
communication code runs on an in-process message-passing runtime.  Every rank
executes in its own thread against a shared :class:`SimulatedMPI` world:

* point-to-point messages are *buffered*: ``isend``/``send`` never block,
  ``recv``/``wait`` block until a matching message (by source and tag) arrives;
* non-blocking operations return :class:`Request` objects compatible with
  ``wait``/``waitall``/``test``;
* the collective subset of the paper (reduce, allreduce, bcast, gather,
  barrier) is implemented on top of point-to-point messages with reserved tags.

Statistics (message and byte counts) are recorded so tests and the performance
model can check communication volumes against the analytic expectations.

:class:`Communicator` is the rank-level interface the interpreter programs
against, and the only one: it owns the rank checks, the request handling, the
collective algorithms (expressed in terms of point-to-point messages and the
reserved tag space) and the rank's own statistics.  Below it sits a world's
*mailbox*, the one thing the two worlds do differently:

* ``post(source, dest, tag, data)`` copies a payload at send time;
* ``take(dest, source, tag, timeout)`` pops the next message of ``(source,
  tag)`` for ``dest`` — ``timeout=None`` never blocks and returns ``None``
  when there is none, otherwise one deadline covers the whole wait and
  :class:`MPIRuntimeError` says it timed out;
* ``land(message, into)`` copies a taken message into a buffer, converting
  its dtype (``into=None`` drops it).

:class:`SimulatedMPI` is the thread world's mailbox, and
:class:`repro.runtime.mp_world.ProcessMailbox` the OS-process world's, so both
worlds exhibit byte-identical message traffic and statistics for the same
program.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from typing import Any, Optional, Sequence

import numpy as np

#: Tag space reserved for collective operations (user tags must be smaller).
_COLLECTIVE_TAG_BASE = 1_000_000


class MPIRuntimeError(Exception):
    """Raised on misuse of the simulated runtime (bad rank, timeout, ...)."""


@dataclass
class CommStatistics:
    """Communication counters of one rank, or merged over a world.

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


def merge_comm_statistics(per_rank: Sequence[CommStatistics]) -> CommStatistics:
    """Sum per-rank communication counters, field by field, in rank order.

    Both worlds count per rank and merge here, so the same program yields the
    same totals in either.
    """
    merged = CommStatistics()
    for stats in per_rank:
        for counter in fields(CommStatistics):
            name = counter.name
            setattr(merged, name, getattr(merged, name) + getattr(stats, name))
    return merged


class Request:
    """A request handle returned by ``isend``/``irecv``.

    Buffered sends complete at once; a receive lands its message in
    ``buffer`` only when ``wait`` or ``test`` completes it.
    """

    __slots__ = ("comm", "source", "tag", "buffer", "completed")

    def __init__(self, comm: "Communicator", source: int, tag: int,
                 buffer: Optional[np.ndarray]):
        self.comm = comm
        self.source = source
        self.tag = tag
        self.buffer = buffer
        self.completed = buffer is None  # a send: buffered, so complete at once

    def test(self) -> bool:
        """Complete the request if its message has arrived; never blocks."""
        return self.completed or self._complete(None)

    def wait(self) -> None:
        """Block until the request completes (the world timeout applies)."""
        if not self.completed:
            self._complete(self.comm.timeout)

    def _complete(self, timeout: Optional[float]) -> bool:
        comm = self.comm
        message = comm.mailbox.take(comm.rank, self.source, self.tag, timeout)
        if message is None:
            return False
        comm.mailbox.land(message, self.buffer)
        self.completed = True
        return True


class Communicator:
    """One rank's MPI interface, over its world's mailbox.

    Point-to-point messages are buffered sends and matching receives by
    ``(source, tag)``; the collective subset of the paper runs on top of
    them with reserved tags, so every world produces the same message
    counts, byte counts and deterministic reduction order.  ``statistics``
    counts this rank only: a communicator belongs to one rank's thread, so
    no counter is shared.
    """

    def __init__(self, mailbox: Any, rank: int, size: int, timeout: float = 30.0):
        if not 0 <= rank < size:
            raise MPIRuntimeError(f"rank {rank} outside world of size {size}")
        self.mailbox = mailbox
        self.rank = rank
        self.size = size
        self.timeout = timeout
        self.statistics = CommStatistics()

    # -- point to point ----------------------------------------------------------
    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered send: never blocks."""
        if not 0 <= dest < self.size:
            raise MPIRuntimeError(f"send to invalid rank {dest}")
        data = np.asarray(data)
        self.mailbox.post(self.rank, dest, tag, data)
        self.statistics.messages_sent += 1
        self.statistics.bytes_sent += data.nbytes

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Request:
        self.send(data, dest, tag)
        return Request(self, dest, tag, None)

    def recv(self, buffer: np.ndarray, source: int, tag: int = 0) -> np.ndarray:
        """Blocking receive into ``buffer`` (matched by source and tag)."""
        self.irecv(buffer, source, tag).wait()
        return buffer

    def irecv(self, buffer: np.ndarray, source: int, tag: int = 0) -> Request:
        if not 0 <= source < self.size:
            raise MPIRuntimeError(f"receive from invalid rank {source}")
        return Request(self, source, tag, np.asarray(buffer))

    def wait(self, request: Request) -> None:
        request.wait()

    def waitall(self, requests: Sequence[Optional[Request]]) -> None:
        for request in requests:
            if request is not None:
                request.wait()

    def test(self, request: Request) -> bool:
        return request.test()

    # -- collectives -------------------------------------------------------------
    def barrier(self) -> None:
        self.statistics.barriers += 1
        token = np.zeros(1, dtype=np.int8)
        self._collective_gather_scatter(token)

    def reduce(self, data: np.ndarray, operation: str = "sum", root: int = 0) -> Optional[np.ndarray]:
        if operation not in ("sum", "prod", "min", "max", "land", "lor"):
            raise MPIRuntimeError(f"unknown reduction operation {operation!r}")
        self.statistics.collectives += 1
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
        self.statistics.collectives += 1
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
        self.statistics.collectives += 1
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
    """One simulated MPI_COMM_WORLD of threads: the thread world's mailbox."""

    def __init__(self, size: int, timeout: float = 30.0):
        if size < 1:
            raise MPIRuntimeError("world size must be at least 1")
        self.size = size
        self.timeout = timeout
        self._lock = threading.Condition()
        # mailbox[rank][(source, tag)] -> deque of numpy arrays
        self._mailboxes: list[dict[tuple[int, int], deque]] = [
            defaultdict(deque) for _ in range(size)
        ]
        self._communicators = [
            Communicator(self, rank, size, timeout) for rank in range(size)
        ]

    def communicator(self, rank: int) -> Communicator:
        """Rank ``rank``'s communicator (the same object on every call)."""
        if not 0 <= rank < self.size:
            raise MPIRuntimeError(f"rank {rank} outside world of size {self.size}")
        return self._communicators[rank]

    # -- mailbox -----------------------------------------------------------------
    def post(self, source: int, dest: int, tag: int, data: np.ndarray) -> None:
        payload = np.array(data, copy=True)
        with self._lock:
            self._mailboxes[dest][(source, tag)].append(payload)
            self._lock.notify_all()

    def take(self, dest: int, source: int, tag: int,
             timeout: Optional[float]) -> Optional[np.ndarray]:
        # One deadline for the whole wait: every message posted anywhere in
        # the world wakes this thread, and a wake-up must not restart the clock.
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._lock:
            queue = self._mailboxes[dest][(source, tag)]
            while not queue:
                if deadline is None:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPIRuntimeError(
                        f"rank {dest} timed out waiting for a message "
                        f"from rank {source} with tag {tag}"
                    )
                self._lock.wait(timeout=remaining)
            return queue.popleft()

    @staticmethod
    def land(message: np.ndarray, into: Optional[np.ndarray]) -> None:
        if into is not None:
            np.copyto(into, message.reshape(into.shape), casting="unsafe")


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
