"""OS-process SPMD world: shared-memory fields and queue-backed messaging.

This is the process-runtime counterpart of
:class:`~repro.interp.mpi_runtime.SimulatedMPI`.  Each rank runs in its own
OS process (see :mod:`repro.runtime.worker_pool`), so NumPy kernels execute
truly in parallel instead of time-slicing one GIL:

* **fields** live in ``multiprocessing.shared_memory`` blocks: the parent
  scatters each rank's local buffer (core slab + halo) into a block, workers
  attach and compute in place, and the parent gathers straight out of the
  block — field contents never travel through a pickle;
* **messages** travel through one ``multiprocessing.Queue`` inbox per rank.
  :class:`ProcessRankCommunicator` keeps the exact mailbox discipline of the
  thread world — matching by ``(source, tag)``, buffered sends, blocking
  receives with a timeout — and implements the same
  :class:`~repro.interp.mpi_runtime.CommunicatorBase` interface, so the
  collective algorithms (and their tag space) are literally shared code;
* **statistics** are counted locally per rank (no cross-process locks) and
  merged deterministically by the parent (:mod:`repro.runtime.stats`).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..interp.mpi_runtime import (
    CommStatistics,
    CommunicatorBase,
    MPIRuntimeError,
    _copy_into,
)


def default_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the runtime uses (fork on Linux only).

    Fork keeps worker startup cheap and inherits the imported compiler stack.
    It is restricted to Linux: macOS frameworks abort in forked children
    (which is why CPython's own default there is spawn).  Everything is
    passed explicitly so spawn platforms work identically, just with a
    slower first run.
    """
    methods = multiprocessing.get_all_start_methods()
    if sys.platform == "linux" and "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


_AVAILABLE: Optional[bool] = None


def processes_available() -> bool:
    """True when shared memory and process creation work on this platform.

    Plans asking for ``runtime="processes"`` fall back to the thread world
    when this is False, so callers never have to guard themselves.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            block = shared_memory.SharedMemory(create=True, size=16)
            block.close()
            block.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


# ---------------------------------------------------------------------------
# shared-memory fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedFieldSpec:
    """Everything a worker needs to attach one shared field buffer."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedField:
    """A worker's NumPy view of a parent-owned ``shared_memory`` block.

    The parent side — allocation, leasing, unlinking — is
    :class:`repro.runtime.shared_pool.SharedFieldPool`.
    """

    def __init__(self, block, array: np.ndarray):
        self._block = block
        self.array = array

    @classmethod
    def attach(cls, spec: SharedFieldSpec) -> "SharedField":
        """Attach to a parent-owned block from a worker process."""
        from multiprocessing import resource_tracker, shared_memory

        # The attaching worker must not (re-)register the block with the
        # resource tracker: the parent owns the lifetime and unlinks it, and
        # a second registration either double-unregisters (fork, shared
        # tracker) or produces bogus "leaked shared_memory" warnings at
        # worker exit (spawn).  Python < 3.13 has no track=False, so the
        # registration hook is silenced for the duration of the attach (the
        # worker command loop is single-threaded).
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            block = shared_memory.SharedMemory(name=spec.name)
        finally:
            resource_tracker.register = original_register
        array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf)
        return cls(block, array)

    def release(self) -> None:
        """Close this handle; the parent unlinks the block."""
        self.array = None
        self._block.close()


# ---------------------------------------------------------------------------
# point-to-point transport
# ---------------------------------------------------------------------------

class MPRequest:
    """Request handle of the process world (same surface as ``SimRequest``)."""

    __slots__ = ("kind", "comm", "source", "tag", "buffer", "completed")

    def __init__(self, kind: str, comm: "ProcessRankCommunicator", source: int,
                 tag: int, buffer: Optional[np.ndarray]):
        self.kind = kind
        self.comm = comm
        self.source = source
        self.tag = tag
        self.buffer = buffer
        self.completed = kind == "send"  # buffered sends complete immediately

    def test(self) -> bool:
        if self.completed:
            return True
        message = self.comm._match(self.source, self.tag, block=False)
        if message is None:
            return False
        _copy_into(self.buffer, message)
        self.completed = True
        return True

    def wait(self, timeout: Optional[float] = None) -> None:
        if self.completed:
            return
        message = self.comm._match(self.source, self.tag, block=True, timeout=timeout)
        _copy_into(self.buffer, message)
        self.completed = True


class ProcessRankCommunicator(CommunicatorBase):
    """One rank's communicator, living inside a worker process.

    ``inboxes[r]`` is rank ``r``'s mailbox queue; any rank may put into any
    other rank's inbox, only the owner gets from its own.  Every envelope
    carries the run id so a message stranded by a failed earlier run can never
    be matched by a later one.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: Sequence,
        run_id: int,
        timeout: float = 30.0,
    ):
        if not 0 <= rank < size:
            raise MPIRuntimeError(f"rank {rank} outside world of size {size}")
        self.rank = rank
        self._size = size
        self._inboxes = inboxes
        self._run_id = run_id
        self.timeout = timeout
        self.statistics = CommStatistics()
        # (source, tag) -> deque of arrays already pulled out of the inbox.
        self._stash: dict[tuple[int, int], deque] = defaultdict(deque)

    @property
    def size(self) -> int:
        return self._size

    # -- transport ------------------------------------------------------------
    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self._size:
            raise MPIRuntimeError(f"send to invalid rank {dest}")
        payload = np.array(data, copy=True)
        self._inboxes[dest].put((self._run_id, self.rank, tag, payload))
        self.statistics.messages_sent += 1
        self.statistics.bytes_sent += payload.nbytes

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> MPRequest:
        self.send(data, dest, tag)
        return MPRequest("send", self, dest, tag, None)

    def recv(self, buffer: np.ndarray, source: int, tag: int = 0) -> np.ndarray:
        message = self._match(source, tag, block=True)
        _copy_into(np.asarray(buffer), message)
        return buffer

    def irecv(self, buffer: np.ndarray, source: int, tag: int = 0) -> MPRequest:
        return MPRequest("recv", self, source, tag, np.asarray(buffer))

    def wait(self, request: MPRequest) -> None:
        request.wait(self.timeout)

    # -- statistics hooks ------------------------------------------------------
    def _record_collective(self) -> None:
        self.statistics.collectives += 1

    def _record_barrier(self) -> None:
        self.statistics.barriers += 1

    # -- mailbox ---------------------------------------------------------------
    def _match(
        self,
        source: int,
        tag: int,
        *,
        block: bool,
        timeout: Optional[float] = None,
    ) -> Optional[np.ndarray]:
        """Pop the next message from ``(source, tag)``, draining the inbox.

        Non-matching envelopes are stashed for later receives; envelopes from
        another run are dropped.  Blocking waits honour the world timeout.
        """
        wanted = (source, tag)
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        inbox = self._inboxes[self.rank]
        while True:
            stashed = self._stash.get(wanted)
            if stashed:
                return stashed.popleft()
            if block:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPIRuntimeError(
                        f"rank {self.rank} timed out waiting for a message "
                        f"from rank {source} with tag {tag}"
                    )
                try:
                    envelope = inbox.get(timeout=min(remaining, 0.2))
                except queue_module.Empty:
                    continue
            else:
                try:
                    envelope = inbox.get_nowait()
                except queue_module.Empty:
                    return None
            run_id, sender, sent_tag, payload = envelope
            if run_id != self._run_id:
                continue  # stranded by a failed earlier run: drop
            self._stash[(sender, sent_tag)].append(payload)
