"""OS-process SPMD world: shared-memory fields and shared-memory messages.

This is the process-runtime counterpart of
:class:`~repro.interp.mpi_runtime.SimulatedMPI`.  Each rank runs in its own
OS process (see :mod:`repro.runtime.worker_pool`), so NumPy kernels execute
truly in parallel instead of time-slicing one GIL:

* **fields** live in ``multiprocessing.shared_memory`` blocks: the parent
  scatters each rank's local buffer (core slab + halo) into a block, workers
  attach each block once (:class:`AttachedBlocks`) and compute in place, and
  the parent gathers straight out of the block — field contents never travel
  through a pickle;
* **messages** travel as a payload in a shared-memory *message block* plus a
  small envelope ``(run id, sender, tag, block name, shape, dtype)`` on the
  receiver's ``multiprocessing.Queue`` inbox.  The sending worker owns its
  blocks (:class:`MessageBlocks`): ``post`` copies the payload into a free
  one — the only sender-side copy — and ``land`` copies it straight into
  the request's buffer, then bumps the block's consumed counter so the
  sender may reuse it.  :class:`ProcessMailbox` is this world's mailbox
  under the one :class:`~repro.interp.mpi_runtime.Communicator`, with the
  same discipline as the thread world's — matching by ``(source, tag)``,
  posts that never block, blocking takes with one deadline — so the
  point-to-point rules, the collective algorithms (and their tag space) and
  the statistics are literally shared code;
* **statistics** are counted per rank by the communicator (no cross-process
  locks) and merged in rank order by the parent
  (:func:`~repro.interp.mpi_runtime.merge_comm_statistics`).
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import struct
import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..interp.mpi_runtime import MPIRuntimeError


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


#: Held in the parent around every call that takes the multiprocessing
#: resource tracker's lock — creating or unlinking a shared block — and around
#: forking workers.  A worker forked while another thread of the parent held
#: the tracker's lock would inherit it locked and hang at its first message
#: block; workers never take this lock themselves.
FORK_LOCK = threading.Lock()

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

            with FORK_LOCK:
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


class AttachedBlocks:
    """Every shared block one worker opened, by name, for the worker's life.

    One cache for both kinds of block a worker reads: the parent's field
    blocks (a :class:`SharedFieldSpec` argument of a rank) and its peers'
    message blocks (:class:`MessageBlocks`).  A block is mapped the first
    time the worker meets its name and stays mapped until the worker exits,
    so a held plan's later runs map nothing, fault nothing in and unmap
    nothing.  The owners unlink the blocks only once the workers are gone
    (``Session.close`` stops the pool before ``SharedFieldPool.clear()``;
    :meth:`~repro.runtime.worker_pool.WorkerPool.shutdown` unlinks message
    blocks after the stop).
    """

    def __init__(self):
        self._mapped: dict[str, object] = {}

    def block(self, name: str):
        """The worker's mapping of block ``name``, attached on first use."""
        memory = self._mapped.get(name)
        if memory is None:
            memory = self._mapped[name] = _attach(name)
        return memory

    def view(self, spec: SharedFieldSpec) -> np.ndarray:
        """A fresh array with ``spec``'s shape and dtype over its block.

        Fresh on every call: the parent's pool recycles a block for fields
        of other shapes and dtypes, so the mapping is cached, not the view.
        """
        return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                          buffer=self.block(spec.name).buf)

    def names(self) -> list[str]:
        """The names of every block attached so far, sorted."""
        return sorted(self._mapped)


def _attach(name: str):
    """Open an existing block without registering it with the resource tracker.

    The attaching worker must not (re-)register a block it does not own: its
    owner unlinks it, and a second registration either double-unregisters
    (fork, shared tracker) or produces bogus "leaked shared_memory" warnings
    at worker exit (spawn).  Python < 3.13 has no track=False, so the
    registration hook is silenced for the duration of the attach (the worker
    command loop is single-threaded).
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def capacity_class(nbytes: int) -> int:
    """Round a request up to its reuse class (next power of two >= 4 KiB).

    Rounding makes near-miss sizes (a 130x130 run after a 128x128 one) hit
    the free list instead of allocating a fresh block for every new shape.
    """
    size = 4096
    while size < nbytes:
        size *= 2
    return size


# ---------------------------------------------------------------------------
# point-to-point transport
# ---------------------------------------------------------------------------

#: A message block's header: the count of messages its receivers copied out,
#: written only by receivers, read only by the owning sender.  The payload
#: starts one cache line in.
_CONSUMED = struct.Struct("q")
_HEADER = 64


def message_block_name(prefix: str, worker: int, counter: int) -> str:
    """The name of the ``counter``-th message block worker ``worker`` created."""
    return f"{prefix}_{worker}_{counter}"


def unlink_message_blocks(prefix: str, workers: int) -> int:
    """Unlink every message block of a pool by name; return how many.

    Each worker names its blocks ``0, 1, 2, ...`` without gaps and never
    unlinks one itself, so the first missing name ends a worker's blocks —
    whether the worker stopped, crashed or was killed.  Call it once no
    worker of the pool runs any more.
    """
    from multiprocessing import shared_memory

    unlinked = 0
    with FORK_LOCK:
        for worker in range(workers):
            for counter in itertools.count():
                try:
                    # An ordinary attach: it registers the name with the
                    # resource tracker the workers share, and unlink()
                    # unregisters it.
                    block = shared_memory.SharedMemory(
                        name=message_block_name(prefix, worker, counter))
                except FileNotFoundError:
                    break
                block.close()
                block.unlink()
                unlinked += 1
    return unlinked


class _OutgoingBlock:
    """A message block its worker writes: free once every message posted
    through it was consumed."""

    __slots__ = ("memory", "posted")

    def __init__(self, memory):
        self.memory = memory
        self.posted = 0

    @property
    def free(self) -> bool:
        return _CONSUMED.unpack_from(self.memory.buf)[0] == self.posted


class MessageBlocks:
    """One worker's message blocks: those it writes and those it reads.

    Outgoing blocks are created on first need in the capacity classes of
    :func:`capacity_class`, named by :func:`message_block_name` from the
    pool's prefix, the worker index and a counter, and recycled as soon as
    their receiver consumed the message in them — so the number of blocks is
    the most messages the worker ever had in flight at once, and a repeated
    exchange stops creating blocks once it reached that mark.  The worker
    pool unlinks them all on shutdown (:func:`unlink_message_blocks`).
    Incoming blocks are looked up in the worker's :class:`AttachedBlocks`,
    the cache its field blocks live in too: attached once per name, mapped
    for the worker's lifetime.

    Ordering: the payload is written before its envelope is put on a queue
    and read after the envelope came out of it (the queue's pipe orders
    them), and the consumed counter is bumped only after the copy-out.
    """

    def __init__(self, prefix: str, worker: int):
        self._prefix = prefix
        self._worker = worker
        self._outgoing: dict[int, list[_OutgoingBlock]] = {}
        self._created = 0
        #: The worker's attachment cache: incoming message blocks and, in a
        #: pool worker, the field blocks of its ranks.
        self.attached = AttachedBlocks()

    def write(self, data: np.ndarray) -> str:
        """Copy ``data`` into a free outgoing block; return the block's name."""
        if data.dtype.hasobject:
            raise MPIRuntimeError(
                f"cannot send an array of {data.dtype} between processes")
        size = capacity_class(_HEADER + data.nbytes)
        blocks = self._outgoing.setdefault(size, [])
        block = next((candidate for candidate in blocks if candidate.free), None)
        if block is None:
            from multiprocessing import shared_memory

            block = _OutgoingBlock(shared_memory.SharedMemory(
                name=message_block_name(self._prefix, self._worker, self._created),
                create=True, size=size))
            self._created += 1
            blocks.append(block)
        np.copyto(
            np.ndarray(data.shape, data.dtype, buffer=block.memory.buf,
                       offset=_HEADER),
            data)
        block.posted += 1
        return block.memory.name

    def read(self, message: tuple, into: Optional[np.ndarray]) -> None:
        """Copy a message into ``into`` (``None`` drops it); consume its block."""
        name, shape, dtype = message
        memory = self.attached.block(name)
        try:
            if into is not None:
                payload = np.ndarray(shape, dtype, buffer=memory.buf, offset=_HEADER)
                np.copyto(into, payload.reshape(into.shape), casting="unsafe")
        finally:
            consumed = _CONSUMED.unpack_from(memory.buf)[0]
            _CONSUMED.pack_into(memory.buf, 0, consumed + 1)


class ProcessMailbox:
    """One rank's mailbox in a worker process, for one run.

    ``inboxes`` is the run's window of the pool's queues: ``inboxes[r]`` is
    rank ``r``'s inbox; any rank may put an envelope into any other rank's
    inbox, only the owner takes from its own.  Payloads travel in the
    worker's :class:`MessageBlocks`.  Every envelope carries the run id so a
    message stranded by a failed earlier run can never be taken by a later
    one.
    """

    def __init__(self, inboxes: Sequence, run_id: int, blocks: MessageBlocks):
        self._inboxes = inboxes
        self._run_id = run_id
        #: The worker's message blocks (and, through them, its attachments).
        self.blocks = blocks
        # (source, tag) -> deque of (block name, shape, dtype) messages
        # already pulled out of the inbox.
        self._stash: dict[tuple[int, int], deque] = defaultdict(deque)

    def post(self, source: int, dest: int, tag: int, data: np.ndarray) -> None:
        name = self.blocks.write(data)
        self._inboxes[dest].put((self._run_id, source, tag, name, data.shape, data.dtype))

    def take(self, dest: int, source: int, tag: int,
             timeout: Optional[float]) -> Optional[list]:
        """Pop the next message from ``(source, tag)``, draining the inbox.

        Non-matching envelopes are stashed for later takes; envelopes from
        another run are dropped (their blocks consumed unread).
        """
        wanted = (source, tag)
        deadline = time.monotonic() + timeout if timeout is not None else None
        inbox = self._inboxes[dest]
        while True:
            stashed = self._stash.get(wanted)
            if stashed:
                return stashed.popleft()
            if deadline is None:
                try:
                    envelope = inbox.get_nowait()
                except queue_module.Empty:
                    return None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPIRuntimeError(
                        f"rank {dest} timed out waiting for a message "
                        f"from rank {source} with tag {tag}"
                    )
                try:
                    envelope = inbox.get(timeout=min(remaining, 0.2))
                except queue_module.Empty:
                    continue
            run_id, sender, sent_tag, *message = envelope
            if run_id != self._run_id:
                # Stranded by an earlier run: drop it, freeing its block.
                self.blocks.read(message, None)
                continue
            self._stash[(sender, sent_tag)].append(message)

    def land(self, message: list, into: Optional[np.ndarray]) -> None:
        self.blocks.read(message, into)

    def close(self) -> None:
        """Consume the messages this run received but never matched, so
        their senders may reuse the blocks."""
        for messages in self._stash.values():
            for message in messages:
                self.blocks.read(message, None)
        self._stash.clear()
