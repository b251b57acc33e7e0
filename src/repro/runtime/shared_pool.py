"""A pool of reusable shared-memory blocks for per-rank field buffers.

The naive process runtime pays two extra memcpys per field per run: scatter
each rank's slab into a throwaway NumPy array, copy that array into a freshly
allocated ``multiprocessing.shared_memory`` block, and after the run copy the
block back into the throwaway before gathering from it — with every block
unlinked at the end of every run.  This module removes all of that:

* a plan *scatters straight into* (and gathers straight out of) a leased
  block's NumPy view — the throwaway middle buffer and both extra memcpys
  are gone (``CommStatistics.bytes_elided`` counts what was saved);
* released blocks return to a free list keyed by capacity instead of being
  unlinked, so a repeated run — a benchmark's timing loop, a time-stepping
  driver — reuses the same OS objects (``shared_blocks_reused``).

The pool is parent-side only.  A worker looks each
:class:`~repro.runtime.mp_world.SharedFieldSpec` up by block name in its
:class:`~repro.runtime.mp_world.AttachedBlocks`, which maps a block the first
time the worker meets it and keeps it mapped, so a held plan's later runs
attach nothing.  It takes a fresh view with the spec's shape and dtype every
run, so it never needs to learn whether a block is fresh or was recycled for
another shape.  :meth:`SharedFieldPool.clear` unlinks the blocks; its owner
(``Session.close``) calls it only after the workers that map them stopped.
"""

from __future__ import annotations

import threading

import numpy as np

from .mp_world import FORK_LOCK, SharedFieldSpec, capacity_class


class LeasedField:
    """One leased block viewed as a NumPy array, plus the spec a worker
    finds it by."""

    __slots__ = ("_block", "array", "_pool", "_size_class", "_generation",
                 "reused")

    def __init__(self, block, array: np.ndarray, pool: "SharedFieldPool",
                 size_class: int, generation: int, reused: bool):
        self._block = block
        self.array = array
        self._pool = pool
        # The free-list key.  SharedMemory may round the allocation up to a
        # page multiple (block.size > requested), so reuse must match on the
        # *requested* class or small blocks would never be found again.
        self._size_class = size_class
        # Which pool epoch the block belongs to; a clear() while this lease
        # is outstanding closes the block, so release() must not re-pool it.
        self._generation = generation
        #: Whether this lease recycled a block from an earlier run.
        self.reused = reused

    @property
    def spec(self) -> SharedFieldSpec:
        return SharedFieldSpec(
            name=self._block.name,
            shape=tuple(self.array.shape),
            dtype=self.array.dtype.str,
        )

    def release(self) -> None:
        """Return the block to the pool's free list (it is *not* unlinked)."""
        self.array = None
        self._pool._give_back(self._block, self._size_class, self._generation)


class SharedFieldPool:
    """Thread-safe free list of shared-memory blocks, keyed by capacity."""

    def __init__(self):
        self._lock = threading.Lock()
        self._free: dict[int, list] = {}
        self._owned: list = []
        self._generation = 0

    def lease(self, shape, dtype) -> LeasedField:
        """A block big enough for ``shape x dtype``, recycled when possible.

        The lease's array view has exactly the requested shape; a recycled
        block only needs sufficient capacity, so one pool serves runs of
        different rank counts and field sizes without realloc churn.
        Scatter writes once into the view instead of once into a throwaway
        array plus once into the block, and gather reads it back without the
        symmetric copy-out — two memcpys of the payload are elided per lease
        (counted per run by the plan as ``CommStatistics.bytes_elided``).
        """
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dtype.itemsize, 1)
        size = capacity_class(nbytes)
        with self._lock:
            free = self._free.get(size)
            reused = bool(free)
            if free:
                block = free.pop()
            else:
                with FORK_LOCK:
                    block = shared_memory.SharedMemory(create=True, size=size)
                self._owned.append(block)
            generation = self._generation
        array = np.ndarray(shape, dtype=dtype, buffer=block.buf)
        return LeasedField(block, array, self, size, generation, reused)

    def _give_back(self, block, size_class: int, generation: int) -> None:
        with self._lock:
            if generation != self._generation:
                # clear() ran while the lease was outstanding: the block is
                # already closed and unlinked, so re-pooling it would hand a
                # dead buffer to the next lease.
                return
            self._free.setdefault(size_class, []).append(block)

    def clear(self) -> None:
        """Close and unlink every block the pool ever created.

        Outstanding leases become invalid (their epoch is retired), so their
        later ``release()`` is a no-op instead of re-pooling a dead block.
        """
        with self._lock, FORK_LOCK:
            for block in self._owned:
                try:
                    block.close()
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            self._owned.clear()
            self._free.clear()
            self._generation += 1
