"""Intra-rank worker teams: the OpenMP thread level of the hybrid runtime.

The paper's strong-scaling configurations (figs. 8 and 11) are *hybrid*
MPI+OpenMP: several OS-process ranks, each running a team of threads over the
rank's shared address space.  This module provides that second level for the
reproduction: a :class:`ThreadTeam` is a persistent pool of worker threads
that the vectorized backend (:mod:`repro.interp.vectorize`) uses to split a
compiled nest's outermost dimension into per-thread chunks.  The chunks run
concurrently, each as its own sub-box of the nest — NumPy releases the GIL
inside its ufunc loops, so the flops genuinely overlap.  A nest only runs
vectorized when no cell it stores is loaded for another cell (the backend's
aliasing verdict), so the chunks are independent and the result stays
bit-identical to the tree walker.

Teams are cached per size and per process, exactly like the OS-process worker
pool one level up: a worker process of the SPMD runtime creates its team on
the first hybrid run and reuses it for every later one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence


class ThreadTeam:
    """A fixed-size, reusable pool of intra-rank worker threads."""

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("a thread team needs at least 2 threads")
        self.size = size
        self._pool = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="repro-team"
        )

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every item concurrently; preserves item order.

        Exceptions raised by ``fn`` propagate to the caller (from the first
        failing item, like ``ThreadPoolExecutor.map``).
        """
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False)


_TEAMS: dict[int, ThreadTeam] = {}
_TEAMS_LOCK = threading.Lock()


def _drop_inherited_teams() -> None:
    """Forget the parent's teams in a forked child.

    Only the calling thread survives a fork: an inherited ThreadPoolExecutor
    still *believes* its workers exist, so the first ``map`` on it would
    block forever.  The process runtime forks its workers (on Linux), so the
    cache must be repopulated with fresh teams in every child.
    """
    _TEAMS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_drop_inherited_teams)


def get_thread_team(size: int) -> Optional[ThreadTeam]:
    """The process-wide team of ``size`` threads (None when size <= 1).

    Teams persist for the life of the process so repeated runs — e.g. every
    time step dispatched by one worker of the process runtime — reuse the
    same threads instead of respawning them.
    """
    if size <= 1:
        return None
    with _TEAMS_LOCK:
        team = _TEAMS.get(size)
        if team is None:
            team = ThreadTeam(size)
            _TEAMS[size] = team
        return team


def split_trip_counts(trips: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(trips)`` into at most ``parts`` balanced [start, end) spans."""
    parts = max(1, min(parts, trips))
    return [
        (index * trips // parts, (index + 1) * trips // parts)
        for index in range(parts)
        if index * trips // parts < (index + 1) * trips // parts
    ]
