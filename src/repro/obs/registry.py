"""Unified integer-counter registry.

Every counter the runtime produces — the interpreter's ``ExecStatistics``,
the communicators' ``CommStatistics``, session-lifecycle counts like
megakernel cache hits — lands in one flat namespace here
(``"exec.cells_updated"``, ``"comm.bytes_sent"``, ``"megakernel.cache_hit"``).

The dataclasses remain the *compatibility view*: a registry that ingested
per-rank statistics materialises them back out (:meth:`as_exec_statistics`
/ :meth:`as_comm_statistics`), which is how :mod:`repro.serve.stats`
reports its running totals.  Both directions are plain integer sums over
``dataclasses.fields`` in rank order.  The runtime's own merge of per-rank
communication counters is
:func:`~repro.interp.mpi_runtime.merge_comm_statistics`, not this registry.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Iterable


class MetricsRegistry:
    """Flat ``name -> int`` counter store with dataclass in/out views.

    ``inc`` is atomic: jobs finished from several caller threads merge
    their ranks' counts (``megakernel.*``, each rank's own registry in
    :func:`repro.core.rank.rank_report`) into the session's concurrently.
    """

    __slots__ = ("_counters", "_lock")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def get(self, name: str, default: int = 0) -> int:
        return self._counters.get(name, default)

    def record_peak(self, name: str, value: int) -> None:
        """Keep the high-water mark of ``value`` under ``name``.

        Unlike :meth:`inc` the stored number is a *gauge peak*, not a running
        sum — the serving layer uses it for queue-depth and batch-occupancy
        maxima (``serve.queue_depth_peak``, ``serve.batch_occupancy_peak``).
        """
        current = self._counters.get(name)
        if current is None or value > current:
            self._counters[name] = value

    def merge_counts(self, counts: Dict[str, int]) -> None:
        for name, value in counts.items():
            self.inc(name, value)

    def snapshot(self) -> Dict[str, int]:
        """A copy of every counter, sorted by name."""
        return dict(sorted(self._counters.items()))

    def __len__(self) -> int:
        return len(self._counters)

    # ------------------------------------------------------------------
    # Dataclass views.
    # ------------------------------------------------------------------

    def ingest(self, stats, prefix: str) -> None:
        """Add every integer field of a statistics dataclass under *prefix*."""
        counters = self._counters
        with self._lock:
            for field in dataclasses.fields(type(stats)):
                name = prefix + field.name
                counters[name] = counters.get(name, 0) + getattr(stats, field.name)

    def ingest_all(self, stats_list: Iterable, prefix: str) -> None:
        for stats in stats_list:
            self.ingest(stats, prefix)

    def _as_dataclass(self, cls, prefix: str):
        values = {field.name: self._counters.get(prefix + field.name, 0)
                  for field in dataclasses.fields(cls)}
        return cls(**values)

    def as_exec_statistics(self, prefix: str = "exec."):
        """Materialise the ``exec.*`` counters as an ``ExecStatistics``."""
        from ..interp.interpreter import ExecStatistics

        return self._as_dataclass(ExecStatistics, prefix)

    def as_comm_statistics(self, prefix: str = "comm."):
        """Materialise the ``comm.*`` counters as a ``CommStatistics``."""
        from ..interp.mpi_runtime import CommStatistics

        return self._as_dataclass(CommStatistics, prefix)
