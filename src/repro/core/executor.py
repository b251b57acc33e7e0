"""Execution primitives: results and the scatter/gather geometry.

:class:`ExecutionResult` and the helpers that cut a global array into
per-rank local buffers (core slab + halo) and write the cores back.  The
engine itself lives next door: :mod:`repro.core.rank` executes one rank,
:mod:`repro.core.session` owns the runtime resources and the per-program
plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..interp import CommStatistics, ExecStatistics
from ..transforms.distribute import DecompositionStrategy
from .config import (
    EXECUTION_BACKENDS,
    EXECUTION_RUNTIMES,
    ExecutionError,
    RuntimeFallbackWarning,
)

__all__ = [
    "EXECUTION_BACKENDS", "EXECUTION_RUNTIMES",
    "ExecutionError", "ExecutionResult", "RuntimeFallbackWarning",
    "local_field_slices",
]


@dataclass
class ExecutionResult:
    """Outcome of one execution."""

    statistics: list[ExecStatistics]
    messages_sent: int = 0
    bytes_sent: int = 0
    #: Full world-wide communication counters (distributed runs only).
    comm_statistics: Optional[CommStatistics] = None
    #: The runtime that actually executed: "local", "threads" or "processes"
    #: (reflects the automatic fallback, not just the request).
    runtime: str = "local"
    #: Intra-rank thread-team size of the run (the OpenMP level of the
    #: paper's hybrid MPI+OpenMP configurations; 1 = flat runs), as
    #: :meth:`~repro.core.config.ExecutionConfig.team_size` resolves it.
    threads_per_rank: int = 1
    #: The runtime the caller asked for.  Differs from :attr:`runtime` only
    #: when the request degraded (``"processes"`` falling back to
    #: ``"threads"``), which also emits a :class:`RuntimeFallbackWarning`.
    runtime_requested: str = "local"
    #: The run's merged multi-track timeline (a
    #: :class:`repro.obs.TraceTimeline` with the compile, session, and
    #: per-rank tracks) when the run was traced, else None.
    trace: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def total_cells_updated(self) -> int:
        return sum(stat.cells_updated for stat in self.statistics)

    @property
    def total_halo_swaps(self) -> int:
        return sum(stat.halo_swaps for stat in self.statistics)

    @property
    def degraded(self) -> bool:
        """True when a requested runtime was unavailable and a fallback ran."""
        return self.runtime != self.runtime_requested


def core_field_slices(
    global_shape: Sequence[int],
    strategy: DecompositionStrategy,
    rank: int,
    halo_lower: Sequence[int],
    margin: Sequence[int],
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """One rank's core slab as ``(global slices, local-buffer slices)``.

    The region a gather writes back: the core without its halo, addressed
    in the global array and in the rank's local buffer.  ``global_shape`` is
    the program's compute domain and ``margin`` the cells a global array
    carries in front of compute index 0 along each dimension.
    """
    start, end = strategy.global_slab(global_shape, rank)
    return (
        tuple(slice(s + m, e + m) for s, e, m in zip(start, end, margin)),
        tuple(slice(h, h + (e - s)) for s, e, h in zip(start, end, halo_lower)),
    )


def local_field_slices(
    global_shape: Sequence[int],
    strategy: DecompositionStrategy,
    rank: int,
    halo_lower: Sequence[int],
    halo_upper: Sequence[int],
    margin: Sequence[int],
) -> tuple[slice, ...]:
    """The global-array region holding one rank's local buffer (core + halo).

    The core of :func:`core_field_slices` widened by the halo; ``margin``
    must be at least the halo width, so slicing never leaves the array.
    """
    core, _ = core_field_slices(global_shape, strategy, rank, halo_lower, margin)
    return tuple(
        slice(region.start - lower, region.stop + upper)
        for region, lower, upper in zip(core, halo_lower, halo_upper)
    )
