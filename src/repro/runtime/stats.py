"""Picklable per-rank statistics and their deterministic parent-side merge.

Workers of the process runtime report one :class:`RankStats` each over the
result queue; both payload types (:class:`~repro.interp.ExecStatistics` and
:class:`~repro.interp.CommStatistics`) are plain int dataclasses, so they
cross the process boundary untouched.  The parent merges them *in rank order*
so repeated runs — and the thread runtime, whose world keeps one shared
counter set — always produce identical aggregate numbers.

The merges are implemented on :class:`repro.obs.MetricsRegistry`: every rank
is ingested into the flat counter namespace and the dataclass is
materialised back out.  Both directions are plain integer sums over
``dataclasses.fields`` in rank order, so the results are bit-identical to
the hand-written field-by-field merges they replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..interp.interpreter import ExecStatistics
from ..interp.mpi_runtime import CommStatistics
from ..obs.registry import MetricsRegistry


@dataclass
class RankStats:
    """Everything one worker reports about one rank of one run."""

    rank: int
    exec_stats: ExecStatistics
    comm_stats: CommStatistics
    #: The rank's :class:`repro.obs.TraceRecord` when the run was traced
    #: (spans recorded against the worker's local monotonic clock; the
    #: parent's timeline merge re-aligns them), else None.
    trace: Optional[Any] = None
    #: The rank's ``megakernel.*`` counts (which tier ran, cache hit/miss).
    counters: dict = field(default_factory=dict)
    #: The rank's :class:`repro.interp.codegen.CodegenFallback`, when the
    #: megakernel was wanted but could not be built.
    codegen_fallback: Optional[Any] = None


def merge_comm_statistics(per_rank: Sequence[CommStatistics]) -> CommStatistics:
    """Sum per-rank communication counters (rank order, hence deterministic).

    The thread world counts every ``post_message`` into one shared
    :class:`CommStatistics`; summing each process rank's local counters yields
    the same totals because both runtimes run the identical collective
    algorithms of :class:`~repro.interp.mpi_runtime.CommunicatorBase`.
    """
    registry = MetricsRegistry()
    registry.ingest_all(per_rank, "comm.")
    return registry.as_comm_statistics()


def sort_rank_stats(reports: Sequence[RankStats]) -> list[RankStats]:
    """Order worker reports by rank (workers finish in arbitrary order)."""
    ordered = sorted(reports, key=lambda report: report.rank)
    ranks = [report.rank for report in ordered]
    if ranks != list(range(len(ordered))):
        raise ValueError(f"incomplete or duplicated rank reports: {ranks}")
    return ordered
