"""The picklable per-rank report every rank of every world produces.

Each rank of a round — a process worker, a thread-world rank, the one rank
of a local job — reports one :class:`RankStats`, built by
:func:`repro.core.rank.rank_report`, to its round's collector
(:func:`repro.runtime.worker_pool.collect_reports`).  Both statistics types
(:class:`~repro.interp.ExecStatistics` and
:class:`~repro.interp.CommStatistics`) are plain int dataclasses, so a
report crosses the process boundary untouched.  The parent orders a job's
reports by rank (:func:`sort_rank_stats`) and merges the communication
counters with :func:`~repro.interp.mpi_runtime.merge_comm_statistics`, so
repeated runs, and either world, always produce identical aggregate numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..interp.interpreter import ExecStatistics
from ..interp.mpi_runtime import CommStatistics


@dataclass
class RankStats:
    """Everything one rank reports about one run."""

    rank: int
    exec_stats: ExecStatistics
    #: The rank's communication counters (None for a local job).
    comm_stats: Optional[CommStatistics]
    #: The rank's :class:`repro.obs.TraceRecord` when the run was traced
    #: (spans recorded against the rank's monotonic clock; the parent's
    #: timeline merge re-aligns them), else None.
    trace: Optional[Any] = None
    #: The rank's ``megakernel.*`` counts (which tier ran, cache hit/miss).
    counters: dict = field(default_factory=dict)
    #: The rank's :class:`repro.interp.codegen.CodegenFallback`, when the
    #: megakernel was wanted but could not be built.
    codegen_fallback: Optional[Any] = None


def sort_rank_stats(reports: Sequence[RankStats]) -> list[RankStats]:
    """Order a job's reports by rank (ranks finish in arbitrary order)."""
    ordered = sorted(reports, key=lambda report: report.rank)
    ranks = [report.rank for report in ordered]
    if ranks != list(range(len(ordered))):
        raise ValueError(f"incomplete or duplicated rank reports: {ranks}")
    return ordered
