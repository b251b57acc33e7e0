"""Picklable per-rank reports of the process runtime.

Workers of the process runtime report one :class:`RankStats` each over the
result queue; both payload types (:class:`~repro.interp.ExecStatistics` and
:class:`~repro.interp.CommStatistics`) are plain int dataclasses, so they
cross the process boundary untouched.  The parent orders them by rank
(:func:`sort_rank_stats`) and merges the communication counters with
:func:`~repro.interp.mpi_runtime.merge_comm_statistics` — the merge the
thread world's :class:`~repro.interp.SimulatedMPI` applies to its ranks'
counters — so repeated runs, and either world, always produce identical
aggregate numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..interp.interpreter import ExecStatistics
from ..interp.mpi_runtime import CommStatistics


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


def sort_rank_stats(reports: Sequence[RankStats]) -> list[RankStats]:
    """Order worker reports by rank (workers finish in arbitrary order)."""
    ordered = sorted(reports, key=lambda report: report.rank)
    ranks = [report.rank for report in ordered]
    if ranks != list(range(len(ordered))):
        raise ValueError(f"incomplete or duplicated rank reports: {ranks}")
    return ordered
