"""Compilation targets of the shared stack.

A :class:`Target` describes *where* a stencil program should run and with
which parallelisation: sequential CPU, OpenMP shared memory, MPI distributed
memory (optionally combined with OpenMP), GPU, or FPGA.  The pipeline builder
maps a target onto the appropriate sequence of lowering passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


class TargetKind:
    """Enumeration of supported execution targets."""

    CPU_SEQUENTIAL = "cpu"
    CPU_OPENMP = "smp"
    DISTRIBUTED = "dmp"
    GPU = "gpu"
    FPGA = "fpga"

    ALL = (CPU_SEQUENTIAL, CPU_OPENMP, DISTRIBUTED, GPU, FPGA)


@dataclass(frozen=True)
class Target:
    """A fully specified compilation target."""

    kind: str = TargetKind.CPU_SEQUENTIAL
    #: The ``num_threads`` the ``openmp`` stage writes on each
    #: ``omp.parallel`` (smp / dmp targets).  Only the IR records it: no
    #: runtime reads it.  The team that runs a rank's nests is
    #: ``ExecutionConfig.threads_per_rank``.
    threads: Optional[int] = None
    #: Cartesian MPI rank grid (dmp target), e.g. (2, 2).
    rank_grid: Optional[tuple[int, ...]] = None
    #: Loop tile sizes for the CPU lowering; None disables tiling.
    tile_sizes: Optional[tuple[int, ...]] = None
    #: Fuse independent stencil regions before lowering.
    fuse_stencils: bool = True
    #: Lower dmp all the way to MPI_* function calls (a ``lower-mpi`` stage);
    #: without it the pipeline stops at dmp and has no ``lower-mpi`` stage.
    lower_to_library_calls: bool = False
    #: FPGA: apply the dataflow/shift-buffer optimisation.
    fpga_optimize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in TargetKind.ALL:
            raise ValueError(
                f"unknown target kind {self.kind!r}; expected one of {TargetKind.ALL}"
            )
        if self.kind == TargetKind.DISTRIBUTED and self.rank_grid is None:
            raise ValueError("a distributed target requires a rank_grid")

    @property
    def is_distributed(self) -> bool:
        return self.kind == TargetKind.DISTRIBUTED

    @property
    def ranks(self) -> int:
        if self.rank_grid is None:
            return 1
        total = 1
        for extent in self.rank_grid:
            total *= extent
        return total


def cpu_target(tile_sizes: Optional[Sequence[int]] = None) -> Target:
    """A sequential CPU target (reference semantics)."""
    return Target(
        kind=TargetKind.CPU_SEQUENTIAL,
        tile_sizes=tuple(tile_sizes) if tile_sizes else None,
    )


def smp_target(threads: int = 16, tile_sizes: Optional[Sequence[int]] = None) -> Target:
    """A shared-memory (OpenMP) CPU target."""
    return Target(
        kind=TargetKind.CPU_OPENMP,
        threads=threads,
        tile_sizes=tuple(tile_sizes) if tile_sizes else (64, 64, 64),
    )


def dmp_target(
    rank_grid: Sequence[int],
    threads: int = 16,
    lower_to_library_calls: bool = False,
) -> Target:
    """A distributed-memory (MPI [+ OpenMP]) target."""
    return Target(
        kind=TargetKind.DISTRIBUTED,
        rank_grid=tuple(rank_grid),
        threads=threads,
        lower_to_library_calls=lower_to_library_calls,
    )


def gpu_target() -> Target:
    """A single-GPU target."""
    return Target(kind=TargetKind.GPU)


def fpga_target(optimize: bool = True) -> Target:
    """An FPGA dataflow target."""
    return Target(kind=TargetKind.FPGA, fpga_optimize=optimize)
