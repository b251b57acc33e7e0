"""Distributed-memory transformations: decomposition, dmp insertion, MPI lowering."""

from .decomposition import (
    DecompositionError,
    DecompositionStrategy,
    GridSlicingStrategy,
    LocalDomain,
    communicated_elements_per_step,
)
from .dmp_to_mpi import ConvertDMPToMPIPass, lower_dmp_to_mpi
from .redundant_swap_elim import RedundantSwapEliminationPass, eliminate_redundant_swaps
from .stencil_to_dmp import DistributeStencilPass, DistributionSummary, distribute_stencil

__all__ = [
    "DecompositionStrategy", "GridSlicingStrategy", "LocalDomain",
    "DecompositionError", "communicated_elements_per_step",
    "DistributeStencilPass", "DistributionSummary", "distribute_stencil",
    "RedundantSwapEliminationPass", "eliminate_redundant_swaps",
    "ConvertDMPToMPIPass", "lower_dmp_to_mpi",
]
