"""Domain decomposition strategies (paper §4.2).

A :class:`DecompositionStrategy` knows how to split a global stencil domain
over a Cartesian grid of MPI ranks, and how to generate the halo-exchange
declarations (``#dmp.exchange`` attributes) from the stencil access pattern.
The default :class:`GridSlicingStrategy` supports 1D, 2D and 3D slicing, as in
the paper; adopters can plug in their own strategy (e.g. with diagonal
exchanges) by implementing the same interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ...dialects.dmp import ExchangeAttr, GridAttr
from ...dialects.stencil import StencilBoundsAttr


class DecompositionError(Exception):
    """Raised when a domain cannot be decomposed over the requested rank grid."""


@dataclass(frozen=True)
class LocalDomain:
    """The result of decomposing a global domain for one (generic) rank.

    All ranks share the same local shape (equal decomposition), so a single
    SPMD module can be generated; only the mapping of local to global
    coordinates differs per rank and is handled by the data scatter/gather.
    """

    #: Core (owned) extent per dimension, halo excluded.
    core_shape: tuple[int, ...]
    #: Halo width below the core, per dimension.
    halo_lower: tuple[int, ...]
    #: Halo width above the core, per dimension.
    halo_upper: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.core_shape)

    @property
    def buffer_shape(self) -> tuple[int, ...]:
        """Shape of the local buffer including halos."""
        return tuple(
            lo + core + hi
            for lo, core, hi in zip(self.halo_lower, self.core_shape, self.halo_upper)
        )

    def field_bounds(self) -> StencilBoundsAttr:
        """Local field bounds in local logical coordinates (core starts at 0)."""
        return StencilBoundsAttr(
            [-lo for lo in self.halo_lower],
            [core + hi for core, hi in zip(self.core_shape, self.halo_upper)],
        )

    def compute_bounds(self) -> StencilBoundsAttr:
        """Local compute/store bounds (the core) in local logical coordinates."""
        return StencilBoundsAttr([0] * self.rank, list(self.core_shape))


class DecompositionStrategy(ABC):
    """Interface used by the global-to-local rewrite pass."""

    @abstractmethod
    def rank_grid(self) -> GridAttr:
        """The Cartesian topology of the participating ranks."""

    @abstractmethod
    def local_domain(
        self,
        global_shape: Sequence[int],
        halo_lower: Sequence[int],
        halo_upper: Sequence[int],
    ) -> LocalDomain:
        """Split a global core domain into the (identical) per-rank local domain."""

    @abstractmethod
    def exchanges(self, domain: LocalDomain) -> list[ExchangeAttr]:
        """Halo exchange declarations for the local buffer of ``domain``."""

    def global_slab(
        self, global_shape: Sequence[int], rank: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(start, end) of the core slab owned by ``rank`` in global coordinates."""
        grid = self.rank_grid()
        coords = grid.coords_of(rank)
        starts = []
        ends = []
        for dim, extent in enumerate(global_shape):
            if dim < grid.ndims:
                per_rank = extent // grid.shape[dim]
                starts.append(coords[dim] * per_rank)
                ends.append((coords[dim] + 1) * per_rank)
            else:
                starts.append(0)
                ends.append(extent)
        return tuple(starts), tuple(ends)


class GridSlicingStrategy(DecompositionStrategy):
    """Equal slicing of the leading dimensions over a Cartesian rank grid.

    ``grid_shape`` gives the number of ranks along each decomposed dimension;
    trailing dimensions of the domain are not decomposed.  This is the default
    1D/2D/3D slicing strategy of the paper.
    """

    def __init__(self, grid_shape: Sequence[int]):
        self.grid_shape = tuple(int(g) for g in grid_shape)
        if not self.grid_shape:
            raise DecompositionError("the rank grid must have at least one dimension")
        if any(g < 1 for g in self.grid_shape):
            raise DecompositionError("rank grid dimensions must be positive")

    def rank_grid(self) -> GridAttr:
        return GridAttr(self.grid_shape)

    @property
    def rank_count(self) -> int:
        return self.rank_grid().rank_count

    def local_domain(
        self,
        global_shape: Sequence[int],
        halo_lower: Sequence[int],
        halo_upper: Sequence[int],
    ) -> LocalDomain:
        global_shape = tuple(int(s) for s in global_shape)
        if len(self.grid_shape) > len(global_shape):
            raise DecompositionError(
                f"cannot decompose a {len(global_shape)}D domain over a "
                f"{len(self.grid_shape)}D rank grid"
            )
        core = []
        for dim, extent in enumerate(global_shape):
            if dim < len(self.grid_shape):
                ranks = self.grid_shape[dim]
                if extent % ranks != 0:
                    raise DecompositionError(
                        f"dimension {dim} of extent {extent} is not divisible by the "
                        f"rank grid extent {ranks}"
                    )
                core.append(extent // ranks)
            else:
                core.append(extent)
        return LocalDomain(
            core_shape=tuple(core),
            halo_lower=tuple(int(h) for h in halo_lower),
            halo_upper=tuple(int(h) for h in halo_upper),
        )

    def exchanges(self, domain: LocalDomain) -> list[ExchangeAttr]:
        """One exchange per decomposed dimension and direction (no diagonals)."""
        rank = domain.rank
        grid_dims = len(self.grid_shape)
        exchanges: list[ExchangeAttr] = []
        for dim in range(min(grid_dims, rank)):
            if self.grid_shape[dim] == 1:
                continue
            for direction, width in ((-1, domain.halo_lower[dim]), (+1, domain.halo_upper[dim])):
                if width == 0:
                    continue
                offset = list(domain.halo_lower)  # start of the core region
                size = list(domain.core_shape)
                source_offset = [0] * rank
                neighbor = [0] * grid_dims
                if direction < 0:
                    # Receive into the low-side halo strip; send the first
                    # ``width`` core cells to the lower neighbour.
                    offset[dim] = domain.halo_lower[dim] - width
                    size[dim] = width
                    source_offset[dim] = width
                else:
                    # Receive into the high-side halo strip; send the last
                    # ``width`` core cells to the upper neighbour.
                    offset[dim] = domain.halo_lower[dim] + domain.core_shape[dim]
                    size[dim] = width
                    source_offset[dim] = -width
                neighbor[dim] = direction
                exchanges.append(
                    ExchangeAttr(offset, size, source_offset, neighbor)
                )
        return exchanges


def communicated_elements_per_step(
    strategy: DecompositionStrategy,
    global_shape: Sequence[int],
    halo_lower: Sequence[int],
    halo_upper: Sequence[int],
) -> int:
    """Total number of elements one rank exchanges per halo swap."""
    domain = strategy.local_domain(global_shape, halo_lower, halo_upper)
    return sum(exchange.element_count() for exchange in strategy.exchanges(domain))
