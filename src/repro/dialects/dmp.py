"""The dmp dialect: declarative distributed-memory halo exchanges (paper §4.2).

The central operation is ``dmp.swap`` which takes a memref (or stencil field)
and declares, through attributes, which rectangular subsections must be
exchanged with which neighbouring ranks of a Cartesian grid::

    dmp.swap(%data) {
      "grid" = #dmp.grid<2x2>,
      "swaps" = [
        #dmp.exchange<at [4, 0] size [100, 4] source offset [0, 4] to [0, -1]>,
        ...
      ]
    } : (memref<108x108xf32>) -> ()

Nothing in the dialect is MPI specific; the lowering in
:mod:`repro.transforms.distribute.dmp_to_mpi` targets the mpi dialect, but
other communication substrates could be targeted instead.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import ArrayAttr, Attribute
from ..ir.core import Operation, SSAValue
from ..ir.traits import CommunicationEffect, MemoryReadEffect, MemoryWriteEffect


class GridAttr(Attribute):
    """The Cartesian topology of the ranks participating in a swap (e.g. 2x2)."""

    name = "dmp.grid"

    __slots__ = ("shape",)

    def __init__(self, shape: Sequence[int]):
        self.shape: tuple[int, ...] = tuple(int(s) for s in shape)
        if not self.shape:
            raise ValueError("dmp.grid must have at least one dimension")
        if any(s < 1 for s in self.shape):
            raise ValueError("dmp.grid dimensions must be positive")

    def parameters(self) -> tuple:
        return (self.shape,)

    @property
    def rank_count(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def ndims(self) -> int:
        return len(self.shape)

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Row-major Cartesian coordinates of an MPI rank in this grid."""
        if not 0 <= rank < self.rank_count:
            raise ValueError(f"rank {rank} outside grid of {self.rank_count} ranks")
        coords = []
        remainder = rank
        for extent in reversed(self.shape):
            coords.append(remainder % extent)
            remainder //= extent
        return tuple(reversed(coords))

    def rank_of(self, coords: Sequence[int]) -> Optional[int]:
        """The MPI rank at the given coordinates, or None if outside the grid."""
        if len(coords) != len(self.shape):
            raise ValueError("coordinate rank does not match the grid rank")
        rank = 0
        for coord, extent in zip(coords, self.shape):
            if not 0 <= coord < extent:
                return None
            rank = rank * extent + coord
        return rank

    def neighbor_of(self, rank: int, offset: Sequence[int]) -> Optional[int]:
        """The rank at a relative offset from ``rank``, or None at the boundary."""
        coords = self.coords_of(rank)
        shifted = [c + o for c, o in zip(coords, offset)]
        return self.rank_of(shifted)

    def print_parameters(self, printer) -> str:
        return "x".join(str(s) for s in self.shape)

    def __str__(self) -> str:
        return f"#dmp.grid<{self.print_parameters(None)}>"


class ExchangeAttr(Attribute):
    """One halo exchange: a receive region, a send region and a neighbour offset.

    ``at``/``size`` describe the rectangular region of the local buffer to be
    *received into*; the region to be *sent* is the same shape offset by
    ``source_offset``; ``neighbor`` is the relative position of the rank the
    data is exchanged with.
    """

    name = "dmp.exchange"

    __slots__ = ("offset", "size", "source_offset", "neighbor")

    def __init__(
        self,
        offset: Sequence[int],
        size: Sequence[int],
        source_offset: Sequence[int],
        neighbor: Sequence[int],
    ):
        self.offset = tuple(int(v) for v in offset)
        self.size = tuple(int(v) for v in size)
        self.source_offset = tuple(int(v) for v in source_offset)
        # The neighbour offset lives in *grid* coordinates and may have fewer
        # dimensions than the data regions (e.g. a 1D rank grid over 2D data).
        self.neighbor = tuple(int(v) for v in neighbor)
        ranks = {len(self.offset), len(self.size), len(self.source_offset)}
        if len(ranks) != 1:
            raise ValueError(
                "dmp.exchange region components must all have the same rank"
            )
        if any(s < 0 for s in self.size):
            raise ValueError("dmp.exchange sizes must be non-negative")

    def parameters(self) -> tuple:
        return (self.offset, self.size, self.source_offset, self.neighbor)

    @property
    def rank(self) -> int:
        return len(self.offset)

    def element_count(self) -> int:
        total = 1
        for extent in self.size:
            total *= extent
        return total

    @property
    def recv_region(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(offsets, sizes) of the region received into."""
        return self.offset, self.size

    @property
    def send_region(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(offsets, sizes) of the region sent to the neighbour."""
        send_offset = tuple(o + s for o, s in zip(self.offset, self.source_offset))
        return send_offset, self.size

    def is_empty(self) -> bool:
        return any(s == 0 for s in self.size)

    @property
    def axis(self) -> int:
        """The grid dimension the exchange travels along: the first non-zero
        neighbour offset (0 for a self-exchange)."""
        return next((d for d, off in enumerate(self.neighbor) if off != 0), 0)

    def travel_tag(self, sending: bool) -> int:
        """The message tag of this exchange's send or of its receive.

        It encodes the axis and the direction the *message* travels in, so the
        send of one rank carries the tag its neighbour's receive expects —
        whether a rank runs ``dmp.swap`` natively or its mpi lowering.
        """
        offset = self.neighbor[self.axis]
        direction = offset if sending else -offset
        return self.axis * 2 + (1 if direction > 0 else 0)

    def print_parameters(self, printer) -> str:
        def vec(values: Sequence[int]) -> str:
            return "[" + ", ".join(str(v) for v in values) + "]"

        return (
            f"at {vec(self.offset)} size {vec(self.size)} "
            f"source offset {vec(self.source_offset)} to {vec(self.neighbor)}"
        )

    def __str__(self) -> str:
        return f"#dmp.exchange<{self.print_parameters(None)}>"


def declared_exchanges(op: Operation) -> Optional[tuple[GridAttr, list[ExchangeAttr]]]:
    """The ``grid`` and ``swaps`` attributes ``op`` carries, if it has both.

    A ``dmp.swap`` carries them, and so does the ``mpi.allocate_requests``
    of each message group ``convert-dmp-to-mpi`` lowers a swap to: one
    declaration, whichever spelling of the exchange runs.
    """
    grid = op.attributes.get("grid")
    swaps = op.attributes.get("swaps")
    if not isinstance(grid, GridAttr) or not isinstance(swaps, ArrayAttr):
        return None
    return grid, [swap for swap in swaps if isinstance(swap, ExchangeAttr)]


class SwapOp(Operation):
    """Exchange the declared halo regions of ``data`` with neighbouring ranks."""

    name = "dmp.swap"
    traits = frozenset(
        [CommunicationEffect(), MemoryReadEffect(), MemoryWriteEffect()]
    )

    def __init__(
        self,
        data: SSAValue,
        grid: GridAttr,
        swaps: Sequence[ExchangeAttr],
    ):
        super().__init__(
            operands=[data],
            attributes={"grid": grid, "swaps": ArrayAttr(swaps)},
        )

    @property
    def data(self) -> SSAValue:
        return self.operands[0]

    @property
    def grid(self) -> GridAttr:
        return declared_exchanges(self)[0]

    @property
    def swaps(self) -> list[ExchangeAttr]:
        return declared_exchanges(self)[1]

    def total_exchanged_elements(self) -> int:
        return sum(swap.element_count() for swap in self.swaps)

    def verify_(self) -> None:
        grid = self.attributes.get("grid")
        if not isinstance(grid, GridAttr):
            raise ValueError("dmp.swap requires a #dmp.grid attribute")
        swaps = self.attributes.get("swaps")
        if not isinstance(swaps, ArrayAttr):
            raise ValueError("dmp.swap requires a 'swaps' array attribute")
        for swap in swaps:
            if not isinstance(swap, ExchangeAttr):
                raise ValueError("dmp.swap swaps must be #dmp.exchange attributes")
            if len(swap.neighbor) != grid.ndims:
                raise ValueError(
                    "dmp.exchange neighbour offsets must match the grid dimensionality"
                )
