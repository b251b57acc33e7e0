"""Extraction of performance-relevant kernel characteristics from the IR.

The cost models do not guess what a kernel does - they read it off the
compiled stencil program: number of stencil regions, accesses per cell, flops
per cell (each op weighted by its ``flops`` in the op table,
:data:`repro.dialects.arith.SEMANTICS`), distinct input/output fields, and
halo volumes.  This keeps the performance model tied to the same artefact
the correctness tests execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..dialects import arith, stencil
from ..ir.core import Operation
from ..ir.pass_manager import ModulePass


@dataclass
class ApplyCharacteristics:
    """Per-stencil-region characteristics."""

    rank: int
    accesses: int
    flops_per_cell: int
    input_fields: int
    output_fields: int
    halo_lower: tuple[int, ...]
    halo_upper: tuple[int, ...]
    cells_per_step: int

    @property
    def stencil_points(self) -> int:
        return self.accesses

    def bytes_per_cell(self, dtype_bytes: int = 4) -> int:
        """Streaming-model memory traffic per updated cell.

        Each distinct input field is streamed once, each output field written
        once plus a write-allocate read.
        """
        return dtype_bytes * (self.input_fields + 2 * self.output_fields)


@dataclass
class ProgramCharacteristics:
    """Aggregate characteristics of one compiled stencil program (per time step)."""

    applies: list[ApplyCharacteristics] = field(default_factory=list)

    @property
    def stencil_regions(self) -> int:
        return len(self.applies)

    @property
    def flops_per_step(self) -> float:
        return sum(a.flops_per_cell * a.cells_per_step for a in self.applies)

    def bytes_per_step(self, dtype_bytes: int = 4) -> float:
        return sum(a.bytes_per_cell(dtype_bytes) * a.cells_per_step for a in self.applies)

    @property
    def cells_per_step(self) -> int:
        """Cells updated per step (output points of the last/primary stencil)."""
        if not self.applies:
            return 0
        return max(a.cells_per_step for a in self.applies)

    def arithmetic_intensity(self, dtype_bytes: int = 4) -> float:
        bytes_total = self.bytes_per_step(dtype_bytes)
        return self.flops_per_step / bytes_total if bytes_total else 0.0

    def combined_halo(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rank = max((a.rank for a in self.applies), default=0)
        lower = [0] * rank
        upper = [0] * rank
        for apply_chars in self.applies:
            for dim in range(apply_chars.rank):
                lower[dim] = max(lower[dim], apply_chars.halo_lower[dim])
                upper[dim] = max(upper[dim], apply_chars.halo_upper[dim])
        return tuple(lower), tuple(upper)


def characterize_apply(apply_op: stencil.ApplyOp) -> ApplyCharacteristics:
    """Read the characteristics of one stencil.apply off its IR."""
    accesses = 0
    flops = 0
    for op in apply_op.body.walk():
        if isinstance(op, stencil.AccessOp):
            accesses += 1
        elif (record := arith.SEMANTICS.get(arith.op_key(op))) is not None:
            flops += record.flops
    halo_lower, halo_upper = apply_op.halo_extents()

    input_fields = len(apply_op.operands)
    output_fields = len(apply_op.results)

    cells = 0
    bounds: Optional[stencil.StencilBoundsAttr] = None
    for result in apply_op.results:
        result_type = result.type
        if isinstance(result_type, stencil.TempType) and result_type.bounds is not None:
            bounds = result_type.bounds
            break
    if bounds is None:
        for result in apply_op.results:
            for use in result.uses:
                if isinstance(use.operation, stencil.StoreOp):
                    bounds = use.operation.bounds
                    break
    if bounds is not None:
        cells = bounds.size()

    rank = len(halo_lower) if halo_lower else (bounds.rank if bounds else 0)
    return ApplyCharacteristics(
        rank=rank,
        accesses=accesses,
        flops_per_cell=flops,
        input_fields=input_fields,
        output_fields=output_fields,
        halo_lower=halo_lower,
        halo_upper=halo_upper,
        cells_per_step=cells,
    )


def characterize_module(module: Operation) -> ProgramCharacteristics:
    """Characterise every stencil region of a stencil-level module."""
    return ProgramCharacteristics(
        applies=[characterize_apply(op) for op in stencil.apply_ops_of(module)]
    )


class CharacterizePass(ModulePass):
    """Analysis: read :attr:`characteristics` off the stencil-level module."""

    name = "characterize-stencil"
    analysis = True

    def __init__(self) -> None:
        self.characteristics: Optional[ProgramCharacteristics] = None

    def apply(self, module: Operation) -> None:
        self.characteristics = characterize_module(module)
