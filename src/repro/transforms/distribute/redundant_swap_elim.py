"""Eliminate redundant halo exchanges.

The global-to-local pass conservatively inserts one ``dmp.swap`` before every
``stencil.load``.  When several loads of the same (unmodified) buffer occur in
a row — e.g. a fused stencil region reading one field through several loads —
the later swaps exchange data that is already up to date.  This pass removes a
swap when the same buffer was already swapped earlier in the block and nothing
in between may have written to memory (paper §4.2: "a subsequent pass
eliminates them via analyzing the SSA data flow").
"""

from __future__ import annotations

from ...dialects.builtin import UnrealizedConversionCastOp
from ...dialects.dmp import SwapOp
from ...ir.core import Block, Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.traits import MemoryWriteEffect


def _underlying_buffer(value: SSAValue) -> SSAValue:
    """Trace through conversion casts back to the field/buffer being swapped."""
    current = value
    while True:
        owner = current.owner
        if isinstance(owner, UnrealizedConversionCastOp):
            current = owner.input
            continue
        return current


def _may_write_memory(op: Operation) -> bool:
    for nested in op.walk():
        if isinstance(nested, SwapOp):
            continue
        if nested.has_trait(MemoryWriteEffect):
            return True
        if nested.name in ("func.call",):
            return True
    return False


def _eliminate_in_block(block: Block) -> int:
    eliminated = 0
    already_swapped: dict[int, SwapOp] = {}
    for op in list(block.ops):
        if op.parent is None:
            continue
        if isinstance(op, SwapOp):
            buffer = _underlying_buffer(op.data)
            key = id(buffer)
            previous = already_swapped.get(key)
            if previous is not None and previous.attributes == op.attributes:
                cast_op = op.data.owner
                op.erase()
                if (
                    isinstance(cast_op, UnrealizedConversionCastOp)
                    and not cast_op.output.uses
                ):
                    cast_op.erase()
                eliminated += 1
            else:
                already_swapped[key] = op
            continue
        if _may_write_memory(op):
            # Any write invalidates halo freshness for every buffer (a field's
            # buffer identity is not tracked through stores precisely).
            already_swapped.clear()
        # Recurse into nested blocks with a fresh scope.
        for region in op.regions:
            for nested_block in region.blocks:
                eliminated += _eliminate_in_block(nested_block)
    return eliminated


def eliminate_redundant_swaps(module: Operation) -> int:
    """Remove redundant dmp.swap operations; return how many were removed."""
    total = 0
    for region in module.regions:
        for block in region.blocks:
            total += _eliminate_in_block(block)
    return total


class RedundantSwapEliminationPass(ModulePass):
    """Drop halo exchanges whose data is already up to date."""

    name = "dmp-eliminate-redundant-swaps"

    def apply(self, module: Operation) -> None:
        eliminate_redundant_swaps(module)
