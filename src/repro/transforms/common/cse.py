"""Common sub-expression elimination for pure operations.

Two pure operations in the same block with identical names, operands and
attributes (and no regions) compute the same values; the later one is replaced
by the earlier one.  This mirrors the ``cse`` pass the paper reuses from the
shared MLIR infrastructure.
"""

from __future__ import annotations

from ...ir.core import Block, Operation
from ...ir.pass_manager import ModulePass
from ...ir.traits import is_pure


def _signature(op: Operation) -> tuple:
    # Attribute *objects* (not their hashes) are part of the key so that two
    # operations only merge when their attributes compare equal; relying on
    # hashes alone is unsound (e.g. hash(-1) == hash(-2) in CPython, which
    # would conflate stencil accesses at offsets (-1, 0) and (-2, 0)).
    return (
        op.name,
        tuple(id(operand) for operand in op.operands),
        tuple(sorted(op.attributes.items(), key=lambda item: item[0])),
        tuple(r.type for r in op.results),
    )


def _cse_block(block: Block) -> int:
    eliminated = 0
    seen: dict[tuple, Operation] = {}
    for op in list(block.ops):
        if op.parent is None:
            continue
        # Recurse into nested regions first (each with a fresh scope).
        for region in op.regions:
            for nested_block in region.blocks:
                eliminated += _cse_block(nested_block)
        if not is_pure(op) or op.regions or not op.results:
            continue
        signature = _signature(op)
        existing = seen.get(signature)
        if existing is None:
            seen[signature] = op
            continue
        for old_result, new_result in zip(op.results, existing.results):
            old_result.replace_by(new_result)
        op.erase()
        eliminated += 1
    return eliminated


def eliminate_common_subexpressions(module: Operation) -> int:
    """Run CSE over every block under ``module``; return the number of removals."""
    total = 0
    for region in module.regions:
        for block in region.blocks:
            total += _cse_block(block)
    return total


class CommonSubexpressionEliminationPass(ModulePass):
    """Deduplicate identical pure operations within each block."""

    name = "cse"

    def apply(self, module: Operation) -> None:
        eliminate_common_subexpressions(module)
