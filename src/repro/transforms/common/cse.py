"""Common sub-expression elimination for pure operations.

Two pure operations in the same block with identical names, operands and
attributes (and no regions) compute the same values; the later one is replaced
by the earlier one.  This mirrors the ``cse`` pass the paper reuses from the
shared MLIR infrastructure.  One forward sweep finds every duplicate (an
operand that is a duplicate is keyed by its replacement); the replacements
are made after it, in order, so canonicalize can fold in the same sweep and
still rewrite exactly as folding everything first, then CSE, would.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...ir.core import Block, Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.traits import is_pure

#: What ``sweep`` tries on each op first: see ``constant_folding.fold``.
Rewrite = Callable[[Operation], Optional[Operation]]


def _signature(op: Operation, replaced: dict[SSAValue, SSAValue]) -> tuple:
    # Attribute *objects* (not their hashes) are part of the key so that two
    # operations only merge when their attributes compare equal; relying on
    # hashes alone is unsound (e.g. hash(-1) == hash(-2) in CPython, which
    # would conflate stencil accesses at offsets (-1, 0) and (-2, 0)).
    operands, attributes = op._operands, op.attributes
    return (
        op.name,
        tuple(map(replaced.get, operands, operands)),
        tuple(sorted(attributes.items()) if len(attributes) > 1 else attributes.items()),
        tuple([result.type for result in op.results]),
    )


def _sweep(block: Block, rewrite: Optional[Rewrite], replaced: dict, duplicates: list) -> int:
    """Sweep ``block`` (nested blocks in fresh scopes); return ops rewritten."""
    rewritten = 0
    seen: dict[tuple, Operation] = {}
    for op in block.ops[:]:
        if rewrite is not None and (new := rewrite(op)) is not op:
            rewritten += 1
            if new is None:
                continue
            op = new
        for region in op.regions:
            for nested in region.blocks:
                rewritten += _sweep(nested, rewrite, replaced, duplicates)
        if op.regions or not op.results or not is_pure(op):
            continue
        existing = seen.setdefault(_signature(op, replaced), op)
        if existing is not op:
            replaced.update(zip(op.results, existing.results))
            duplicates.append((op, existing))
    return rewritten


def sweep(module: Operation, rewrite: Optional[Rewrite] = None) -> tuple[int, int]:
    """Rewrite and deduplicate each op under ``module`` in one sweep; return
    (ops rewritten, duplicates erased)."""
    replaced: dict[SSAValue, SSAValue] = {}
    duplicates: list[tuple[Operation, Operation]] = []
    rewritten = sum(
        _sweep(block, rewrite, replaced, duplicates)
        for region in module.regions for block in region.blocks
    )
    for op, existing in duplicates:
        for old_result, new_result in zip(op.results, existing.results):
            old_result.replace_by(new_result)
        op.erase()
    return rewritten, len(duplicates)


def eliminate_common_subexpressions(module: Operation) -> int:
    """Run CSE over every block under ``module``; return the number of removals."""
    return sweep(module)[1]


class CommonSubexpressionEliminationPass(ModulePass):
    """Deduplicate identical pure operations within each block."""

    name = "cse"

    def apply(self, module: Operation) -> None:
        eliminate_common_subexpressions(module)
