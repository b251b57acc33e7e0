"""IR construction helpers.

:class:`Builder` tracks an insertion point inside a block and appends (or
inserts) operations there, returning the operation so callers can chain on its
results.  This is the primary way dialect lowerings create IR.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

from .core import Block, Operation, Region

OpT = TypeVar("OpT", bound=Operation)


class InsertPoint:
    """An insertion point: either the end of a block or before an anchor op."""

    __slots__ = ("block", "anchor")

    def __init__(self, block: Block, anchor: Optional[Operation] = None):
        self.block = block
        self.anchor = anchor

    @staticmethod
    def at_end(block: Block) -> "InsertPoint":
        return InsertPoint(block, None)

    @staticmethod
    def before(op: Operation) -> "InsertPoint":
        if op.parent is None:
            raise ValueError("cannot build an insertion point before a detached op")
        return InsertPoint(op.parent, op)

    @staticmethod
    def after(op: Operation) -> "InsertPoint":
        if op.parent is None:
            raise ValueError("cannot build an insertion point after a detached op")
        block = op.parent
        idx = block.ops.index(op)
        if idx + 1 < len(block.ops):
            return InsertPoint(block, block.ops[idx + 1])
        return InsertPoint(block, None)


class Builder:
    """Appends operations at an insertion point."""

    def __init__(self, insertion_point: InsertPoint | Block):
        if isinstance(insertion_point, Block):
            insertion_point = InsertPoint.at_end(insertion_point)
        self.insertion_point = insertion_point

    @staticmethod
    def at_end(block: Block) -> "Builder":
        return Builder(InsertPoint.at_end(block))

    @staticmethod
    def before(op: Operation) -> "Builder":
        return Builder(InsertPoint.before(op))

    @staticmethod
    def after(op: Operation) -> "Builder":
        return Builder(InsertPoint.after(op))

    def insert(self, op: OpT) -> OpT:
        """Insert a single operation at the current insertion point."""
        block = self.insertion_point.block
        anchor = self.insertion_point.anchor
        if anchor is None:
            block.add_op(op)
        else:
            block.insert_op_before(op, anchor)
        return op

    def insert_all(self, ops: Sequence[Operation]) -> None:
        for op in ops:
            self.insert(op)


def build_single_block_region(
    arg_types: Sequence = (), ops: Sequence[Operation] = ()
) -> Region:
    """Create a region with a single block holding ``ops``."""
    return Region(Block(arg_types=arg_types, ops=ops))
