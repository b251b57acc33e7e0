"""Operation traits.

Traits attach generic, reusable properties to operations (e.g. "this op is a
terminator", "this op has no side effects").  Passes query traits instead of
hard-coding per-op knowledge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .core import Operation


class OpTrait:
    """Base class for operation traits."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def verify(self, op: "Operation") -> None:
        """Trait-specific structural verification."""


class IsTerminator(OpTrait):
    """The operation terminates its block (e.g. return, yield)."""

    def verify(self, op: "Operation") -> None:
        block = op.parent_block
        if block is not None and block.last_op is not op:
            raise ValueError(
                f"terminator {op.name} must be the last operation of its block"
            )


class Pure(OpTrait):
    """The operation has no side effects and can be CSE'd or dead-code eliminated."""


class HasParent(OpTrait):
    """The operation must be nested directly inside one of the given op types."""

    def __init__(self, *parent_names: str):
        self.parent_names = tuple(parent_names)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.parent_names))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HasParent) and self.parent_names == other.parent_names

    def verify(self, op: "Operation") -> None:
        parent = op.parent_op
        if parent is None:
            raise ValueError(f"{op.name} must be nested inside {self.parent_names}")
        if parent.name not in self.parent_names:
            raise ValueError(
                f"{op.name} must be nested inside one of {self.parent_names}, "
                f"found {parent.name}"
            )


class IsolatedFromAbove(OpTrait):
    """Regions of the op may not reference SSA values defined outside it."""


class SymbolOp(OpTrait):
    """The operation defines a symbol (looked up by name, e.g. func.func)."""


class ConstantLike(OpTrait):
    """The operation materialises a compile-time constant."""


class MemoryReadEffect(OpTrait):
    """The operation reads from memory."""


class MemoryWriteEffect(OpTrait):
    """The operation writes to memory."""


class CommunicationEffect(OpTrait):
    """The operation performs communication (message passing)."""


def is_pure(op: "Operation") -> bool:
    """Whether an op is side-effect free (pure trait and pure nested regions)."""
    if not op.has_trait(Pure):
        return False
    for region in op.regions:
        for block in region.blocks:
            for nested in block.ops:
                if not is_pure(nested) and not nested.has_trait(IsTerminator):
                    return False
    return True
