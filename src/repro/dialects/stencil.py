"""The stencil dialect.

This is the shared abstraction the three DSL frontends lower into.  Compared
to the original Open Earth Compiler dialect it follows the paper's extensions
(section 4.1):

* domain bounds are attached to the *types* (``!stencil.field<[0,128]xf64>``)
  rather than as operation attributes, so any consumer can read them off its
  operands;
* stencils of any rank (1D/2D/3D/...) are supported;
* value semantics: ``stencil.load`` produces a ``!stencil.temp`` that
  ``stencil.apply`` consumes, and ``stencil.store`` writes results back to a
  field over a user-defined range.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..ir.attributes import Attribute, DenseArrayAttr, TypeAttribute
from ..ir.builder import build_single_block_region
from ..ir.core import BlockArgument, Operation, Region, SSAValue
from ..ir.traits import IsTerminator, MemoryReadEffect, MemoryWriteEffect, Pure
from ..ir.types import Float32Type, Float64Type, IndexType, IntegerType, i64


class StencilBoundsAttr(Attribute):
    """Rectangular bounds ``[lb, ub)`` per dimension, in logical coordinates."""

    name = "stencil.bounds"

    __slots__ = ("lb", "ub")

    def __init__(self, lb: Sequence[int], ub: Sequence[int]):
        if len(lb) != len(ub):
            raise ValueError("stencil bounds lb/ub must have the same rank")
        self.lb: tuple[int, ...] = tuple(int(v) for v in lb)
        self.ub: tuple[int, ...] = tuple(int(v) for v in ub)
        for low, high in zip(self.lb, self.ub):
            if high < low:
                raise ValueError(f"stencil bounds upper bound {high} below lower {low}")

    def parameters(self) -> tuple:
        return (self.lb, self.ub)

    @property
    def rank(self) -> int:
        return len(self.lb)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l for l, u in zip(self.lb, self.ub))

    def size(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def grown_by(self, lower: Sequence[int], upper: Sequence[int]) -> "StencilBoundsAttr":
        """Bounds extended by ``lower`` below and ``upper`` above, per dimension."""
        return StencilBoundsAttr(
            [l - g for l, g in zip(self.lb, lower)],
            [u + g for u, g in zip(self.ub, upper)],
        )

    def intersect(self, other: "StencilBoundsAttr") -> "StencilBoundsAttr":
        return StencilBoundsAttr(
            [max(a, b) for a, b in zip(self.lb, other.lb)],
            [min(a, b) for a, b in zip(self.ub, other.ub)],
        )

    def contains(self, other: "StencilBoundsAttr") -> bool:
        return all(sl <= ol for sl, ol in zip(self.lb, other.lb)) and all(
            su >= ou for su, ou in zip(self.ub, other.ub)
        )

    def print_parameters(self, printer) -> str:
        return "x".join(f"[{l},{u}]" for l, u in zip(self.lb, self.ub))

    def __str__(self) -> str:
        return self.print_parameters(None)


def _element_type_to_text(element_type: Attribute) -> str:
    if isinstance(element_type, Float64Type):
        return "f64"
    if isinstance(element_type, Float32Type):
        return "f32"
    if isinstance(element_type, IntegerType):
        return f"i{element_type.width}"
    if isinstance(element_type, IndexType):
        return "index"
    raise ValueError(f"unsupported stencil element type {element_type}")


class _StencilContainerType(TypeAttribute):
    """Shared implementation for field and temp types."""

    __slots__ = ("bounds", "element_type")

    def __init__(
        self,
        bounds: Optional[StencilBoundsAttr | Sequence[Sequence[int]]],
        element_type: Attribute,
        rank: Optional[int] = None,
    ):
        if bounds is not None and not isinstance(bounds, StencilBoundsAttr):
            lb, ub = bounds
            bounds = StencilBoundsAttr(lb, ub)
        self.bounds: Optional[StencilBoundsAttr] = bounds
        self.element_type = element_type
        self._rank_hint = rank

    def parameters(self) -> tuple:
        return (self.bounds, self.element_type, self._rank_hint)

    @property
    def rank(self) -> int:
        if self.bounds is not None:
            return self.bounds.rank
        if self._rank_hint is not None:
            return self._rank_hint
        raise ValueError("rank of an unbounded stencil type is unknown")

    @property
    def shape(self) -> tuple[int, ...]:
        if self.bounds is None:
            raise ValueError("shape of an unbounded stencil type is unknown")
        return self.bounds.shape

    def has_bounds(self) -> bool:
        return self.bounds is not None

    def print_parameters(self, printer) -> str:
        if self.bounds is None:
            rank = self._rank_hint or 1
            dims = "x".join("?" for _ in range(rank))
            return f"{dims}x{_element_type_to_text(self.element_type)}"
        return (
            self.bounds.print_parameters(printer)
            + "x"
            + _element_type_to_text(self.element_type)
        )

    def __str__(self) -> str:
        return f"!{self.name}<{self.print_parameters(None)}>"


class FieldType(_StencilContainerType):
    """The memory buffer stencil values are loaded from / stored to."""

    name = "stencil.field"


class TempType(_StencilContainerType):
    """Value-semantics stencil values produced by load/apply."""

    name = "stencil.temp"


def offsets_attr(offsets: Sequence[int]) -> DenseArrayAttr:
    """An offset vector encoded as a dense i64 array attribute."""
    return DenseArrayAttr([int(o) for o in offsets], i64)


class LoadOp(Operation):
    """Load the values of a field into a temp for use by stencil.apply."""

    name = "stencil.load"
    traits = frozenset([MemoryReadEffect()])

    def __init__(self, field: SSAValue, result_type: Optional[TempType] = None):
        field_type = field.type
        if result_type is None:
            if not isinstance(field_type, FieldType):
                raise ValueError("stencil.load expects a !stencil.field operand")
            result_type = TempType(field_type.bounds, field_type.element_type,
                                   rank=field_type.rank if field_type.bounds is None else None)
        super().__init__(operands=[field], result_types=[result_type])

    @property
    def field(self) -> SSAValue:
        return self.operands[0]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if not isinstance(self.field.type, FieldType):
            raise ValueError("stencil.load expects a !stencil.field operand")
        if not isinstance(self.results[0].type, TempType):
            raise ValueError("stencil.load must produce a !stencil.temp value")


class StoreOp(Operation):
    """Store a temp into a field over the range [lb, ub)."""

    name = "stencil.store"
    traits = frozenset([MemoryWriteEffect()])

    def __init__(self, temp: SSAValue, field: SSAValue, bounds: StencilBoundsAttr):
        super().__init__(operands=[temp, field], attributes={"bounds": bounds})

    @property
    def temp(self) -> SSAValue:
        return self.operands[0]

    @property
    def field(self) -> SSAValue:
        return self.operands[1]

    @property
    def bounds(self) -> StencilBoundsAttr:
        attr = self.attributes["bounds"]
        assert isinstance(attr, StencilBoundsAttr)
        return attr

    def verify_(self) -> None:
        if not isinstance(self.temp.type, TempType):
            raise ValueError("stencil.store expects a !stencil.temp value operand")
        if not isinstance(self.field.type, FieldType):
            raise ValueError("stencil.store expects a !stencil.field target operand")
        field_type = self.field.type
        if field_type.bounds is not None and not field_type.bounds.contains(self.bounds):
            raise ValueError(
                f"stencil.store range {self.bounds} exceeds the field bounds "
                f"{field_type.bounds}"
            )


class ApplyOp(Operation):
    """Apply a stencil function (the region) over the whole iteration domain.

    The region has one block argument per operand; ``stencil.access`` reads a
    value at a relative offset from those arguments, and ``stencil.return``
    yields the outputs for the current grid point.
    """

    name = "stencil.apply"

    def __init__(
        self,
        operands: Sequence[SSAValue],
        result_types: Sequence[TempType],
        body: Optional[Region] = None,
    ):
        if body is None:
            body = build_single_block_region(arg_types=[o.type for o in operands])
        super().__init__(
            operands=list(operands),
            result_types=list(result_types),
            regions=[body],
        )

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def region_args(self) -> list[BlockArgument]:
        return list(self.body.block.args)

    def access_offsets(self) -> dict[int, list[tuple[int, ...]]]:
        """Offsets of every stencil.access in the body, keyed by operand index."""
        offsets: dict[int, list[tuple[int, ...]]] = {}
        for op in self.body.walk():
            if isinstance(op, AccessOp):
                temp = op.temp
                if isinstance(temp, BlockArgument) and temp.block is self.body.block:
                    offsets.setdefault(temp.index, []).append(op.offset)
        return offsets

    def halo_extents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (negative, positive) halo radius per dimension over all accesses."""
        rank = None
        for result in self.results:
            result_type = result.type
            if isinstance(result_type, TempType):
                try:
                    rank = result_type.rank
                except ValueError:
                    rank = None
                break
        all_offsets = [o for offs in self.access_offsets().values() for o in offs]
        if rank is None:
            rank = len(all_offsets[0]) if all_offsets else 0
        lower = [0] * rank
        upper = [0] * rank
        for offset in all_offsets:
            for d, component in enumerate(offset):
                lower[d] = max(lower[d], max(0, -component))
                upper[d] = max(upper[d], max(0, component))
        return tuple(lower), tuple(upper)

    def verify_(self) -> None:
        block = self.body.block
        if len(block.args) != len(self.operands):
            raise ValueError(
                "stencil.apply region must have one argument per operand"
            )
        for arg, operand in zip(block.args, self.operands):
            if arg.type != operand.type:
                raise ValueError(
                    "stencil.apply region argument types must match the operand types"
                )
        if block.ops and not isinstance(block.last_op, ReturnOp):
            raise ValueError("stencil.apply body must end with stencil.return")
        if block.ops:
            terminator = block.last_op
            assert isinstance(terminator, ReturnOp)
            if len(terminator.operands) != len(self.results):
                raise ValueError(
                    "stencil.return must yield one value per stencil.apply result"
                )


class AccessOp(Operation):
    """Read a value from a temp at a constant offset from the current position."""

    name = "stencil.access"
    traits = frozenset([Pure()])

    def __init__(self, temp: SSAValue, offset: Sequence[int]):
        temp_type = temp.type
        if not isinstance(temp_type, TempType):
            raise ValueError("stencil.access expects a !stencil.temp operand")
        super().__init__(
            operands=[temp],
            attributes={"offset": offsets_attr(offset)},
            result_types=[temp_type.element_type],
        )

    @property
    def temp(self) -> SSAValue:
        return self.operands[0]

    @property
    def offset(self) -> tuple[int, ...]:
        attr = self.attributes["offset"]
        assert isinstance(attr, DenseArrayAttr)
        return tuple(int(v) for v in attr.data)

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        temp_type = self.temp.type
        if not isinstance(temp_type, TempType):
            raise ValueError("stencil.access expects a !stencil.temp operand")
        if temp_type.bounds is not None and len(self.offset) != temp_type.rank:
            raise ValueError(
                f"stencil.access offset rank {len(self.offset)} does not match the "
                f"temp rank {temp_type.rank}"
            )


class ReturnOp(Operation):
    """Yield the output values for the current grid point from a stencil.apply."""

    name = "stencil.return"
    traits = frozenset([IsTerminator(), Pure()])

    def __init__(self, values: Sequence[SSAValue]):
        super().__init__(operands=list(values))


def apply_ops_of(module: Operation) -> list[ApplyOp]:
    """All stencil.apply operations under ``module`` in program order."""
    return [op for op in module.walk() if isinstance(op, ApplyOp)]


def combined_halo(applies: Iterable[ApplyOp]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The element-wise maximum halo over several apply operations."""
    lowers: list[tuple[int, ...]] = []
    uppers: list[tuple[int, ...]] = []
    for apply_op in applies:
        low, up = apply_op.halo_extents()
        lowers.append(low)
        uppers.append(up)
    if not lowers:
        return (), ()
    rank = max(len(l) for l in lowers)
    low_out = [0] * rank
    up_out = [0] * rank
    for low, up in zip(lowers, uppers):
        for d in range(len(low)):
            low_out[d] = max(low_out[d], low[d])
            up_out[d] = max(up_out[d], up[d])
    return tuple(low_out), tuple(up_out)
