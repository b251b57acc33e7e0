"""The memref dialect: allocation, load/store and views over memory buffers."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import DenseArrayAttr
from ..ir.core import Operation, SSAValue
from ..ir.traits import MemoryReadEffect, MemoryWriteEffect, Pure
from ..ir.types import DYNAMIC, IndexType, MemRefType, i64, index


class AllocOp(Operation):
    """Allocate a memref on the heap."""

    name = "memref.alloc"

    def __init__(self, result_type: MemRefType, dynamic_sizes: Sequence[SSAValue] = ()):
        super().__init__(operands=list(dynamic_sizes), result_types=[result_type])

    @property
    def memref(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        result_type = self.results[0].type
        if not isinstance(result_type, MemRefType):
            raise ValueError("memref.alloc must return a memref")
        dynamic_dims = sum(1 for d in result_type.shape if d == DYNAMIC)
        if dynamic_dims != len(self.operands):
            raise ValueError(
                "memref.alloc needs one size operand per dynamic dimension"
            )


class DeallocOp(Operation):
    """Free a memref allocated with memref.alloc."""

    name = "memref.dealloc"

    def __init__(self, memref: SSAValue):
        super().__init__(operands=[memref])

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]


class LoadOp(Operation):
    """Load a scalar element from a memref at the given indices."""

    name = "memref.load"
    traits = frozenset([MemoryReadEffect()])

    def __init__(self, memref: SSAValue, indices: Sequence[SSAValue]):
        memref_type = memref.type
        if not isinstance(memref_type, MemRefType):
            raise ValueError("memref.load operates on a memref value")
        super().__init__(
            operands=[memref, *indices],
            result_types=[memref_type.element_type],
        )

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]

    @property
    def indices(self) -> tuple[SSAValue, ...]:
        return self.operands[1:]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        memref_type = self.memref.type
        if not isinstance(memref_type, MemRefType):
            raise ValueError("memref.load operates on a memref value")
        if len(self.indices) != memref_type.rank:
            raise ValueError(
                f"memref.load expects {memref_type.rank} indices, got {len(self.indices)}"
            )
        for idx in self.indices:
            if not isinstance(idx.type, IndexType):
                raise ValueError("memref.load indices must have index type")


class StoreOp(Operation):
    """Store a scalar element into a memref at the given indices."""

    name = "memref.store"
    traits = frozenset([MemoryWriteEffect()])

    def __init__(self, value: SSAValue, memref: SSAValue, indices: Sequence[SSAValue]):
        super().__init__(operands=[value, memref, *indices])

    @property
    def value(self) -> SSAValue:
        return self.operands[0]

    @property
    def memref(self) -> SSAValue:
        return self.operands[1]

    @property
    def indices(self) -> tuple[SSAValue, ...]:
        return self.operands[2:]

    def verify_(self) -> None:
        memref_type = self.memref.type
        if not isinstance(memref_type, MemRefType):
            raise ValueError("memref.store operates on a memref value")
        if len(self.indices) != memref_type.rank:
            raise ValueError(
                f"memref.store expects {memref_type.rank} indices, got {len(self.indices)}"
            )
        if self.value.type != memref_type.element_type:
            raise ValueError("memref.store value type must match the element type")


class SubviewOp(Operation):
    """A rectangular view into a memref, described by static offsets/sizes/strides."""

    name = "memref.subview"
    traits = frozenset([Pure()])

    def __init__(
        self,
        source: SSAValue,
        offsets: Sequence[int],
        sizes: Sequence[int],
        strides: Optional[Sequence[int]] = None,
    ):
        source_type = source.type
        if not isinstance(source_type, MemRefType):
            raise ValueError("memref.subview operates on a memref value")
        if strides is None:
            strides = [1] * len(offsets)
        result_type = MemRefType(sizes, source_type.element_type)
        super().__init__(
            operands=[source],
            attributes={
                "static_offsets": DenseArrayAttr(offsets, i64),
                "static_sizes": DenseArrayAttr(sizes, i64),
                "static_strides": DenseArrayAttr(strides, i64),
            },
            result_types=[result_type],
        )

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    @property
    def offsets(self) -> tuple[int, ...]:
        attr = self.attributes["static_offsets"]
        assert isinstance(attr, DenseArrayAttr)
        return tuple(int(v) for v in attr.data)

    @property
    def sizes(self) -> tuple[int, ...]:
        attr = self.attributes["static_sizes"]
        assert isinstance(attr, DenseArrayAttr)
        return tuple(int(v) for v in attr.data)

    @property
    def strides(self) -> tuple[int, ...]:
        attr = self.attributes["static_strides"]
        assert isinstance(attr, DenseArrayAttr)
        return tuple(int(v) for v in attr.data)

    def verify_(self) -> None:
        source_type = self.source.type
        if not isinstance(source_type, MemRefType):
            raise ValueError("memref.subview operates on a memref value")
        rank = source_type.rank
        if not (len(self.offsets) == len(self.sizes) == len(self.strides) == rank):
            raise ValueError(
                "memref.subview offsets, sizes and strides must match the source rank"
            )
        for offset, size, dim in zip(self.offsets, self.sizes, source_type.shape):
            if dim != DYNAMIC and offset + size > dim:
                raise ValueError(
                    f"memref.subview region [{offset}, {offset + size}) exceeds "
                    f"source dimension of size {dim}"
                )


class CopyOp(Operation):
    """Copy the contents of one memref into another of identical shape."""

    name = "memref.copy"
    traits = frozenset([MemoryReadEffect(), MemoryWriteEffect()])

    def __init__(self, source: SSAValue, target: SSAValue):
        super().__init__(operands=[source, target])

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def target(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        src, dst = self.source.type, self.target.type
        if not isinstance(src, MemRefType) or not isinstance(dst, MemRefType):
            raise ValueError("memref.copy operates on memref values")
        if src.has_static_shape() and dst.has_static_shape():
            if src.element_count() != dst.element_count():
                raise ValueError("memref.copy source and target sizes differ")


class ExtractAlignedPointerAsIndexOp(Operation):
    """Expose the base pointer of a memref as an index (used by the MPI lowering)."""

    name = "memref.extract_aligned_pointer_as_index"
    traits = frozenset([Pure()])

    def __init__(self, memref: SSAValue):
        super().__init__(operands=[memref], result_types=[index])

    @property
    def result(self) -> SSAValue:
        return self.results[0]
