"""Core builtin types used as SSA value types.

These mirror the MLIR builtin types our dialects need: integers, floats,
index, function types, and shaped memref types.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .attributes import Attribute, TypeAttribute

#: Sentinel used in shaped types for a dynamically sized dimension.
DYNAMIC = -1


class IntegerType(TypeAttribute):
    """An integer type of a given bit width (i1, i32, i64, ...)."""

    name = "builtin.integer_type"

    __slots__ = ("width",)

    def __init__(self, width: int):
        self.width = int(width)

    def parameters(self) -> tuple:
        return (self.width,)

    def __str__(self) -> str:
        return f"i{self.width}"


class IndexType(TypeAttribute):
    """The platform-sized index type used for loop bounds and memory indexing."""

    name = "builtin.index_type"

    def parameters(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return "index"


class _FloatType(TypeAttribute):
    """Base class for floating point types."""

    width: int = 0

    def parameters(self) -> tuple:
        return (self.width,)

    def __str__(self) -> str:
        return f"f{self.width}"


class Float16Type(_FloatType):
    name = "builtin.f16"
    width = 16


class Float32Type(_FloatType):
    name = "builtin.f32"
    width = 32


class Float64Type(_FloatType):
    name = "builtin.f64"
    width = 64


class FunctionType(TypeAttribute):
    """The type of a function: input types -> result types."""

    name = "builtin.function_type"

    __slots__ = ("inputs", "outputs")

    def __init__(self, inputs: Iterable[TypeAttribute], outputs: Iterable[TypeAttribute]):
        self.inputs: tuple[TypeAttribute, ...] = tuple(inputs)
        self.outputs: tuple[TypeAttribute, ...] = tuple(outputs)

    def parameters(self) -> tuple:
        return (self.inputs, self.outputs)

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.outputs)
        return f"({ins}) -> ({outs})"


class ShapedType(TypeAttribute):
    """Base class for types with a static shape and an element type."""

    __slots__ = ("shape", "element_type")

    def __init__(self, shape: Sequence[int], element_type: TypeAttribute):
        self.shape: tuple[int, ...] = tuple(int(s) for s in shape)
        self.element_type = element_type

    def parameters(self) -> tuple:
        return (self.shape, self.element_type)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def element_count(self) -> int:
        count = 1
        for dim in self.shape:
            if dim == DYNAMIC:
                raise ValueError("cannot count elements of a dynamically shaped type")
            count *= dim
        return count

    def has_static_shape(self) -> bool:
        return all(dim != DYNAMIC for dim in self.shape)


class MemRefType(ShapedType):
    """A reference to a (row-major) memory buffer of a given shape."""

    name = "builtin.memref"

    def __str__(self) -> str:
        dims = "x".join("?" if d == DYNAMIC else str(d) for d in self.shape)
        sep = "x" if self.shape else ""
        return f"memref<{dims}{sep}{self.element_type}>"


# Commonly used singletons.  Types are compared structurally, so reusing these
# instances is purely a convenience.
i1 = IntegerType(1)
i32 = IntegerType(32)
i64 = IntegerType(64)
f16 = Float16Type()
f32 = Float32Type()
f64 = Float64Type()
index = IndexType()


def bitwidth_of(type_: Attribute) -> int:
    """Return the bit width of a scalar integer/float/index type."""
    if isinstance(type_, IntegerType):
        return type_.width
    if isinstance(type_, _FloatType):
        return type_.width
    if isinstance(type_, IndexType):
        return 64
    raise TypeError(f"type {type_} has no bit width")


def bytewidth_of(type_: Attribute) -> int:
    """Return the byte width of a scalar type (rounded up)."""
    return (bitwidth_of(type_) + 7) // 8


def is_float_type(type_: Attribute) -> bool:
    return isinstance(type_, _FloatType)


def is_integer_like(type_: Attribute) -> bool:
    return isinstance(type_, (IntegerType, IndexType))
