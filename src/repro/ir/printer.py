"""Textual printer for the IR.

Prints operations in an MLIR-like *generic* syntax::

    %0 = "arith.constant"() {"value" = 42 : i32} : () -> (i32)
    %1 = "arith.addi"(%0, %0) : (i32, i32) -> (i32)

Dialect-defined attributes and types are printed as ``#dialect.name<...>`` and
``!dialect.name<...>`` where the angle-bracket payload is produced by the
attribute's ``print_parameters`` method.  The text is deterministic — a
compiled program's fingerprint is a hash of it — and it is write-only:
nothing reads it back.
"""

from __future__ import annotations

import io

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseArrayAttr,
    DenseIntOrFPElementsAttr,
    DictionaryAttr,
    FloatAttr,
    FloatData,
    IntAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
    UnitAttr,
)
from .core import Block, Operation, Region, SSAValue
from .types import (
    Float16Type,
    Float32Type,
    Float64Type,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    TensorType,
    VectorType,
    DYNAMIC,
)


class Printer:
    """Stateful printer assigning stable names to SSA values."""

    def __init__(self):
        self._value_names: dict[int, str] = {}
        self._used_names: set[str] = set()
        self._next_id = 0

    # -- value naming --------------------------------------------------------
    def _name_of(self, value: SSAValue) -> str:
        key = id(value)
        if key in self._value_names:
            return self._value_names[key]
        if value.name_hint and value.name_hint not in self._used_names:
            name = value.name_hint
        else:
            name = str(self._next_id)
            self._next_id += 1
            while name in self._used_names:
                name = str(self._next_id)
                self._next_id += 1
        self._value_names[key] = name
        self._used_names.add(name)
        return name

    # -- attribute / type printing ---------------------------------------------
    def print_type(self, type_: Attribute) -> str:
        if isinstance(type_, IntegerType):
            return f"i{type_.width}"
        if isinstance(type_, IndexType):
            return "index"
        if isinstance(type_, Float16Type):
            return "f16"
        if isinstance(type_, Float32Type):
            return "f32"
        if isinstance(type_, Float64Type):
            return "f64"
        if isinstance(type_, NoneType):
            return "none"
        if isinstance(type_, FunctionType):
            ins = ", ".join(self.print_type(t) for t in type_.inputs)
            outs = ", ".join(self.print_type(t) for t in type_.outputs)
            return f"({ins}) -> ({outs})"
        if isinstance(type_, (MemRefType, TensorType, VectorType)):
            keyword = {
                MemRefType: "memref",
                TensorType: "tensor",
                VectorType: "vector",
            }[type(type_)]
            dims = "x".join(
                "?" if d == DYNAMIC else str(d) for d in type_.shape
            )
            sep = "x" if type_.shape else ""
            return f"{keyword}<{dims}{sep}{self.print_type(type_.element_type)}>"
        if hasattr(type_, "print_parameters"):
            params = type_.print_parameters(self)  # type: ignore[attr-defined]
            if params:
                return f"!{type_.name}<{params}>"
            return f"!{type_.name}"
        raise NotImplementedError(f"cannot print type {type_!r}")

    def print_attribute(self, attr: Attribute) -> str:
        if isinstance(attr, TypeAttribute):
            return self.print_type(attr)
        if isinstance(attr, IntegerAttr):
            return f"{attr.value} : {self.print_type(attr.type)}"
        if isinstance(attr, FloatAttr):
            return f"{_format_float(attr.value)} : {self.print_type(attr.type)}"
        if isinstance(attr, BoolAttr):
            return "true" if attr.data else "false"
        if isinstance(attr, IntAttr):
            return str(attr.data)
        if isinstance(attr, FloatData):
            return _format_float(attr.data)
        if isinstance(attr, StringAttr):
            return '"' + attr.data.replace("\\", "\\\\").replace('"', '\\"') + '"'
        if isinstance(attr, UnitAttr):
            return "unit"
        if isinstance(attr, SymbolRefAttr):
            return f"@{attr.root}"
        if isinstance(attr, ArrayAttr):
            return "[" + ", ".join(self.print_attribute(a) for a in attr) + "]"
        if isinstance(attr, DictionaryAttr):
            inner = ", ".join(
                f'"{k}" = {self.print_attribute(v)}' for k, v in attr.data.items()
            )
            return "{" + inner + "}"
        if isinstance(attr, DenseArrayAttr):
            elems = ", ".join(str(e) for e in attr.data)
            return f"array<{self.print_type(attr.element_type)}: {elems}>"
        if isinstance(attr, DenseIntOrFPElementsAttr):
            elems = ", ".join(str(e) for e in attr.data)
            return f"dense<[{elems}]> : {self.print_type(attr.type)}"
        if hasattr(attr, "print_parameters"):
            params = attr.print_parameters(self)  # type: ignore[attr-defined]
            if params:
                return f"#{attr.name}<{params}>"
            return f"#{attr.name}"
        raise NotImplementedError(f"cannot print attribute {attr!r}")

    # -- operation printing ---------------------------------------------------------
    def print_op(self, op: Operation, indent: int = 0) -> str:
        out = io.StringIO()
        self._print_op(op, out, indent)
        return out.getvalue()

    def _print_op(self, op: Operation, out: io.StringIO, indent: int) -> None:
        pad = "  " * indent
        out.write(pad)
        if op.results:
            out.write(", ".join(f"%{self._name_of(r)}" for r in op.results))
            out.write(" = ")
        out.write(f'"{op.name}"')
        out.write("(")
        out.write(", ".join(f"%{self._name_of(o)}" for o in op.operands))
        out.write(")")
        if op.regions:
            out.write(" (")
            for i, region in enumerate(op.regions):
                if i:
                    out.write(", ")
                self._print_region(region, out, indent)
            out.write(")")
        if op.attributes:
            out.write(" {")
            out.write(
                ", ".join(
                    f'"{key}" = {self.print_attribute(value)}'
                    for key, value in op.attributes.items()
                )
            )
            out.write("}")
        in_types = ", ".join(self.print_type(o.type) for o in op.operands)
        out_types = ", ".join(self.print_type(r.type) for r in op.results)
        out.write(f" : ({in_types}) -> ({out_types})")

    def _print_region(self, region: Region, out: io.StringIO, indent: int) -> None:
        out.write("{\n")
        for block in region.blocks:
            self._print_block(block, out, indent + 1)
        out.write("  " * indent + "}")

    def _print_block(self, block: Block, out: io.StringIO, indent: int) -> None:
        pad = "  " * indent
        args = ", ".join(
            f"%{self._name_of(a)} : {self.print_type(a.type)}" for a in block.args
        )
        out.write(f"{pad}^bb(")
        out.write(args)
        out.write("):\n")
        for op in block.ops:
            self._print_op(op, out, indent + 1)
            out.write("\n")


def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return repr(value)
    text = repr(float(value))
    if "e" in text or "." in text or "inf" in text or "nan" in text:
        return text
    return text + ".0"


def print_module(module: Operation) -> str:
    """Print a module operation to a string, ending with a newline."""
    text = Printer().print_op(module)
    if not text.endswith("\n"):
        text += "\n"
    return text
