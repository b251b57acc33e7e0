"""An Open-Earth-Compiler-style frontend: build stencil programs directly.

The Open Earth Compiler exposes its programs at the stencil-specification
level; this builder provides the same entry point for users who want to write
stencil-dialect programs programmatically rather than through a symbolic DSL
or Fortran.  It is also what several tests and examples use to construct
hand-written stencil programs concisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ...dialects import arith, builtin, func, scf, stencil
from ...ir import Builder, FunctionType, SSAValue, f32, f64, index


class BuilderError(Exception):
    """Raised on inconsistent use of the program builder."""


@dataclass
class FieldHandle:
    """A field declared on the builder (becomes a kernel argument)."""

    name: str
    argument_index: int


class StencilExpressionBuilder:
    """Helper handed to stencil body callbacks to emit the per-cell computation."""

    def __init__(self, builder: Builder, apply_op: stencil.ApplyOp, element_type):
        self._builder = builder
        self._apply = apply_op
        self._element_type = element_type

    def access(self, operand_index: int, offset: Sequence[int]) -> SSAValue:
        """Read input ``operand_index`` at a relative ``offset``."""
        arg = self._apply.region_args[operand_index]
        return self._builder.insert(stencil.AccessOp(arg, list(offset))).result

    def constant(self, value: float) -> SSAValue:
        return self._builder.insert(
            arith.ConstantOp.from_float(float(value), self._element_type)
        ).result

    def add(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self._builder.insert(arith.AddfOp(lhs, rhs)).result

    def sub(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self._builder.insert(arith.SubfOp(lhs, rhs)).result

    def mul(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self._builder.insert(arith.MulfOp(lhs, rhs)).result

    def div(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self._builder.insert(arith.DivfOp(lhs, rhs)).result


@dataclass
class _StencilSpec:
    inputs: list[FieldHandle]
    output: FieldHandle
    body: Callable[[StencilExpressionBuilder], SSAValue]


class StencilProgramBuilder:
    """Builds a stencil-level module: fields, stencil sweeps and a time loop."""

    def __init__(
        self,
        name: str = "kernel",
        *,
        shape: Sequence[int],
        halo: int = 1,
        dtype: str = "f32",
    ):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.halo = int(halo)
        self.element_type = f32 if dtype == "f32" else f64
        self._fields: list[FieldHandle] = []
        self._stencils: list[_StencilSpec] = []
        self._swap_pairs: list[tuple[FieldHandle, FieldHandle]] = []

    # -- declarations -----------------------------------------------------------
    def add_field(self, name: str) -> FieldHandle:
        handle = FieldHandle(name=name, argument_index=len(self._fields))
        self._fields.append(handle)
        return handle

    def add_stencil(
        self,
        inputs: Sequence[FieldHandle],
        output: FieldHandle,
        body: Callable[[StencilExpressionBuilder], SSAValue],
    ) -> None:
        """Declare one stencil sweep: read ``inputs``, write ``output``.

        ``body`` receives a :class:`StencilExpressionBuilder` and returns the
        SSA value of the updated cell.
        """
        self._stencils.append(_StencilSpec(list(inputs), output, body))

    def swap(self, first: FieldHandle, second: FieldHandle) -> None:
        """Swap two fields between time-loop iterations (double buffering)."""
        self._swap_pairs.append((first, second))

    # -- module construction ----------------------------------------------------------
    def build(self) -> builtin.ModuleOp:
        """Build the module; the kernel takes all fields plus an iteration count."""
        if not self._stencils:
            raise BuilderError("declare at least one stencil before building")
        rank = len(self.shape)
        field_bounds = stencil.StencilBoundsAttr(
            [-self.halo] * rank, [s + self.halo for s in self.shape]
        )
        store_bounds = stencil.StencilBoundsAttr([0] * rank, list(self.shape))
        field_type = stencil.FieldType(field_bounds, self.element_type)
        temp_type = stencil.TempType(store_bounds, self.element_type)

        arg_types = [field_type] * len(self._fields) + [index]
        kernel = func.FuncOp(self.name, FunctionType(arg_types, []))
        builder = Builder.at_end(kernel.body.block)
        field_args = list(kernel.args[: len(self._fields)])
        iterations = kernel.args[len(self._fields)]

        zero = builder.insert(arith.ConstantOp.from_int(0)).result
        one = builder.insert(arith.ConstantOp.from_int(1)).result
        loop = scf.ForOp(zero, iterations, one, iter_args=field_args)
        builder.insert(loop)
        builder.insert(func.ReturnOp([]))

        body = Builder.at_end(loop.body.block)
        loop_fields = list(loop.body.block.args[1:])

        for spec in self._stencils:
            loads = [
                body.insert(stencil.LoadOp(loop_fields[handle.argument_index]))
                for handle in spec.inputs
            ]
            apply_op = stencil.ApplyOp([load.result for load in loads], [temp_type])
            body.insert(apply_op)
            expression_builder = StencilExpressionBuilder(
                Builder.at_end(apply_op.body.block), apply_op, self.element_type
            )
            result = spec.body(expression_builder)
            Builder.at_end(apply_op.body.block).insert(stencil.ReturnOp([result]))
            body.insert(
                stencil.StoreOp(
                    apply_op.results[0],
                    loop_fields[spec.output.argument_index],
                    store_bounds,
                )
            )

        yielded = list(loop_fields)
        for first, second in self._swap_pairs:
            yielded[first.argument_index], yielded[second.argument_index] = (
                yielded[second.argument_index],
                yielded[first.argument_index],
            )
        body.insert(scf.YieldOp(yielded))
        return builtin.ModuleOp([kernel])

    def compile(self, target=None):
        """Build the module and run the shared pipeline for ``target``.

        The OEC analogue of ``Operator.compile``: one call from builder state
        to a :class:`~repro.core.CompiledProgram` ready for a session plan::

            program = builder.compile(dmp_target((2, 2)))
            with Session(ExecutionConfig(runtime="processes")) as session:
                session.plan(program).run([u, v], [timesteps])
        """
        from ...core import compile_from_frontend, cpu_target

        return compile_from_frontend("oec.build", self.build, target or cpu_target())
