"""The stencil-program builder every frontend lowers through.

The Open Earth Compiler exposes its programs at the stencil-specification
level; :class:`StencilProgramBuilder` provides the same entry point for users
who want to write stencil-dialect programs programmatically rather than
through a symbolic DSL or Fortran.  It is also what several tests and examples
use to construct hand-written stencil programs concisely.

Devito and PSyclone lower through the same two classes underneath it, so the
three frontends share one kernel shape: :class:`StencilKernel` builds the
skeleton (the field and temp bounds, ``func.func(fields..., index)``, the
``scf.for`` time loop, and load → ``stencil.apply`` → ``stencil.return`` →
``stencil.store`` per stencil), and :class:`StencilExpressionBuilder` the
per-cell arithmetic.  A frontend keeps only its own front half (symbolic
equations, Fortran parsing) and a short walk of its expression nodes onto the
expression builder's methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ...dialects import arith, builtin, func, scf, stencil
from ...ir import Builder, FunctionType, SSAValue, f32, f64, index


class BuilderError(Exception):
    """Raised on inconsistent use of the program builder."""


@dataclass
class FieldHandle:
    """A field declared on the builder (becomes a kernel argument)."""

    name: str
    argument_index: int


#: The frontends' binary operators, as the arith op each one builds.
_BINARY = {"+": arith.AddfOp, "-": arith.SubfOp, "*": arith.MulfOp, "/": arith.DivfOp}


class StencilExpressionBuilder:
    """Helper handed to stencil body callbacks to emit the per-cell computation."""

    def __init__(self, builder: Builder, apply_op: stencil.ApplyOp, element_type):
        self._builder = builder
        self._apply = apply_op
        self._element_type = element_type

    def _emit(self, op) -> SSAValue:
        return self._builder.insert(op).result

    def access(self, operand_index: int, offset: Sequence[int]) -> SSAValue:
        """Read input ``operand_index`` at a relative ``offset``."""
        arg = self._apply.region_args[operand_index]
        return self._emit(stencil.AccessOp(arg, list(offset)))

    def constant(self, value: float) -> SSAValue:
        return self._emit(arith.ConstantOp.from_float(float(value), self._element_type))

    def binary(self, operator: str, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        """Apply ``operator`` (one of ``+ - * /``) to two values."""
        return self._emit(_BINARY[operator](lhs, rhs))

    def add(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self.binary("+", lhs, rhs)

    def sub(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self.binary("-", lhs, rhs)

    def mul(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self.binary("*", lhs, rhs)

    def div(self, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        return self.binary("/", lhs, rhs)

    def neg(self, value: SSAValue) -> SSAValue:
        return self._emit(arith.NegfOp(value))

    def compare(self, predicate: str, lhs: SSAValue, rhs: SSAValue) -> SSAValue:
        """An ``arith.cmpf`` with ``predicate`` (``"olt"``, ``"oeq"``, ...)."""
        return self._emit(arith.CmpfOp(predicate, lhs, rhs))

    def select(self, condition: SSAValue, if_true: SSAValue, if_false: SSAValue) -> SSAValue:
        return self._emit(arith.SelectOp(condition, if_true, if_false))


class StencilKernel:
    """One kernel under construction: ``func.func(fields..., index)`` holding
    an ``scf.for`` over the iteration count, filled stencil by stencil.

    Every field shares the bounds ``[-halo, shape + halo)`` and every stencil
    stores over ``[0, shape)``.  With a ``permutation`` the fields travel
    through the loop as ``iter_args`` and iteration ``k + 1`` sees field
    ``permutation[i]`` of iteration ``k`` as field ``i`` (double buffering,
    time-buffer rotation); without one the loop updates the kernel's
    arguments in place and yields nothing.
    """

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        halo: int,
        element_type,
        fields: int,
        permutation: Optional[Sequence[int]],
    ):
        shape = [int(s) for s in shape]
        rank = len(shape)
        field_bounds = stencil.StencilBoundsAttr([-halo] * rank, [s + halo for s in shape])
        self._store_bounds = stencil.StencilBoundsAttr([0] * rank, shape)
        self._temp_type = stencil.TempType(self._store_bounds, element_type)
        self._element_type = element_type
        self._permutation = permutation
        field_type = stencil.FieldType(field_bounds, element_type)
        self._kernel = func.FuncOp(name, FunctionType([field_type] * fields + [index], []))
        builder = Builder.at_end(self._kernel.body.block)
        args = list(self._kernel.args)
        zero = builder.insert(arith.ConstantOp.from_int(0)).result
        one = builder.insert(arith.ConstantOp.from_int(1)).result
        carried = permutation is not None
        loop = builder.insert(
            scf.ForOp(zero, args[fields], one, iter_args=args[:fields] if carried else ())
        )
        builder.insert(func.ReturnOp([]))
        self._body = Builder.at_end(loop.body.block)
        self._fields = list(loop.body.block.args[1:]) if carried else args[:fields]

    def load(self, field: int) -> SSAValue:
        """A ``stencil.load`` of field ``field`` at the end of the loop body."""
        return self._body.insert(stencil.LoadOp(self._fields[field])).result

    def apply(
        self,
        temps: Sequence[SSAValue],
        body: Callable[[StencilExpressionBuilder], SSAValue],
        target: int,
    ) -> SSAValue:
        """One stencil: ``body`` computes a cell from ``temps``; store it to
        field ``target``.  Returns the computed temp."""
        apply_op = self._body.insert(stencil.ApplyOp(list(temps), [self._temp_type]))
        cell = Builder.at_end(apply_op.body.block)
        result = body(StencilExpressionBuilder(cell, apply_op, self._element_type))
        cell.insert(stencil.ReturnOp([result]))
        temp = apply_op.results[0]
        self._body.insert(stencil.StoreOp(temp, self._fields[target], self._store_bounds))
        return temp

    def finish(self) -> builtin.ModuleOp:
        """Close the time loop and wrap the kernel in a module."""
        yielded = [self._fields[i] for i in self._permutation or ()]
        self._body.insert(scf.YieldOp(yielded))
        return builtin.ModuleOp([self._kernel])


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
        """Build the module; the kernel takes all fields plus an iteration count.

        The fields are carried through the time loop even without a swap.
        """
        if not self._stencils:
            raise BuilderError("declare at least one stencil before building")
        order = list(range(len(self._fields)))
        for first, second in self._swap_pairs:
            a, b = first.argument_index, second.argument_index
            order[a], order[b] = order[b], order[a]
        kernel = StencilKernel(
            self.name, self.shape, self.halo, self.element_type, len(self._fields), order
        )
        for spec in self._stencils:
            temps = [kernel.load(handle.argument_index) for handle in spec.inputs]
            kernel.apply(temps, spec.body, spec.output.argument_index)
        return kernel.finish()

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
