"""The mini-Devito Operator: lowers symbolic equations and runs them.

Two back-ends are provided, mirroring the paper's comparison:

* ``backend="xdsl"`` — the shared-stack path: the equations are lowered to the
  stencil dialect, compiled by :func:`repro.core.compile_stencil_program` for
  the requested target (sequential, OpenMP, MPI, GPU, FPGA) and executed by
  the IR interpreter / simulated MPI runtime.
* ``backend="native"`` — the "standalone Devito" baseline: the same update
  expressions are executed directly with vectorised numpy, using exactly the
  same time-buffer rotation, so the two back-ends produce identical data and
  serve as each other's oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...core import (
    CompiledProgram,
    ExecutionConfig,
    Session,
    Target,
    compile_from_frontend,
    cpu_target,
    default_session,
)
from ...dialects import arith, builtin, func, scf, stencil
from ...ir import Builder, FunctionType, f32, f64, index
from ...machine.kernel_model import ProgramCharacteristics, characterize_module
from .symbolic import Access, BinOp, Eq, Expr, Function, Scalar, Symbol, TimeFunction


class OperatorError(Exception):
    """Raised when equations cannot be lowered or executed."""


# ---------------------------------------------------------------------------
# Lowering symbolic equations to the stencil dialect
# ---------------------------------------------------------------------------

@dataclass
class _FieldSlot:
    """One field argument of the generated kernel."""

    function: Function
    buffer_index: int  # time buffer index (0 for plain Functions)
    argument_index: int


class _EquationLowerer:
    """Builds a stencil-level module from explicit update equations."""

    def __init__(self, equations: Sequence[Eq], dt: float, name: str):
        self.equations = list(equations)
        self.dt = float(dt)
        self.name = name
        self.updated: list[TimeFunction] = []
        self.read_only: list[Function] = []
        self._validate()

    def _validate(self) -> None:
        seen: set[int] = set()
        for equation in self.equations:
            lhs = equation.lhs
            if not isinstance(lhs, Access) or lhs.time_offset != 1:
                raise OperatorError(
                    "every equation must assign to a forward time access "
                    "(Eq(u.forward, ...)); use solve() to rearrange the PDE"
                )
            function = lhs.function
            if not isinstance(function, TimeFunction):
                raise OperatorError("updates must target TimeFunctions")
            if id(function) in seen:
                raise OperatorError(f"function {function.name} is updated twice")
            seen.add(id(function))
            self.updated.append(function)
        for equation in self.equations:
            for access in equation.rhs.accesses():
                target = access.function
                if isinstance(target, TimeFunction):
                    if id(target) not in seen:
                        raise OperatorError(
                            f"TimeFunction {target.name} is read but never updated"
                        )
                elif all(target is not existing for existing in self.read_only):
                    self.read_only.append(target)

    # -- helpers -----------------------------------------------------------------
    @property
    def grid(self):
        return self.updated[0].grid

    def _element_type(self):
        return f32 if self.updated[0].dtype == np.float32 else f64

    def halo(self) -> int:
        return max(f.halo for f in self.updated + self.read_only)

    def field_slots(self) -> list[_FieldSlot]:
        slots: list[_FieldSlot] = []
        argument = 0
        for function in self.updated:
            for buffer in range(function.buffers):
                slots.append(_FieldSlot(function, buffer, argument))
                argument += 1
        for function in self.read_only:
            slots.append(_FieldSlot(function, 0, argument))
            argument += 1
        return slots

    def build_module(self) -> builtin.ModuleOp:
        grid = self.grid
        rank = grid.ndim
        element_type = self._element_type()
        halo = self.halo()
        field_bounds = stencil.StencilBoundsAttr([-halo] * rank, [s + halo for s in grid.shape])
        store_bounds = stencil.StencilBoundsAttr([0] * rank, list(grid.shape))
        field_type = stencil.FieldType(field_bounds, element_type)

        slots = self.field_slots()
        arg_types = [field_type] * len(slots) + [index]
        kernel = func.FuncOp(self.name, FunctionType(arg_types, []))
        builder = Builder.at_end(kernel.body.block)
        field_args = kernel.args[: len(slots)]
        timesteps_arg = kernel.args[len(slots)]

        zero = builder.insert(arith.ConstantOp.from_int(0)).result
        one = builder.insert(arith.ConstantOp.from_int(1)).result
        loop = scf.ForOp(zero, timesteps_arg, one, iter_args=field_args)
        builder.insert(loop)
        builder.insert(func.ReturnOp([]))

        body = Builder.at_end(loop.body.block)
        loop_fields = list(loop.body.block.args[1:])

        # Map (function, time offset) -> loop-carried field value.
        slot_positions: dict[tuple[int, int], int] = {}
        for position, slot in enumerate(slots):
            slot_positions[(id(slot.function), slot.buffer_index)] = position

        def field_for(function: Function, time_offset: int):
            if isinstance(function, TimeFunction):
                # Buffer 0 carries time t, buffer 1 carries t-1, the last
                # buffer is the oldest and is overwritten with t+1.
                if time_offset == 0:
                    buffer = 0
                elif time_offset == -1:
                    buffer = 1
                elif time_offset == +1:
                    buffer = function.buffers - 1
                else:
                    raise OperatorError(f"unsupported time offset {time_offset}")
            else:
                buffer = 0
            return loop_fields[slot_positions[(id(function), buffer)]]

        # One load per (function, time offset) actually read.
        load_cache: dict[tuple[int, int], stencil.LoadOp] = {}

        def load_for(function: Function, time_offset: int) -> stencil.LoadOp:
            key = (id(function), 0 if not isinstance(function, TimeFunction) else time_offset)
            if key not in load_cache:
                load_cache[key] = body.insert(stencil.LoadOp(field_for(function, time_offset)))
            return load_cache[key]

        # Build one apply per equation.
        temp_type = stencil.TempType(store_bounds, element_type)
        for equation in self.equations:
            reads = equation.rhs.accesses()
            read_keys: list[tuple[int, int]] = []
            for access in reads:
                key = (
                    id(access.function),
                    0 if not isinstance(access.function, TimeFunction) else access.time_offset,
                )
                if key not in read_keys:
                    read_keys.append(key)
            loads = []
            for function_id, time_offset in read_keys:
                function = next(
                    f for f in self.updated + self.read_only if id(f) == function_id
                )
                loads.append(load_for(function, time_offset))

            apply_op = stencil.ApplyOp([load.result for load in loads], [temp_type])
            body.insert(apply_op)
            apply_builder = Builder.at_end(apply_op.body.block)
            operand_index = {key: i for i, key in enumerate(read_keys)}

            def emit(expr: Expr):
                if isinstance(expr, Scalar):
                    return apply_builder.insert(
                        arith.ConstantOp.from_float(expr.value, element_type)
                    ).result
                if isinstance(expr, Symbol):
                    value = self.dt if expr.name == "dt" else expr.default
                    return apply_builder.insert(
                        arith.ConstantOp.from_float(float(value), element_type)
                    ).result
                if isinstance(expr, Access):
                    key = (
                        id(expr.function),
                        0 if not isinstance(expr.function, TimeFunction) else expr.time_offset,
                    )
                    region_arg = apply_op.region_args[operand_index[key]]
                    return apply_builder.insert(
                        stencil.AccessOp(region_arg, list(expr.space_offsets))
                    ).result
                if isinstance(expr, Function):
                    return emit(expr._as_access())
                if isinstance(expr, BinOp):
                    lhs = emit(expr.lhs)
                    rhs = emit(expr.rhs)
                    op_cls = {
                        "+": arith.AddfOp, "-": arith.SubfOp,
                        "*": arith.MulfOp, "/": arith.DivfOp,
                    }[expr.op]
                    return apply_builder.insert(op_cls(lhs, rhs)).result
                raise OperatorError(f"cannot lower expression node {expr!r}")

            result_value = emit(equation.rhs)
            apply_builder.insert(stencil.ReturnOp([result_value]))

            target_field = field_for(equation.lhs.function, +1)
            body.insert(stencil.StoreOp(apply_op.results[0], target_field, store_bounds))

        # Rotate the time buffers: the freshly written buffer becomes time t.
        yielded = list(loop_fields)
        cursor = 0
        for function in self.updated:
            buffers = function.buffers
            segment = loop_fields[cursor : cursor + buffers]
            yielded[cursor : cursor + buffers] = [segment[-1]] + segment[:-1]
            cursor += buffers
        body.insert(scf.YieldOp(yielded))

        return builtin.ModuleOp([kernel])


# ---------------------------------------------------------------------------
# Native (numpy) execution - the standalone-Devito baseline
# ---------------------------------------------------------------------------

class _NativeExecutor:
    """Vectorised numpy execution of the update equations."""

    def __init__(self, equations: Sequence[Eq], dt: float):
        self.equations = list(equations)
        self.dt = float(dt)

    def run(self, timesteps: int) -> None:
        functions = [eq.lhs.function for eq in self.equations]
        grid = functions[0].grid
        halo = max(f.halo for f in functions)
        interior = tuple(slice(halo, halo + s) for s in grid.shape)
        # Rotation state per updated function: order[0] holds time t, the last
        # entry is the oldest buffer (overwritten with t+1).
        order: dict[int, list[int]] = {
            id(f): list(range(f.buffers)) for f in functions
        }

        for _ in range(int(timesteps)):
            updates = []
            for equation in self.equations:
                function = equation.lhs.function
                value = self._evaluate(equation.rhs, order, interior, halo)
                updates.append((function, value))
            for function, value in updates:
                target_buffer = order[id(function)][-1]
                function.data_with_halo[target_buffer][interior] = value
            for function, _ in updates:
                state = order[id(function)]
                order[id(function)] = [state[-1]] + state[:-1]

    def _evaluate(self, expr: Expr, order, interior, halo):
        if isinstance(expr, Scalar):
            return expr.value
        if isinstance(expr, Symbol):
            return self.dt if expr.name == "dt" else expr.default
        if isinstance(expr, Access):
            function = expr.function
            if isinstance(function, TimeFunction):
                state = order[id(function)]
                if expr.time_offset == 0:
                    buffer = state[0]
                elif expr.time_offset == -1:
                    buffer = state[1]
                else:
                    raise OperatorError("native backend reads only t and t-1")
                array = function.data_with_halo[buffer]
            else:
                array = function.data_with_halo
            slices = tuple(
                slice(halo + off, halo + off + extent)
                for off, extent in zip(expr.space_offsets, function.grid.shape)
            )
            return array[slices]
        if isinstance(expr, Function):
            return self._evaluate(expr._as_access(), order, interior, halo)
        if isinstance(expr, BinOp):
            lhs = self._evaluate(expr.lhs, order, interior, halo)
            rhs = self._evaluate(expr.rhs, order, interior, halo)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            return lhs / rhs
        raise OperatorError(f"cannot evaluate expression node {expr!r}")


# ---------------------------------------------------------------------------
# Operator
# ---------------------------------------------------------------------------

class Operator:
    """Compile and run a set of explicit update equations (mini Devito)."""

    def __init__(
        self,
        equations: Eq | Sequence[Eq],
        *,
        backend: str = "xdsl",
        target: Optional[Target] = None,
        name: str = "kernel",
        config: Optional[ExecutionConfig] = None,
        session: Optional[Session] = None,
    ):
        if isinstance(equations, Eq):
            equations = [equations]
        if not equations:
            raise OperatorError("an Operator needs at least one equation")
        if backend not in ("xdsl", "native"):
            raise OperatorError(f"unknown backend {backend!r}")
        self.equations = list(equations)
        self.backend = backend
        self.target = target or cpu_target()
        #: Execution configuration (one object across all frontends).
        self.config = ExecutionConfig.coerce(config)
        #: The Session owning the runtime resources; ``None`` uses the
        #: process-wide default session.
        self.session = session
        self.name = name
        self._compiled: Optional[CompiledProgram] = None
        self._compiled_dt: Optional[float] = None
        #: The pre-resolved execution plan for the compiled program, reused
        #: across apply() calls (the amortized hot path of repro.core.session).
        self._plan = None

    # -- compilation ------------------------------------------------------------
    def compile(self, dt: float) -> CompiledProgram:
        """Lower to the stencil dialect and run the shared pipeline (JIT-style)."""
        if self._compiled is not None and self._compiled_dt == dt:
            return self._compiled
        self._compiled = compile_from_frontend(
            "devito.lower", lambda: self.stencil_module(dt), self.target
        )
        self._compiled_dt = dt
        if self._plan is not None:
            self._plan.close()
            self._plan = None
        return self._compiled

    def stencil_module(self, dt: float = 1.0) -> builtin.ModuleOp:
        """The stencil-level module before target lowering (for inspection)."""
        return _EquationLowerer(self.equations, dt, self.name).build_module()

    def characteristics(self, dt: float = 1.0) -> ProgramCharacteristics:
        """Kernel characteristics used by the performance models."""
        module = self.stencil_module(dt)
        from ...transforms.stencil import infer_shapes

        infer_shapes(module)
        return characterize_module(module)

    def apply(self, time: int, dt: float = 1.0e-3) -> None:
        """Advance the equations ``time`` steps with time step ``dt``."""
        if time < 0:
            raise OperatorError("the number of time steps must be non-negative")
        if self.backend == "native":
            _NativeExecutor(self.equations, dt).run(time)
            return
        program = self.compile(dt)
        arguments = self._field_arguments()
        plan = self.plan(dt)
        plan.run(arguments, [int(time)])

    def plan(self, dt: float = 1.0e-3):
        """The session :class:`~repro.core.session.Plan` for this operator.

        Compiled (and planned) once, reused across ``apply()`` calls; a new
        ``dt`` recompiles and re-plans.
        """
        program = self.compile(dt)
        plan = self._plan
        if plan is None or plan.closed or plan.session.closed:
            session = self.session or default_session()
            plan = session.plan(program, function=self.name, config=self.config)
            self._plan = plan
        return plan

    def _field_arguments(self) -> list[np.ndarray]:
        lowerer = _EquationLowerer(self.equations, self._compiled_dt or 1.0, self.name)
        arrays: list[np.ndarray] = []
        for slot in lowerer.field_slots():
            function = slot.function
            if isinstance(function, TimeFunction):
                arrays.append(function.data_with_halo[slot.buffer_index])
            else:
                arrays.append(function.data_with_halo)
        return arrays

    # -- result bookkeeping ------------------------------------------------------------
    @staticmethod
    def buffer_holding_time(function: TimeFunction, timesteps: int) -> int:
        """Which buffer of ``function`` holds the data of time ``timesteps``.

        Both back-ends rotate buffers identically, so this mapping is shared.
        """
        buffers = function.buffers
        return (-timesteps) % buffers if buffers > 2 else timesteps % buffers
