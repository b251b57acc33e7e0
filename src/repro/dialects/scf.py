"""The scf dialect: structured control flow (for, if, parallel loops)."""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..ir.attributes import TypeAttribute
from ..ir.core import Block, Operation, Region, SSAValue
from ..ir.traits import IsTerminator, Pure
from ..ir.types import IndexType, i1, index


class YieldOp(Operation):
    """Terminates scf region bodies, optionally yielding values."""

    name = "scf.yield"
    traits = frozenset([IsTerminator(), Pure()])

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=list(values))


class ForOp(Operation):
    """A counted sequential loop ``for %i = %lb to %ub step %step``.

    Supports loop-carried values (iter_args) as in MLIR: the body block takes
    the induction variable followed by the iteration arguments, and yields the
    next iteration's values.
    """

    name = "scf.for"

    def __init__(
        self,
        lower_bound: SSAValue,
        upper_bound: SSAValue,
        step: SSAValue,
        iter_args: Sequence[SSAValue] = (),
        body: Optional[Region] = None,
    ):
        if body is None:
            body = Region(
                Block(arg_types=[index] + [arg.type for arg in iter_args])
            )
        super().__init__(
            operands=[lower_bound, upper_bound, step, *iter_args],
            result_types=[arg.type for arg in iter_args],
            regions=[body],
        )

    @property
    def lower_bound(self) -> SSAValue:
        return self.operands[0]

    @property
    def upper_bound(self) -> SSAValue:
        return self.operands[1]

    @property
    def step(self) -> SSAValue:
        return self.operands[2]

    @property
    def iter_args(self) -> tuple[SSAValue, ...]:
        return self.operands[3:]

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def induction_variable(self) -> SSAValue:
        return self.body.block.args[0]

    def verify_(self) -> None:
        for operand in self.operands[:3]:
            if not isinstance(operand.type, IndexType):
                raise ValueError("scf.for bounds and step must have index type")
        block = self.body.block
        if len(block.args) != 1 + len(self.iter_args):
            raise ValueError(
                "scf.for body must take the induction variable plus one argument "
                "per iter_arg"
            )
        if block.ops and not isinstance(block.last_op, YieldOp):
            raise ValueError("scf.for body must be terminated by scf.yield")


class IfOp(Operation):
    """Conditional execution with optional else region and results."""

    name = "scf.if"

    def __init__(
        self,
        condition: SSAValue,
        result_types: Sequence[TypeAttribute] = (),
        then_region: Optional[Region] = None,
        else_region: Optional[Region] = None,
    ):
        if then_region is None:
            then_region = Region(Block())
        if else_region is None:
            else_region = Region(Block()) if result_types else Region()
        super().__init__(
            operands=[condition],
            result_types=list(result_types),
            regions=[then_region, else_region],
        )

    @property
    def condition(self) -> SSAValue:
        return self.operands[0]

    @property
    def then_region(self) -> Region:
        return self.regions[0]

    @property
    def else_region(self) -> Region:
        return self.regions[1]

    def verify_(self) -> None:
        if self.condition.type != i1:
            raise ValueError("scf.if condition must be an i1 value")
        if self.results and not self.else_region.blocks:
            raise ValueError("scf.if with results requires an else region")


class ParallelOp(Operation):
    """A multi-dimensional parallel loop nest (the unit of SMP/GPU mapping).

    Operand layout: ``lower_bounds..., upper_bounds..., steps..., inits...``
    with the rank implied by the body block arguments.  ``init_values`` are
    reduction seeds (MLIR-style): the body must then be terminated by an
    ``scf.reduce`` whose i-th combiner folds one per-iteration value into the
    i-th accumulator, and the loop produces one result per init value.
    """

    name = "scf.parallel"

    def __init__(
        self,
        lower_bounds: Sequence[SSAValue],
        upper_bounds: Sequence[SSAValue],
        steps: Sequence[SSAValue],
        body: Optional[Region] = None,
        init_values: Sequence[SSAValue] = (),
    ):
        rank = len(lower_bounds)
        if len(upper_bounds) != rank or len(steps) != rank:
            raise ValueError("scf.parallel bounds and steps must have equal rank")
        if body is None:
            body = Region(Block(arg_types=[index] * rank))
        super().__init__(
            operands=[*lower_bounds, *upper_bounds, *steps, *init_values],
            result_types=[value.type for value in init_values],
            regions=[body],
        )

    @property
    def rank(self) -> int:
        return len(self.body.block.args)

    @property
    def lower_bounds(self) -> tuple[SSAValue, ...]:
        return self.operands[0 : self.rank]

    @property
    def upper_bounds(self) -> tuple[SSAValue, ...]:
        return self.operands[self.rank : 2 * self.rank]

    @property
    def steps(self) -> tuple[SSAValue, ...]:
        return self.operands[2 * self.rank : 3 * self.rank]

    @property
    def init_values(self) -> tuple[SSAValue, ...]:
        return self.operands[3 * self.rank :]

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def induction_variables(self) -> list[SSAValue]:
        return list(self.body.block.args)

    def verify_(self) -> None:
        rank = self.rank
        if len(self.operands) != 3 * rank + len(self.results):
            raise ValueError(
                "scf.parallel expects 3 * rank operands (lower, upper, step per "
                "dim) plus one init value per result"
            )
        for operand in self.operands[: 3 * rank]:
            if not isinstance(operand.type, IndexType):
                raise ValueError("scf.parallel bounds and steps must have index type")
        block = self.body.block
        if block.ops and not isinstance(block.last_op, (YieldOp, ReduceOp)):
            raise ValueError(
                "scf.parallel body must be terminated by scf.yield or scf.reduce"
            )
        terminator = block.last_op
        if isinstance(terminator, ReduceOp):
            if len(terminator.operands) != len(self.results):
                raise ValueError(
                    "scf.reduce must carry exactly one value per scf.parallel "
                    f"result (got {len(terminator.operands)} values for "
                    f"{len(self.results)} results)"
                )
        elif self.results:
            raise ValueError(
                "scf.parallel with init values must be terminated by an "
                "scf.reduce carrying one value per result"
            )


class ReduceOp(Operation):
    """The reduction terminator of an ``scf.parallel`` body (MLIR-style).

    Carries one per-iteration value per enclosing init value, plus one
    *combiner* region per value: a block taking ``(accumulator, value)`` and
    yielding the combined result.  The enclosing ``scf.parallel`` folds every
    iteration's values into its accumulators in iteration order and returns
    the final accumulators as its results.
    """

    name = "scf.reduce"
    traits = frozenset([IsTerminator()])

    def __init__(
        self,
        operand: Union[SSAValue, Sequence[SSAValue], None] = None,
        body: Union[Region, Sequence[Region], None] = None,
    ):
        if operand is None:
            operands: list[SSAValue] = []
        elif isinstance(operand, SSAValue):
            operands = [operand]
        else:
            operands = list(operand)
        if body is None:
            regions: list[Region] = []
        elif isinstance(body, Region):
            regions = [body]
        else:
            regions = list(body)
        super().__init__(operands=operands, regions=regions)

    @staticmethod
    def combining(value: SSAValue, op_class) -> "ReduceOp":
        """A reduce whose combiner applies one binary arith op to (acc, value)."""
        block = Block(arg_types=[value.type, value.type])
        combined = op_class(block.args[0], block.args[1])
        block.add_op(combined)
        block.add_op(YieldOp([combined.results[0]]))
        return ReduceOp(value, Region(block))

    def verify_(self) -> None:
        if len(self.regions) != len(self.operands):
            raise ValueError("scf.reduce needs one combiner region per value")
        for operand, region in zip(self.operands, self.regions):
            block = region.block
            if len(block.args) != 2:
                raise ValueError(
                    "scf.reduce combiners take (accumulator, value) arguments"
                )
            if not isinstance(block.last_op, YieldOp) or len(block.last_op.operands) != 1:
                raise ValueError(
                    "scf.reduce combiners must yield exactly the combined value"
                )
