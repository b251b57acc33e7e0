"""A minimal omp dialect modelling OpenMP shared-memory parallel regions.

The paper relies on MLIR's ``convert-scf-to-openmp``; its key observed
limitation (one parallel region per ``scf.parallel``, causing barrier spin
time for the tracer-advection benchmark) is reproduced by keeping the same
one-region-per-loop structure here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import IntAttr
from ..ir.core import Block, Operation, Region, SSAValue
from ..ir.traits import IsTerminator
from ..ir.types import index


class ParallelOp(Operation):
    """An OpenMP parallel region; spawns a thread team."""

    name = "omp.parallel"

    def __init__(self, body: Optional[Region] = None, num_threads: Optional[int] = None):
        attributes = {}
        if num_threads is not None:
            attributes["num_threads"] = IntAttr(num_threads)
        if body is None:
            body = Region(Block())
        super().__init__(attributes=attributes, regions=[body])

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def num_threads(self) -> Optional[int]:
        attr = self.attributes.get("num_threads")
        return attr.data if isinstance(attr, IntAttr) else None


class WsLoopOp(Operation):
    """A work-shared loop nest inside an omp.parallel region."""

    name = "omp.wsloop"

    def __init__(
        self,
        lower_bounds: Sequence[SSAValue],
        upper_bounds: Sequence[SSAValue],
        steps: Sequence[SSAValue],
        body: Optional[Region] = None,
    ):
        rank = len(lower_bounds)
        if body is None:
            body = Region(Block(arg_types=[index] * rank))
        super().__init__(
            operands=[*lower_bounds, *upper_bounds, *steps],
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
    def body(self) -> Region:
        return self.regions[0]


class YieldOp(Operation):
    """Terminator of omp region bodies."""

    name = "omp.yield"
    traits = frozenset([IsTerminator()])

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=list(values))


class TerminatorOp(Operation):
    """Terminator of an omp.parallel region."""

    name = "omp.terminator"
    traits = frozenset([IsTerminator()])

    def __init__(self):
        super().__init__()


class BarrierOp(Operation):
    """An explicit thread barrier (the kmp_wait_template hotspot in the paper)."""

    name = "omp.barrier"

    def __init__(self):
        super().__init__()
