"""Lower scf.parallel loops to OpenMP parallel regions.

This mirrors MLIR's ``convert-scf-to-openmp`` including its limitation called
out in the paper's evaluation: *each* ``scf.parallel`` becomes its *own*
``omp.parallel`` region with an implicit barrier at the end, so programs with
many small stencil regions (tracer advection: 18 regions) pay a fork/join +
barrier cost per region, visible as ``kmp_wait_template`` time.  The cost
model consumes the region count; the interpreter executes the loops
sequentially (deterministically), which keeps numerical results identical.
"""

from __future__ import annotations

from typing import Optional

from ...dialects import omp, scf
from ...ir.core import Block, Operation, Region
from ...ir.pass_manager import ModulePass


def convert_scf_to_openmp(module: Operation, num_threads: Optional[int] = None) -> int:
    """Wrap every top-level scf.parallel into an omp.parallel region."""
    converted = 0
    for parallel in list(module.walk()):
        if not isinstance(parallel, scf.ParallelOp):
            continue
        if parallel.parent is None:
            continue
        # GPU-mapped loops are not OpenMP targets.
        if "gpu_kernel" in parallel.attributes:
            continue
        # Reduction loops (scf.parallel with init values / results) keep their
        # scf form: omp.wsloop has no reduction clause in this minimal dialect.
        if parallel.results:
            continue
        parent_block = parallel.parent_block
        assert parent_block is not None

        region_block = Block()
        omp_region = omp.ParallelOp(Region(region_block), num_threads=num_threads)
        parent_block.insert_op_before(omp_region, parallel)

        wsloop = omp.WsLoopOp(
            list(parallel.lower_bounds),
            list(parallel.upper_bounds),
            list(parallel.steps),
            body=Region(Block(arg_types=[a.type for a in parallel.body.block.args])),
        )
        region_block.add_op(wsloop)
        region_block.add_op(omp.BarrierOp())
        region_block.add_op(omp.TerminatorOp())

        # Move the loop body into the wsloop, remapping induction variables.
        source_block = parallel.body.block
        target_block = wsloop.body.block
        for old_arg, new_arg in zip(source_block.args, target_block.args):
            old_arg.replace_by(new_arg)
        for op in list(source_block.ops):
            source_block.detach_op(op)
            if isinstance(op, scf.YieldOp):
                target_block.add_op(omp.YieldOp(list(op.operands)))
                op.drop_all_references()
            else:
                target_block.add_op(op)
        if not target_block.ops or not isinstance(target_block.last_op, omp.YieldOp):
            target_block.add_op(omp.YieldOp([]))

        parallel.erase()
        converted += 1
    return converted


def count_parallel_regions(module: Operation) -> int:
    """How many OpenMP parallel regions (fork/join + barrier) the module has."""
    return sum(1 for op in module.walk() if isinstance(op, omp.ParallelOp))


class ConvertSCFToOpenMPPass(ModulePass):
    """Map each scf.parallel onto its own OpenMP parallel region (MLIR-style)."""

    name = "convert-scf-to-openmp"
    conversion = True
    options = ("num_threads",)

    def __init__(self, num_threads: Optional[int] = None):
        self.num_threads = num_threads

    def apply(self, module: Operation) -> None:
        convert_scf_to_openmp(module, self.num_threads)
