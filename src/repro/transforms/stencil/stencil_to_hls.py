"""FPGA (HLS) lowering of stencil programs (Stencil-HMLS, paper Table 1).

Two configurations are produced:

* *initial* — the stencil is executed unchanged from its Von Neumann form:
  a single HLS stage containing the loop nest, every stencil access reading
  from external DDR memory (no on-chip reuse, initiation interval >> 1).
* *optimized* — the compiler restructures the algorithm for a dataflow
  architecture: separate read / compute / write stages connected by streams
  plus a shift buffer caching the stencil footprint, so the compute stage
  is fully pipelined (initiation interval 1, one DDR read per cycle).

The transformation builds ``hls.dataflow`` regions carrying enough structural
information (stage kinds, initiation intervals, footprints) for the FPGA
performance model to estimate throughput, while the numerical semantics stay
with the stencil ops (kept inside the compute stage) so correctness tests can
still execute the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...dialects import hls, stencil
from ...ir.attributes import IntAttr, UnitAttr
from ...ir.builder import Builder
from ...ir.core import Operation
from ...ir.pass_manager import ModulePass


@dataclass
class HLSKernelInfo:
    """Structural summary of one synthesised stencil kernel."""

    stencil_points: int
    footprint: tuple[int, ...]
    optimized: bool
    initiation_interval: int
    ddr_reads_per_cell: int

    @property
    def pipelined(self) -> bool:
        return self.initiation_interval == 1


def _apply_footprint(apply_op: stencil.ApplyOp) -> tuple[int, ...]:
    lower, upper = apply_op.halo_extents()
    return tuple(l + u + 1 for l, u in zip(lower, upper))


def _apply_points(apply_op: stencil.ApplyOp) -> int:
    return sum(len(offsets) for offsets in apply_op.access_offsets().values())


def lower_stencil_to_hls(module: Operation, *, optimize: bool = True) -> list[HLSKernelInfo]:
    """Wrap every stencil.apply in an HLS dataflow structure; return kernel infos."""
    infos: list[HLSKernelInfo] = []
    for apply_op in stencil.apply_ops_of(module):
        points = _apply_points(apply_op)
        footprint = _apply_footprint(apply_op)
        builder = Builder.before(apply_op)
        dataflow = hls.DataflowOp()
        builder.insert(dataflow)
        stage_builder = Builder.at_end(dataflow.body.block)
        if optimize:
            read_stage = hls.StageOp("read", ii=1)
            compute_stage = hls.StageOp("compute", ii=1)
            write_stage = hls.StageOp("write", ii=1)
            stage_builder.insert_all([read_stage, compute_stage, write_stage])
            compute_stage.attributes["uses_shift_buffer"] = UnitAttr()
            compute_stage.attributes["footprint_cells"] = IntAttr(
                int(_product(footprint))
            )
            apply_op.attributes["hls_optimized"] = UnitAttr()
            ddr_reads = 1
            initiation_interval = 1
        else:
            # The naive port keeps a single stage; every access is a DDR read
            # and the loop cannot be pipelined across accesses.
            stage = hls.StageOp("compute", ii=max(points, 1))
            stage_builder.insert(stage)
            apply_op.attributes["hls_initial"] = UnitAttr()
            ddr_reads = points
            initiation_interval = max(points, 1)
        infos.append(
            HLSKernelInfo(
                stencil_points=points,
                footprint=footprint,
                optimized=optimize,
                initiation_interval=initiation_interval,
                ddr_reads_per_cell=ddr_reads,
            )
        )
    return infos


def _product(values: tuple[int, ...]) -> int:
    result = 1
    for value in values:
        result *= value
    return result


class ConvertStencilToHLSPass(ModulePass):
    """Lower stencils to HLS dataflow regions (optimised, shift-buffer form)."""

    name = "convert-stencil-to-hls"
    conversion = True
    options = ("optimize",)

    def __init__(self, optimize: bool = True):
        self.optimize = optimize
        self.kernel_infos: list[HLSKernelInfo] = []

    def apply(self, module: Operation) -> None:
        self.kernel_infos = lower_stencil_to_hls(module, optimize=self.optimize)
