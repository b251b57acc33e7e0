"""GPU lowering of stencil programs.

The real stack lowers ``scf.parallel`` to the MLIR ``gpu`` dialect and then to
CUDA.  Here the loops are lowered with the shared CPU path and every parallel
loop nest is *mapped* to a GPU kernel: the pass

* marks each ``scf.parallel`` with a ``gpu_kernel`` unit attribute (the unit of
  kernel launch),
* records the data-movement policy as an ``explicit_data_movement`` unit
  attribute on the nest — no device buffer is allocated and nothing is
  copied; what a transfer costs is the :mod:`repro.machine` model's job — and
* inserts a ``gpu.host_synchronize`` after each mapped loop, reproducing the
  synchronous-kernel-launch behaviour the paper measures (each scf.parallel
  becomes a separate, synchronously executed kernel).

The interpreter executes the mapped loops like ordinary loops; the GPU
performance model (:mod:`repro.machine.gpu_model`) uses the kernel count, the
data volumes and the synchronisation count to estimate runtime.
"""

from __future__ import annotations

from typing import Sequence

from ...dialects import gpu, scf
from ...ir.attributes import UnitAttr
from ...ir.builder import Builder
from ...ir.core import Operation
from ...ir.pass_manager import ModulePass
from .stencil_to_scf import lower_stencil_to_scf

#: Default CUDA block shape used by the tiled GPU execution (threads per block).
DEFAULT_BLOCK_SHAPE = (32, 4, 8)


def lower_stencil_to_gpu(
    module: Operation,
    *,
    block_shape: Sequence[int] = DEFAULT_BLOCK_SHAPE,
    explicit_data_movement: bool = True,
) -> int:
    """Lower stencils to GPU-mapped loops; return the number of kernels."""
    lower_stencil_to_scf(module, parallel_attr="gpu_kernel")
    kernels = 0
    for op in list(module.walk()):
        if isinstance(op, scf.ParallelOp) and "gpu_kernel" in op.attributes:
            kernels += 1
            if explicit_data_movement:
                op.attributes["explicit_data_movement"] = UnitAttr()
            block = op.parent_block
            if block is not None:
                builder = Builder.after(op)
                builder.insert(gpu.HostSynchronizeOp())
    return kernels


def count_gpu_kernels(module: Operation) -> int:
    """How many GPU kernels (mapped parallel loops) the lowered module contains."""
    return sum(
        1
        for op in module.walk()
        if isinstance(op, scf.ParallelOp) and "gpu_kernel" in op.attributes
    )


def count_synchronizations(module: Operation) -> int:
    """How many host synchronisations the lowered module performs per execution."""
    return sum(1 for op in module.walk() if isinstance(op, gpu.HostSynchronizeOp))


class ConvertStencilToGPUPass(ModulePass):
    """Lower stencil.apply to GPU-mapped parallel loops with explicit data movement."""

    name = "convert-stencil-to-gpu"
    conversion = True
    options = ("block_shape", "explicit_data_movement")

    def __init__(
        self,
        block_shape: Sequence[int] = DEFAULT_BLOCK_SHAPE,
        explicit_data_movement: bool = True,
    ):
        self.block_shape = tuple(block_shape)
        self.explicit_data_movement = explicit_data_movement

    def apply(self, module: Operation) -> None:
        lower_stencil_to_gpu(
            module,
            block_shape=self.block_shape,
            explicit_data_movement=self.explicit_data_movement,
        )
