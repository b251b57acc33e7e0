"""The shared compilation pipeline.

``compile_stencil_program`` is the entry point every frontend uses: it takes a
*stencil-level* module (the common abstraction of fig. 1b) and a
:class:`~repro.core.targets.Target`, and progressively lowers it:

    stencil  ->  [dmp]  ->  [mpi]  ->  scf/memref/arith (+ omp / gpu / hls)

returning a :class:`CompiledProgram` that carries the lowered module, the
characteristics used by the performance models, and (for distributed targets)
the decomposition summary needed to scatter/gather data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..interp.vectorize import CompiledKernel

from ..dialects.builtin import ModuleOp
from ..ir.context import MLContext, default_context
from ..obs import compile_tracing
from ..machine.kernel_model import ProgramCharacteristics, characterize_module
from ..transforms.common import canonicalize, hoist_loop_invariant_code
from ..transforms.distribute import (
    GridSlicingStrategy,
    distribute_stencil,
    eliminate_redundant_swaps,
    lower_dmp_to_mpi,
)
from ..transforms.distribute.stencil_to_dmp import DistributionSummary
from ..transforms.mpi import lower_mpi_to_func
from ..transforms.smp import convert_scf_to_openmp, count_parallel_regions
from ..transforms.stencil import (
    HLSKernelInfo,
    count_gpu_kernels,
    infer_shapes,
    lower_stencil_to_gpu,
    lower_stencil_to_hls,
    lower_stencil_to_scf,
    stencil_precodegen_pipeline,
)
from .targets import Target, TargetKind


class CompilationError(Exception):
    """Raised when a stencil program cannot be compiled for the given target."""


@dataclass
class CompiledProgram:
    """The result of running the shared pipeline on a stencil program."""

    module: ModuleOp
    target: Target
    #: Characteristics measured on the stencil-level module (before lowering).
    characteristics: ProgramCharacteristics
    #: Number of stencil regions after fusion (== OpenMP regions / GPU kernels).
    stencil_regions: int
    #: Decomposition information for distributed targets.
    distribution: Optional[DistributionSummary] = None
    #: Structural summary of the HLS lowering for FPGA targets.
    hls_kernels: list[HLSKernelInfo] = field(default_factory=list)
    #: OpenMP parallel regions in the lowered module (smp/dmp targets).
    parallel_regions: int = 0
    #: GPU kernels in the lowered module (gpu target).
    gpu_kernels: int = 0
    #: Cache of vectorized kernels keyed by function name, so every plan and
    #: run of this program skips nest recompilation.
    _kernel_cache: dict[str, "CompiledKernel"] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The one megakernel cache (see :func:`repro.core.rank.run_rank`):
    #: time-loop traces keyed by ``(function, overlap)`` and emitted
    #: megakernels keyed by ``(function, rank, size, signature, overlap,
    #: traced)``; rejections are cached as their ``CodegenFallback``.
    _megakernel_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: Lazily built ``{name: FuncOp}`` table (see :attr:`functions`).
    _functions: Optional[dict] = field(default=None, repr=False, compare=False)
    #: Lazily computed content hash (see :attr:`fingerprint`).
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)
    #: Compile-phase trace (a :class:`repro.obs.TraceRecord` with pipeline
    #: stage and per-pass spans); merged into every traced run's timeline.
    compile_record: Optional[object] = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        """Pickle support (the process runtime ships programs to workers).

        The vectorized-kernel, megakernel and function-table caches are
        process-local — nests are keyed by operation identity and megakernels
        close over this process's buffers — so they are dropped on the wire
        and rebuilt lazily by the receiver.  The fingerprint *is* shipped: it
        hashes the printed module, so the receiver never re-prints it.  The
        worker pool's shipping key is likewise parent-private.
        """
        state = self.__dict__.copy()
        state["_kernel_cache"] = {}
        state["_megakernel_cache"] = {}
        state["_functions"] = None
        state.pop("_pool_program_key", None)
        return state

    @property
    def fingerprint(self) -> str:
        """A stable content hash of the lowered module + target.

        Computed once from the printed IR (the module is frozen after
        :func:`compile_stencil_program` returns) and shipped with the
        program, this keys the serving layer's cross-tenant plan cache.
        """
        if self._fingerprint is None:
            from ..interp.codegen import program_fingerprint
            from ..ir.printer import print_module

            self._fingerprint = program_fingerprint(
                print_module(self.module) + "\n" + repr(self.target)
            )
        return self._fingerprint

    def compiled_kernel(self, function_name: str) -> "CompiledKernel":
        """The vectorized kernel for one function (compiled once, then cached).

        The cache assumes ``module`` is no longer mutated after compilation —
        which holds for every pipeline in this project, since
        :func:`compile_stencil_program` finishes all rewrites before returning.
        """
        kernel = self._kernel_cache.get(function_name)
        if kernel is None:
            from ..interp.vectorize import compile_kernel

            kernel = compile_kernel(self.module, function_name)
            self._kernel_cache[function_name] = kernel
        return kernel

    @property
    def functions(self) -> dict:
        """``{name: FuncOp}`` for every function of the module (built once)."""
        if self._functions is None:
            from ..dialects import func

            self._functions = {
                op.sym_name: op
                for op in self.module.walk()
                if isinstance(op, func.FuncOp)
            }
        return self._functions

    @property
    def function_names(self) -> list[str]:
        return [
            name for name, op in self.functions.items() if not op.is_declaration
        ]


def compile_stencil_program(
    module: ModuleOp,
    target: Target,
    *,
    ctx: Optional[MLContext] = None,
) -> CompiledProgram:
    """Lower a stencil-level module for ``target`` (in place) and describe it.

    Every stage runs inside the thread-local compile-tracing scope: when a
    frontend ``compile()`` already opened one, stage spans join the
    frontend's track; otherwise this function owns the tracer.  Either way
    the resulting :class:`~repro.obs.TraceRecord` travels on
    :attr:`CompiledProgram.compile_record`.
    """
    ctx = ctx or default_context()
    with compile_tracing() as tracer:
        with tracer.span("pipeline.verify"):
            module.verify()

        # Stencil-level preparation shared by every target: the staged
        # pre-codegen pipeline (fusion, then CSE/DCE/canonicalize) runs while
        # the program is still at the stencil level, before any lowering
        # erases the apply structure.
        with tracer.span("pipeline.infer-shapes"):
            infer_shapes(module)
        with tracer.span("pipeline.precodegen"):
            stencil_precodegen_pipeline(ctx, fuse=target.fuse_stencils).run(module)
        with tracer.span("pipeline.characterize"):
            characteristics = characterize_module(module)
        stencil_regions = characteristics.stencil_regions

        distribution: Optional[DistributionSummary] = None
        hls_kernels: list[HLSKernelInfo] = []
        parallel_regions = 0
        gpu_kernels = 0

        if target.is_distributed:
            assert target.rank_grid is not None
            with tracer.span("pipeline.distribute"):
                strategy = GridSlicingStrategy(target.rank_grid)
                distribution = distribute_stencil(module, strategy)
                eliminate_redundant_swaps(module)

        with tracer.span("pipeline.lower-stencil"):
            if target.kind == TargetKind.FPGA:
                hls_kernels = lower_stencil_to_hls(
                    module, optimize=target.fpga_optimize)
                lower_stencil_to_scf(module)
            elif target.kind == TargetKind.GPU:
                gpu_kernels = lower_stencil_to_gpu(module)
            else:
                lower_stencil_to_scf(module, tile_sizes=target.tile_sizes)

        if target.is_distributed and target.lower_to_library_calls:
            with tracer.span("pipeline.lower-mpi"):
                lower_dmp_to_mpi(module)
                lower_mpi_to_func(module)

        if target.kind in (TargetKind.CPU_OPENMP, TargetKind.DISTRIBUTED):
            with tracer.span("pipeline.openmp"):
                convert_scf_to_openmp(module, num_threads=target.threads)
                parallel_regions = count_parallel_regions(module)
        if target.kind == TargetKind.GPU:
            gpu_kernels = count_gpu_kernels(module)

        with tracer.span("pipeline.finalize"):
            hoist_loop_invariant_code(module)
            canonicalize(module)
            module.verify()

        program = CompiledProgram(
            module=module,
            target=target,
            characteristics=characteristics,
            stencil_regions=stencil_regions,
            distribution=distribution,
            hls_kernels=hls_kernels,
            parallel_regions=parallel_regions,
            gpu_kernels=gpu_kernels,
        )
        program.compile_record = tracer.record()
    return program
