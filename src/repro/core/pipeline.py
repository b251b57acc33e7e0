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
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..interp.vectorize import CompiledKernel

from ..dialects.builtin import ModuleOp
from ..ir.pass_manager import PassManager, Stage, VerifyPass
from ..machine.kernel_model import CharacterizePass, ProgramCharacteristics
from ..obs import compile_tracing
from ..transforms.common import (
    CanonicalizePass,
    CommonSubexpressionEliminationPass,
    DeadCodeEliminationPass,
    LoopInvariantCodeMotionPass,
)
from ..transforms.distribute import (
    ConvertDMPToMPIPass,
    DistributeStencilPass,
    GridSlicingStrategy,
    RedundantSwapEliminationPass,
)
from ..transforms.distribute.stencil_to_dmp import DistributionSummary
from ..transforms.mpi import ConvertMPIToFuncPass
from ..transforms.smp import ConvertSCFToOpenMPPass, count_parallel_regions
from ..transforms.stencil import (
    ConvertStencilToGPUPass,
    ConvertStencilToHLSPass,
    ConvertStencilToSCFPass,
    HLSKernelInfo,
    StencilFusionPass,
    StencilShapeInferencePass,
    count_gpu_kernels,
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
    #: traces keyed by function name and emitted megakernels keyed by
    #: ``(function, rank, size, signature, traced, threads)``;
    #: rejections are cached as their ``CodegenFallback``.
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


def pipeline_for(target: Target) -> tuple[Stage, ...]:
    """The ordered stages :func:`compile_stencil_program` runs for ``target``.

    Pure: every call builds fresh, already-parameterised pass objects.
    Ordering is the point of ``precodegen``: fusion only exists at the
    stencil level, so it runs before ``lower-stencil`` erases the apply
    structure — and the megakernel emitter sees one nest per fused region only
    if the merge happened here.  CSE and DCE then clean the merged apply
    bodies (duplicate accesses across formerly-separate applies, operands
    orphaned by the merge), and canonicalize restores the invariants later
    lowerings assume.  ``characterize`` reads the performance models' inputs
    while the program is still at the stencil level.
    """
    kind = target.kind
    fusion = (StencilFusionPass(),) if target.fuse_stencils else ()
    stages = [
        Stage("verify", (VerifyPass(),)),
        Stage("infer-shapes", (StencilShapeInferencePass(),)),
        Stage("precodegen", fusion + (
            CommonSubexpressionEliminationPass(),
            DeadCodeEliminationPass(),
            CanonicalizePass(),
        )),
        Stage("characterize", (CharacterizePass(),)),
    ]
    if target.is_distributed:
        stages.append(Stage("distribute", (
            DistributeStencilPass(GridSlicingStrategy(target.rank_grid)),
            RedundantSwapEliminationPass(),
        )))
    if kind == TargetKind.FPGA:
        lowering = (
            ConvertStencilToHLSPass(optimize=target.fpga_optimize),
            ConvertStencilToSCFPass(),
        )
    elif kind == TargetKind.GPU:
        lowering = (ConvertStencilToGPUPass(),)
    else:
        lowering = (ConvertStencilToSCFPass(tile_sizes=target.tile_sizes),)
    stages.append(Stage("lower-stencil", lowering))
    if target.is_distributed and target.lower_to_library_calls:
        stages.append(Stage("lower-mpi", (
            ConvertDMPToMPIPass(),
            ConvertMPIToFuncPass(),
        )))
    if kind in (TargetKind.CPU_OPENMP, TargetKind.DISTRIBUTED):
        stages.append(Stage("openmp", (
            ConvertSCFToOpenMPPass(num_threads=target.threads),
        )))
    stages.append(Stage("finalize", (
        LoopInvariantCodeMotionPass(),
        CanonicalizePass(),
    )))
    return tuple(stages)


def compile_stencil_program(module: ModuleOp, target: Target) -> CompiledProgram:
    """Lower a stencil-level module for ``target`` (in place) and describe it.

    The declared pipeline runs inside the thread-local compile-tracing scope:
    when a frontend ``compile()`` already opened one, stage and pass spans
    join the frontend's track; otherwise this function owns the tracer.
    Either way the resulting :class:`~repro.obs.TraceRecord` travels on
    :attr:`CompiledProgram.compile_record`.
    """
    stages = pipeline_for(target)
    with compile_tracing() as tracer:
        PassManager(stages).run(module)
        # What the passes found out, read off the pass objects; regions and
        # kernels are counted only where the conversion making them ran.
        ran = {type(p): p for stage in stages for p in stage.passes}
        characteristics = ran[CharacterizePass].characteristics
        distribute = ran.get(DistributeStencilPass)
        hls = ran.get(ConvertStencilToHLSPass)
        program = CompiledProgram(
            module=module,
            target=target,
            characteristics=characteristics,
            stencil_regions=characteristics.stencil_regions,
            distribution=distribute.summary if distribute else None,
            hls_kernels=hls.kernel_infos if hls else [],
            parallel_regions=(
                count_parallel_regions(module) if ConvertSCFToOpenMPPass in ran else 0
            ),
            gpu_kernels=(
                count_gpu_kernels(module) if ConvertStencilToGPUPass in ran else 0
            ),
        )
        program.compile_record = tracer.record()
    return program


def compile_from_frontend(
    span_name: str, lower: Callable[[], ModuleOp], target: Target
) -> CompiledProgram:
    """A frontend's ``compile()``: ``lower()`` to the stencil level, then compile.

    ``lower`` runs under a ``span_name`` span in the compile-tracing scope the
    pipeline then joins, so the program's ``compile_record`` holds the
    frontend lowering next to the stage and pass spans.
    """
    with compile_tracing() as tracer:
        with tracer.span(span_name):
            module = lower()
        return compile_stencil_program(module, target)
