"""Execution substrate: interpreter, vectorized backend, simulated MPI runtime.

Execution-backend architecture
------------------------------

Lowered programs are executed by two engines:

* **tree walker** (:mod:`repro.interp.interpreter`) — the reference
  semantics.  Every operation of the lowered module is dispatched once per
  evaluation, so loop nests cost one python dispatch *per grid cell per op*.
  It executes everything: MPI calls, data-dependent control flow, pointer
  tricks, unknown dialects with registered handlers.
* **megakernel** (:mod:`repro.interp.codegen`) — the one compiled tier.  A
  function is traced once and emitted per rank and buffer layout as one
  generated Python function, planned into and printed from a
  :class:`~repro.interp.schedule.KernelSchedule`, a plain value that holds
  nothing of the IR (:mod:`repro.interp.schedule`).  ``scf.parallel`` /
  ``omp.wsloop`` / plain ``scf.for`` nests whose bodies are pure
  ``memref.load`` / ``arith`` /
  ``memref.store`` programs with affine (``iv + c``) indices
  (:mod:`repro.interp.vectorize` compiles them to instructions) are fused
  into it as whole-array NumPy statements.  :mod:`repro.interp.nestplan`
  takes such a nest resolved against the trace and plans each box of it
  once against the buffer layout
  (:func:`~repro.interp.nestplan.plan_box`) and
  :func:`~repro.interp.nestplan.print_numpy` is the one printer of those
  statements: in place (``out=`` into a few scratch slots, the last op into
  the target region) and, for boxes over a cell budget, block by block so
  the expression DAG stays in cache.  A ``dmp.swap``, and the ``MPI_*``
  message group ``convert-dmp-to-mpi`` lowers one to, are swap steps whose
  halos are posted and landed around those statements.  Everything else is
  an *island*: the tree walker runs it in place, in program order.

Selection rules
---------------

1. ``repro.core.ExecutionConfig`` accepts
   ``backend="auto" | "interpreter"``; ``auto`` (default) asks
   :func:`repro.interp.vectorize.compile_kernel` for a
   :class:`~repro.interp.vectorize.CompiledKernel` (cached on the
   :class:`~repro.core.CompiledProgram` keyed by function name), and
   ``codegen="auto"`` runs the megakernel traced against it.
2. Nests the compiler could not *prove* vectorizable (MPI, ``scf.if``,
   non-affine indices) were never compiled and become islands; every
   rejection carries an explicit reason string
   (:class:`~repro.interp.vectorize.VectorizeFallback`, via
   ``CompiledKernel.fallback_for``).  Tiled nests (the ``min``-clamped inner
   bounds of ``convert-stencil-to-scf{tile}``), ``scf.reduce`` reductions and
   ``arith.select`` mask chains *are* compiled: tile loop pairs collapse back
   into whole-extent dimensions, reductions replay the tree walker's
   deterministic left-fold with ``ufunc.accumulate``, and select chains
   become ``np.where`` trees.
3. A program the tracer cannot shape, or whose buffer layout the emitter
   cannot slice exactly (aliased in/out buffers with shifted offsets,
   indices that python would negatively wrap, non-positive steps), runs the
   tree walker, the reason on ``Plan.codegen_fallback``
   (:class:`~repro.interp.codegen.CodegenFallback`).  So does a run whose
   field arguments share memory: that run alone, nothing is cached.

Both engines produce bit-identical field contents (loads widen to float64
exactly like ``ndarray.item()``, expressions apply the same operation tree)
and identical ``cells_updated`` / ``halo_swaps`` statistics, so cost models
and tests are backend-agnostic; only ``ops_executed`` shrinks in the
megakernel because a fused nest is one op.

Distributed programs execute against one :class:`Communicator` per rank,
over one of two worlds' mailboxes (selected by
``ExecutionConfig(runtime=...)``): the :class:`SimulatedMPI` thread world
here — each rank runs its own megakernel (or tree walker) in its own
thread — or the OS-process world of :mod:`repro.runtime`, where
each rank is a pooled worker process computing on shared-memory field
buffers.  Both produce bit-identical fields and matching statistics.  This
package launches no ranks: every round of either world, a caller's SPMD
function included (``Session.run_spmd``), is launched by
:mod:`repro.core.session`.
"""

from .codegen import (
    CodegenError,
    CodegenFallback,
    CompiledMegakernel,
    MegakernelTrace,
    emit_megakernel,
    megakernel_signature,
    trace_program,
)
from .interpreter import (
    ExecStatistics,
    Interpreter,
    InterpreterError,
    RequestArray,
    RequestRef,
)
from .mpi_runtime import (
    CommStatistics,
    Communicator,
    MPIRuntimeError,
    Request,
    SimulatedMPI,
)
from .values import DataTypeValue, MemRefValue, PointerValue, RequestHandle, numpy_dtype_for
from .vectorize import (
    CompiledKernel,
    CompiledNest,
    VectorizationError,
    VectorizeFallback,
    compile_kernel,
    compile_loop_nest_or_fallback,
)

__all__ = [
    "Interpreter", "InterpreterError", "ExecStatistics",
    "RequestArray", "RequestRef",
    "CompiledKernel", "CompiledNest", "VectorizationError", "VectorizeFallback",
    "compile_kernel", "compile_loop_nest_or_fallback",
    "CodegenError", "CodegenFallback", "CompiledMegakernel", "MegakernelTrace",
    "trace_program", "emit_megakernel", "megakernel_signature",
    "SimulatedMPI", "Communicator", "Request",
    "MPIRuntimeError", "CommStatistics",
    "MemRefValue", "PointerValue", "RequestHandle", "DataTypeValue",
    "numpy_dtype_for",
]
