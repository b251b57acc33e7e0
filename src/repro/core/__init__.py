"""The shared compilation stack: targets, pipeline, sessions and executors.

This is the paper's primary contribution packaged behind a small API::

    from repro.core import ExecutionConfig, Session, compile_stencil_program, dmp_target

    program = compile_stencil_program(stencil_module, dmp_target((2, 2)))
    with Session(ExecutionConfig(runtime="processes")) as session:
        plan = session.plan(program)
        plan.run([u0, u1], [timesteps])      # repeatable, amortized hot path

One-shot callers use ``session.run(program, fields, scalars)``: the same path,
re-planned per call.
"""

from .config import (
    EXECUTION_BACKENDS,
    EXECUTION_CODEGEN,
    EXECUTION_RUNTIMES,
    EXECUTION_TRACE,
    ExecutionConfig,
    ExecutionError,
    RuntimeFallbackWarning,
)
from .executor import ExecutionResult, local_field_slices
from .pipeline import (
    CompilationError,
    CompiledProgram,
    compile_from_frontend,
    compile_stencil_program,
    pipeline_for,
)
from .session import Plan, Session, SessionCounters, default_session
from .targets import (
    Target,
    TargetKind,
    cpu_target,
    dmp_target,
    fpga_target,
    gpu_target,
    smp_target,
)

__all__ = [
    "Target", "TargetKind",
    "cpu_target", "smp_target", "dmp_target", "gpu_target", "fpga_target",
    "CompiledProgram", "compile_stencil_program", "CompilationError",
    "pipeline_for", "compile_from_frontend",
    "ExecutionConfig", "Session", "Plan", "SessionCounters", "default_session",
    "local_field_slices",
    "ExecutionResult", "ExecutionError", "RuntimeFallbackWarning",
    "EXECUTION_BACKENDS", "EXECUTION_RUNTIMES", "EXECUTION_CODEGEN",
    "EXECUTION_TRACE",
]
