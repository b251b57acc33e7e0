"""The one way to run a rank: the megakernel, else the interpreter.

:func:`run_rank` is the single place a rank of a compiled program is
executed and the single place the execution tier is chosen.  There are two
tiers: the generated megakernel (:mod:`repro.interp.codegen`) when the
configuration asks for it and it can be built, and the reference interpreter
(tree walker plus its per-nest vectorized kernels) otherwise.  The local
and thread-world ranks of a :mod:`repro.core.session` round and the process
workers of :mod:`repro.runtime.worker_pool` all call it with the same frozen
:class:`~repro.core.config.ExecutionConfig`, so a configuration means the
same thing in every world.

Traces and emitted megakernels — and the reasons they could not be built —
are cached on the :class:`~repro.core.pipeline.CompiledProgram` itself, so
every plan, session and worker holding the program shares them.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence, Union

from ..interp import ExecStatistics, Interpreter
from ..interp.codegen import (
    CodegenError,
    CodegenFallback,
    CompiledMegakernel,
    MegakernelTrace,
    emit_megakernel,
    megakernel_signature,
    trace_program,
)
from ..interp.vectorize import CompiledKernel
from .config import ExecutionConfig, ExecutionError
from .pipeline import CompiledProgram


#: Serializes megakernel emission across the rank threads of every session.
_EMIT_LOCK = threading.Lock()


def kernel_for_backend(
    program: CompiledProgram, function: str, backend: str
) -> Optional[CompiledKernel]:
    """The vectorized kernel ``backend`` runs ``function`` with, if any."""
    if backend == "interpreter":
        return None
    kernel = program.compiled_kernel(function)
    if backend == "vectorized" and kernel.nest_count == 0:
        reasons = kernel.fallback_reasons
        detail = "; ".join(reasons) if reasons else "the function has no loop nests"
        raise ExecutionError(
            f"backend='vectorized' requested but no loop nest of "
            f"{function!r} could be vectorized ({detail})"
        )
    return kernel


def codegen_wanted(config: ExecutionConfig) -> bool:
    """Whether ``config`` asks for the megakernel tier at all.

    ``codegen="megakernel"`` always does; ``"auto"`` only for flat
    (``threads_per_rank == 1``) runs, because the emitter has no thread-team
    support; ``"planned"`` and the tree-walker backend never do.
    """
    if config.backend == "interpreter":
        return False
    return config.codegen == "megakernel" or (
        config.codegen == "auto" and config.threads_per_rank == 1
    )


def _rejected(
    config: ExecutionConfig, fallback: CodegenFallback, stage: str
) -> CodegenFallback:
    """Hand a rejection back — unless codegen is forced, which raises."""
    if config.codegen == "megakernel":
        raise ExecutionError(
            f"codegen='megakernel' was forced but {fallback.function_name!r} "
            f"cannot be {stage}: {fallback.reason}"
        )
    return fallback


def megakernel_trace(
    program: CompiledProgram, function: str, config: ExecutionConfig
) -> Union[MegakernelTrace, CodegenFallback]:
    """The traced time loop of ``function``, or why it cannot be traced.

    Traced once per ``(function, overlap)`` and kept, rejections included,
    in the program's megakernel cache.  ``codegen="megakernel"`` turns a
    rejection into an :class:`ExecutionError`.
    """
    if config.backend == "interpreter":
        return CodegenFallback(
            function, "no compiled vectorized kernel to trace against"
        )
    key = (function, config.resolved_overlap())
    cache = program._megakernel_cache
    found = cache.get(key)
    if found is None:
        try:
            found = trace_program(
                program.functions[function], program.compiled_kernel(function),
                overlap=key[1],
            )
        except CodegenError as err:
            found = CodegenFallback(function, str(err))
        cache[key] = found
    if isinstance(found, CodegenFallback):
        return _rejected(config, found, "megakernel-compiled")
    return found


def megakernel_for(
    program: CompiledProgram,
    trace: MegakernelTrace,
    config: ExecutionConfig,
    args: Sequence[Any],
    rank: int = 0,
    size: int = 1,
    metrics: Optional[Any] = None,
) -> Union[CompiledMegakernel, CodegenFallback]:
    """The megakernel of ``trace`` for one rank's argument layout, or why not.

    Emitted on first use — inside the rank body, so a cold first run spends
    its emission time under the world's timeout — and kept in the program's
    megakernel cache; emission failures too, so a layout that cannot be
    emitted is not re-attempted every run.  ``megakernel.cache_miss`` on
    ``metrics`` counts the kernels this call emitted, ``cache_hit`` every
    other lookup.  ``codegen="megakernel"`` turns a rejection into an
    :class:`ExecutionError`.
    """
    traced = config.trace != "off"
    key = (trace.function_name, rank, size, megakernel_signature(args),
           trace.overlap, traced)
    cache = program._megakernel_cache
    found = cache.get(key)
    emitted = False
    if found is None:
        # Rank and batch threads race here on a cold cache: emit each key
        # once, so the miss count is the number of kernels emitted.
        with _EMIT_LOCK:
            found = cache.get(key)
            if found is None:
                emitted = True
                try:
                    found = emit_megakernel(
                        trace, args, rank=rank, size=size, traced=traced
                    )
                except CodegenError as err:
                    found = CodegenFallback(trace.function_name, str(err))
                cache[key] = found
    if metrics is not None:
        metrics.inc("megakernel.cache_miss" if emitted else "megakernel.cache_hit")
    if isinstance(found, CodegenFallback):
        return _rejected(config, found, f"emitted for rank {rank}/{size}")
    return found


def run_rank(
    program: CompiledProgram,
    function: str,
    config: ExecutionConfig,
    args: Sequence[Any],
    *,
    comm: Optional[Any] = None,
    team: Optional[Any] = None,
    tracer: Optional[Any] = None,
    metrics: Optional[Any] = None,
    on_fallback: Optional[Callable[[CodegenFallback], None]] = None,
) -> ExecStatistics:
    """Execute ``function`` on one rank: the megakernel, else the interpreter.

    ``args`` are the rank's concrete arguments (local buffers, then scalars)
    and ``comm`` its communicator (None for non-distributed programs).  When
    :func:`codegen_wanted`, the rank's cached megakernel runs if its layout
    matches and its buffers do not alias.  Everything else — no megakernel
    wanted, none buildable (the reason goes to ``on_fallback``), a run-time
    bounce — runs the interpreter loop, which produces bit-identical fields
    and statistics.  ``megakernel.engaged`` / ``megakernel.fallback`` on
    ``metrics`` count which tier ran wherever a trace exists.
    """
    kernel = kernel_for_backend(program, function, config.backend)
    if codegen_wanted(config):
        # Trace, then megakernel, or the CodegenFallback of whichever failed.
        built = megakernel_trace(program, function, config)
        if isinstance(built, MegakernelTrace):
            rank, size = (comm.rank, comm.size) if comm is not None else (0, 1)
            built = megakernel_for(
                program, built, config, args, rank, size, metrics
            )
            if isinstance(built, CompiledMegakernel) and built.matches(args):
                stats = ExecStatistics()
                # False: aliased buffers this run, bounce to the interpreter.
                if built.run(args, stats, comm, tracer):
                    if metrics is not None:
                        metrics.inc("megakernel.engaged")
                    return stats
            if metrics is not None:
                metrics.inc("megakernel.fallback")
        if on_fallback is not None and isinstance(built, CodegenFallback):
            on_fallback(built)
    interpreter = Interpreter(
        program.module,
        comm=comm,
        kernel=kernel,
        threads=config.threads_per_rank,
        overlap_halos=config.resolved_overlap(),
        functions=program.functions,
        team=team,
        tracer=tracer,
    )
    interpreter.call(function, *args)
    return interpreter.stats
