"""The one way to run a rank: the megakernel, else the tree walker.

:func:`run_rank` is the single place a rank of a compiled program is
executed and the single place the execution tier is chosen.  There is one
compiled tier, the generated megakernel (:mod:`repro.interp.codegen`), which
fuses every nest it can and walks the ops it cannot in place; and there is
the reference, the tree walker, which runs when the configuration asks for
no compiled tier or the megakernel cannot be built.  The local
and thread-world ranks of a :mod:`repro.core.session` round and the process
workers of :mod:`repro.runtime.worker_pool` all reach it through
:func:`rank_report`, with the same frozen
:class:`~repro.core.config.ExecutionConfig`, so a configuration means the
same thing in every world and every rank reports the same
:class:`~repro.runtime.stats.RankStats`.

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
from ..interp.thread_team import get_thread_team
from ..obs import MetricsRegistry, Tracer
from ..runtime.stats import RankStats
from .config import ExecutionConfig
from .pipeline import CompiledProgram


#: Serializes megakernel emission across the rank threads of every session.
_EMIT_LOCK = threading.Lock()


def codegen_wanted(config: ExecutionConfig) -> bool:
    """Whether ``config`` asks for the megakernel at all.

    Neither the tree-walker backend nor ``codegen="planned"`` does.
    """
    return config.backend != "interpreter" and config.codegen != "planned"


def megakernel_trace(
    program: CompiledProgram, function: str
) -> Union[MegakernelTrace, CodegenFallback]:
    """The trace of ``function``, or why it cannot be traced.

    Traced once per function and kept, rejections included, in the
    program's megakernel cache.
    """
    cache = program._megakernel_cache
    found = cache.get(function)
    if found is None:
        try:
            found = trace_program(
                program.functions[function], program.compiled_kernel(function)
            )
        except CodegenError as err:
            found = CodegenFallback(function, str(err))
        cache[function] = found
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
    its emission time under the world's timeout — from the layout alone
    (:func:`megakernel_signature`), and kept in the program's megakernel
    cache under that layout; emission failures too, so a layout that cannot
    be emitted is not re-attempted every run.  Nothing about one run's
    arrays beyond their layout reaches the cache: whether they alias is
    checked by the kernel at each run.  ``megakernel.cache_miss`` on
    ``metrics`` counts the kernels this call emitted, ``cache_hit`` every
    other lookup.
    """
    traced = config.trace != "off"
    threads = config.threads_per_rank
    layout = megakernel_signature(args)
    key = (trace.function_name, rank, size, layout, traced, threads)
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
                        trace, layout, rank=rank, size=size, traced=traced,
                        threads=threads,
                    )
                except CodegenError as err:
                    found = CodegenFallback(trace.function_name, str(err))
                cache[key] = found
    if metrics is not None:
        metrics.inc("megakernel.cache_miss" if emitted else "megakernel.cache_hit")
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
    """Execute ``function`` on one rank: the megakernel, else the tree walker.

    ``args`` are the rank's concrete arguments (local buffers, then scalars)
    and ``comm`` its communicator (None for non-distributed programs);
    ``team`` the rank's thread team when ``threads_per_rank > 1`` (None takes
    the process-wide one).  When :func:`codegen_wanted`, the rank's cached
    megakernel runs unless its buffers alias.  Everything else — no
    megakernel wanted, none buildable, a run-time bounce (the reason goes to
    ``on_fallback``) — runs the tree walker, which produces bit-identical
    fields and statistics.  ``megakernel.engaged`` / ``megakernel.fallback``
    on ``metrics`` count which tier ran wherever codegen was wanted.
    """
    if codegen_wanted(config):
        # Trace, then megakernel, or the CodegenFallback of whichever failed.
        built = megakernel_trace(program, function)
        if isinstance(built, MegakernelTrace):
            rank, size = (comm.rank, comm.size) if comm is not None else (0, 1)
            built = megakernel_for(
                program, built, config, args, rank, size, metrics
            )
        if isinstance(built, CompiledMegakernel):
            stats = ExecStatistics()
            team = team or get_thread_team(config.threads_per_rank)
            if built.run(args, stats, comm, tracer, team):
                if metrics is not None:
                    metrics.inc("megakernel.engaged")
                return stats
            built = CodegenFallback(function, "field arguments alias each other")
        if metrics is not None:
            metrics.inc("megakernel.fallback")
        if on_fallback is not None:
            on_fallback(built)
    interpreter = Interpreter(
        program.module, comm=comm, functions=program.functions, tracer=tracer
    )
    interpreter.call(function, *args)
    return interpreter.stats


def rank_report(
    comm: Optional[Any],
    program: CompiledProgram,
    function: str,
    config: ExecutionConfig,
    args: Sequence[Any],
    team: Optional[Any],
) -> RankStats:
    """Run one rank through :func:`run_rank` and report it, in any world.

    A round's rank body (``body(comm, *args)``, see
    :class:`~repro.runtime.worker_pool.RoundJob`); ``comm`` is None for a
    local job.  The rank records its spans on its own tracer (its monotonic
    clock; the timeline merge re-aligns it), counts which tier ran on a
    fresh registry and captures why the megakernel did not, so the report
    is a plain picklable value: a process worker ships it home, a
    thread-world rank puts it on its round's queue, and the parent merges
    both alike.
    """
    rank = comm.rank if comm is not None else 0
    tracer = (
        Tracer(config.trace, track=f"rank {rank}")
        if config.trace != "off" else None
    )
    metrics = MetricsRegistry()
    fallbacks: list = []
    stats = run_rank(
        program, function, config, args, comm=comm, team=team,
        tracer=tracer, metrics=metrics, on_fallback=fallbacks.append,
    )
    return RankStats(
        rank, stats, comm.statistics if comm is not None else None,
        tracer.record() if tracer is not None else None,
        metrics.snapshot(), fallbacks[-1] if fallbacks else None,
    )
