"""The one way to run a rank: the megakernel, else the tree walker.

:func:`resolve_megakernel` is the single place the execution tier of a rank
is chosen and :func:`run_rank` the single place it is executed.  There is one
compiled tier, the generated megakernel (:mod:`repro.interp.codegen`), which
fuses every nest it can and walks the ops it cannot in place; and there is
the reference, the tree walker, which runs when the configuration asks for
no compiled tier or the megakernel cannot be built.  The local
and thread-world ranks of a :mod:`repro.core.session` round and the process
workers of :mod:`repro.runtime.worker_pool` all reach it through
:func:`rank_coroutine`, with the same frozen
:class:`~repro.core.config.ExecutionConfig`, so a configuration means the
same thing in every world and every rank reports the same
:class:`~repro.runtime.stats.RankStats`.

A rank's run is a coroutine: it yields each halo its megakernel posts at the
point the halo must have landed.  Two drivers run it.  :func:`run_blocking`
lands each halo as it is yielded: in the process world (whose rank body is
:func:`rank_report`) and on the thread world's rank threads.  :func:`run_scheduled`
runs every rank of a thread-world job on the calling thread and resumes a
rank once its receives have arrived, so a job whose only communication is
its megakernels' halos needs no rank threads and reports a deadlock at once.

Traces and emitted megakernels — and the reasons they could not be built —
are cached on the :class:`~repro.core.pipeline.CompiledProgram` itself, so
every plan, session and worker holding the program shares them.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generator, Optional, Sequence, Union

from ..interp import ExecStatistics, Interpreter, MPIRuntimeError
from ..interp.codegen import (
    CodegenError,
    CodegenFallback,
    CompiledMegakernel,
    MegakernelTrace,
    emit_megakernel,
    megakernel_signature,
    trace_program,
)
from ..interp.interpreter import PendingHalo, complete_swap
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

    Emitted on first use — when the round launches the rank (a process
    worker's rank body, the thread world's launch) — from the layout alone
    (:func:`megakernel_signature`), and kept in the program's megakernel
    cache under that layout; emission failures too, so a layout that cannot
    be emitted is not re-attempted every run.  Nothing about one run's
    arrays beyond their layout reaches the cache: whether they alias is
    checked by the kernel at each run.  ``megakernel.cache_miss`` on
    ``metrics`` counts the kernels this call emitted, ``cache_hit`` every
    other lookup.
    """
    traced = config.trace != "off"
    threads = config.team_size(size)
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


def resolve_megakernel(
    program: CompiledProgram,
    function: str,
    config: ExecutionConfig,
    args: Sequence[Any],
    rank: int = 0,
    size: int = 1,
    metrics: Optional[Any] = None,
) -> Union[CompiledMegakernel, CodegenFallback, None]:
    """Choose one rank's tier: its megakernel, why it has none, or None
    when the configuration asks for the tree walker (:func:`codegen_wanted`).

    Traces and emits through the program's cache (:func:`megakernel_trace`,
    :func:`megakernel_for`), counting the lookup on ``metrics``.
    """
    if not codegen_wanted(config):
        return None
    built = megakernel_trace(program, function)
    if isinstance(built, MegakernelTrace):
        built = megakernel_for(program, built, config, args, rank, size, metrics)
    return built


def run_rank(
    program: CompiledProgram,
    function: str,
    config: ExecutionConfig,
    args: Sequence[Any],
    *,
    kernel: Union[CompiledMegakernel, CodegenFallback, None],
    comm: Optional[Any] = None,
    teams: Optional[Callable[[int], Any]] = None,
    tracer: Optional[Any] = None,
    metrics: Optional[Any] = None,
    on_fallback: Optional[Callable[[CodegenFallback], None]] = None,
) -> Generator[PendingHalo, None, ExecStatistics]:
    """Execute ``function`` on one rank: ``kernel``, else the tree walker.

    A generator: it yields each halo the megakernel posts at the point the
    halo must have landed, and returns the rank's statistics; its driver
    lands what it yields (:func:`run_blocking`, :func:`run_scheduled`).
    ``kernel`` is :func:`resolve_megakernel`'s choice, ``args`` the rank's
    concrete arguments (local buffers, then scalars) and ``comm`` its
    communicator (None for non-distributed programs); ``teams(size)`` gives
    the thread team of a kernel that deals blocks to a team (None: the
    kernel takes the process-wide one).  The megakernel runs unless its
    buffers alias.  Everything else —
    no megakernel wanted, none buildable, a run-time bounce (the reason goes
    to ``on_fallback``) — runs the tree walker, which produces bit-identical
    fields and statistics and completes its own halos.
    ``megakernel.engaged`` / ``megakernel.fallback`` on ``metrics`` count
    which tier ran wherever codegen was wanted.
    """
    if isinstance(kernel, CompiledMegakernel):
        stats = ExecStatistics()
        team = teams(kernel.team_size) if teams is not None and kernel.uses_team \
            else None
        halos = kernel.start(args, stats, comm, tracer, team)
        if halos is not None:
            yield from halos
            if metrics is not None:
                metrics.inc("megakernel.engaged")
            return stats
        kernel = CodegenFallback(function, "field arguments alias each other")
    if kernel is not None:
        if metrics is not None:
            metrics.inc("megakernel.fallback")
        if on_fallback is not None:
            on_fallback(kernel)
    interpreter = Interpreter(
        program.module, comm=comm, functions=program.functions, tracer=tracer
    )
    interpreter.call(function, *args)
    return interpreter.stats


def rank_coroutine(
    comm: Optional[Any],
    program: CompiledProgram,
    function: str,
    config: ExecutionConfig,
    args: Sequence[Any],
    teams: Optional[Callable[[int], Any]],
) -> tuple[Generator[PendingHalo, None, RankStats], Optional[str]]:
    """One rank's run as a coroutine, its tier chosen now.

    Returns the run — a generator of the halos it completes, returning the
    rank's :class:`RankStats` — and why the thread world's scheduler may not
    run it (None: it may).  A rank may be scheduled when its only
    communication is its megakernel's posts and completions; the reasons
    are ``"walker"`` (the configuration asks for the tree walker),
    ``"fallback"`` (no megakernel can be built) and ``"island_messages"``
    (an island of it passes messages).  Nothing of the run starts before
    its first resumption.  A megakernel bounces to the walker only when its
    buffers alias, which the thread world's per-rank buffers never do, so a
    scheduled rank of a multi-rank job never blocks in a wait of its own.
    """
    rank, size = (comm.rank, comm.size) if comm is not None else (0, 1)
    metrics = MetricsRegistry()
    kernel = resolve_megakernel(program, function, config, args, rank, size,
                                metrics)
    if kernel is None:
        reason: Optional[str] = "walker"
    elif isinstance(kernel, CodegenFallback):
        reason = "fallback"
    else:
        reason = "island_messages" if kernel.island_messages else None
    steps = _rank_steps(comm, program, function, config, args, teams, kernel,
                        metrics)
    return steps, reason


def _rank_steps(comm, program, function, config, args, teams, kernel, metrics):
    """The generator :func:`rank_coroutine` returns: :func:`run_rank`,
    reported.

    The rank records its spans on its own tracer (its monotonic clock; the
    timeline merge re-aligns it), counts which tier ran on ``metrics`` and
    captures why the megakernel did not, so the report is a plain picklable
    value: a process worker ships it home, a thread-world rank hands it to
    its round, and the parent merges both alike.
    """
    rank = comm.rank if comm is not None else 0
    tracer = (
        Tracer(config.trace, track=f"rank {rank}")
        if config.trace != "off" else None
    )
    fallbacks: list = []
    stats = yield from run_rank(
        program, function, config, args, kernel=kernel, comm=comm, teams=teams,
        tracer=tracer, metrics=metrics, on_fallback=fallbacks.append,
    )
    return RankStats(
        rank, stats, comm.statistics if comm is not None else None,
        tracer.record() if tracer is not None else None,
        metrics.snapshot(), fallbacks[-1] if fallbacks else None,
    )


def rank_report(
    comm: Optional[Any],
    program: CompiledProgram,
    function: str,
    config: ExecutionConfig,
    args: Sequence[Any],
    teams: Optional[Callable[[int], Any]],
) -> RankStats:
    """Run one rank and report it, blocking at each halo completion.

    The process world's rank body (``body(comm, *args)``, see
    :class:`~repro.runtime.worker_pool.RoundJob`): :func:`rank_coroutine`
    under :func:`run_blocking`, as the thread world's rank threads run it;
    ``comm`` is None for a local job.
    """
    steps, _ = rank_coroutine(comm, program, function, config, args, teams)
    return run_blocking(comm, steps)


def run_blocking(comm: Optional[Any], steps: Generator) -> Any:
    """The blocking driver: land each halo ``steps`` yields as it yields it
    (``complete_swap`` waits for its receives), then return its value."""
    while True:
        try:
            halo = next(steps)
        except StopIteration as done:
            return done.value
        complete_swap(comm, halo)


def run_scheduled(jobs: Sequence[Sequence[Generator]]) -> list:
    """Run every rank of ``jobs`` to completion on the calling thread.

    ``jobs[i][rank]`` is one rank's coroutine (see :func:`rank_coroutine`),
    each job in a private world of its own.  The scheduler visits the jobs
    in turn, and in a visit each live rank in rank order: it resumes a rank
    once the halo the rank yielded has landed — what has arrived of its
    receives lands in posting order, as ``complete_swap`` lands them, and
    the rank resumes only when all have — and keeps resuming it while its
    next halo has landed too.  A job fails at its first rank error, and its
    other ranks are closed.  A job none of whose ranks progresses in a visit
    is deadlocked — its ranks all run here, so no message can still arrive —
    and fails at once with an :class:`~repro.interp.MPIRuntimeError` naming
    each waiting rank's unlanded receives as (source, tag).

    Returns one outcome per job, in order: its ranks' values in rank order,
    or the exception that failed it.
    """
    outcomes: list[Any] = [None] * len(jobs)
    values = [[None] * len(ranks) for ranks in jobs]
    # Per job: rank -> [coroutine, the halo it waits on (None: not started)].
    live = [{rank: [steps, None] for rank, steps in enumerate(ranks)}
            for ranks in jobs]
    try:
        while any(live):
            for index, ranks in enumerate(live):
                if not ranks:
                    continue
                try:
                    progressed = _advance(ranks, values[index])
                except Exception as error:  # noqa: BLE001 - the job's outcome
                    outcomes[index] = error
                    _close(ranks)
                    continue
                if not progressed:
                    outcomes[index] = MPIRuntimeError(_deadlock(ranks))
                    _close(ranks)
    except BaseException:
        for ranks in live:
            _close(ranks)
        raise
    return [values[index] if outcome is None else outcome
            for index, outcome in enumerate(outcomes)]


def _advance(ranks: dict, values: list) -> bool:
    """One visit of a job: resume each rank whose halo has landed, for as
    long as it has; whether any rank resumed."""
    progressed = False
    for rank, entry in list(ranks.items()):
        steps, halo = entry
        while halo is None or all(request.test() for request in halo.staged):
            progressed = True
            try:
                halo = next(steps)
            except StopIteration as done:
                values[rank] = done.value
                del ranks[rank]
                break
        else:
            entry[1] = halo
    return progressed


def _deadlock(ranks: dict) -> str:
    """What each rank of a deadlocked job waits for."""
    waits = "; ".join(
        f"rank {rank} waits for " + ", ".join(
            f"(source {request.source}, tag {request.tag})"
            for request in halo.staged if not request.completed
        )
        for rank, (_, halo) in sorted(ranks.items())
    )
    return f"deadlock: no rank of the job can progress: {waits}"


def _close(ranks: dict) -> None:
    """Close a failed job's coroutines: none is left suspended."""
    for steps, _ in ranks.values():
        steps.close()
    ranks.clear()
