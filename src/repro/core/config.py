"""The one execution-configuration object shared by every frontend.

Execution used to be configured through kwarg soup repeated on every call
(``backend=..., runtime=..., threads_per_rank=..., margin=..., timeout=...``),
validated — or silently not — at different depths of the stack.
:class:`ExecutionConfig` replaces that: one frozen dataclass, fully
validated at construction, accepted by :class:`~repro.core.session.Session`,
:class:`~repro.core.session.Plan`, and every frontend (the Devito
``Operator``, the PsyClone backend, the OEC builder).  Because validation
happens exactly once, the per-run hot path never re-checks anything.

This module sits at the bottom of the ``repro.core`` layering and imports
nothing from the rest of the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence


class ExecutionError(Exception):
    """Raised when a compiled program cannot be executed."""


class RuntimeFallbackWarning(RuntimeWarning):
    """A requested execution runtime was unavailable and a fallback ran.

    Emitted when ``runtime="processes"`` degrades to ``"threads"`` (shared
    memory unavailable on the platform).  The run still produces bit-identical
    results, but without multi-core scaling — callers that care can compare
    ``ExecutionResult.runtime_requested`` against ``.runtime``.
    """


#: Valid values of :attr:`ExecutionConfig.backend`:
#:
#: * ``"auto"`` (default) — vectorize every loop nest that can be proven
#:   vectorizable (including the min-clamped *tiled* stencil_to_scf output,
#:   ``scf.reduce`` reductions and ``arith.select`` mask chains), tree-walk
#:   the rest (always safe, usually fastest).  Whether a run fused every
#:   nest is counted, not asserted here: ``megakernel.engaged`` /
#:   ``megakernel.fallback`` on ``Session.metrics`` and
#:   ``MegakernelTrace.walked_nests``;
#: * ``"interpreter"`` — force the per-cell tree walker everywhere (the
#:   reference semantics).
EXECUTION_BACKENDS = ("auto", "interpreter")

#: Valid values of :attr:`ExecutionConfig.runtime`:
#:
#: * ``"threads"`` (default) — every rank runs in a Python thread of this
#:   process against one shared :class:`~repro.interp.SimulatedMPI` world
#:   (cheap, always available, serialized by the GIL outside NumPy);
#: * ``"processes"`` — every rank runs in its own OS process from the
#:   session's persistent worker pool, with shared-memory field buffers and
#:   queue-backed messaging (real multi-core scaling).  Falls back to
#:   ``"threads"`` — with a :class:`RuntimeFallbackWarning` — when shared
#:   memory is unavailable.
EXECUTION_RUNTIMES = ("threads", "processes")

#: Valid values of :attr:`ExecutionConfig.codegen`:
#:
#: * ``"auto"`` (default) — run the generated megakernel, which fuses every
#:   nest it can and walks the rest in place; a program it cannot trace or
#:   emit runs the tree walker, with the reason recorded on
#:   ``Plan.codegen_fallback``;
#: * ``"planned"`` — no compiled tier: always run the tree walker.  The
#:   config normalises it to ``backend="interpreter"``, the one field the
#:   stack reads to choose the walker.
EXECUTION_CODEGEN = ("auto", "planned")

#: Valid values of :attr:`ExecutionConfig.trace`:
#:
#: * ``"off"`` — no tracing; the hot paths stay statement-identical to the
#:   untraced build (megakernels are emitted without any span bookkeeping);
#: * ``"summary"`` — per-span-name totals only (counts + seconds), bounded
#:   memory regardless of run length;
#: * ``"timeline"`` — additionally record every span into a bounded ring
#:   buffer per track, exportable as Chrome trace-event JSON via
#:   ``Session.dump_trace(path)`` / ``ExecutionResult.trace``.
#:
#: The default (``None``) resolves from the ``REPRO_TRACE`` environment
#: variable, falling back to ``"off"``.
EXECUTION_TRACE = ("off", "summary", "timeline")


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything that shapes one execution, validated once at construction.

    The same object configures local and distributed runs; fields that do not
    apply (e.g. ``runtime`` for a non-distributed program) are simply ignored
    by the plan.
    """

    #: Execution engine for each rank's loop nests (:data:`EXECUTION_BACKENDS`).
    backend: str = "auto"
    #: Where distributed ranks run (:data:`EXECUTION_RUNTIMES`).
    runtime: str = "threads"
    #: Whether plans run the generated megakernel (:data:`EXECUTION_CODEGEN`).
    codegen: str = "auto"
    #: Expected number of distributed ranks; ``None`` derives it from the
    #: program's target.  Used by :meth:`Session.warmup` to pre-spawn workers
    #: and validated against the target's rank grid at plan time.
    ranks: Optional[int] = None
    #: Intra-rank thread-team size (the OpenMP level of the paper's hybrid
    #: MPI+OpenMP configurations; 1 = flat runs).
    threads_per_rank: int = 1
    #: Defer halo-receive completion past independent interior compute.
    #: ``None`` (default) resolves to True wherever the megakernel can prove
    #: it safe; an explicit ``True`` conflicts with
    #: ``backend="interpreter"`` or ``codegen="planned"`` (the tree walker reads cells one by one and
    #: can never overlap), which is rejected here rather than silently ignored.
    overlap_halos: Optional[bool] = None
    #: Ghost/boundary cells the *global* arrays carry in front of compute
    #: index 0 along each dimension; ``None`` uses the decomposition's halo.
    margin: Optional[tuple[int, ...]] = None
    #: Per-run communication deadline in seconds.
    timeout: float = 60.0
    #: Pre-spawn runtime resources (worker processes, thread teams) when the
    #: session is entered as a context manager, so the first ``plan.run()``
    #: pays no spawn latency.
    warm_start: bool = False
    #: Observability mode (:data:`EXECUTION_TRACE`); ``None`` resolves from
    #: the ``REPRO_TRACE`` environment variable (default ``"off"``).
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trace is None:
            resolved = os.environ.get("REPRO_TRACE", "").strip() or "off"
            object.__setattr__(self, "trace", resolved)
        if self.trace not in EXECUTION_TRACE:
            raise ExecutionError(
                f"unknown trace mode {self.trace!r}; expected one of "
                f"{', '.join(EXECUTION_TRACE)} (or unset REPRO_TRACE)"
            )
        if self.backend not in EXECUTION_BACKENDS:
            raise ExecutionError(
                f"unknown execution backend {self.backend!r}; expected one of "
                f"{', '.join(EXECUTION_BACKENDS)}"
            )
        if self.runtime not in EXECUTION_RUNTIMES:
            raise ExecutionError(
                f"unknown execution runtime {self.runtime!r}; expected one of "
                f"{', '.join(EXECUTION_RUNTIMES)}"
            )
        if self.codegen not in EXECUTION_CODEGEN:
            raise ExecutionError(
                f"unknown codegen mode {self.codegen!r}; expected one of "
                f"{', '.join(EXECUTION_CODEGEN)}"
            )
        if not isinstance(self.threads_per_rank, int) or self.threads_per_rank < 1:
            raise ExecutionError("threads_per_rank must be an integer >= 1")
        if self.ranks is not None and (
            not isinstance(self.ranks, int) or self.ranks < 1
        ):
            raise ExecutionError("ranks must be an integer >= 1 (or None)")
        if not isinstance(self.timeout, (int, float)) or self.timeout <= 0:
            raise ExecutionError("timeout must be a positive number of seconds")
        if self.overlap_halos not in (None, True, False):
            raise ExecutionError("overlap_halos must be True, False or None (auto)")
        if self.codegen == "planned":
            object.__setattr__(self, "backend", "interpreter")
        if self.overlap_halos is True and self.backend == "interpreter":
            raise ExecutionError(
                "overlap_halos=True conflicts with the tree walker "
                "(backend='interpreter' or codegen='planned'): the "
                "tree walker reads cells one by one and can never overlap "
                "halo exchanges with compute"
            )
        if self.margin is not None:
            margin = tuple(int(m) for m in self.margin)
            if any(m < 0 for m in margin):
                raise ExecutionError("margin entries must be non-negative")
            object.__setattr__(self, "margin", margin)

    def replace(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied (re-validated, unknown keys rejected)."""
        known = {f.name for f in fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise ExecutionError(
                f"unknown ExecutionConfig field(s): {', '.join(sorted(unknown))}"
            )
        return replace(self, **changes)

    def plan_key(self) -> tuple:
        """The hashable identity of this config *as seen by a Plan*.

        Two configs with the same plan key produce behaviourally identical
        plans for the same program, so cross-tenant plan caches (the
        :mod:`repro.serve` layer) may share one compiled plan between them.
        Session-level knobs that never reach the plan are excluded:
        ``warm_start`` only controls context-manager pre-spawning.
        """
        return tuple(
            getattr(self, f.name) for f in fields(self) if f.name != "warm_start"
        )

    def resolved_overlap(self) -> bool:
        """The effective overlap flag (auto = on unless the tree walker runs)."""
        if self.overlap_halos is None:
            return self.backend != "interpreter"
        return self.overlap_halos

    @staticmethod
    def coerce(
        config: Optional["ExecutionConfig"] = None, **overrides
    ) -> "ExecutionConfig":
        """``config`` (or the defaults) with non-None ``overrides`` applied."""
        base = config if config is not None else ExecutionConfig()
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return base.replace(**overrides) if overrides else base


def normalize_margin(
    margin: Optional[Sequence[int]], default: Sequence[int]
) -> tuple[int, ...]:
    """Resolve a config margin against the decomposition's halo default."""
    if margin is None:
        return tuple(int(m) for m in default)
    return tuple(int(m) for m in margin)
