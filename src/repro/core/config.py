"""The one execution-configuration object shared by every frontend.

:class:`ExecutionConfig` holds only what a caller decides: which tier runs
(``backend``, ``codegen``), which world hosts the ranks (``runtime``), the
intra-rank team size, the communication deadline and the trace mode.  It is
one frozen dataclass, fully validated at construction, accepted by
:class:`~repro.core.session.Session`, :class:`~repro.core.session.Plan`, and
every frontend (the Devito ``Operator``, the PsyClone backend, the OEC
builder).  Because validation happens exactly once, the per-run hot path
never re-checks anything.

Everything the program itself decides stays out of it: the rank count comes
from the target's rank grid, the layout of a global array from its field's
bounds (recorded by ``distribute-stencil`` on
:class:`~repro.transforms.distribute.DistributionSummary`), and halo/compute
overlap is on wherever the megakernel proves it safe.

This module sits at the bottom of the ``repro.core`` layering and imports
nothing from the rest of the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Optional


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
#: * ``"threads"`` (default) — the ranks run in this process against one
#:   private :class:`~repro.interp.SimulatedMPI` world per job (cheap,
#:   always available, serialized by the GIL outside NumPy).  A one-rank
#:   job, and a job whose ranks communicate only through their megakernels'
#:   halos, runs every rank as a coroutine on the calling thread under one
#:   deterministic scheduler; every other job (the tree walker, islands
#:   that pass messages, ``Session.run_spmd`` bodies, warm-ups) gives each
#:   rank a Python thread of its own;
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
#: * ``"planned"`` — no compiled tier: always run the tree walker, like
#:   ``backend="interpreter"``.  Both fields are kept as given, so a later
#:   ``replace(codegen="auto")`` asks for the megakernel again;
#:   :func:`repro.core.rank.codegen_wanted` reads the two.
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
    """What a caller decides about one execution, validated once at construction.

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
    #: Intra-rank thread-team size (the OpenMP level of the paper's hybrid
    #: MPI+OpenMP configurations; 1 = flat runs).
    threads_per_rank: int = 1
    #: Per-run communication deadline in seconds.
    timeout: float = 60.0
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
        if not isinstance(self.timeout, (int, float)) or self.timeout <= 0:
            raise ExecutionError("timeout must be a positive number of seconds")

    def replace(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied (re-validated, unknown keys rejected)."""
        known = {f.name for f in fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise ExecutionError(
                f"unknown ExecutionConfig field(s): {', '.join(sorted(unknown))}"
            )
        return replace(self, **changes)

    @staticmethod
    def coerce(
        config: Optional["ExecutionConfig"] = None, **overrides
    ) -> "ExecutionConfig":
        """``config`` (or the defaults) with non-None ``overrides`` applied."""
        base = config if config is not None else ExecutionConfig()
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return base.replace(**overrides) if overrides else base

