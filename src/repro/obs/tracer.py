"""Span tracer: monotonic-clock spans into a bounded, picklable ring buffer.

A :class:`Tracer` records *spans* (named intervals measured with
``time.perf_counter``) and *counters* for one track — one rank, one thread
team, the session lifecycle, or the compile phase.  Overhead discipline:

* Trace *off* costs one attribute read per hook site (``tracer is None``);
  the megakernel emitter goes further and emits no bookkeeping at all.
* Trace *summary* keeps only per-name totals — O(distinct names) memory.
* Trace *timeline* additionally appends one tuple per span into a
  ``collections.deque`` ring buffer, so memory stays bounded even for
  million-step runs; the oldest events fall out of a full ring, and how
  many did is counted (``TraceRecord.events_dropped``, surfaced as
  ``obs.events_dropped``) so the loss is never silent.

Worker processes cannot share a clock with the parent, so every tracer
captures a paired ``(time.time(), time.perf_counter())`` reference at
construction.  :class:`TraceRecord` ships both across the pickle boundary
and :class:`repro.obs.export.TraceTimeline` aligns all tracks onto one
wall-clock axis.

The compile phase has no session to hang a tracer on, so this module also
provides a small thread-local scope — :func:`compile_tracing` — that the
stencil pipeline, the frontends, and the pass manager all share: whoever
enters first owns the tracer, nested entries reuse it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: Recording modes accepted by :class:`Tracer`.  ``ExecutionConfig.trace``
#: adds ``"off"`` on top, which simply means "no tracer is constructed".
TRACE_MODES: Tuple[str, ...] = ("summary", "timeline")

#: Default ring-buffer capacity (spans) for timeline mode.
DEFAULT_RING = 65536


@dataclass
class TraceRecord:
    """Picklable export of one tracer: everything a merge needs.

    ``events`` holds ``(name, start_perf, duration_s, depth)`` tuples in
    span-*end* order; ``depth`` is the nesting depth at which the span ran
    (0 = top level).  ``totals`` maps span name to ``[count, seconds]`` and
    is populated in both recording modes; ``counts`` holds plain counters.
    ``events_dropped`` is how many of the oldest events the bounded ring
    pushed out (``totals`` still saw them).
    """

    track: str
    wall_ref: float
    perf_ref: float
    events: List[Tuple[str, float, float, int]]
    totals: dict
    counts: dict
    events_dropped: int = 0


class Tracer:
    """Record spans and counters for one track."""

    __slots__ = ("mode", "track", "events", "totals", "counts", "_depth",
                 "_appended", "wall_ref", "perf_ref")

    def __init__(self, mode: str = "timeline", *, track: str = "main",
                 maxlen: int = DEFAULT_RING) -> None:
        if mode not in TRACE_MODES:
            raise ValueError(
                f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}")
        self.mode = mode
        self.track = track
        self.events = deque(maxlen=maxlen) if mode == "timeline" else None
        self.totals: dict = {}
        self.counts: dict = {}
        self._depth = 0
        #: Events ever appended; whatever the ring no longer holds was dropped.
        self._appended = 0
        # Paired clock reference for cross-process alignment.
        self.wall_ref = time.time()
        self.perf_ref = time.perf_counter()

    # ------------------------------------------------------------------
    # Spans.  begin/end is the flat API used from generated megakernel
    # code and from hot paths where a context manager would cost a frame.
    # ------------------------------------------------------------------

    def begin(self, name: str) -> float:
        self._depth += 1
        return time.perf_counter()

    def end(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        self._depth -= 1
        total = self.totals.get(name)
        if total is None:
            self.totals[name] = [1, duration]
        else:
            total[0] += 1
            total[1] += duration
        if self.events is not None:
            self._appended += 1
            self.events.append((name, start, duration, self._depth))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self.begin(name)
        try:
            yield
        finally:
            self.end(name, start)

    def instant(self, name: str) -> None:
        """Record a zero-duration marker (e.g. ``worker.error``)."""
        now = time.perf_counter()
        total = self.totals.get(name)
        if total is None:
            self.totals[name] = [1, 0.0]
        else:
            total[0] += 1
        if self.events is not None:
            self._appended += 1
            self.events.append((name, now, 0.0, self._depth))

    # ------------------------------------------------------------------
    # Counters.
    # ------------------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def record(self, track: Optional[str] = None) -> TraceRecord:
        """Snapshot this tracer as a picklable :class:`TraceRecord`."""
        return TraceRecord(
            track=track if track is not None else self.track,
            wall_ref=self.wall_ref,
            perf_ref=self.perf_ref,
            events=list(self.events) if self.events is not None else [],
            totals={name: list(pair) for name, pair in self.totals.items()},
            counts=dict(self.counts),
            events_dropped=(
                self._appended - len(self.events)
                if self.events is not None else 0
            ),
        )


# ----------------------------------------------------------------------
# Compile-phase tracing scope.
# ----------------------------------------------------------------------

_COMPILE_TLS = threading.local()


def current_compile_tracer() -> Optional[Tracer]:
    """The tracer of the innermost active :func:`compile_tracing` scope."""
    return getattr(_COMPILE_TLS, "tracer", None)


@contextmanager
def compile_tracing(maxlen: int = 8192) -> Iterator[Tracer]:
    """Enter (or join) the thread-local compile-tracing scope.

    The outermost caller — a frontend ``compile()`` or
    ``compile_stencil_program`` itself — creates the tracer and owns its
    lifetime; nested scopes yield the same tracer so frontend lowering and
    pipeline stages land on one track.  Compile tracing is always on: it
    runs once per program, costs microseconds, and the record travels on
    ``CompiledProgram.compile_record`` until a traced run surfaces it.
    """
    tracer = current_compile_tracer()
    if tracer is not None:
        yield tracer
        return
    tracer = Tracer("timeline", track="compile", maxlen=maxlen)
    _COMPILE_TLS.tracer = tracer
    try:
        yield tracer
    finally:
        _COMPILE_TLS.tracer = None
