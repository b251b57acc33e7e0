"""Benchmark-side tracing for the ledger: spans, self time, in-run splits.

Two sources of timing meet here:

* :class:`Recorder` — the benchmark's *own* spans, recorded around every call
  into a public function of the program (``compile_stencil_program``,
  ``Session.plan``, ``Plan.run``, ``Server.submit`` ...).  Spans are kept in
  memory (name, start, end, parent, thread) and written out as Chrome
  trace-event JSON when the run ends.  Nothing inside ``src/`` is touched.
* :class:`InRunSplit` — what the program already reports about the inside of
  a run when asked to trace itself (``ExecutionConfig(trace="summary")``):
  per-rank span totals (``step``, ``nest``, ``halo.wait`` ...) read from the
  public ``ExecutionResult.trace.records``.

``summary`` totals carry no nesting, and the nesting differs between lowering
paths (``halo.wait`` sits inside ``nest`` on the overlapped ``dmp.swap`` path
but outside it on the library-call path), so :func:`nesting_fractions`
*derives* the parent of every span name from a short ``trace="timeline"`` run
of the same plan and :meth:`InRunSplit.self_seconds` uses it to turn
inclusive totals into self time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


class Span:
    """One benchmark-side span; ``parent`` is the span that caused it."""

    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.thread = thread

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one workload run (safe across client threads)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []
        self._stacks = threading.local()
        #: Paired clocks so traces of separate workload processes share an axis.
        self.wall_ref = time.time()
        self.perf_ref = time.perf_counter()
        self.main_thread = threading.get_ident()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stacks.__dict__.setdefault("stack", [])
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def coverage(self, wall: float, wrappers: Sequence[str]) -> float:
        """Share of ``wall`` the main thread spent inside a *named* activity.

        ``wrappers`` are the phase spans (set-up, measure, check) that only
        group other spans; their own self time is glue nobody accounted for,
        so the outermost span below them is what counts.
        """
        covered = sum(
            span.seconds for span in self.spans
            if span.thread == self.main_thread and span.name not in wrappers
            and (span.parent is None or span.parent.name in wrappers)
        )
        return covered / wall if wall > 0 else 0.0

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, inclusive seconds and self seconds.

        A span's self time is its duration minus the part its child spans
        (same thread, recorded while it was open) cover.
        """
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                children[key] = children.get(key, 0.0) + span.seconds
        rows: Dict[str, dict] = {}
        for span in self.spans:
            row = rows.setdefault(
                span.name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["inclusive_s"] += span.seconds
            row["self_s"] += max(0.0, span.seconds - children.get(id(span), 0.0))
        return rows

    def chrome_events(self, pid: int) -> List[dict]:
        """Chrome trace events (``ph: X``) for this workload under ``pid``."""
        offset = self.wall_ref - self.perf_ref
        tids = {}
        events = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": self.workload},
        }]
        for span in self.spans:
            tid = tids.setdefault(span.thread, len(tids))
            events.append({
                "name": span.name, "ph": "X", "cat": "ledger",
                "ts": round((offset + span.start) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "pid": pid, "tid": tid,
                "args": {
                    "workload": self.workload,
                    "parent": span.parent.name if span.parent else None,
                },
            })
        return events


def nesting_fractions(records: Iterable) -> Dict[str, Dict[str, float]]:
    """``child name -> {parent name: share of the child's time under it}``.

    ``records`` are ``TraceRecord`` objects of a ``trace="timeline"`` run;
    their events are ``(name, start, seconds, depth)``.  Within one track the
    parent of an event is the latest event one level up that started before
    it.  Top-level spans get the parent ``""``.
    """
    under: Dict[str, Dict[str, float]] = {}
    for record in records:
        open_at_depth: Dict[int, str] = {}
        for name, _start, seconds, depth in sorted(
                record.events, key=lambda event: (event[1], event[3])):
            open_at_depth[depth] = name
            parent = open_at_depth.get(depth - 1, "") if depth > 0 else ""
            shares = under.setdefault(name, {})
            shares[parent] = shares.get(parent, 0.0) + seconds
    for shares in under.values():
        total = sum(shares.values())
        for parent in shares:
            shares[parent] = shares[parent] / total if total > 0 else 0.0
    return under


class InRunSplit:
    """Accumulates the program's own per-rank span totals over traced runs."""

    def __init__(self) -> None:
        #: rank track -> span name -> inclusive seconds (summed over runs).
        self.ranks: Dict[str, Dict[str, float]] = {}
        #: plan key -> latest cumulative plan-track totals ``name -> [n, s]``.
        self._plans: Dict[object, dict] = {}
        self.steps = 0
        self.runs = 0
        self.wall = 0.0

    def add(self, result, steps: int, wall: float, plan_key: object = 0) -> None:
        """Fold one traced ``ExecutionResult`` in (``wall`` = its run wall)."""
        timeline = result.trace
        if timeline is None:
            return
        for record in timeline.records:
            if record.track.startswith("rank "):
                totals = self.ranks.setdefault(record.track, {})
                for name, (_count, seconds) in record.totals.items():
                    totals[name] = totals.get(name, 0.0) + seconds
            elif record.track == "plan":
                # The plan tracer lives as long as the plan, so its totals are
                # cumulative: keep the latest snapshot per plan.
                self._plans[plan_key] = record.totals
        self.steps += steps
        self.runs += 1
        self.wall += wall

    def plan_seconds_per_run(self, name: str) -> float:
        """Mean seconds of one plan-track span (``run.scatter``/``run.gather``)."""
        count = sum(t.get(name, (0, 0.0))[0] for t in self._plans.values())
        seconds = sum(t.get(name, (0, 0.0))[1] for t in self._plans.values())
        return seconds / count if count else 0.0

    def rank_values(self, name: str) -> List[float]:
        """Inclusive seconds of ``name`` on every rank track (0 if absent)."""
        return [totals.get(name, 0.0) for totals in self.ranks.values()]

    def slowest(self, name: str) -> float:
        return max(self.rank_values(name), default=0.0)

    def mean(self, name: str) -> float:
        values = self.rank_values(name)
        return sum(values) / len(values) if values else 0.0

    def self_seconds(
        self, fractions: Dict[str, Dict[str, float]]
    ) -> Dict[str, float]:
        """Self seconds per span name on the slowest-``step`` rank.

        ``fractions`` comes from :func:`nesting_fractions`; a child's
        inclusive total is charged to each parent by the share of the child's
        time the timeline run saw under that parent.
        """
        if not self.ranks:
            return {}
        totals = max(self.ranks.values(), key=lambda t: t.get("step", 0.0))
        result = dict(totals)
        for child, seconds in totals.items():
            for parent, share in fractions.get(child, {}).items():
                if parent in result:
                    result[parent] -= seconds * share
        return {name: max(0.0, seconds) for name, seconds in result.items()}
