"""Merge per-track trace records and export them.

:class:`TraceTimeline` collects the :class:`~repro.obs.tracer.TraceRecord`
of every track a run produced — the compile phase, the session lifecycle,
and one track per rank — aligns their monotonic clocks onto a shared
wall-clock axis, and exports either Chrome trace-event JSON (loadable in
Perfetto or ``chrome://tracing``; one process row per track) or an
aggregated profile (inclusive/exclusive seconds per span name, consumed by
``python -m repro.obs.report``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .tracer import TraceRecord


def _exclusive_times(events) -> Dict[str, float]:
    """Per-name exclusive seconds: inclusive minus immediate children.

    *events* are ``(name, start, duration, depth)`` tuples from one track.
    Spans on a track are properly nested (they come from one call stack),
    so a sweep over start-ordered events with an interval stack suffices.
    """
    exclusive: Dict[str, float] = {}
    stack: List[list] = []  # [name, end, child_seconds, start]
    ordered = sorted(events, key=lambda event: (event[1], -event[3]))
    for name, start, duration, _depth in ordered:
        while stack and stack[-1][1] <= start + 1e-12:
            done = stack.pop()
            exclusive[done[0]] = exclusive.get(done[0], 0.0) + max(
                0.0, (done[1] - done[3]) - done[2])
        if stack:
            stack[-1][2] += duration
        stack.append([name, start + duration, 0.0, start])
    while stack:
        done = stack.pop()
        exclusive[done[0]] = exclusive.get(done[0], 0.0) + max(
            0.0, (done[1] - done[3]) - done[2])
    return exclusive


class TraceTimeline:
    """A multi-track timeline assembled from per-tracer records."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        #: Counter totals over all tracks; ``obs.events_dropped`` is how many
        #: timeline events their bounded rings lost (0: the trace is whole).
        self.counts: Dict[str, int] = {"obs.events_dropped": 0}

    def add(self, record: Optional[TraceRecord]) -> None:
        if record is None:
            return
        self.records.append(record)
        self.counts["obs.events_dropped"] += record.events_dropped
        for name, value in record.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    @property
    def tracks(self) -> List[str]:
        return [record.track for record in self.records]

    # ------------------------------------------------------------------
    # Chrome trace-event JSON.
    # ------------------------------------------------------------------

    def chrome_events(self) -> List[dict]:
        """Trace-event list: ``M`` track-name metadata + ``X`` spans.

        Each record becomes one ``pid`` row named after its track.  Event
        timestamps are microseconds on a shared axis: a span's absolute
        wall time is ``wall_ref + (start - perf_ref)`` — the paired clock
        references captured at tracer construction make monotonic clocks
        from different processes comparable.
        """
        starts = []
        for record in self.records:
            offset = record.wall_ref - record.perf_ref
            starts.extend(offset + start for _, start, _, _ in record.events)
        base = min(starts) if starts else 0.0

        events: List[dict] = []
        for pid, record in enumerate(self.records):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": record.track},
            })
            offset = record.wall_ref - record.perf_ref
            for name, start, duration, _depth in record.events:
                events.append({
                    "name": name, "ph": "X", "cat": "repro",
                    "ts": round((offset + start - base) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid, "tid": 0,
                })
        return events

    def chrome_trace(self) -> dict:
        return {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "tracks": self.tracks,
                "counters": dict(sorted(self.counts.items())),
            },
        }

    def dump(self, path) -> None:
        """Write Chrome trace-event JSON; open the file in Perfetto."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")

    # ------------------------------------------------------------------
    # Aggregated profile.
    # ------------------------------------------------------------------

    def profile(self) -> List[dict]:
        """Aggregate spans across tracks: count, inclusive, exclusive.

        Timeline-mode records contribute exact exclusive times from their
        event stream; summary-mode records (no events) contribute their
        totals with exclusive = inclusive.  Sorted by inclusive seconds,
        descending.
        """
        rows: Dict[str, dict] = {}
        for record in self.records:
            exclusive = _exclusive_times(record.events) if record.events else {}
            for name, (count, seconds) in record.totals.items():
                row = rows.setdefault(
                    name, {"name": name, "count": 0, "inclusive": 0.0,
                           "exclusive": 0.0})
                row["count"] += count
                row["inclusive"] += seconds
                row["exclusive"] += exclusive.get(name, seconds)
        return sorted(rows.values(), key=lambda row: -row["inclusive"])

    def profile_table(self, top: int = 20) -> str:
        """The profile as a fixed-width text table (plus counter totals)."""
        lines = [f"{'span':<28} {'count':>8} {'inclusive s':>12} {'exclusive s':>12}"]
        lines.append("-" * len(lines[0]))
        for row in self.profile()[:top]:
            lines.append(f"{row['name']:<28} {row['count']:>8} "
                         f"{row['inclusive']:>12.6f} {row['exclusive']:>12.6f}")
        if self.counts:
            lines.append("")
            lines.append("counters:")
            for name, value in sorted(self.counts.items()):
                lines.append(f"  {name} = {value}")
        return "\n".join(lines)
