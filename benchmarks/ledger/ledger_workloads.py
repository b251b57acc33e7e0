"""The six ledger workloads.

Every workload follows the same life cycle, driven by :func:`execute`:

1. ``setup`` — from frontend source to the end of one untimed warm-up
   operation, repeated at least :data:`SETUP_REPEATS` times on fresh objects (new
   modules, new ``Session``/``Server``); the last set-up is kept for the
   measurement and ``setup_s`` is the median wall of the repeats.
2. either ``measure`` (tracing off — the end-to-end metrics) or ``layers``
   (the traced pass — the per-layer metrics), each running operations until
   the requested number of seconds has passed.
3. ``teardown`` — close what set-up opened, so that worker processes are
   reaped before peak RSS is read.
4. ``check`` — compare the measured outputs against references that do not
   share code with the tier under test.

An *operation* is one time step for the four ``Plan.run`` workloads, one
served job for ``serve-mix`` and one program (frontend to first run) for
``compile-corpus``; ``op_us`` and ``ops_s`` are reported per operation.

Layers are observed from outside only: benchmark-side spans around public
calls plus what the program publishes (``compile_record``, ``statistics``,
``trace``, ``metrics``).
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence

import numpy as np

from ledger_layers import (
    END_TO_END_UNITS,
    LAYER_UNITS,
    Built,
    LayerLog,
    log_codegen_counters,
    log_comm_counters,
    log_compile_layers,
    log_inrun_layers,
    median,
    peak_rss_mb,
    percentile,
    quartiles,
    triad_gbs,
)
from ledger_sources import DevitoSource, OecSource, PsycloneSource
from ledger_trace import InRunSplit, Recorder, nesting_fractions
from repro.core import (
    ExecutionConfig,
    Session,
    cpu_target,
    dmp_target,
    smp_target,
)
from repro.serve import Server

#: ``setup_s`` is the median of at least this many set-ups; cheap set-ups
#: (tens of milliseconds on serve-mix) repeat up to ``SETUP_REPEATS_MAX``
#: times while they fit in ``SETUP_BUDGET_S``.
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_BUDGET_S = 3.0
#: The phase spans of :func:`execute`; they group other spans and their own
#: self time is unattributed glue (see ``Recorder.coverage``).
PHASES = ("setup", "measure", "layers", "check")
#: Reference tolerance for float64 fields against the native NumPy executors
#: (which may evaluate the same expression in another association order).
RTOL, ATOL = 1e-9, 1e-12


class Workload:
    """Base class: failure accounting shared by every workload."""

    name = ""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.log = LayerLog()
        #: Self seconds per in-run span name (traced pass; for the report).
        self.inrun_self_seconds: Dict[str, float] = {}
        self._lock = threading.Lock()  # serve-mix counts from client threads

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
        print(f"[{self.name}] FAILED: {what}", file=sys.stderr)

    def attempt(self, what: str) -> "_Attempt":
        """Context manager counting one operation; exceptions count as failed."""
        return _Attempt(self, what)

    def expect(self, what: str, ok: bool) -> None:
        """One reference check: an operation of its own in ``fail_ratio``."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(what)

    def expect_close(self, what: str, got, want) -> None:
        self.expect(what, len(got) == len(want) and all(
            np.allclose(a, b, rtol=RTOL, atol=ATOL) for a, b in zip(got, want)))

    def expect_identical(self, what: str, got, want) -> None:
        self.expect(what, len(got) == len(want) and all(
            np.array_equal(a, b) for a, b in zip(got, want)))

    # -- life cycle, overridden per workload ---------------------------------
    def setup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def measure(self, rec: Recorder, seconds: float) -> Dict[str, object]:
        """Tracing off: ``op_us``, ``ops_s``, ``samples``, ``op_us_quartiles``."""
        raise NotImplementedError

    def layers(self, rec: Recorder, seconds: float) -> None:
        """The traced pass: fills ``self.log``."""
        raise NotImplementedError

    def teardown(self, rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, rec: Recorder) -> None:
        raise NotImplementedError


class _Attempt:
    def __init__(self, workload: Workload, what: str):
        self.workload = workload
        self.what = what
        self.ok = False

    def __enter__(self) -> "_Attempt":
        with self.workload._lock:
            self.workload.attempted += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.ok = True
            return False
        if not issubclass(exc_type, Exception):
            return False  # KeyboardInterrupt and friends propagate
        reason = "".join(traceback.format_exception_only(exc_type, exc)).strip()
        self.workload.fail(f"{self.what}: {reason}")
        return True


def _op_metrics(walls: Sequence[float], ops_per_wall: int) -> Dict[str, object]:
    """End-to-end operation metrics from the walls of equal-sized batches."""
    return {
        "op_us": 1e6 * median(walls) / ops_per_wall,
        "ops_s": median(ops_per_wall / wall for wall in walls),
        "samples": len(walls),
        "op_us_quartiles": [1e6 * q / ops_per_wall for q in quartiles(walls)],
    }


# ---------------------------------------------------------------------------
# The four Plan.run workloads
# ---------------------------------------------------------------------------

class PlanWorkload(Workload):
    """One Devito program, one held plan, ``plan.run`` repeated.

    Runs are kept short (a quarter to half a second): this box slows down by
    2x for a second or two at a time, and the median over runs only shrugs
    that off when a slow spell covers a minority of the samples.
    """

    kind = "wave"
    shape: tuple = ()
    quick_shape: tuple = ()
    space_order = 4
    runtime = "threads"
    steps = 1
    quick_steps = 2
    #: Closed form, checked exactly: messages sent per step over all ranks.
    msgs_per_step = 0

    def target(self, single_rank: bool = False):
        raise NotImplementedError

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        if quick:
            self.shape, self.steps = self.quick_shape, self.quick_steps
        self.source = DevitoSource(self.kind, self.shape, self.space_order)
        self.session: Optional[Session] = None
        self.plan = None
        self.built: Optional[Built] = None
        self.fields: List[np.ndarray] = []
        self.last_result = None
        self.first_run_s = 0.0

    def bytes_per_step(self) -> int:
        """Closed form: every message is one halo-deep slab of the core grid.

        The decomposed axis is the first one; a message carries
        ``space_order / 2`` planes of the remaining extents, 8 bytes a cell.
        """
        plane = 1
        for extent in self.shape[1:]:
            plane *= extent
        return self.msgs_per_step * (self.space_order // 2) * plane * 8

    def config(self, **changes) -> ExecutionConfig:
        return ExecutionConfig(runtime=self.runtime, trace="off").replace(**changes)

    # -- set-up ---------------------------------------------------------------
    def setup(self, rec: Recorder) -> None:
        self.built = Built(rec, self.source, self.target())
        with rec.span("session.open"):
            self.session = Session(self.config())
        with rec.span("session.warmup") as warmup:
            self.session.warmup(self.built.program)
        with rec.span("session.plan") as plan:
            self.plan = self.session.plan(self.built.program)
        with rec.span("bench.inputs"):
            self.fields = self.source.inputs(self.seed)
        with rec.span("plan.first_run") as first:
            self.plan.run(self.fields, [self.steps])
        self.first_run_s = first.seconds
        log_compile_layers(self.log, [self.built])
        self.log.add("session.warmup_ms", 1e3 * warmup.seconds)
        # Worker processes only exist in the process world.
        self.log.add("runtime.pool_spawn_ms",
                     1e3 * warmup.seconds if self.runtime == "processes" else 0.0)
        self.log.add("core.first_run_ms", 1e3 * (plan.seconds + first.seconds))

    def teardown(self, rec: Recorder) -> None:
        if self.session is not None:
            with rec.span("session.close"):
                self.session.close()
            self.session = None
            self.plan = None

    # -- timed runs -----------------------------------------------------------
    def timed_runs(
        self, rec: Recorder, plan, steps: int, seconds: float,
        split: Optional[InRunSplit] = None, min_runs: int = 3,
    ) -> List[float]:
        """Run ``plan`` from the same seeded state until ``seconds`` passed."""
        walls: List[float] = []
        deadline = time.perf_counter() + seconds
        runs = 0
        while runs < min_runs or time.perf_counter() < deadline:
            runs += 1
            with rec.span("bench.inputs"):
                self.source.fill(self.fields, self.seed)
            with self.attempt("plan.run") as attempt:
                with rec.span("plan.run") as span:
                    result = plan.run(self.fields, [steps])
            if not attempt.ok:
                continue
            walls.append(span.seconds)
            self.last_result = result
            if split is not None:
                split.add(result, steps, span.seconds)
        if not walls:
            raise RuntimeError(f"{self.name}: every plan.run failed")
        return walls

    def measure(self, rec: Recorder, seconds: float) -> Dict[str, object]:
        walls = self.timed_runs(rec, self.plan, self.steps, seconds)
        return _op_metrics(walls, self.steps)

    # -- the traced pass ------------------------------------------------------
    def layers(self, rec: Recorder, seconds: float) -> None:
        log, session, program = self.log, self.session, self.built.program
        before = session.metrics.snapshot()
        untraced = self.timed_runs(rec, self.plan, self.steps, 0.3 * seconds)
        log_comm_counters(log, before, session.metrics.snapshot(),
                          self.steps * len(untraced))
        log_codegen_counters(log, session)
        step_s = median(untraced) / self.steps
        # First run minus a steady run of the same length: the one-off costs
        # (megakernel emit; in the process world also program shipping and
        # the workers' own kernel compile).
        log.add("codegen.emit_ms",
                1e3 * max(0.0, self.first_run_s - median(untraced)))

        # The program's own split of a run, summed over summary-traced runs.
        with rec.span("session.plan"):
            traced_plan = session.plan(program, trace="summary")
        with rec.span("plan.first_run"):
            traced_plan.run(self.fields, [self.steps])
        split = InRunSplit()
        traced = self.timed_runs(
            rec, traced_plan, self.steps, 0.3 * seconds, split=split)
        # The nesting of the span names comes from a short timeline run of
        # the same program: summary totals carry none, and the timeline ring
        # (65 536 events) would overflow on the long runs.
        fractions: Dict[str, Dict[str, float]] = {}
        with rec.span("session.plan"):
            timeline_plan = session.plan(program, trace="timeline")
        with self.attempt("timeline run"), rec.span("plan.run"):
            timeline = timeline_plan.run(self.fields, [3])
            fractions = nesting_fractions(timeline.trace.records)
        log_inrun_layers(log, split, fractions)
        self.inrun_self_seconds = split.self_seconds(fractions)
        # What a run spends outside nest compute, per step; both terms from
        # the same traced runs, so a slow spell cannot push it below zero.
        nest_us = log.samples["interp.nest_us_per_step"][-1]
        log.add("session.overhead_us_per_step",
                1e6 * split.wall / split.steps - nest_us)
        log.add("obs.trace_overhead", median(traced) / median(untraced))

        # Fixed cost of one run: the wall of a one-step plan.run.
        fixed = self.timed_runs(rec, self.plan, 1, 0.05 * seconds, min_runs=5)
        log.add("session.run_fixed_us", 1e6 * median(fixed))

        # Plan construction with and without the megakernel time-loop trace
        # (process-world plans leave tracing to the workers: expect ~0).
        builds: Dict[str, List[float]] = {"auto": [], "planned": []}
        for _ in range(5):
            for codegen, walls in builds.items():
                with rec.span("session.plan") as span:
                    session.plan(program, codegen=codegen).close()
                walls.append(span.seconds)
        log.add("session.plan_build_ms", 1e3 * median(builds["auto"]))
        log.add("codegen.trace_ms", 1e3 * max(
            0.0, median(builds["auto"]) - median(builds["planned"])))

        # The kernel in absolute units, beside a same-size triad.
        chars = program.characteristics
        with rec.span("machine.triad"):
            triad = triad_gbs(self.fields[0].size, 0.05 if self.quick else 0.4)
        eff = chars.bytes_per_step(8) / step_s / 1e9
        log.add("kernel.mpts_s", self.source.points / step_s / 1e6)
        log.add("kernel.flops_per_byte", chars.arithmetic_intensity(8))
        log.add("kernel.eff_gbs", eff)
        log.add("machine.triad_gbs", triad)
        log.add("kernel.bw_fraction", eff / triad)
        self.extra_layers(rec, step_s)
        # Leave the output of one standard run behind for check().
        self.timed_runs(rec, self.plan, self.steps, 0.0, min_runs=1)

    def extra_layers(self, rec: Recorder, step_s: float) -> None:
        """Hook for workload-specific layer metrics (strong-scaling baseline)."""

    # -- correctness ----------------------------------------------------------
    def check(self, rec: Recorder) -> None:
        # self.fields hold the output of the last timed run, which started
        # from the seeded state like every other.
        with rec.span("bench.reference"):
            want = self.source.reference(self.seed, self.steps)
        self.expect_close("fields vs Operator(backend='native')", self.fields, want)

        # Exact counters against closed forms.
        result = self.last_result
        cells = sum(s.cells_updated for s in result.statistics)
        self.expect("cells_updated == points x steps",
                    cells == self.source.points * self.steps)
        comm = result.comm_statistics
        sent = (comm.messages_sent, comm.bytes_sent) if comm else (0, 0)
        self.expect(
            f"messages, bytes per step == {self.msgs_per_step}, "
            f"{self.bytes_per_step()}",
            sent == (self.msgs_per_step * self.steps,
                     self.bytes_per_step() * self.steps))

        # A shrunken copy (<= 16 cells per axis) must match the tree-walking
        # interpreter bit for bit: same target and runtime, both tiers.
        small = self.source.with_shape(
            (min(16, self.shape[0]),) + tuple(min(8, s) for s in self.shape[1:]))
        with rec.span("bench.reference"):
            built = Built(rec, small, self.target())
            fast, slow = small.inputs(self.seed), small.inputs(self.seed)
            with Session(self.config()) as session:
                session.plan(built.program).run(fast, [2])
                session.plan(
                    built.program, backend="interpreter", codegen="planned",
                ).run(slow, [2])
        self.expect_identical("shrunken copy vs interpreter", fast, slow)


class KernelLarge(PlanWorkload):
    name = "kernel-large"
    kind, shape, space_order, steps = "wave", (128, 128, 128), 4, 4
    quick_shape = (24, 24, 24)

    def target(self, single_rank: bool = False):
        return cpu_target()


class StepsSmall(PlanWorkload):
    name = "steps-small"
    kind, shape, space_order, steps = "heat", (64, 64), 2, 5000
    quick_shape, quick_steps = (16, 16), 200

    def target(self, single_rank: bool = False):
        return dmp_target((1, 1))


class HaloSwap(PlanWorkload):
    name = "halo-swap"
    kind, shape, space_order, steps = "wave", (16, 256, 256), 8, 8
    quick_shape = (16, 32, 32)
    runtime = "processes"
    library_calls = False
    #: 2 ranks x 2 exchanged time levels x 1 neighbour each.
    msgs_per_step = 4

    def target(self, single_rank: bool = False):
        return dmp_target(
            (1, 1, 1) if single_rank else (2, 1, 1),
            lower_to_library_calls=self.library_calls,
        )

    def extra_layers(self, rec: Recorder, step_s: float) -> None:
        """Strong scaling: the same global problem on one rank.

        ``scale_eff_2r`` = 1-rank step time / (2 x 2-rank step time); the
        baseline belongs to the ``dmp.swap`` lowering alone.
        """
        if self.library_calls:
            return
        walls = []
        with rec.span("runtime.baseline_1r"):
            built = Built(rec, self.source, self.target(single_rank=True))
            with Session(self.config()) as session:
                plan = session.plan(built.program)
                plan.run(self.fields, [self.steps])
                for _ in range(2):
                    self.source.fill(self.fields, self.seed)
                    with self.attempt("1-rank baseline") as attempt, \
                            rec.span("plan.run") as span:
                        plan.run(self.fields, [self.steps])
                    if attempt.ok:
                        walls.append(span.seconds)
        self.log.add("runtime.scale_eff_2r",
                     median(walls) / self.steps / (2 * step_s))


class HaloLibcall(HaloSwap):
    name = "halo-libcall"
    #: Short runs on purpose: about one blocking exchange in twelve stalls
    #: for 20-100 % of a step, so a 10-step run almost always contains a
    #: stall and the median over runs wanders by 25 %; with 4 steps most runs
    #: are clean and the median repeats within 3 %.
    steps = 4
    library_calls = True


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

def _digest(arrays: Sequence[np.ndarray]) -> str:
    state = hashlib.blake2b(digest_size=16)
    for array in arrays:
        state.update(np.ascontiguousarray(array).tobytes())
    return state.hexdigest()


class ServeMix(Workload):
    """Closed loop: two client threads, one outstanding job each, two tenants."""

    name = "serve-mix"
    CLIENTS = 2
    #: (Devito source, rank grid, steps per job, jobs per block of ten).
    CLASSES = (
        (("heat", (32, 32), 2), (1, 1), 10, 7),
        (("wave", (24, 24, 24), 4), (1, 1, 1), 20, 1),
        (("heat", (64, 64), 2), (2, 1), 20, 2),
    )
    #: A client re-seeds a class's fields after this many jobs on them, so the
    #: state after every job is one of ``EPOCH`` states a stand-alone Session
    #: can reproduce cheaply.
    EPOCH = 50
    #: Load segments per pass (see :meth:`segments`).
    SEGMENTS = 8
    TIMEOUT = 60.0

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.sources = [DevitoSource(*spec) for spec, *_ in self.CLASSES]
        self.targets = [dmp_target(grid) for _, grid, _, _ in self.CLASSES]
        self.job_steps = [steps for *_, steps, _ in self.CLASSES]
        #: Each client draws its jobs as seeded shuffles of this block, so the
        #: 70/10/20 mix is exact whatever the seed and run length.
        self.block = [k for k, (*_, weight) in enumerate(self.CLASSES)
                      for _ in range(weight)]
        self.server: Optional[Server] = None
        self.builds: List[Built] = []
        #: (class, jobs since the last re-seed, digest of the fields).
        self.observed: List[tuple] = []
        self.steps_served = 0

    def config(self, **changes) -> ExecutionConfig:
        return ExecutionConfig(runtime="threads", trace="off").replace(**changes)

    def open_server(self, rec: Recorder, **changes) -> Server:
        """A started server with every program's caches warmed by one job."""
        with rec.span("serve.start"):
            server = Server(self.config(**changes), max_batch=8, max_pending=64)
        for built, steps in zip(self.builds, self.job_steps):
            with rec.span("bench.inputs"):
                fields = built.source.inputs(self.seed)
            with rec.span("serve.warm_job"):
                server.submit(built.program, fields, [steps],
                              tenant="warm").result(timeout=self.TIMEOUT)
        return server

    def setup(self, rec: Recorder) -> None:
        self.builds = [Built(rec, source, target)
                       for source, target in zip(self.sources, self.targets)]
        with rec.span("serve.open") as opened:
            self.server = self.open_server(rec)
        log_compile_layers(self.log, self.builds)
        self.log.add("core.first_run_ms", 1e3 * opened.seconds / len(self.builds))

    def teardown(self, rec: Recorder) -> None:
        if self.server is not None:
            with rec.span("serve.close"):
                self.server.close()
            self.server = None

    def load(
        self, rec: Recorder, server: Server, seconds: float, segment: int = 0,
        split: Optional[InRunSplit] = None,
    ) -> tuple:
        """One segment of closed-loop load; returns (latencies, wall).

        Every segment starts fresh client threads on freshly seeded fields.
        """
        latencies: List[float] = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.CLIENTS + 1)
        deadline = [0.0]

        def client(index: int) -> None:
            order = random.Random(f"{self.seed}/{segment}/{index}")
            fields = [source.inputs(self.seed) for source in self.sources]
            since_seed = [0] * len(self.sources)
            mine: List[float] = []
            steps_done = 0
            barrier.wait(timeout=self.TIMEOUT)
            while time.perf_counter() < deadline[0]:
                block = list(self.block)
                order.shuffle(block)
                for k in block:
                    if time.perf_counter() >= deadline[0]:
                        break
                    steps = self.job_steps[k]
                    with self.attempt("served job") as attempt:
                        with rec.span("serve.job") as job:
                            with rec.span("serve.submit"):
                                handle = server.submit(
                                    self.builds[k].program, fields[k], [steps],
                                    tenant=f"tenant-{index}")
                            with rec.span("serve.result"):
                                result = handle.result(timeout=self.TIMEOUT)
                    if not attempt.ok:
                        continue
                    mine.append(job.seconds)
                    steps_done += steps
                    since_seed[k] += 1
                    if result.total_cells_updated != \
                            self.sources[k].points * steps:
                        self.fail("served job: cells_updated off its closed form")
                    if split is not None:
                        with lock:
                            split.add(result, steps, job.seconds, plan_key=k)
                    if since_seed[k] == self.EPOCH:
                        self.observed.append((k, self.EPOCH, _digest(fields[k])))
                        self.sources[k].fill(fields[k], self.seed)
                        since_seed[k] = 0
            for k, count in enumerate(since_seed):
                if count:
                    self.observed.append((k, count, _digest(fields[k])))
            with lock:
                latencies.extend(mine)
                self.steps_served += steps_done

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.CLIENTS)]
        with rec.span("serve.load"):
            for thread in threads:
                thread.start()
            deadline[0] = time.perf_counter() + seconds
            barrier.wait(timeout=self.TIMEOUT)
            began = time.perf_counter()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - began
        if not latencies:
            raise RuntimeError("serve-mix: no job completed")
        return latencies, wall

    def segments(
        self, rec: Recorder, server: Server, seconds: float,
        split: Optional[InRunSplit] = None,
    ) -> Dict[str, object]:
        """``seconds`` of load in :data:`SEGMENTS` equal segments.

        Thread hand-offs under the GIL settle into a faster or a slower
        rhythm for a second or two at a time, so one long run reports
        whichever rhythm it happened to spend longer in.  The per-operation
        time is therefore the median over segments of each segment's mean
        latency; the median latency of the pooled jobs sits on a knee between
        two modes and is reported per layer only (``serve.job_p50_ms``).
        """
        count = 2 if self.quick else self.SEGMENTS
        means, rates, pooled = [], [], []
        for segment in range(count):
            latencies, wall = self.load(
                rec, server, seconds / count, segment, split)
            means.append(sum(latencies) / len(latencies))
            rates.append(len(latencies) / wall)
            pooled.extend(latencies)
        return {
            "op_us": 1e6 * median(means),
            "ops_s": median(rates),
            "samples": count,
            "op_us_quartiles": [1e6 * q for q in quartiles(means)],
            "latencies": pooled,
        }

    def measure(self, rec: Recorder, seconds: float) -> Dict[str, object]:
        return self.segments(rec, self.server, seconds)

    def standalone(self, rec: Recorder, count: int) -> tuple:
        """``count`` jobs of every class back to back on a stand-alone Session.

        Returns ``(digests, walls)``: ``digests[k][n]`` is the state of class
        ``k``'s fields after ``n`` jobs from the seeded state, ``walls[k]``
        the ``plan.run`` walls of those jobs.
        """
        digests: List[Dict[int, str]] = []
        walls: List[List[float]] = []
        with Session(self.config()) as session:
            for built, steps in zip(self.builds, self.job_steps):
                plan = session.plan(built.program)
                fields = built.source.inputs(self.seed)
                states, took = {}, []
                for n in range(1, count + 1):
                    with rec.span("plan.run") as span:
                        plan.run(fields, [steps])
                    took.append(span.seconds)
                    states[n] = _digest(fields)
                digests.append(states)
                walls.append(took)
        return digests, walls

    def layers(self, rec: Recorder, seconds: float) -> None:
        log, server = self.log, self.server
        session_before = server.session.metrics.snapshot()
        untraced = self.measure(rec, 0.4 * seconds)
        latencies = untraced["latencies"]
        log_comm_counters(log, session_before,
                          server.session.metrics.snapshot(), self.steps_served)
        log_codegen_counters(log, server.session)
        metrics = server.metrics
        completed = max(1, metrics.get("serve.jobs_completed"))
        lookups = metrics.get("serve.plan_cache_hit") \
            + metrics.get("serve.plan_cache_miss")
        log.add("serve.queue_wait_ms_mean",
                metrics.get("serve.queue_wait_us") / completed / 1e3)
        log.add("serve.batch_occupancy_mean",
                metrics.get("serve.batched_jobs")
                / max(1, metrics.get("serve.batches")))
        log.add("serve.plan_cache_hit_ratio",
                metrics.get("serve.plan_cache_hit") / max(1, lookups))
        log.add("serve.jobs_rejected", metrics.get("serve.jobs_rejected"))
        log.add("serve.job_p50_ms", 1e3 * median(latencies))
        log.add("serve.job_p95_ms", 1e3 * percentile(latencies, 0.95))
        log.add("serve.job_p99_ms", 1e3 * percentile(latencies, 0.99))
        log.add("serve.jobs_s", untraced["ops_s"])
        points = sum(self.sources[k].points * self.job_steps[k]
                     for k in self.block) / len(self.block)
        log.add("kernel.mpts_s", untraced["ops_s"] * points / 1e6)

        # The same mix back to back on a stand-alone Session: what is left of
        # the served mean latency is queue wait + dispatcher + batching.
        _, walls = self.standalone(rec, 20 if self.quick else 60)
        mix = [wall for k in self.block for wall in walls[k]]
        log.add("serve.dispatch_overhead_ms",
                (untraced["op_us"] / 1e6 - sum(mix) / len(mix)) * 1e3)

        # The traced pass proper: a second server whose plans trace themselves.
        fractions: Dict[str, Dict[str, float]] = {}
        split = InRunSplit()
        traced_server = self.open_server(rec, trace="summary")
        try:
            traced = self.segments(rec, traced_server, 0.4 * seconds, split)
            # Nesting from one timeline-traced job of the 2-rank class.
            with rec.span("bench.inputs"):
                fields = self.sources[2].inputs(self.seed)
            with self.attempt("timeline job"), rec.span("serve.job"):
                timeline = traced_server.submit(
                    self.builds[2].program, fields, [3], tenant="warm",
                    trace="timeline").result(timeout=self.TIMEOUT)
                fractions = nesting_fractions(timeline.trace.records)
        finally:
            with rec.span("serve.close"):
                traced_server.close()
        log_inrun_layers(log, split, fractions)
        self.inrun_self_seconds = split.self_seconds(fractions)
        log.add("obs.trace_overhead", traced["op_us"] / untraced["op_us"])

    def check(self, rec: Recorder) -> None:
        """Every observed field state must be a state of the stand-alone run."""
        longest = max((count for _, count, _ in self.observed), default=0)
        with rec.span("bench.reference"):
            digests, _ = self.standalone(rec, longest)
        for k, count, digest in self.observed:
            self.expect(f"class {k} fields after {count} jobs vs stand-alone",
                        digests[k].get(count) == digest)


# ---------------------------------------------------------------------------
# compile-corpus
# ---------------------------------------------------------------------------

class CorpusEntry:
    def __init__(self, source, target_name: str, target):
        self.source = source
        self.target = target
        shape = "x".join(str(extent) for extent in source.shape)
        self.label = f"{source.label}-{shape}-{target_name}"


def _grid(ndim: int) -> tuple:
    return (2,) + (1,) * (ndim - 1)


def corpus_entries() -> List[CorpusEntry]:
    """All three frontends times the targets they support: 58 programs."""
    entries: List[CorpusEntry] = []
    for kind in ("heat", "wave"):
        for shape in ((64, 64), (32, 32, 32)):
            for space_order in (2, 4, 8):
                source = DevitoSource(kind, shape, space_order)
                grid = _grid(len(shape))
                for name, target in (
                    ("cpu", cpu_target()),
                    ("smp4", smp_target(4)),
                    ("dmp", dmp_target(grid)),
                    ("dmp-libcall", dmp_target(grid, lower_to_library_calls=True)),
                ):
                    entries.append(CorpusEntry(source, name, target))
    for kind in ("pw", "traadv", "traadv-masked"):
        source = PsycloneSource(kind, (32, 32, 16))
        entries.append(CorpusEntry(source, "cpu", cpu_target()))
        entries.append(CorpusEntry(source, "dmp", dmp_target((2, 1, 1))))
    for kind in ("5pt-swap", "7pt"):
        source = OecSource(kind)
        entries.append(CorpusEntry(source, "cpu", cpu_target()))
        entries.append(
            CorpusEntry(source, "dmp", dmp_target(_grid(len(source.shape)))))
    return entries


class CompileCorpus(Workload):
    """The cold path: every program from frontend source to its first run."""

    name = "compile-corpus"
    STEPS = 2

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.entries: List[CorpusEntry] = []

    def config(self, **changes) -> ExecutionConfig:
        return ExecutionConfig(runtime="threads", trace="off").replace(**changes)

    def setup(self, rec: Recorder) -> None:
        """Generate the corpus in seeded order, then one untimed pass over it."""
        with rec.span("bench.inputs"):
            entries = corpus_entries()
            if self.quick:
                entries = entries[::6]
            random.Random(self.seed).shuffle(entries)
            self.entries = entries
        self.run_pass(rec)

    def teardown(self, rec: Recorder) -> None:
        """Every pass closes its own Session."""

    def run_pass(
        self, rec: Recorder, *, trace: str = "off", steady: bool = False,
        verify: bool = False, split: Optional[InRunSplit] = None,
    ) -> dict:
        """One pass over the corpus on a new ``Session``.

        ``steady`` adds a second run per program (first minus steady = the
        one-off cost of the first run); ``verify`` checks every output.
        Returns per-program means in seconds plus the pass's builds.
        """
        builds: List[Built] = []
        compile_s = plan_s = first_s = emit_s = 0.0
        with rec.span("session.open"):
            session = Session(self.config(trace=trace))
        try:
            for number, entry in enumerate(self.entries):
                source, seed = entry.source, self.seed + number
                with rec.span("bench.inputs"):
                    fields = source.inputs(seed)
                with self.attempt(entry.label) as attempt:
                    built = Built(rec, source, entry.target)
                    with rec.span("session.plan") as planning:
                        plan = session.plan(built.program)
                    with rec.span("plan.first_run") as first:
                        result = plan.run(fields, [self.STEPS])
                if not attempt.ok:
                    continue
                builds.append(built)
                compile_s += built.compile_s
                plan_s += planning.seconds
                first_s += first.seconds
                if split is not None:
                    split.add(result, self.STEPS, first.seconds, plan_key=number)
                if verify:
                    self.verify(rec, entry, session, built, fields, seed)
                if steady:
                    with rec.span("plan.steady_run") as again:
                        plan.run(fields, [self.STEPS])
                    emit_s += max(0.0, first.seconds - again.seconds)
                plan.close()
            if steady:
                log_codegen_counters(self.log, session)
                log_comm_counters(
                    self.log, {}, session.metrics.snapshot(),
                    self.STEPS * session.metrics.get("runs"))
        finally:
            with rec.span("session.close"):
                session.close()
        done = len(builds)
        if not done:
            raise RuntimeError("compile-corpus: every program failed")
        return {
            "programs": done,
            "builds": builds,
            "compile_s": compile_s / done,
            "plan_s": plan_s / done,
            "first_run_s": (plan_s + first_s) / done,
            "emit_s": emit_s / done,
            "op_s": (compile_s + plan_s + first_s) / done,
        }

    def verify(self, rec, entry, session, built, fields, seed) -> None:
        source = entry.source
        with rec.span("bench.reference"):
            if source.reference is not None:
                want = source.reference(seed, self.STEPS)
            else:
                want = source.inputs(seed)
                session.plan(
                    built.program, backend="interpreter", codegen="planned",
                ).run(want, [self.STEPS])
        if source.reference is not None:
            self.expect_close(f"{entry.label} vs native reference", fields, want)
        else:
            self.expect_identical(f"{entry.label} vs interpreter", fields, want)

    def measure(self, rec: Recorder, seconds: float) -> Dict[str, object]:
        deadline = time.perf_counter() + seconds
        passes = []
        while not passes or time.perf_counter() < deadline:
            passes.append(self.run_pass(rec))
        # One more pass, timed like the others, whose outputs are verified.
        passes.append(self.run_pass(rec, verify=True))
        return _op_metrics([p["op_s"] for p in passes], 1)

    def layers(self, rec: Recorder, seconds: float) -> None:
        log = self.log
        untraced, traced = [], []
        deadline = time.perf_counter() + 0.4 * seconds
        while not untraced or time.perf_counter() < deadline:
            outcome = self.run_pass(rec, steady=True)
            untraced.append(outcome)
            log_compile_layers(log, outcome["builds"])
            log.add("core.first_run_ms", 1e3 * outcome["first_run_s"])
            log.add("session.plan_build_ms", 1e3 * outcome["plan_s"])
            log.add("codegen.emit_ms", 1e3 * outcome["emit_s"])
        split = InRunSplit()
        deadline = time.perf_counter() + 0.4 * seconds
        while not traced or time.perf_counter() < deadline:
            traced.append(self.run_pass(rec, trace="summary", split=split))
        self.run_pass(rec, verify=True)
        log_inrun_layers(log, split, {})
        log.add("obs.trace_overhead",
                median(p["first_run_s"] for p in traced)
                / median(p["first_run_s"] for p in untraced))

    def check(self, rec: Recorder) -> None:
        """Outputs were verified program by program in the last pass."""


WORKLOADS = {
    cls.name: cls for cls in (
        KernelLarge, StepsSmall, HaloSwap, HaloLibcall, ServeMix, CompileCorpus)
}


def execute(name: str, seed: int, seconds: float, traced: bool, quick: bool):
    """Run one workload; returns ``(result, detail, recorder)``.

    ``result`` is the driver contract's object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``detail`` carries sample counts, quartiles and
    the span tables for the human-readable report.
    """
    workload = WORKLOADS[name](seed, quick)
    rec = Recorder(name)
    began = time.perf_counter()
    setups: List[float] = []
    while not setups or (not quick and (
            len(setups) < SETUP_REPEATS
            or (len(setups) < SETUP_REPEATS_MAX
                and sum(setups) < SETUP_BUDGET_S))):
        if setups:
            workload.teardown(rec)
        with rec.span("setup") as span:
            workload.setup(rec)
        setups.append(span.seconds)
    try:
        if traced:
            with rec.span("layers"):
                workload.layers(rec, seconds)
        else:
            with rec.span("measure"):
                measured = workload.measure(rec, seconds)
    finally:
        workload.teardown(rec)
    rss = peak_rss_mb()  # read before the references allocate their own fields
    with rec.span("check"):
        workload.check(rec)
    wall = time.perf_counter() - began

    detail: Dict[str, object] = {"wall_s": wall, "setup_s_samples": setups}
    if traced:
        workload.log.add("obs.coverage", rec.coverage(wall, PHASES))
        medians = workload.log.medians()
        values = {metric: medians.get(metric, 0.0) for metric in LAYER_UNITS}
        units = LAYER_UNITS
        detail["inrun_self_seconds"] = workload.inrun_self_seconds
    else:
        values = {
            "setup_s": median(setups),
            "op_us": measured["op_us"],
            "ops_s": measured["ops_s"],
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
        detail["samples"] = measured["samples"]
        detail["op_us_quartiles"] = measured["op_us_quartiles"]
    detail["spans"] = rec.self_times()
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {metric: {"value": values[metric], "unit": units[metric]}
                    for metric in units},
    }
    return result, detail, rec
