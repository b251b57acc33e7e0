"""Per-layer bookkeeping for the ledger: metric tables and layer probes.

``LAYER_UNITS`` / ``END_TO_END_UNITS`` name every metric the runner prints
(``BENCHMARK.json`` must list the same names and units; the smoke test checks
it).  The ``log_*`` helpers turn what a workload observed from outside —
benchmark-side span walls, ``program.compile_record``, ``Session.metrics``
snapshots, summary-trace totals — into per-layer samples.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

from ledger_trace import InRunSplit, Recorder
from repro.core import Session, compile_stencil_program

#: Every per-layer metric, in report order: ``name -> unit``.  Each workload
#: reports all of them; a layer the workload bypasses reads 0.
LAYER_UNITS: Dict[str, str] = {
    "core.compile_ms": "ms",
    "core.first_run_ms": "ms",
    "frontends.devito_lower_ms": "ms",
    "frontends.psyclone_lower_ms": "ms",
    "frontends.oec_build_ms": "ms",
    "transforms.pipeline_ms": "ms",
    "transforms.precodegen_ms": "ms",
    "transforms.distribute_ms": "ms",
    "transforms.lower_stencil_ms": "ms",
    "transforms.lower_mpi_ms": "ms",
    "transforms.openmp_ms": "ms",
    "transforms.finalize_ms": "ms",
    "transforms.ir_ops_out": "count",
    "transforms.stencil_regions": "count",
    "vectorize.compile_ms": "ms",
    "vectorize.nests_compiled": "count",
    "vectorize.fallbacks": "count",
    "codegen.trace_ms": "ms",
    "codegen.emit_ms": "ms",
    "codegen.cache_miss": "count",
    "codegen.cache_hit_per_run": "ratio",
    "codegen.engaged_per_run": "ratio",
    "codegen.fallbacks_per_run": "ratio",
    "session.warmup_ms": "ms",
    "session.plan_build_ms": "ms",
    "session.scatter_us": "us",
    "session.gather_us": "us",
    "session.run_fixed_us": "us",
    "session.overhead_us_per_step": "us",
    "interp.nest_us_per_step": "us",
    "interp.nest_interior_share": "ratio",
    "interp.nest_boundary_share": "ratio",
    "interp.step_share_of_run": "ratio",
    "halo.post_us_per_step": "us",
    "halo.wait_us_per_step": "us",
    "halo.wait_max_rank_us": "us",
    "halo.wait_share": "ratio",
    "halo.msgs_per_step": "count",
    "halo.bytes_per_step": "count",
    "halo.overlapped_ratio": "ratio",
    "runtime.pool_spawn_ms": "ms",
    "runtime.bytes_elided": "count",
    "runtime.shared_blocks_reused": "count",
    "runtime.rank_imbalance": "ratio",
    "runtime.scale_eff_2r": "ratio",
    "serve.queue_wait_ms_mean": "ms",
    "serve.batch_occupancy_mean": "ratio",
    "serve.plan_cache_hit_ratio": "ratio",
    "serve.jobs_rejected": "count",
    "serve.job_p50_ms": "ms",
    "serve.job_p95_ms": "ms",
    "serve.job_p99_ms": "ms",
    "serve.jobs_s": "1/s",
    "serve.dispatch_overhead_ms": "ms",
    "kernel.mpts_s": "Mpts/s",
    "kernel.flops_per_byte": "ratio",
    "kernel.eff_gbs": "GB/s",
    "kernel.bw_fraction": "ratio",
    "machine.triad_gbs": "GB/s",
    "obs.trace_overhead": "ratio",
    "obs.coverage": "ratio",
    "obs.inrun_coverage": "ratio",
}

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "op_us": "us",
    "ops_s": "1/s",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def percentile(samples: Sequence[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median(values: Sequence[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (a lone sample repeats)."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def _ms(span_seconds) -> float:
    return 1e3 * sum(span_seconds)


class LayerLog:
    """Per-layer samples (one per set-up or pass); reported as medians."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def medians(self) -> Dict[str, float]:
        return {name: median(values) for name, values in self.samples.items()}


class Built:
    """One program taken from frontend source to a compiled kernel."""

    def __init__(self, rec: Recorder, source, target):
        self.source = source
        with rec.span(f"frontends.{source.frontend}") as lower:
            module = source.lower()
        with rec.span("transforms.pipeline") as pipeline:
            self.program = compile_stencil_program(module, target)
        with rec.span("vectorize.compile") as vectorize:
            self.kernel = self.program.compiled_kernel(source.function)
        self.lower_s = lower.seconds
        self.pipeline_s = pipeline.seconds
        self.vectorize_s = vectorize.seconds

    @property
    def compile_s(self) -> float:
        return self.lower_s + self.pipeline_s + self.vectorize_s


_FRONTEND_METRIC = {
    "devito": "frontends.devito_lower_ms",
    "psyclone": "frontends.psyclone_lower_ms",
    "oec": "frontends.oec_build_ms",
}
_PIPELINE_STAGES = {
    "transforms.precodegen_ms": "pipeline.precodegen",
    "transforms.distribute_ms": "pipeline.distribute",
    "transforms.lower_stencil_ms": "pipeline.lower-stencil",
    "transforms.lower_mpi_ms": "pipeline.lower-mpi",
    "transforms.openmp_ms": "pipeline.openmp",
    "transforms.finalize_ms": "pipeline.finalize",
}


def log_compile_layers(log: LayerLog, builds: Sequence[Built]) -> None:
    """Compile-side layer metrics of one set-up or pass.

    Times are means per program; counts (IR ops, regions, nests, fallbacks)
    are totals over the programs, and repeat exactly.
    """
    count = len(builds)
    for frontend, metric in _FRONTEND_METRIC.items():
        own = [b.lower_s for b in builds if b.source.frontend == frontend]
        log.add(metric, 1e3 * sum(own) / len(own) if own else 0.0)
    log.add("transforms.pipeline_ms", _ms(b.pipeline_s for b in builds) / count)
    log.add("vectorize.compile_ms", _ms(b.vectorize_s for b in builds) / count)
    log.add("core.compile_ms", _ms(b.compile_s for b in builds) / count)
    for metric, stage in _PIPELINE_STAGES.items():
        # The pipeline's own stage spans, published on program.compile_record.
        log.add(metric, _ms(
            b.program.compile_record.totals.get(stage, (0, 0.0))[1]
            for b in builds) / count)
    log.add("transforms.ir_ops_out",
            sum(sum(1 for _ in b.program.module.walk()) for b in builds))
    log.add("transforms.stencil_regions",
            sum(b.program.stencil_regions for b in builds))
    log.add("vectorize.nests_compiled", sum(b.kernel.nest_count for b in builds))
    log.add("vectorize.fallbacks",
            sum(len(b.kernel.fallback_reasons) for b in builds))


def log_codegen_counters(log: LayerLog, session: Session) -> None:
    """``megakernel.*`` of ``Session.metrics``, normalised per completed run.

    Process-world plans build their megakernels inside the workers, which the
    parent's registry does not see: those read 0 here.
    """
    metrics = session.metrics
    runs = max(1, metrics.get("runs"))
    log.add("codegen.cache_miss", metrics.get("megakernel.cache_miss"))
    log.add("codegen.cache_hit_per_run", metrics.get("megakernel.cache_hit") / runs)
    log.add("codegen.engaged_per_run", metrics.get("megakernel.engaged") / runs)
    log.add("codegen.fallbacks_per_run", metrics.get("megakernel.fallback") / runs)


def log_inrun_layers(
    log: LayerLog, split: InRunSplit, fractions: Dict[str, Dict[str, float]],
) -> None:
    """``interp.*`` and the timed ``halo.*``/``session.*``/``runtime.*`` rows.

    ``split`` holds the summed ``trace="summary"`` totals of the traced runs;
    ``fractions`` the nesting derived from a ``trace="timeline"`` run.
    """
    per_step_us = 1e6 / max(1, split.steps)
    # A nest's own compute: its total minus the halo spans nested inside it
    # (halo.wait sits inside nest only on the overlapped dmp.swap path).
    nested_halo = sum(
        split.slowest(name) * fractions.get(name, {}).get("nest", 0.0)
        for name in ("halo.wait", "halo.post")
    )
    nest = max(0.0, split.slowest("nest") - nested_halo)
    log.add("interp.nest_us_per_step", nest * per_step_us)
    log.add("interp.nest_interior_share",
            split.slowest("nest.interior") / nest if nest else 0.0)
    log.add("interp.nest_boundary_share",
            split.slowest("nest.boundary") / nest if nest else 0.0)
    step = split.slowest("step")
    log.add("interp.step_share_of_run", step / split.wall if split.wall else 0.0)
    log.add("halo.post_us_per_step", split.mean("halo.post") * per_step_us)
    log.add("halo.wait_us_per_step", split.mean("halo.wait") * per_step_us)
    log.add("halo.wait_max_rank_us", split.slowest("halo.wait") * per_step_us)
    mean_step = split.mean("step")
    log.add("halo.wait_share",
            split.mean("halo.wait") / mean_step if mean_step else 0.0)
    # The slowest rank sets the step.
    log.add("runtime.rank_imbalance", step / mean_step if mean_step else 0.0)
    scatter = split.plan_seconds_per_run("run.scatter")
    gather = split.plan_seconds_per_run("run.gather")
    log.add("session.scatter_us", 1e6 * scatter)
    log.add("session.gather_us", 1e6 * gather)
    log.add("obs.inrun_coverage",
            (step + (scatter + gather) * split.runs) / split.wall
            if split.wall else 0.0)


def log_comm_counters(
    log: LayerLog, before: Dict[str, int], after: Dict[str, int], steps: int,
) -> None:
    """Exact halo/transport counters of the runs between two snapshots.

    The snapshots are ``Session.metrics.snapshot()``; ``steps`` is the number
    of time steps those runs advanced.
    """
    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    steps = max(1, steps)
    runs = max(1, delta("runs"))
    swaps = delta("exec.halo_swaps")
    log.add("halo.msgs_per_step", delta("comm.messages_sent") / steps)
    log.add("halo.bytes_per_step", delta("comm.bytes_sent") / steps)
    log.add("halo.overlapped_ratio",
            delta("exec.halo_swaps_overlapped") / swaps if swaps else 0.0)
    log.add("runtime.bytes_elided", delta("comm.bytes_elided") / runs)
    log.add("runtime.shared_blocks_reused",
            delta("comm.shared_blocks_reused") / runs)


def triad_gbs(elements: int, seconds: float = 0.4) -> float:
    """NumPy ``a = b + s*c`` on ``elements`` doubles, STREAM byte counting.

    A same-process, same-array-size yardstick for ``kernel.eff_gbs`` — not a
    DRAM roofline: the arrays are the workload's field size, which the
    VM-shared last-level cache can hold.
    """
    b = np.full(elements, 1.0)
    c = np.full(elements, 2.0)
    rates = []
    deadline = time.perf_counter() + seconds
    while len(rates) < 3 or time.perf_counter() < deadline:
        began = time.perf_counter()
        a = b + 3.0 * c
        rates.append(24.0 * elements / (time.perf_counter() - began) / 1e9)
        del a
    return median(rates)


