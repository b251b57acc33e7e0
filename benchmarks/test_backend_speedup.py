"""The megakernel against two marks the ledger cannot see, and its artifacts.

Three benchmarks of the one compiled tier, each asserting bit identity; two
attach a measured row for ``benchmarks/bench_regression.py``, which compares
it with the floor committed in ``benchmarks/baseline.json`` (the only place
a floor is written):

* ``test_megakernel_dispatch_speedup`` — the dispatch-bound 16x16 heat run,
  bit-identical to the tree walker; no row, it writes the generated source
  for the CI artifact;
* ``test_trace_overhead`` — trace-off ``plan.run()`` over the raw
  megakernel call (row ``trace-overhead``);
* ``test_generated_wave_kernel_against_a_hand_written_one`` — a blocked
  wave3d so4 kernel written by hand over the generated one (row
  ``kernel-yardstick``).

``test_compile_pass_times_artifact`` and
``test_pinned_megakernel_sources_artifact`` time nothing and attach no row:
they write the per-pass compile times of the pinned programs and the source
of every pinned megakernel for the CI artifact.

Whether a nest fell back to the tree walker is not timed here: it is
counted, exactly, by ``tests/test_megakernel.py::
test_every_compiled_program_engages`` (``megakernel.engaged`` /
``megakernel.fallback`` and ``MegakernelTrace.walked_nests``).
"""

import statistics
import time

import numpy as np
import pytest

from bench_helpers import attach_rows, baseline_floor
from repro.core import Session, compile_stencil_program, cpu_target
from repro.core.rank import megakernel_for
from repro.interp import CompiledMegakernel
from repro.workloads import heat_diffusion
from tests.conftest import assert_engaged


@pytest.mark.benchmark(group="megakernel")
def test_megakernel_dispatch_speedup(benchmark):
    """The megakernel of the dispatch-bound regime matches the tree walker.

    A small grid (16x16) advanced for many timesteps, where per-step
    dispatch would dominate the arithmetic: ``plan.run()`` is a single call
    into one straight-line fused Python function.  There is no second
    compiled tier left to divide by, so it keeps the contract and attaches
    no row: the megakernel engaged with its nest fused, and fields and
    statistics bit-identical to the tree walker (the full
    {threads, processes} x {1, 2 threads_per_rank} parity matrix lives in
    tests/test_megakernel.py), and the generated source written to
    ``.bench_build/megakernel_source.py`` so the CI bench job can upload it
    as an inspectable artifact.
    """
    import dataclasses
    import pathlib

    steps = 20
    workload = heat_diffusion((16, 16), space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target())

    def fields():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        return [u0, u0.copy()]

    def how_free(result):
        return [dataclasses.replace(s, ops_executed=0) for s in result.statistics]

    with Session() as session:
        mega_fields = fields()
        start = time.perf_counter()
        mega_result = session.run(program, mega_fields, [steps])
        mega_s = time.perf_counter() - start
        benchmark(lambda: mega_s)
        walked_fields = fields()
        walked_result = session.run(
            program, walked_fields, [steps], codegen="planned")
        assert_engaged(session, program, ranks=1)
    for mine, theirs in zip(mega_fields, walked_fields):
        assert np.array_equal(mine, theirs), "megakernel diverged from the tree walker"
    assert how_free(mega_result) == how_free(walked_result)

    sources = [
        entry.source for entry in program._megakernel_cache.values()
        if isinstance(entry, CompiledMegakernel)
    ]
    assert sources, "no megakernel was emitted"
    artifact = pathlib.Path(".bench_build", "megakernel_source.py")
    artifact.parent.mkdir(exist_ok=True)
    artifact.write_text("\n\n".join(sources), encoding="utf-8")


def test_compile_pass_times_artifact():
    """The ``pass.*`` milliseconds of the 18 pinned programs' compile records.

    Written to ``.bench_build/compile_passes.txt`` (one line per program and
    target of ``tests/test_pipeline.py``) so the CI bench job uploads
    compile-time drift with every change; no row, so no floor.
    """
    import pathlib

    from tests.test_pipeline import EVERY_PROGRAM_AND_TARGET, PROGRAMS, _target

    lines = []
    for program_name, target_name in EVERY_PROGRAM_AND_TARGET:
        build, ndim = PROGRAMS[program_name]
        program = compile_stencil_program(build(), _target(target_name, ndim))
        passes = [(name[len("pass."):], seconds)
                  for name, (_, seconds) in program.compile_record.totals.items()
                  if name.startswith("pass.")]
        assert passes, f"{program_name}/{target_name} recorded no pass span"
        lines.append(f"{program_name}/{target_name} " + " ".join(
            f"{name}={1e3 * seconds:.3f}" for name, seconds in passes))
    artifact = pathlib.Path(".bench_build", "compile_passes.txt")
    artifact.parent.mkdir(exist_ok=True)
    artifact.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_pinned_megakernel_sources_artifact():
    """The sources ``tests/test_megakernel.py::MEGAKERNEL_FINGERPRINTS`` pins,
    and the schedules they are printed from.

    The sources are written to ``.bench_build/pinned_megakernels.txt``, each
    under a ``# === <key> <fingerprint>`` line, so that a change of
    fingerprint can be reviewed as the code it is; each rank's
    ``KernelSchedule`` (its dataclass repr, formatted) to
    ``.bench_build/pinned_schedules.txt`` under ``# === <fixture>/r<rank>``,
    so that a change of schedule can be reviewed as data; no row, so no
    floor.
    """
    import hashlib
    import pathlib
    import pprint

    from repro.interp.schedule import plan_megakernel
    from tests.test_megakernel import (
        MEGAKERNEL_FINGERPRINTS, _PINNED_KERNELS, _pinned_program, _trace_and_layout,
        pinned_megakernels,
    )

    sections, schedules = [], []
    for fixture in sorted(_PINNED_KERNELS):
        for key, kernel in pinned_megakernels(fixture):
            digest = hashlib.sha256(kernel.source.encode()).hexdigest()[:16]
            sections.append(f"# === {key} {digest}\n{kernel.source}")
        *_, size, threads = _PINNED_KERNELS[fixture]
        trace, layout = _trace_and_layout(_pinned_program(fixture))
        for rank in range(size):
            schedule = plan_megakernel(trace, layout, rank, size, threads)
            schedules.append(f"# === {fixture}/r{rank}\n{pprint.pformat(schedule, width=100)}\n")
    assert len(sections) == len(MEGAKERNEL_FINGERPRINTS)
    pathlib.Path(".bench_build").mkdir(exist_ok=True)
    pathlib.Path(".bench_build", "pinned_megakernels.txt").write_text(
        "\n".join(sections), encoding="utf-8")
    pathlib.Path(".bench_build", "pinned_schedules.txt").write_text(
        "\n".join(schedules), encoding="utf-8")


@pytest.mark.benchmark(group="megakernel")
def test_trace_overhead(benchmark):
    """Trace-off plan.run() against the raw megakernel call (``trace-overhead``).

    Every observability hook of repro.obs is gated on ``tracer is None``,
    and the megakernel emitter produces no span bookkeeping at all when the
    run is untraced — so the full trace-off dispatch path (plan.run with
    its hook sites, metrics ingestion and trace-attachment early-outs)
    should cost about what calling the generated megakernel function
    directly does on a 16x16/2000-step heat run.  The run is long enough
    that the megakernel body dominates the plan's fixed per-run dispatch
    cost (scatter and gather copies, which predate tracing), so the row
    measures the "near-zero overhead when off" contract of the tracing
    layer rather than timer noise on a microsecond-scale call.  Asserted
    here: untraced source and bit identity; the ratio's floor is
    ``bench_regression.py``'s to enforce.
    """
    from repro.interp.interpreter import ExecStatistics

    steps, min_pairs, max_pairs = 2000, 12, 60
    shape = (16, 16)
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target())

    def fields():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        return [u0, u0.copy()]

    with Session(trace="off") as session:
        plan = session.plan(program)
        raw_fields = fields()
        megakernel = megakernel_for(
            program, plan.compile(), plan.config, [*raw_fields, steps]
        )
        # Untraced emission carries zero observability bookkeeping.
        assert "_tracer" not in megakernel.source

        assert megakernel.start([*raw_fields, steps], ExecStatistics(), None) is not None
        plan_fields = fields()
        plan.run(plan_fields, [steps])
        for mine, theirs in zip(plan_fields, raw_fields):
            assert np.array_equal(mine, theirs), (
                "plan.run diverged from the raw megakernel call"
            )

        # Call-by-call interleaving with best-of-single-call minima: both
        # paths sample the same machine conditions, so CPU-frequency drift
        # or a noisy neighbour shifts both minima together instead of
        # skewing the ratio.  A minimum only converges from above, so one
        # disturbed stretch can leave either estimate too high: keep
        # sampling pairs (bounded) until the committed floor is met.
        floor = baseline_floor("trace-overhead")
        raw_best = off_best = float("inf")
        for pair in range(max_pairs):
            start = time.perf_counter()
            megakernel.start([*fields(), steps], ExecStatistics(), None)
            raw_best = min(raw_best, time.perf_counter() - start)
            start = time.perf_counter()
            plan.run(fields(), [steps])
            off_best = min(off_best, time.perf_counter() - start)
            if pair + 1 >= min_pairs and raw_best / off_best >= floor:
                break

        def measured():
            return raw_best, off_best

        benchmark(measured)
    attach_rows(
        benchmark,
        "megakernel",
        [
            {
                "kernel": "trace-overhead",
                "shape": list(shape),
                "backend": "auto",
                "ranks": 1,
                "threads_per_rank": 1,
                "timesteps": steps,
                "raw_megakernel_s": raw_best,
                "trace_off_s": off_best,
                "speedup": raw_best / off_best,
            }
        ],
    )


# ---------------------------------------------------------------------------
# an external mark: the wave3d so4 step written by hand
# ---------------------------------------------------------------------------

#: Cells per block of the hand-written kernel: three scratch values and the
#: planes they are computed from stay inside a 4 MiB L2.
YARDSTICK_BLOCK_CELLS = 32 * 1024


def wave3d_so4_yardstick(buffers, steps, dt, velocity, spacing):
    """``u.dt2 = c^2 * u.laplace``, fourth order in space, leapfrog in time.

    Written against the equation, not derived from the emitter: per block of
    outermost planes, each axis' five-point second derivative is accumulated
    in place, the three are summed, and the update is written straight into
    the next time level.  Every intermediate lives in one of three
    block-sized scratch arrays.  Terms are associated as the equation spells
    them (each derivative left to right, x + y + z, ``2u - u_prev`` first),
    so the result is comparable bit for bit.
    """
    from repro.frontends.devito.symbolic import central_difference_coefficients

    taps = central_difference_coefficients(2, 4)
    radius = taps[-1][0]
    prev, cur, nxt = buffers
    core = tuple(extent - 2 * radius for extent in cur.shape)
    planes = max(1, YARDSTICK_BLOCK_CELLS // (core[1] * core[2]))
    laplace, line, term = (np.empty((planes,) + core[1:]) for _ in range(3))
    weights = [
        [coefficient * (1.0 / h ** 2) for _, coefficient in taps] for h in spacing
    ]

    def shifted(array, start, stop, axis=0, by=0):
        """The block's cells of ``array``, moved ``by`` cells along ``axis``."""
        window = [slice(start + radius, stop + radius),
                  slice(radius, radius + core[1]), slice(radius, radius + core[2])]
        window[axis] = slice(window[axis].start + by, window[axis].stop + by)
        return array[tuple(window)]

    for _ in range(steps):
        for start in range(0, core[0], planes):
            stop = min(start + planes, core[0])
            lap, acc, tmp = (s[: stop - start] for s in (laplace, line, term))
            for axis in range(3):
                total = lap if axis == 0 else acc
                for (offset, _), weight in zip(taps, weights[axis]):
                    into = total if offset == -radius else tmp
                    np.multiply(weight, shifted(cur, start, stop, axis, offset), out=into)
                    if into is tmp:
                        np.add(total, tmp, out=total)
                if axis:
                    np.add(lap, acc, out=lap)
            np.multiply(velocity ** 2, lap, out=lap)
            np.multiply(dt * dt, lap, out=lap)
            np.multiply(2.0, shifted(cur, start, stop), out=tmp)
            np.subtract(tmp, shifted(prev, start, stop), out=tmp)
            np.add(tmp, lap, out=shifted(nxt, start, stop))
        prev, cur, nxt = cur, nxt, prev


@pytest.mark.benchmark(group="kernel-yardstick")
def test_generated_wave_kernel_against_a_hand_written_one(benchmark):
    """The emitted wave3d so4 kernel against a hand-written one (``kernel-yardstick``).

    Not a ratio between two of the repository's own tiers: the mark is a
    blocked, in-place NumPy kernel written by hand.  ``speedup`` =
    hand-written time / generated time on 64^3, medians of interleaved calls
    of the raw megakernel; 1.0 means the generator does as well as a person.
    Both must agree bit for bit; the floor is ``bench_regression.py``'s.

    The generated kernel is written to ``.bench_build/wave3d_so4_kernel.py``
    for the CI artifact.
    """
    import pathlib

    from repro.interp.interpreter import ExecStatistics
    from repro.workloads import acoustic_wave

    shape, steps, pairs = (64, 64, 64), 4, 9
    workload = acoustic_wave(shape, space_order=4, dtype=np.float64)
    workload.initialise(seed=7)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target())
    data = workload.function.data_with_halo
    data[1] *= 0.5  # no two time levels start out equal

    def fields():
        return [data[level].copy() for level in range(3)]

    def by_hand(arrays):
        # The frontend hands the kernel (t, t-1, t+1); the equation reads
        # (t-1, t, t+1).
        wave3d_so4_yardstick(
            (arrays[1], arrays[0], arrays[2]), steps, workload.dt, 1.5,
            workload.grid.spacing,
        )

    with Session() as session:
        plan = session.plan(program)
        megakernel = megakernel_for(
            program, plan.compile(), plan.config, [*fields(), steps])

        def generated(arrays):
            assert megakernel.start([*arrays, steps], ExecStatistics(), None) is not None

        mine, theirs = fields(), fields()
        by_hand(mine)
        generated(theirs)
        for a, b in zip(mine, theirs):
            assert np.array_equal(a, b), "hand-written kernel diverged"

        hand_times, generated_times = [], []
        for _ in range(pairs):
            for run, times in ((by_hand, hand_times), (generated, generated_times)):
                arrays = fields()
                start = time.perf_counter()
                run(arrays)
                times.append(time.perf_counter() - start)
        hand_s = statistics.median(hand_times)
        generated_s = statistics.median(generated_times)

        def measured():
            return hand_s, generated_s

        benchmark(measured)

    artifact = pathlib.Path(".bench_build", "wave3d_so4_kernel.py")
    artifact.parent.mkdir(exist_ok=True)
    artifact.write_text(megakernel.source, encoding="utf-8")

    attach_rows(
        benchmark,
        "kernel-yardstick",
        [
            {
                "kernel": "kernel-yardstick",
                "shape": list(shape),
                "backend": "auto",
                "timesteps": steps,
                "hand_written_s": hand_s,
                "generated_s": generated_s,
                "speedup": hand_s / generated_s,
            }
        ],
    )
