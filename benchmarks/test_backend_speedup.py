"""The megakernel vs the tree-walking interpreter on the paper's CPU kernels.

The whole point of the shared stack is that the *same* lowered program runs
fast; this benchmark pins the speedup of the one compiled tier — the
megakernel with its vectorized nests — on every nest shape the vectorizer
covers:

* the fig. 7a heat kernels (2D, space orders 2/4/8), untiled *and*
  cache-tiled (the ``min``-clamped ``convert-stencil-to-scf{tile}`` output);
* an ``scf.reduce`` sum-of-squares nest (NumPy reduction with the tree
  walker's deterministic fold);
* the ``merge()``-masked PsyClone tracer kernel (``cmpf``/``select`` chains
  compiled to ``np.where`` trees).

Each must be at least 10x faster than the per-cell tree walker while
producing bit-identical outputs.  ``benchmarks/bench_regression.py`` replays
this file in CI and fails the build when any speedup drops below the floors
committed in ``benchmarks/baseline.json``.
"""

import statistics
import time

import numpy as np
import pytest

from bench_helpers import attach_rows
from repro.core import Session, compile_stencil_program, cpu_target, default_session, dmp_target
from repro.core.rank import megakernel_for
from repro.dialects import arith
from repro.interp import CompiledMegakernel
from repro.workloads import heat_diffusion, masked_tracer_advection

GRID = (64, 64)
TIMESTEPS = 3
MIN_SPEEDUP = 10.0


def _compiled_heat(space_order):
    workload = heat_diffusion(GRID, space_order=space_order, dtype=np.float64)
    workload.initialise(seed=space_order)
    operator = workload.operator(backend="xdsl")
    program = operator.compile(workload.dt)
    return program, operator._field_arguments()


def _run_once(program, call_args, function, backend):
    """One-shot execution: plan, run, close on the default session."""
    return default_session().run(
        program, list(call_args), function=function, backend=backend
    )


def _assert_engaged(program):
    """The compiled rows must time a megakernel, not a tree-walker fallback."""
    assert any(
        isinstance(entry, CompiledMegakernel)
        for entry in program._megakernel_cache.values()
    ), "no megakernel ran"


def _time_backend(program, fields, backend, repeats=1):
    best = float("inf")
    outputs = None
    for _ in range(repeats):
        arrays = [field.copy() for field in fields]
        start = time.perf_counter()
        _run_once(program, [*arrays, TIMESTEPS], "kernel", backend)
        best = min(best, time.perf_counter() - start)
        outputs = arrays
    return best, outputs


@pytest.mark.benchmark(group="backend-speedup")
@pytest.mark.parametrize("space_order", [2, 4, 8])
def test_vectorized_backend_speedup(benchmark, space_order):
    program, fields = _compiled_heat(space_order)
    # Warm the nest-compilation cache so both timings measure pure execution.
    program.compiled_kernel("kernel")

    interp_time, interp_fields = _time_backend(program, fields, "interpreter")
    vector_time, vector_fields = benchmark(
        lambda: _time_backend(program, fields, "vectorized", repeats=3)
    )

    for a, b in zip(interp_fields, vector_fields):
        assert np.array_equal(a, b), "backends diverged"
    _assert_engaged(program)

    speedup = interp_time / vector_time
    attach_rows(
        benchmark,
        "backend-speedup",
        [
            {
                "kernel": f"heat2d-so{space_order}",
                "shape": list(GRID),
                "backend": "vectorized",
                "timesteps": TIMESTEPS,
                "interpreter_s": interp_time,
                "vectorized_s": vector_time,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"the megakernel is only {speedup:.1f}x faster than the "
        f"interpreter on heat2d-so{space_order} (need >= {MIN_SPEEDUP}x)"
    )


def _assert_and_attach(benchmark, name, kernel, shape, program, make_args,
                       function, steps=None):
    """Time both backends on one program, assert >= 10x, attach the row.

    ``steps`` (when given) is appended to the arguments produced by
    ``make_args``; kernels without a timestep argument pass None.
    """
    program.compiled_kernel(function)  # warm the nest-compilation cache

    def run(backend, repeats=1):
        best = float("inf")
        outputs = None
        for _ in range(repeats):
            arrays = make_args()
            call_args = arrays if steps is None else [*arrays, steps]
            start = time.perf_counter()
            _run_once(program, call_args, function, backend)
            best = min(best, time.perf_counter() - start)
            outputs = arrays
        return best, outputs

    interp_time, interp_fields = run("interpreter")
    vector_time, vector_fields = benchmark(lambda: run("vectorized", repeats=3))
    for a, b in zip(interp_fields, vector_fields):
        assert np.array_equal(a, b), "backends diverged"
    _assert_engaged(program)
    speedup = interp_time / vector_time
    attach_rows(
        benchmark,
        name,
        [
            {
                "kernel": kernel,
                "shape": list(shape),
                "backend": "vectorized",
                "timesteps": 1 if steps is None else steps,
                "interpreter_s": interp_time,
                "vectorized_s": vector_time,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"the megakernel is only {speedup:.1f}x faster than the "
        f"interpreter on {kernel} (need >= {MIN_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="backend-speedup")
def test_tiled_heat_kernel_speedup(benchmark):
    """The min-clamped tiled stencil_to_scf output must vectorize, not tree-walk."""
    workload = heat_diffusion(GRID, space_order=4, dtype=np.float64)
    workload.initialise(seed=4)
    operator = workload.operator(backend="xdsl")
    module = operator.stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, cpu_target(tile_sizes=(16, 16)))
    kernel = program.compiled_kernel("kernel")
    assert kernel.nest_count >= 1, kernel.fallback_reasons
    fields = operator._field_arguments()
    _assert_and_attach(
        benchmark, "backend-speedup", "heat2d-so4-tiled16", GRID, program,
        lambda: [field.copy() for field in fields], "kernel", TIMESTEPS,
    )


@pytest.mark.benchmark(group="backend-speedup")
def test_reduce_nest_speedup(benchmark):
    """scf.reduce nests must compile to NumPy reductions, not per-cell folds."""
    from repro.core.pipeline import CompiledProgram
    from repro.machine.kernel_model import characterize_module
    from tests.conftest import build_reduce_module

    n = 96
    module = build_reduce_module(n, arith.AddfOp, 0.0)
    program = CompiledProgram(
        module=module,
        target=cpu_target(),
        characteristics=characterize_module(module),
        stencil_regions=0,
    )
    rng = np.random.default_rng(11)
    data = rng.standard_normal((n, n))
    _assert_and_attach(
        benchmark, "backend-speedup", f"reduce-sum-{n}x{n}", (n, n), program,
        lambda: [data.copy(), np.zeros(1)], "kernel",
    )


@pytest.mark.benchmark(group="session-plan")
def test_session_plan_hotpath_speedup(benchmark):
    """A held plan must beat re-planning per call on back-to-back runs.

    The serving scenario of the Session API: the same small-grid distributed
    program executed many times on one held :class:`repro.core.Session`.
    ``Session.run`` plans, runs and disposes per call — slice plans and local
    buffers are rebuilt every time — while a held :class:`repro.core.Plan`
    only scatters, executes and gathers.  Both go through the same
    rank-execution path and share what the compiled program caches (kernels,
    traces, megakernels), so the ratio is exactly what holding the plan
    amortizes.  Calls are timed one by one in interleaved pairs and compared
    by their medians, which stays put through this box's slow spells.
    Results must stay bit-identical with matching statistics (asserted here;
    the full {threads, processes} x {1, 2 threads_per_rank} parity matrix
    lives in tests/test_session_api.py).
    """
    steps, pairs = 2, 200
    workload = heat_diffusion((16, 16), space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    program = compile_stencil_program(module, dmp_target((2, 1)))

    def fields():
        u0 = np.zeros((18, 18))
        u0[8:10, 8:10] = 1.0
        return [u0, u0.copy()]

    def timed(run, arrays):
        start = time.perf_counter()
        run(arrays)
        return time.perf_counter() - start

    with Session() as session:
        plan = session.plan(program)

        def run_once(arrays):
            return session.run(program, arrays, [steps])

        def run_plan(arrays):
            return plan.run(arrays, [steps])

        once_fields, plan_fields = fields(), fields()
        once_result, plan_result = run_once(once_fields), run_plan(plan_fields)
        for mine, theirs in zip(plan_fields, once_fields):
            assert np.array_equal(mine, theirs), "plan diverged from Session.run"
        assert plan_result.statistics == once_result.statistics
        assert plan_result.comm_statistics == once_result.comm_statistics

        once_times, plan_times = [], []
        for _ in range(pairs):
            once_times.append(timed(run_once, fields()))
            plan_times.append(timed(run_plan, fields()))
        once_s = statistics.median(once_times)
        plan_s = statistics.median(plan_times)

        def measured():
            return once_s, plan_s

        benchmark(measured)
    speedup = once_s / plan_s
    attach_rows(
        benchmark,
        "session-plan",
        [
            {
                "kernel": "session-plan-hotpath",
                "shape": [16, 16],
                "backend": "auto",
                "ranks": [2, 1],
                "threads_per_rank": 1,
                "timesteps": steps,
                "session_run_s": once_s,
                "plan_s": plan_s,
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 1.05, (
        f"plan.run() hot path is only {speedup:.2f}x faster than Session.run "
        "on the same session on back-to-back runs (need >= 1.05x)"
    )


@pytest.mark.benchmark(group="backend-speedup")
def test_masked_tracer_kernel_speedup(benchmark):
    """merge()-masked PsyClone tracer kernels must vectorize end-to-end."""
    shape = (16, 16, 8)
    workload = masked_tracer_advection(shape, iterations=2, computations=6)
    module = workload.build_module(dtype=np.float64)
    program = compile_stencil_program(module, cpu_target())
    function = workload.schedule.name
    kernel = program.compiled_kernel(function)
    assert kernel.nest_count == 6, kernel.fallback_reasons
    arrays = workload.arrays(halo=1, dtype=np.float64, seed=29)
    names = workload.schedule.array_names()
    _assert_and_attach(
        benchmark, "backend-speedup", "traadv-masked", shape, program,
        lambda: [arrays[name].copy() for name in names], function,
        workload.iterations,
    )


@pytest.mark.benchmark(group="megakernel")
def test_megakernel_dispatch_speedup(benchmark):
    """The megakernel of the dispatch-bound regime matches the tree walker.

    A small grid (16x16) advanced for many timesteps, where per-step
    dispatch would dominate the arithmetic: ``plan.run()`` is a single call
    into one straight-line fused Python function.  There is no second
    compiled tier left to divide by, so this row keeps the contract, not a
    floor: fields and statistics bit-identical to the tree walker (the full
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
        assert session.metrics.get("megakernel.engaged") >= 1
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


@pytest.mark.benchmark(group="megakernel")
def test_trace_overhead(benchmark):
    """Trace-off plan.run() must stay within 3% of the raw megakernel call.

    Every observability hook of repro.obs is gated on ``tracer is None``,
    and the megakernel emitter produces no span bookkeeping at all when the
    run is untraced — so the full trace-off dispatch path (plan.run with
    its hook sites, metrics ingestion and trace-attachment early-outs) must
    stay within 3% of calling the generated megakernel function directly on
    a 16x16/2000-step heat run.  The run is long enough that the megakernel
    body dominates and the plan's fixed per-run dispatch cost (scatter and
    gather copies, which predate tracing) stays below the 3% budget, so the
    floor pins the "near-zero overhead when off" contract of the tracing
    layer rather than timer noise on a microsecond-scale call.
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

        assert megakernel.run([*raw_fields, steps], ExecStatistics(), None)
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
        # sampling pairs (bounded) until the floor is met, and fail only if
        # it never is.
        raw_best = off_best = float("inf")
        for pair in range(max_pairs):
            start = time.perf_counter()
            megakernel.run([*fields(), steps], ExecStatistics(), None)
            raw_best = min(raw_best, time.perf_counter() - start)
            start = time.perf_counter()
            plan.run(fields(), [steps])
            off_best = min(off_best, time.perf_counter() - start)
            if pair + 1 >= min_pairs and raw_best / off_best >= 0.97:
                break

        def measured():
            return raw_best, off_best

        benchmark(measured)
    speedup = raw_best / off_best
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
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 0.97, (
        f"trace-off plan.run() dispatch is {1 / speedup:.3f}x the raw "
        "megakernel call on the dispatch-bound run (must stay within 3%)"
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
    """The emitted wave3d so4 kernel must stay within reach of a hand-written one.

    Unlike the other rows of this file this is not a ratio between two of the
    repository's own tiers: the mark is a blocked, in-place NumPy kernel
    written by hand.  ``speedup`` = hand-written time / generated time on
    64^3, medians of interleaved calls of the raw megakernel; 1.0 means the
    generator does as well as a person.  Both must agree bit for bit.

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
            assert megakernel.run([*arrays, steps], ExecStatistics(), None)

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

    speedup = hand_s / generated_s
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
                "speedup": speedup,
            }
        ],
    )
    assert speedup >= 0.7, (
        f"the generated wave3d so4 kernel takes {1 / speedup:.2f}x the time "
        "of the hand-written blocked one (must stay within 1/0.7)"
    )
