"""Bit-identity, engagement and fallback tests of the megakernel.

The megakernel codegen layer (repro.interp.codegen) traces a plan's function
once and emits a single fused Python function, walking in place what it
cannot fuse.  These tests pin its contract: the generated function is
*bit-identical* to the tree walker — fields, ExecStatistics and
CommStatistics, up to the two counters that say how a run went — across the
{local, threads, processes} x {auto, planned} x {1, 2 threads_per_rank}
matrix; every traffic class of the stack engages it; a swap fuses the same
way in both its spellings (``dmp.swap`` and the ``MPI_*`` group lowered from
it); and every rejection (trace-time or emit-time) carries an explicit
fallback reason string.
"""

import dataclasses
import hashlib
import itertools
import math
import pickle
import threading
import time
import unittest.mock

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    ExecutionError,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
    fpga_target,
    gpu_target,
)
from repro.dialects import arith, builtin, func, memref, scf
from repro.dialects.dmp import declared_exchanges
from repro.core.rank import codegen_wanted, megakernel_for, megakernel_trace, run_blocking
from repro.interp import (
    CodegenError,
    CodegenFallback,
    CompiledMegakernel,
    ExecStatistics,
    Interpreter,
    MegakernelTrace,
    compile_kernel,
    emit_megakernel,
    megakernel_signature,
    trace_program,
)
from repro.interp import nestplan
from repro.interp.nestplan import FusedNest, operand_refs
from repro.interp.schedule import (
    Complete, Island, Nest, Post, Swap, plan_megakernel, print_python,
)
from repro.interp.interpreter import swap_message_plan
from repro.interp.thread_team import ThreadTeam
from repro.interp.values import numpy_dtype_for
from repro.ir import Builder, FunctionType, MemRefType, f64, i64, index
from repro.runtime import processes_available
from repro.transforms.distribute import ConvertDMPToMPIPass
from repro.transforms.mpi import ConvertMPIToFuncPass
from repro.workloads import (
    acoustic_wave,
    heat_diffusion,
    masked_tracer_advection,
    tracer_advection,
)
from tests.conftest import (
    assert_engaged,
    build_jacobi_module,
    build_reduce_module,
    run_compiled,
)

needs_processes = pytest.mark.skipif(
    not processes_available(), reason="process runtime unavailable on this platform"
)


@pytest.fixture(scope="module")
def session():
    """One session (one worker pool) for the whole parity matrix."""
    with Session() as shared:
        yield shared


def _megakernels(program):
    """The emitted entries of the program's one megakernel cache."""
    return [
        entry for entry in program._megakernel_cache.values()
        if isinstance(entry, CompiledMegakernel)
    ]


def _compile_heat(rank_grid, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, dmp_target(rank_grid))


def _walker_view(statistics):
    """Per-rank statistics without the two counters that say how a run went:
    the tree walker dispatches ops per cell and never overlaps a halo."""
    return [
        dataclasses.replace(s, ops_executed=0, halo_swaps_overlapped=0)
        for s in statistics
    ]


def _heat_fields(shape=(18, 18)):
    u0 = np.zeros(shape)
    u0[shape[0] // 2 - 1: shape[0] // 2 + 1,
       shape[1] // 2 - 1: shape[1] // 2 + 1] = 1.0
    return [u0, u0.copy()]


# ---------------------------------------------------------------------------
# ExecutionConfig validation
# ---------------------------------------------------------------------------

class TestCodegenConfig:
    def test_default_is_auto(self):
        assert ExecutionConfig().codegen == "auto"

    @pytest.mark.parametrize("value", ["jit", "fused", 1, None])
    def test_unknown_codegen_mode(self, value):
        with pytest.raises(ExecutionError, match="unknown codegen mode"):
            ExecutionConfig(codegen=value)

    def test_megakernel_is_not_a_codegen_mode(self):
        """The megakernel is what "auto" runs; there is nothing to force."""
        with pytest.raises(ExecutionError, match="unknown codegen mode"):
            ExecutionConfig(codegen="megakernel")

    def test_auto_with_interpreter_backend_is_fine(self):
        config = ExecutionConfig(backend="interpreter")
        assert config.codegen == "auto"

    def test_planned_is_the_tree_walker_backend(self):
        """"planned" asks for the walker whatever the backend says."""
        config = ExecutionConfig(codegen="planned")
        assert not codegen_wanted(config)

    def test_auto_override_on_a_planned_config_runs_the_megakernel(self):
        """A plan's ``codegen="auto"`` undoes its session's "planned"."""
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        with Session(codegen="planned") as session:
            plan = session.plan(program, codegen="auto")
            plan.run(_jacobi_fields(), [4])
            assert session.metrics.get("megakernel.engaged") == 1
            assert plan.codegen_fallback is None
            session.plan(program).run(_jacobi_fields(), [4])
            assert session.metrics.get("megakernel.engaged") == 1

    def test_vectorized_is_not_a_backend(self):
        """Fusion is counted (``megakernel.*``, ``walked_nests``), not forced."""
        with pytest.raises(ExecutionError, match="unknown execution backend"):
            ExecutionConfig(backend="vectorized")


# ---------------------------------------------------------------------------
# bit-identity vs the tree walker
# ---------------------------------------------------------------------------

def _jacobi_fields():
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    return [data.copy(), data.copy()]


#: world -> (program factory, fresh-fields factory, steps)
WORLDS = {
    "local": (
        lambda: compile_stencil_program(build_jacobi_module(), cpu_target()),
        _jacobi_fields, 4,
    ),
    "threads": (lambda: _compile_heat((2, 2)), _heat_fields, 3),
    "processes": (lambda: _compile_heat((2, 2)), _heat_fields, 3),
}


@pytest.mark.parametrize("threads_per_rank", [1, 2])
@pytest.mark.parametrize("codegen", ["auto", "planned"])
@pytest.mark.parametrize("world", [
    "local", "threads", pytest.param("processes", marks=needs_processes),
])
def test_every_tier_matches_the_interpreter_loop(
    session, world, codegen, threads_per_rank
):
    """Every (world, codegen, team) cell == the flat tree walker of the
    thread world, whose ``dmp.swap`` blocks: fields and both statistics."""
    compile_program, make_fields, steps = WORLDS[world]
    program = compile_program()
    base_fields = make_fields()
    baseline = session.run(
        program, base_fields, [steps], runtime="threads", codegen="planned",
    )
    assert all(s.halo_swaps_overlapped == 0 for s in baseline.statistics)
    plan = session.plan(
        program, runtime="threads" if world == "local" else world,
        codegen=codegen, threads_per_rank=threads_per_rank,
    )
    for repeat in range(3):  # repeated runs reuse the kernel and must agree
        fields = make_fields()
        result = plan.run(fields, [steps])
        for mine, theirs in zip(fields, base_fields):
            assert np.array_equal(mine, theirs), (
                f"{world} {codegen} x{threads_per_rank} "
                f"repeat {repeat}: fields diverged from the tree walker"
            )
        assert _walker_view(result.statistics) == _walker_view(baseline.statistics)
        assert result.comm_statistics == baseline.comm_statistics
    if codegen == "auto":
        assert isinstance(plan.compile(), MegakernelTrace)
        assert plan.codegen_fallback is None
        if world != "processes":
            assert _megakernels(program), "the megakernel must actually have run"
    plan.close()


def test_auto_codegen_engages_and_caches_per_rank():
    """Held distributed plans engage codegen by default and cache per rank."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads") as session:
        plan = session.plan(program)
        assert codegen_wanted(plan.config)
        assert isinstance(plan.compile(), MegakernelTrace)
        fields = _heat_fields()
        plan.run(fields, [3])
        assert plan.codegen_fallback is None
        # one emitted kernel per rank of the 2x2 grid, cached on the program
        assert len(_megakernels(program)) == 4
        assert session.metrics.get("megakernel.cache_miss") == 4
        assert session.metrics.get("megakernel.engaged") == 4
        # a second run re-uses the cache instead of re-emitting
        plan.run(_heat_fields(), [3])
        assert len(_megakernels(program)) == 4
        assert session.metrics.get("megakernel.cache_miss") == 4
        assert session.metrics.get("megakernel.cache_hit") == 4
    # ... and so does a second session running the same compiled program
    with Session(runtime="threads") as other:
        other.run(program, _heat_fields(), [3])
        assert other.metrics.get("megakernel.cache_miss") == 0
        assert other.metrics.get("megakernel.engaged") == 4


def test_concurrent_cold_lookups_emit_each_kernel_once(monkeypatch):
    """Sessions racing one cold program emit (and count a miss) once per key."""
    from repro.core import rank as rank_module

    emit = rank_module.emit_megakernel

    def slow_emit(*args, **kwargs):
        time.sleep(0.02)  # hold the race window open
        return emit(*args, **kwargs)

    monkeypatch.setattr(rank_module, "emit_megakernel", slow_emit)
    program = _compile_heat((2, 1))
    with Session(runtime="threads") as first, Session(runtime="threads") as second:
        start = threading.Barrier(2)
        fields = [_heat_fields(), _heat_fields()]

        def job(session, arrays):
            start.wait()
            session.run(program, arrays, [2])

        threads = [
            threading.Thread(target=job, args=pair)
            for pair in zip((first, second), fields)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        misses = sum(s.metrics.get("megakernel.cache_miss") for s in (first, second))
        hits = sum(s.metrics.get("megakernel.cache_hit") for s in (first, second))
    assert (misses, hits) == (2, 2)
    assert len(_megakernels(program)) == 2
    assert np.array_equal(fields[0][0], fields[1][0])
    assert np.array_equal(fields[0][1], fields[1][1])


def test_auto_codegen_runs_thread_teams_in_the_megakernel(monkeypatch):
    """With threads_per_rank > 1 each box of a full block per thread deals
    its blocks to local functions of the kernel run on the session's team
    (blocks shrunk here, so that 48 x 96 cells a rank make two)."""
    monkeypatch.setattr(nestplan, "_BLOCK_CELLS", 2048)
    program = _compile_heat((2, 1), shape=(96, 96))
    fields = _heat_fields((98, 98))
    walked = [field.copy() for field in fields]
    with Session(runtime="threads", threads_per_rank=2) as session:
        plan = session.plan(program)
        assert codegen_wanted(plan.config)
        result = plan.run(fields, [2])
        assert plan.codegen_fallback is None
        assert session.metrics.get("megakernel.engaged") == 2
        assert session.counters.thread_teams_created == 1
        reference = session.run(program, walked, [2], codegen="planned")
    kernels = _megakernels(program)
    assert len(kernels) == 2 and all(kernel.uses_team for kernel in kernels)
    assert all("_team.map(_call, (" in kernel.source for kernel in kernels)
    for mine, theirs in zip(fields, walked):
        assert np.array_equal(mine, theirs)
    assert _walker_view(result.statistics) == _walker_view(reference.statistics)


def test_generated_source_is_inspectable():
    """The emitted kernel keeps its python source for dumps and artifacts."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads") as session:
        plan = session.plan(program)
        plan.run(_heat_fields(), [2])
        kernels = _megakernels(program)
        assert len(kernels) == 4
        for kernel in kernels:
            assert "def " in kernel.source
            assert kernel.label


def _wave_program(shape):
    """wave3d so4 on ``shape`` for the cpu target: the workload and program."""
    workload = acoustic_wave(shape, space_order=4, dtype=np.float64)
    return workload, compile_stencil_program(
        workload.operator(backend="xdsl").stencil_module(dt=workload.dt), cpu_target())


def _wave_source(extent):
    """The megakernel source of wave3d so4 on an ``extent``^3 grid, after 1 step."""
    workload, program = _wave_program((extent,) * 3)
    data = workload.function.data_with_halo
    with Session() as session:
        session.plan(program).run([data[k].copy() for k in range(3)], [1])
    (kernel,) = _megakernels(program)
    return kernel.source


def test_source_records_the_blocking_decision_per_box():
    """One comment per box: spelling and why, block shape and count, scratch
    slots x bytes (pitched slots are allocated at the buffers' pitch)."""
    blocked = _wave_source(40)  # 64 000 cells: more than one block
    assert "# box (40, 40, 40): pitched (span 77260 of 64000 cells), " \
        "2 blocks of (20, 40, 40), scratch 5 x 309760 B" in blocked
    assert "for _i0 in range(0, 40, 20):" in blocked
    single = _wave_source(16)
    assert "# box (16, 16, 16): pitched (span 6316 of 4096 cells), " \
        "single block, scratch 5 x 51200 B" in single
    assert "for _i" not in single
    program = _compile_heat((2, 1))  # overlapped: interior + one strip per rank
    with Session(runtime="threads") as session:
        session.plan(program).run(_heat_fields(), [2])
    for kernel in _megakernels(program):
        assert kernel.source.count("# box ") == kernel.source.count(
            "pitched (span ") == 2
        assert kernel.source.count(", single block, scratch ") == 2


def test_wave_kernel_allocates_no_field_sized_temporary():
    """Every op of the so4 wave step writes into scratch or into the field."""
    lines = [line.strip() for line in _wave_source(40).splitlines()]
    assert not [line for line in lines if " = (" in line]  # `_v2 = (2.0 * _v1)`
    arithmetic = [
        line for line in lines if "_np." in line and "_np.empty" not in line
    ]
    assert len(arithmetic) > 30
    assert all(
        line.startswith(("_np.multiply(", "_np.add(", "_np.subtract("))
        and ", out=" in line for line in arithmetic
    )
    assert sum("out=_r" in line for line in arithmetic) == 1  # the store itself


def _trace_and_layout(program):
    """The trace of ``kernel`` and the buffer layout a rank emits it for:
    its local buffers' shapes and dtypes, C-contiguous (nothing is
    allocated), then one step, as :func:`megakernel_signature` spells it."""
    func_op = program.functions["kernel"]
    inputs = func_op.function_type.inputs
    layout = (len(inputs), tuple(
        (index, arg.shape, numpy_dtype_for(arg.element_type).str, True)
        for index, arg in enumerate(inputs) if hasattr(arg, "shape")
    ))
    return trace_program(func_op, program.compiled_kernel("kernel")), layout


def test_block_budget_patches_take_effect(monkeypatch):
    """The cell budgets live where boxes are planned: patching them there
    is what forces block loops and teams onto small grids."""
    from repro.interp import nestplan

    trace, layout = _trace_and_layout(_compile_heat((1, 1)))
    assert "for _i" not in emit_megakernel(trace, layout).source
    assert not emit_megakernel(trace, layout, threads=2).uses_team
    monkeypatch.setattr(nestplan, "_BLOCK_CELLS", 8)
    assert "for _i" in emit_megakernel(trace, layout).source
    assert emit_megakernel(trace, layout, threads=2).uses_team


def _team_sizes(program, threads: int) -> list[int]:
    """How many threads each fused nest of ``program``'s rank-0 kernel deals
    its first box's blocks to, planned from its buffer layout for a team of
    ``threads``."""
    trace, layout = _trace_and_layout(program)
    schedule = plan_megakernel(trace, layout, 0, 1, threads)
    return [step.plan.team for step in (*schedule.pre, *schedule.body, *schedule.post)
            if isinstance(step, Nest)]


def test_a_box_is_dealt_to_at_most_one_thread_per_full_block():
    """kernel-large's 128^3 box (64 blocks) is dealt to every thread; the
    smaller ledger boxes, of fewer than two blocks, stay inline."""
    wave_large = _pinned_program("wave3d-so4-128/cpu")
    assert _team_sizes(wave_large, 1) == [1]
    assert _team_sizes(wave_large, 2) == [2]
    assert _team_sizes(wave_large, 4) == [4]
    for program in (_pinned_program("heat2d-so2-64/dmp(1,1)"),
                    _wave_program((24,) * 3)[1], _wave_program((32,) * 3)[1]):
        sizes = _team_sizes(program, 2)
        assert sizes and set(sizes) == {1}, sizes


@pytest.mark.parametrize("cpus, ranks, threads", [(1, 1, 1), (2, 1, 2), (2, 2, 1), (4, 2, 2)])
def test_the_team_size_defaults_to_the_cpus_each_rank_has(monkeypatch, cpus, ranks, threads):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert ExecutionConfig().team_size(ranks) == threads
    assert ExecutionConfig(threads_per_rank=3).team_size(ranks) == 3
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert ExecutionConfig().team_size(ranks) == threads


def test_a_run_reports_the_team_size_it_resolved(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with Session(runtime="threads") as session:
        one = session.run(_compile_heat((1, 1)), _heat_fields(), [1])
        two = session.run(_compile_heat((2, 1)), _heat_fields(), [1])
        # Neither kernel deals a box to a team: no team was made for them.
        assert session.counters.thread_teams_created == 0
    assert (one.threads_per_rank, two.threads_per_rank) == (2, 1)


def test_a_team_kernel_started_without_a_team_takes_the_process_wide_one():
    """The kernel knows its team size; ``start`` with no team deals its
    blocks to the process-wide team of that size."""
    workload, program = _wave_program((64,) * 3)
    data = np.random.default_rng(3).standard_normal(workload.function.data_with_halo.shape)
    trace = megakernel_trace(program, "kernel")
    outcomes = []
    for threads in (2, 1):
        args = [data[k].copy() for k in range(3)] + [3]
        kernel = megakernel_for(
            program, trace, ExecutionConfig(threads_per_rank=threads), args)
        stats = ExecStatistics()
        run_blocking(None, iter(kernel.start(args, stats, None)))
        assert kernel.team_size == threads and kernel.uses_team == (threads > 1)
        outcomes.append(([a.tobytes() for a in args[:3]], stats))
    assert outcomes[0] == outcomes[1]


class _FirstOnlyTeam:
    """A team whose helpers never start: ``map`` runs the first item alone."""

    def map(self, fn, items):
        return [fn(items[0])]


def test_a_team_thread_alone_finishes_a_box_its_helpers_never_start():
    """A box's blocks are dealt to the team one at a time from a shared
    iterator, not split into fixed shares: when only the caller's function
    runs, it takes every block, and the fields match a run without a team."""
    workload, program = _wave_program((64,) * 3)
    data = np.random.default_rng(3).standard_normal(workload.function.data_with_halo.shape)
    trace = megakernel_trace(program, "kernel")
    outcomes = []
    for threads, team in ((2, _FirstOnlyTeam()), (1, None)):
        args = [data[k].copy() for k in range(3)] + [3]
        kernel = megakernel_for(
            program, trace, ExecutionConfig(threads_per_rank=threads), args)
        assert kernel.uses_team == (team is not None)
        stats = ExecStatistics()
        run_blocking(None, iter(kernel.start(args, stats, None, team=team)))
        outcomes.append(([a.tobytes() for a in args[:3]], stats))
    assert outcomes[0] == outcomes[1]


class TestThreadTeam:
    """The caller runs chunk 0 and the team's helpers the rest."""

    def test_the_caller_runs_the_first_chunk(self):
        team = ThreadTeam(3)
        try:
            names = team.map(lambda _: threading.current_thread().name, range(3))
        finally:
            team.shutdown()
        assert names[0] == threading.current_thread().name
        assert all(name.startswith("repro-team") for name in names[1:])

    def test_map_waits_for_its_helpers_when_the_first_chunk_raises(self):
        started, finished = threading.Event(), threading.Event()

        def chunk(index):
            if index == 0:
                started.wait(5.0)
                raise ValueError("chunk 0")
            started.set()
            time.sleep(0.05)
            finished.set()

        team = ThreadTeam(2)
        try:
            with pytest.raises(ValueError, match="chunk 0"):
                team.map(chunk, [0, 1])
            assert finished.is_set()
        finally:
            team.shutdown()

    def test_the_first_error_in_chunk_order_propagates(self):
        def chunk(index):
            if index:
                raise ValueError(f"chunk {index}")
            return index

        team = ThreadTeam(3)
        try:
            with pytest.raises(ValueError, match="chunk 1"):
                team.map(chunk, [0, 1, 2])
            assert team.map(abs, [0, -1, -2]) == [0, 1, 2]
        finally:
            team.shutdown()


#: sha256 prefixes of ``CompiledMegakernel.source``, emitted from each rank's
#: buffer layout without running: ``<fixture>/r<rank>[/traced]``.  The
#: fixtures are the ledger's kernels (heat2d so2 64^2 on one and two ranks,
#: wave3d so4 128^3 blocked, wave3d so8 (16, 256, 256) on two ranks in both
#: halo spellings) and one kernel that deals its boxes to a team.  A
#: change to how nests are planned or printed must leave them all as they
#: are; re-record them only when a PR changes the generated code on purpose.
MEGAKERNEL_FINGERPRINTS = {
    "heat2d-so2-64/dmp(1,1)/r0": "cd7b013965db1cb6",
    "heat2d-so2-64/dmp(1,1)/r0/traced": "015df7365dced6dc",
    "heat2d-so2-64/dmp(2,1)/r0": "a0453a8472477754",
    "heat2d-so2-64/dmp(2,1)/r0/traced": "bf38f6058955df81",
    "heat2d-so2-64/dmp(2,1)/r1": "27887abc5b619ce5",
    "heat2d-so2-64/dmp(2,1)/r1/traced": "5f4a1b144caa4af5",
    "wave3d-so4-128/cpu/r0": "5dcc6cc78e328ac4",
    "wave3d-so4-128/cpu/r0/traced": "0da9bc9006b41b44",
    "wave3d-so8-16x256x256/dmp(2,1,1)/r0": "0f5ac74077b3e8f7",
    "wave3d-so8-16x256x256/dmp(2,1,1)/r0/traced": "d0d72eb22e0e602e",
    "wave3d-so8-16x256x256/dmp(2,1,1)/r1": "abef5babdd1ffabe",
    "wave3d-so8-16x256x256/dmp(2,1,1)/r1/traced": "53c27f673fcd37bf",
    "wave3d-so8-16x256x256/dmp-libcall(2,1,1)/r0": "dc84414822e53ade",
    "wave3d-so8-16x256x256/dmp-libcall(2,1,1)/r0/traced": "1b1c0aacea243682",
    "wave3d-so8-16x256x256/dmp-libcall(2,1,1)/r1": "05a52e539df7949d",
    "wave3d-so8-16x256x256/dmp-libcall(2,1,1)/r1/traced": "f373d9cc2c1460f2",
    "heat2d-so2-384/dmp(2,1)/threads2/r0": "1274a52f5363d17c",
    "heat2d-so2-384/dmp(2,1)/threads2/r0/traced": "7112dbb59a70ffcb",
    "heat2d-so2-384/dmp(2,1)/threads2/r1": "5b7c70e1f2bc7431",
    "heat2d-so2-384/dmp(2,1)/threads2/r1/traced": "c92ab43bd08473db",
}

#: fixture -> (workload, shape, space order, dmp_target arguments (None: the
#: cpu target), ranks, threads per rank)
_PINNED_KERNELS = {
    "heat2d-so2-64/dmp(1,1)": (heat_diffusion, (64, 64), 2, {"rank_grid": (1, 1)}, 1, 1),
    "heat2d-so2-64/dmp(2,1)": (heat_diffusion, (64, 64), 2, {"rank_grid": (2, 1)}, 2, 1),
    "wave3d-so4-128/cpu": (acoustic_wave, (128,) * 3, 4, None, 1, 1),
    "wave3d-so8-16x256x256/dmp(2,1,1)": (
        acoustic_wave, (16, 256, 256), 8, {"rank_grid": (2, 1, 1)}, 2, 1),
    "wave3d-so8-16x256x256/dmp-libcall(2,1,1)": (
        acoustic_wave, (16, 256, 256), 8,
        {"rank_grid": (2, 1, 1), "lower_to_library_calls": True}, 2, 1),
    "heat2d-so2-384/dmp(2,1)/threads2": (
        heat_diffusion, (384, 384), 2, {"rank_grid": (2, 1)}, 2, 2),
}


def pinned_megakernels(fixture):
    """``(key, kernel)`` of every pinned kernel of ``fixture``: each rank,
    untraced then traced, emitted from its buffer layout."""
    *_, size, threads = _PINNED_KERNELS[fixture]
    trace, layout = _trace_and_layout(_pinned_program(fixture))
    for rank in range(size):
        for traced in (False, True):
            yield f"{fixture}/r{rank}{'/traced' if traced else ''}", emit_megakernel(
                trace, layout, rank=rank, size=size, traced=traced, threads=threads)


@pytest.mark.parametrize("fixture", sorted(_PINNED_KERNELS))
def test_generated_megakernel_sources_are_pinned(fixture):
    threads = _PINNED_KERNELS[fixture][-1]
    for key, kernel in pinned_megakernels(fixture):
        assert kernel.uses_team == (threads > 1)
        digest = hashlib.sha256(kernel.source.encode()).hexdigest()[:16]
        assert digest == MEGAKERNEL_FINGERPRINTS[key], key


def _pinned_program(fixture):
    make, shape, space_order, grid, _, _ = _PINNED_KERNELS[fixture]
    workload = make(shape, space_order=space_order, dtype=np.float64)
    return compile_stencil_program(
        workload.operator(backend="xdsl").stencil_module(dt=workload.dt),
        cpu_target() if grid is None else dmp_target(**grid))


def _cells(dims) -> int:
    return math.prod(len(range(*dim)) for dim in dims)


def _tiling_violations(plan) -> list[str]:
    """How a nest's box and strips fail to tile its dims exactly once."""
    pieces = [[tuple(dim) for dim in piece] for piece in (plan.box, *plan.strips)]
    found = []
    if sum(map(_cells, pieces)) != _cells(plan.dims):
        found.append(f"{sum(map(_cells, pieces))} cells planned of {_cells(plan.dims)}")
    for piece in pieces:
        if any(not set(range(*dim)) <= set(range(*whole))
               for dim, whole in zip(piece, plan.dims)):
            found.append(f"{piece} leaves {plan.dims}")
    for first, second in itertools.combinations(pieces, 2):
        if all(set(range(*a)) & set(range(*b)) for a, b in zip(first, second)):
            found.append(f"{first} overlaps {second}")
    return found


def _landing_violations(steps) -> list[str]:
    """How one segment's halos fail to land: each posted ordinal completes
    once, after its post and in posting order, before a nest that waits or
    an island runs, right after the boxes of an overlapped nest (one with
    strips), and by the end of the segment."""
    found, inflight, posted = [], [], set()
    after_strips = False  # inside the completions that follow such a nest
    for position, step in enumerate(steps):
        if isinstance(step, Complete):
            if step.overlapped and not after_strips:
                found.append(f"{position}: an overlapped completion after no nest")
            if not inflight or inflight[0] != step.ordinal:
                found.append(f"{position}: completes {step.ordinal}, in flight {inflight}")
            else:
                inflight.pop(0)
            continue
        if after_strips and inflight:
            found.append(f"{position}: {inflight} in flight past an overlapped nest")
        after_strips = False
        if isinstance(step, Post):
            if step.ordinal in posted:
                found.append(f"{position}: posts {step.ordinal} twice")
            posted.add(step.ordinal)
            inflight.append(step.ordinal)
        elif isinstance(step, Island) or step.plan.waits:
            if inflight:
                found.append(f"{position}: runs with {inflight} in flight")
        else:
            after_strips = bool(step.plan.strips)
    if inflight:
        found.append(f"end: {inflight} still in flight")
    return found


@pytest.mark.parametrize("fixture", sorted(_PINNED_KERNELS))
def test_every_pinned_schedule_tiles_its_nests_and_lands_its_halos(fixture):
    """The schedule is checked, not runs of it: every nest's boxes and
    strips tile its iteration space exactly once, and every halo lands
    exactly once, in posting order, before anything that reads it."""
    *_, size, threads = _PINNED_KERNELS[fixture]
    trace, layout = _trace_and_layout(_pinned_program(fixture))
    for rank in range(size):
        schedule = plan_megakernel(trace, layout, rank, size, threads)
        segments = (schedule.pre, schedule.body, schedule.post)
        assert any(isinstance(step, Nest) for steps in segments for step in steps)
        assert any(isinstance(step, Post) for steps in segments for step in steps) \
            == (size > 1)
        for steps in segments:
            assert _landing_violations(steps) == [], (rank, steps)
            for step in steps:
                if isinstance(step, Nest):
                    assert _tiling_violations(step.plan) == [], rank


def _reduce_then_scale_module():
    """``kernel(u, v, n)``: ``s`` = the sum of ``u`` (a fused reduction),
    ``k = n + 1`` (scalar arithmetic, an island), then ``v[i] = u[i] * s +
    (i + k)``: a nest reading the reduction, and ``k`` in an index grid, at
    run time."""
    vector = MemRefType([64], f64)
    kernel = func.FuncOp("kernel", FunctionType([vector, vector, index], []))
    u, v, n = kernel.args
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    one = b.insert(arith.ConstantOp.from_int(1)).result
    extent = b.insert(arith.ConstantOp.from_int(64)).result
    init = b.insert(arith.ConstantOp.from_float(0.0, f64)).result
    total = scf.ParallelOp([zero], [extent], [one], init_values=[init])
    inner = Builder.at_end(total.body.block)
    inner.insert(scf.ReduceOp.combining(
        inner.insert(memref.LoadOp(u, total.induction_variables)).result, arith.AddfOp))
    b.insert(total)
    shift = b.insert(arith.AddiOp(n, one)).result
    scale = scf.ParallelOp([zero], [extent], [one])
    inner = Builder.at_end(scale.body.block)
    (i,) = scale.induction_variables
    row = inner.insert(arith.SIToFPOp(inner.insert(arith.IndexCastOp(
        inner.insert(arith.AddiOp(i, shift)).result, i64)).result, f64)).result
    scaled = inner.insert(arith.MulfOp(
        inner.insert(memref.LoadOp(u, [i])).result, total.results[0])).result
    inner.insert(memref.StoreOp(inner.insert(arith.AddfOp(scaled, row)).result, v, [i]))
    inner.insert(scf.YieldOp([]))
    b.insert(scale)
    b.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


def _plain_schedules():
    """``{label: (schedule, traced)}``: every pinned kernel's schedule (one
    deals its blocks to a team), and those of kernels with an island, with
    a fused reduction a later nest reads and with a run-time ``_env``
    scalar."""
    schedules = {}
    for fixture in sorted(_PINNED_KERNELS):
        *_, size, threads = _PINNED_KERNELS[fixture]
        trace, layout = _trace_and_layout(_pinned_program(fixture))
        for rank in range(size):
            schedule = plan_megakernel(trace, layout, rank, size, threads)
            for traced in (False, True):
                schedules[f"{fixture}/r{rank}{'/traced' if traced else ''}"] = (
                    schedule, traced)
    for name, module, args, threads in (
            ("island", _halving_module(), [np.arange(8.0), np.zeros(1), 3], 1),
            ("reduction-and-env", _reduce_then_scale_module(),
             [np.ones(64), np.zeros(64), 2], 1)):
        func_op = next(op for op in module.walk() if isinstance(op, func.FuncOp))
        trace = trace_program(func_op, compile_kernel(module, "kernel"))
        with unittest.mock.patch.object(nestplan, "_BLOCK_CELLS", 8):
            schedules[name] = (plan_megakernel(
                trace, megakernel_signature(args), threads=threads), True)
    return schedules


def test_every_schedule_is_a_plain_value():
    """A schedule holds no IR: it survives a pickle round trip equal to
    itself, and its copy prints the same source."""
    schedules = _plain_schedules()
    assert len(schedules) == len(MEGAKERNEL_FINGERPRINTS) + 2
    island, env, team = (schedules[name][0] for name in
                         ("island", "reduction-and-env", "heat2d-so2-384/dmp(2,1)/threads2/r0"))
    assert island.has_islands and env.has_islands and team.uses_team
    total, scale = (step.plan.nest for step in env.body if isinstance(step, Nest))
    reads = [ref for instr in scale.instrs for ref in operand_refs(instr)]
    assert ("free", total.reductions[0]) in reads
    assert any(ref[0] == "aff" and ref[1].free for ref in reads)
    for label, (schedule, traced) in schedules.items():
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy == schedule, label
        assert print_python(copy, label, traced)[0] == \
            print_python(schedule, label, traced)[0], label
    # The kernel the emitter binds to the trace's values reads them right.
    data = np.random.default_rng(11).standard_normal(64)
    walked = [data.copy(), np.zeros(64)]
    Interpreter(_reduce_then_scale_module()).call("kernel", *walked, 2)
    fused = [data.copy(), np.zeros(64)]
    assert run_compiled(_reduce_then_scale_module(), "kernel", *fused, 2)[1] is None
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in walked]


def _elements(region) -> int:
    return math.prod(piece.stop - piece.start for piece in region)


def _unpaired_messages(op, size: int) -> list[str]:
    """How the world's message plans of one swap fail to pair up: every send
    needs exactly one receive on its peer with the same tag and element
    count, and every receive exactly one such send."""
    plans = [swap_message_plan(op, rank) for rank in range(size)]
    found = []
    for rank, plan in enumerate(plans):
        for region, peer, tag in plan.sends:
            matches = [record for record in plans[peer].receives
                       if record[1:4] == (rank, tag, _elements(region))]
            if len(matches) != 1:
                found.append(f"rank {rank} -> {peer} tag {tag}: {len(matches)} receives")
        for _, peer, tag, elements, _ in plan.receives:
            matches = [record for record in plans[peer].sends
                       if record[1:] == (rank, tag) and _elements(record[0]) == elements]
            if len(matches) != 1:
                found.append(f"rank {rank} <- {peer} tag {tag}: {len(matches)} sends")
    return found


def _distributed_programs():
    """Every pinned distributed program: the three frontends of
    tests/test_pipeline.py on both dmp targets, and the distributed
    ``_PINNED_KERNELS``."""
    from tests.test_pipeline import PROGRAMS, _target

    for name, (build, ndim) in PROGRAMS.items():
        for target in ("dmp", "dmp-libcall"):
            yield pytest.param(
                lambda build=build, target=target, ndim=ndim: compile_stencil_program(
                    build(), _target(target, ndim)),
                id=f"{name}/{target}")
    for fixture, (*_, grid, _, _) in sorted(_PINNED_KERNELS.items()):
        if grid is not None:
            yield pytest.param(lambda fixture=fixture: _pinned_program(fixture), id=fixture)


@pytest.mark.parametrize("compiled", list(_distributed_programs()))
def test_every_swap_of_the_world_pairs_its_messages(compiled):
    """The world's message plan is checked, not runs of it: for each
    ``dmp.swap`` or lowered request array, on every rank, sends and receives
    pair up one to one across peers."""
    program = compiled()
    anchors = [op for op in program.module.walk() if declared_exchanges(op) is not None]
    assert anchors
    for op in anchors:
        assert _unpaired_messages(op, program.target.ranks) == [], op.name


# ---------------------------------------------------------------------------
# every rejection carries a reason string
# ---------------------------------------------------------------------------

def _doubly_carried_module():
    """``kernel(u, n)``: a time loop carrying ``u`` twice, rotating the pair.

    Nothing the tracer can give a buffer layout (the slots alias), yet the
    tree walker runs it (it does nothing).
    """
    kernel = func.FuncOp("kernel", FunctionType([MemRefType([4], f64), index], []))
    u, steps = kernel.args
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    one = b.insert(arith.ConstantOp.from_int(1)).result
    loop = scf.ForOp(zero, steps, one, [u, u])
    _, first, second = loop.body.block.args
    Builder.at_end(loop.body.block).insert(scf.YieldOp([second, first]))
    b.insert(loop)
    b.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


def test_trace_rejection_records_reason():
    """An untraceable plan records a CodegenFallback with why, and runs."""
    program = compile_stencil_program(_doubly_carried_module(), cpu_target())
    with Session(runtime="threads") as session:
        plan = session.plan(program)
        assert codegen_wanted(plan.config)
        fallback = plan.codegen_fallback  # traced when the plan was built
        assert isinstance(fallback, CodegenFallback)
        assert "distinct function argument" in fallback.reason
        assert str(fallback) == f"{plan.function}: {fallback.reason}"
        plan.run([np.zeros(4)], [3])
        assert session.metrics.get("megakernel.fallback") == 1
        assert plan.codegen_fallback.reason == fallback.reason  # still untraceable


def test_emit_rejection_records_reason_and_falls_back():
    """Aliased field buffers cannot be emitted; the reason is recorded and
    the run transparently falls back to the interpreter loop."""
    program = compile_stencil_program(build_jacobi_module(), cpu_target())
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    shared = data.copy()
    with Session() as session:  # codegen="auto"
        plan = session.plan(program)
        assert codegen_wanted(plan.config) and plan.codegen_fallback is None
        result = plan.run([shared, shared], [2])  # aliased in/out buffers
        assert result is not None  # the interpreter loop still ran
        fallback = plan.codegen_fallback
        assert isinstance(fallback, CodegenFallback)
        assert fallback.reason and "alias" in fallback.reason
        assert session.metrics.get("megakernel.engaged") == 0
        assert session.metrics.get("megakernel.fallback") == 1


def test_an_aliased_run_leaves_its_layout_compiled():
    """Aliasing is a property of one run, not of the layout: an aliased first
    run goes to the tree walker with its reason, and the next clean run of
    the same layout runs the megakernel, in this session and in a fresh one
    on the same program, and clears the recorded reason."""
    program = compile_stencil_program(build_jacobi_module(), cpu_target())
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    expected = [data.copy(), data.copy()]
    with Session(codegen="planned") as session:
        session.run(program, expected, [2])
    shared = data.copy()
    with Session() as session:
        plan = session.plan(program)
        plan.run([shared, shared], [2])
        assert "alias" in plan.codegen_fallback.reason
        assert session.metrics.get("megakernel.engaged") == 0
        clean = [data.copy(), data.copy()]
        plan.run(clean, [2])
        assert session.metrics.get("megakernel.engaged") == 1
        assert plan.codegen_fallback is None
        assert all(a.tobytes() == b.tobytes() for a, b in zip(clean, expected))
    with Session() as fresh:
        plan = fresh.plan(program)
        plan.run([data.copy(), data.copy()], [2])
        assert fresh.metrics.get("megakernel.engaged") == 1
        assert fresh.metrics.get("megakernel.fallback") == 0
        assert plan.codegen_fallback is None
        # A later aliased run bounces alone; the clean run after it clears
        # the reason it recorded.
        plan.run([shared, shared], [2])
        assert "alias" in plan.codegen_fallback.reason
        plan.run([data.copy(), data.copy()], [2])
        assert fresh.metrics.get("megakernel.engaged") == 2
        assert plan.codegen_fallback is None


def _nest_module(memrefs, extents, body, step=1):
    """``kernel(*buffers)``: one ``scf.parallel`` over ``[0, extent)`` per
    extent, whose body ``body(builder, ivs, buffers)`` builds."""
    kernel = func.FuncOp(
        "kernel", FunctionType([MemRefType(shape, f64) for shape in memrefs], []))
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    stride = b.insert(arith.ConstantOp.from_int(step)).result
    uppers = [b.insert(arith.ConstantOp.from_int(extent)).result for extent in extents]
    loop = scf.ParallelOp([zero] * len(extents), uppers, [stride] * len(extents))
    inner = Builder.at_end(loop.body.block)
    body(inner, loop.induction_variables, kernel.args)
    inner.insert(scf.YieldOp([]))
    b.insert(loop)
    b.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


def _copy(index_of):
    """A body storing ``u[index_of(builder, ivs)]`` into ``v[ivs]``."""
    def body(builder, ivs, buffers):
        u, v = buffers
        value = builder.insert(memref.LoadOp(u, index_of(builder, ivs))).result
        builder.insert(memref.StoreOp(value, v, list(ivs)))
    return body


def _shifted(builder, ivs):
    one = builder.insert(arith.ConstantOp.from_int(1)).result
    return [builder.insert(arith.SubiOp(ivs[0], one)).result]


def _doubled(builder, ivs):
    two = builder.insert(arith.ConstantOp.from_int(2)).result
    return [builder.insert(arith.MuliOp(ivs[0], two)).result]


def _plus(offset):
    """An index function: ``i + offset``."""
    def index_of(builder, ivs):
        constant = builder.insert(arith.ConstantOp.from_int(offset)).result
        return [builder.insert(arith.AddiOp(ivs[0], constant)).result]
    return index_of


def _offset_copy(load_offset, store_offset):
    """A body storing ``u[i + load_offset]`` into ``v[i + store_offset]``."""
    def body(builder, ivs, buffers):
        u, v = buffers
        value = builder.insert(memref.LoadOp(u, _plus(load_offset)(builder, ivs))).result
        builder.insert(memref.StoreOp(value, v, _plus(store_offset)(builder, ivs)))
    return body


def _store_rows(builder, ivs, buffers):
    u, v = buffers
    builder.insert(memref.StoreOp(
        builder.insert(memref.LoadOp(u, list(ivs))).result, v, [ivs[0]]))


def _store_one(builder, ivs, buffers):
    (u,) = buffers
    one = builder.insert(arith.ConstantOp.from_float(1.0, f64)).result
    builder.insert(memref.StoreOp(one, u, list(ivs)))


def _counted(shape):
    return np.arange(math.prod(shape), dtype=np.float64).reshape(shape)


#: case -> (module, fresh fields, the reason the emitter gives)
_EMIT_REJECTIONS = {
    # v[i] = u[i - 1]: the walker wraps u[-1] round to u[7].
    "out-of-range": (
        lambda: _nest_module([[8], [8]], [8], _copy(_shifted)),
        lambda: [_counted((8,)), np.zeros(8)],
        "out-of-range access would wrap or raise in the tree walker",
    ),
    # The walker runs range(0, 8, -1): nothing.
    "non-positive-step": (
        lambda: _nest_module([[8], [8]], [8], _copy(lambda b, ivs: list(ivs)), step=-1),
        lambda: [_counted((8,)), np.zeros(8)],
        "non-positive loop step",
    ),
    "non-unit-stride": (
        lambda: _nest_module([[8], [8]], [4], _copy(_doubled)),
        lambda: [_counted((8,)), np.zeros(8)],
        "non-unit-stride index expression cannot be sliced",
    ),
    "transposed": (
        lambda: _nest_module(
            [[4, 4], [4, 4]], [4, 4], _copy(lambda b, ivs: [ivs[1], ivs[0]])),
        lambda: [_counted((4, 4)), np.zeros((4, 4))],
        "transposed or repeated induction variables in one access",
    ),
    # v[i] = u[i, j]: every j writes the same cell, the last one stays.
    "store-does-not-cover": (
        lambda: _nest_module([[4, 4], [4]], [4, 4], _store_rows),
        lambda: [_counted((4, 4)), np.zeros(4)],
        "store does not cover every nest dimension",
    ),
    # v[i + 2] = u[i + 1] over range(0, -2): the walker does nothing, but
    # u[1:-1] is six cells (v[2:0] is none).
    "empty-loop-wraps": (
        lambda: _nest_module([[8], [8]], [-2], _offset_copy(1, 2)),
        lambda: [_counted((8,)), np.zeros(8)],
        "an empty loop's slice would wrap to a non-empty region",
    ),
    # A memref<8xf64> given an (8, 2) array: the walker stores whole rows.
    "rank-mismatch": (
        lambda: _nest_module([[8]], [8], _store_one),
        lambda: [np.zeros((8, 2))],
        "access rank does not match the memref rank",
    ),
}


@pytest.mark.parametrize("case", sorted(_EMIT_REJECTIONS))
def test_every_emit_rejection_records_its_reason(case):
    """Each box the slicing model cannot reproduce is rejected with its own
    reason, and the run is the tree walker's: same fields, same statistics."""
    build, make_fields, reason = _EMIT_REJECTIONS[case]
    program = compile_stencil_program(build(), cpu_target())
    fields, walked = make_fields(), make_fields()
    with Session() as session:
        plan = session.plan(program)
        result = plan.run(fields, [])
        fallback = plan.codegen_fallback
        assert isinstance(fallback, CodegenFallback)
        assert fallback.reason.startswith(f"nest cannot be emitted: {reason}")
        assert session.metrics.get("megakernel.fallback") == 1
        reference = session.run(program, walked, [], codegen="planned")
    for mine, theirs in zip(fields, walked):
        assert mine.tobytes() == theirs.tobytes()
    assert result.statistics == reference.statistics


def _rotating_module(buffers, perm, extent):
    """``kernel(*buffers, n)``: ``n`` steps of b1[i] = b0[i] * (1/3) + 1/3
    over ``buffers`` loop-carried memref<extent x f64>, rotated by ``perm``
    (slot j holds slot perm[j]'s buffer the next step)."""
    vector = MemRefType([extent], f64)
    kernel = func.FuncOp("kernel", FunctionType([vector] * buffers + [index], []))
    *fields, steps = kernel.args
    b = Builder.at_end(kernel.body.block)
    zero, one, upper = (
        b.insert(arith.ConstantOp.from_int(value)).result for value in (0, 1, extent))
    time_loop = scf.ForOp(zero, steps, one, iter_args=fields)
    slots = time_loop.body.block.args[1:]
    nest = scf.ParallelOp([zero], [upper], [one])
    inner = Builder.at_end(nest.body.block)
    (i,) = nest.induction_variables
    third = inner.insert(arith.ConstantOp.from_float(1 / 3, f64)).result
    scaled = inner.insert(arith.MulfOp(
        inner.insert(memref.LoadOp(slots[0], [i])).result, third)).result
    inner.insert(memref.StoreOp(
        inner.insert(arith.AddfOp(scaled, third)).result, slots[1], [i]))
    inner.insert(scf.YieldOp([]))
    body = Builder.at_end(time_loop.body.block)
    body.insert(nest)
    body.insert(scf.YieldOp([slots[j] for j in perm]))
    b.insert(time_loop)
    b.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


#: case -> (module, fresh fields, steps, the reason the planner gives)
_ROTATION_REJECTIONS = {
    # v is passed as float32: the parity-0 body stores into it with
    # .astype(float32), which must not run on parity 1, where b1 is u.
    "mixed-dtypes": (
        lambda: _rotating_module(2, [1, 0], 8),
        lambda: [np.arange(8.0), np.zeros(8, dtype=np.float32)],
        3,
        "buffer rotation changes nest geometry",
    ),
    # A 3-cycle and a 5-cycle: 15 parities.
    "period-15": (
        lambda: _rotating_module(8, [1, 2, 0, 4, 5, 6, 7, 3], 4),
        lambda: [_counted((4,)) + slot for slot in range(8)],
        4,
        "buffer rotation period too long to validate",
    ),
}


@pytest.mark.parametrize("case", sorted(_ROTATION_REJECTIONS))
def test_every_rotation_rejection_records_its_reason(case):
    """A rotation the planner cannot prove one body exact for is rejected
    with its reason, and the run is the tree walker's, bit for bit."""
    build, make_fields, steps, reason = _ROTATION_REJECTIONS[case]
    program = compile_stencil_program(build(), cpu_target())
    fields, walked = make_fields(), make_fields()
    with Session() as session:
        plan = session.plan(program)
        result = plan.run(fields, [steps])
        fallback = plan.codegen_fallback
        assert isinstance(fallback, CodegenFallback)
        assert fallback.reason == reason
        reference = session.run(program, walked, [steps], codegen="planned")
    for mine, theirs in zip(fields, walked):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    assert result.statistics == reference.statistics


def _halving_module():
    """``kernel(u, out, n)``: out[0] = 1 before the time loop, ``n`` halvings
    of ``u`` (a loop carrying nothing), then out[0] += u[0] after it."""
    kernel = func.FuncOp("kernel", FunctionType(
        [MemRefType([8], f64), MemRefType([1], f64), index], []))
    u, out, steps = kernel.args
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    one = b.insert(arith.ConstantOp.from_int(1)).result
    eight = b.insert(arith.ConstantOp.from_int(8)).result
    b.insert(memref.StoreOp(
        b.insert(arith.ConstantOp.from_float(1.0, f64)).result, out, [zero]))
    time_loop = scf.ForOp(zero, steps, one)
    body = Builder.at_end(time_loop.body.block)
    nest = scf.ParallelOp([zero], [eight], [one])
    inner = Builder.at_end(nest.body.block)
    (i,) = nest.induction_variables
    half = inner.insert(arith.ConstantOp.from_float(0.5, f64)).result
    value = inner.insert(memref.LoadOp(u, [i])).result
    inner.insert(memref.StoreOp(inner.insert(arith.MulfOp(value, half)).result, u, [i]))
    inner.insert(scf.YieldOp([]))
    body.insert(nest)
    body.insert(scf.YieldOp([]))
    b.insert(time_loop)
    total = b.insert(arith.AddfOp(
        b.insert(memref.LoadOp(out, [zero])).result,
        b.insert(memref.LoadOp(u, [zero])).result)).result
    b.insert(memref.StoreOp(total, out, [zero]))
    b.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


def test_ops_around_the_time_loop_are_walked_in_place():
    """The time loop carries nothing; what precedes and follows it is an
    island, and the nest inside is fused."""
    module = _halving_module()
    func_op = next(op for op in module.walk() if isinstance(op, func.FuncOp))
    trace = trace_program(func_op, compile_kernel(module, "kernel"))
    assert trace.loop is not None and not trace.loop.init_args
    assert [type(step) for step in trace.pre] == [Island]
    assert [type(step) for step in trace.body] == [FusedNest]
    assert [type(step) for step in trace.post] == [Island]
    walked = [np.arange(8.0), np.zeros(1)]
    walker = Interpreter(module)
    walker.call("kernel", *walked, 3)
    fused = [np.arange(8.0), np.zeros(1)]
    stats, reason = run_compiled(module, "kernel", *fused, 3)
    assert reason is None
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in walked]
    assert fused[1][0] == 1.0
    assert _walker_view([stats]) == _walker_view([walker.stats])


def _rotate_then_copy_module():
    """``kernel(u, v, out, n)``: ``n`` steps of v = u / 2 rotating (u, v),
    then out = the latest buffer + 1, read through the time loop's result."""
    vector = MemRefType([8], f64)
    kernel = func.FuncOp("kernel", FunctionType([vector] * 3 + [index], []))
    u, v, out, steps = kernel.args
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    one = b.insert(arith.ConstantOp.from_int(1)).result
    eight = b.insert(arith.ConstantOp.from_int(8)).result

    def elementwise(builder, source, target, combine, literal):
        nest = scf.ParallelOp([zero], [eight], [one])
        inner = Builder.at_end(nest.body.block)
        (i,) = nest.induction_variables
        constant = inner.insert(arith.ConstantOp.from_float(literal, f64)).result
        value = inner.insert(memref.LoadOp(source, [i])).result
        result = inner.insert(combine(value, constant)).result
        inner.insert(memref.StoreOp(result, target, [i]))
        inner.insert(scf.YieldOp([]))
        builder.insert(nest)

    time_loop = scf.ForOp(zero, steps, one, iter_args=[u, v])
    current, nxt = time_loop.body.block.args[1:]
    body = Builder.at_end(time_loop.body.block)
    elementwise(body, current, nxt, arith.MulfOp, 0.5)
    body.insert(scf.YieldOp([nxt, current]))
    b.insert(time_loop)
    elementwise(b, time_loop.results[0], out, arith.AddfOp, 1.0)
    b.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


@pytest.mark.parametrize("steps", [2, 3])
def test_a_nest_after_the_time_loop_reads_its_results(steps):
    """The loop's results are its rotating buffers after the last step: a
    nest reading them is fused, whichever buffer the step count leaves."""
    module = _rotate_then_copy_module()
    func_op = next(op for op in module.walk() if isinstance(op, func.FuncOp))
    trace = trace_program(func_op, compile_kernel(module, "kernel"))
    assert [type(step) for step in trace.post] == [FusedNest]
    assert trace.post[0].syms == [("final", 0), ("arg", 2)]

    def fields():
        return [np.arange(8.0), np.zeros(8), np.zeros(8)]

    walked = fields()
    walker = Interpreter(module)
    walker.call("kernel", *walked, steps)
    fused = fields()
    stats, reason = run_compiled(module, "kernel", *fused, steps)
    assert reason is None
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in walked]
    assert fused[2][1] == 1.0 + 0.5 ** steps
    assert _walker_view([stats]) == _walker_view([walker.stats])


def _unhoisted(source: str) -> str:
    """A megakernel's source without its hoisted statistics."""
    return "\n".join(
        line for line in source.splitlines() if not line.lstrip().startswith("_stats.")
    )


def test_the_lowered_mpi_group_fuses_as_a_swap_step():
    """dmp -> mpi -> MPI_* calls: the message group of the swap fuses back
    into one swap step of the same plan, so both spellings emit the same
    kernel, up to the statistics each one's walker counts."""
    swapped = _heat(dmp_target((2, 1)))
    lowered = _heat(dmp_target((2, 1), lower_to_library_calls=True))
    trace = trace_program(
        lowered.functions["kernel"], lowered.compiled_kernel("kernel"))
    assert [type(step) for step in trace.body] == [Swap, FusedNest]
    assert not trace.has_islands
    fields, results = {}, {}
    for name, program in (("swapped", swapped), ("lowered", lowered)):
        fields[name] = _heat_fields()
        with Session(runtime="threads") as session:
            results[name] = session.run(program, fields[name], [3])
            assert_engaged(session, program, 2)
    for mine, theirs in zip(fields["lowered"], fields["swapped"]):
        assert mine.tobytes() == theirs.tobytes()
    sources = {
        name: sorted((k.label, _unhoisted(k.source)) for k in _megakernels(program))
        for name, program in (("swapped", swapped), ("lowered", lowered))
    }
    assert len(sources["lowered"]) == 2
    assert sources["lowered"] == sources["swapped"]
    for stats in results["lowered"].statistics:
        # One overlapped exchange per step; the walker of the MPI_* form
        # counts its messages, not a dmp.swap.
        assert stats.halo_swaps_overlapped == 3 and stats.mpi_messages == 3
        assert stats.halo_swaps == stats.halo_elements_exchanged == 0


@pytest.mark.parametrize("calls", [False, True], ids=["mpi-ops", "MPI-calls"])
def test_both_forms_of_the_message_group_fuse(calls):
    """The group fuses as the mpi dialect and as ``MPI_*`` calls, also with
    its constants left inline among its ops (no loop-invariant motion ran
    after the lowering here)."""
    program = _heat(dmp_target((2, 1)))
    ConvertDMPToMPIPass().apply(program.module)
    if calls:
        ConvertMPIToFuncPass().apply(program.module)
    trace = trace_program(
        program.functions["kernel"], program.compiled_kernel("kernel"))
    assert [type(step) for step in trace.body] == [Swap, FusedNest]
    fields, walked = _heat_fields(), _heat_fields()
    with Session(runtime="threads") as session:
        result = session.run(program, fields, [3])
        assert_engaged(session, program, 2)
        reference = session.run(program, walked, [3], codegen="planned")
    for mine, theirs in zip(fields, walked):
        assert mine.tobytes() == theirs.tobytes()
    assert _walker_view(result.statistics) == _walker_view(reference.statistics)
    assert result.comm_statistics == reference.comm_statistics
    assert all(s.halo_swaps_overlapped == 3 for s in result.statistics)


def test_a_message_group_without_its_declaration_is_walked():
    """The request array's ``grid``/``swaps`` are what the group fuses by:
    without them it is an island of the rank's tree walker, as before."""
    program = _heat(dmp_target((2, 1), lower_to_library_calls=True))
    for op in program.module.walk():
        if op.name == "mpi.allocate_requests":
            del op.attributes["swaps"]
    trace = trace_program(
        program.functions["kernel"], program.compiled_kernel("kernel"))
    kinds = [type(step) for step in trace.body]
    assert Swap not in kinds and Island in kinds and FusedNest in kinds
    walked_calls = {
        op.callee for step in trace.body if isinstance(step, Island)
        for root in trace.islands[step.index][0] for op in root.walk()
        if isinstance(op, func.CallOp)
    }
    assert {"MPI_Isend", "MPI_Irecv", "MPI_Waitall"} <= walked_calls
    fields, walked = _heat_fields(), _heat_fields()
    with Session(runtime="threads") as session:
        result = session.run(program, fields, [2])
        assert session.metrics.get("megakernel.engaged") == 2
        reference = session.run(program, walked, [2], codegen="planned")
    assert all("(_walker, _env" in kernel.source for kernel in _megakernels(program))
    for mine, theirs in zip(fields, walked):
        assert mine.tobytes() == theirs.tobytes()
    assert _walker_view(result.statistics) == _walker_view(reference.statistics)


def test_planned_runs_the_tree_walker():
    """codegen="planned" is no compiled tier: nothing traced, emitted or
    counted, every op of every cell dispatched."""
    program = _compile_heat((2, 1))
    with Session(runtime="threads", codegen="planned") as session:
        plan = session.plan(program)
        assert not codegen_wanted(plan.config)
        planned = plan.run(_heat_fields(), [2])
        assert session.metrics.get("megakernel.engaged") == 0
        assert session.metrics.get("megakernel.fallback") == 0
        assert plan.codegen_fallback is None
    assert not program._megakernel_cache
    with Session(runtime="threads") as session:
        fused = session.run(program, _heat_fields(), [2])
    for walked, compiled in zip(planned.statistics, fused.statistics):
        assert walked.ops_executed > 10 * compiled.ops_executed
        assert walked.halo_swaps_overlapped == 0 < compiled.halo_swaps_overlapped


def test_team_chunks_never_split_a_reduction(monkeypatch):
    """Reductions fold in iteration order: with a team and every box worth
    dealing to it, the reduction nest still runs whole."""
    from repro.interp import nestplan

    monkeypatch.setattr(nestplan, "_BLOCK_CELLS", 8)
    module = build_reduce_module(8, arith.AddfOp, 0.5)
    data = np.random.default_rng(5).standard_normal((8, 8))
    walked = [data.copy(), np.zeros(1)]
    Interpreter(module).call("kernel", *walked)
    func_op = next(op for op in module.walk() if isinstance(op, func.FuncOp))
    kernel = emit_megakernel(
        trace_program(func_op, compile_kernel(module, "kernel")),
        megakernel_signature([data, np.zeros(1)]), threads=2,
    )
    assert not kernel.uses_team and "_fold(" in kernel.source
    fused = [data.copy(), np.zeros(1)]
    assert run_compiled(module, "kernel", *fused, threads=2)[1] is None
    assert fused[1].tobytes() == walked[1].tobytes()


def test_trace_program_error_messages_are_specific():
    """trace_program raises CodegenError with a non-empty reason, never a
    bare failure."""
    program = _compile_heat((2, 2))
    func_op = program.module  # a module is not a traceable function
    kernel = object()
    with pytest.raises(CodegenError) as excinfo:
        trace_program(func_op, kernel)
    assert str(excinfo.value)


# ---------------------------------------------------------------------------
# every traffic class engages
# ---------------------------------------------------------------------------

def _heat(target, shape=(16, 16)):
    workload = heat_diffusion(shape, space_order=2, dtype=np.float64)
    return compile_stencil_program(
        workload.operator(backend="xdsl").stencil_module(dt=workload.dt), target)


def _psyclone():
    """Tracer advection: its time loop carries no values (fields in place)."""
    workload = tracer_advection((8, 8, 4), iterations=2, computations=2)
    program = compile_stencil_program(
        workload.build_module(dtype=np.float64), dmp_target((2, 1, 1)))
    arrays = workload.arrays(halo=1, dtype=np.float64, seed=7)
    names = workload.schedule.array_names()
    return program, lambda: [arrays[name].copy() for name in names], [2]


def _reduce():
    program = compile_stencil_program(
        build_reduce_module(8, arith.AddfOp, 0.5), cpu_target())
    data = np.random.default_rng(3).standard_normal((8, 8))
    return program, lambda: [data.copy(), np.zeros(1)], []


def _devito_heat(space_order, target, shape=(32, 32)):
    """heat2d through the Devito operator, on the operator's own fields."""
    workload = heat_diffusion(shape, space_order=space_order, dtype=np.float64)
    workload.initialise(seed=space_order)
    operator = workload.operator(backend="xdsl")
    program = compile_stencil_program(
        operator.stencil_module(dt=workload.dt), target)
    fields = operator._field_arguments()
    return program, lambda: [field.copy() for field in fields], [3]


def _masked():
    """PSyclone merge() kernels: cmpf/select chains become np.where trees."""
    workload = masked_tracer_advection((16, 16, 8), iterations=2, computations=6)
    program = compile_stencil_program(
        workload.build_module(dtype=np.float64), cpu_target())
    arrays = workload.arrays(halo=1, dtype=np.float64, seed=29)
    names = workload.schedule.array_names()
    return (program, lambda: [arrays[name].copy() for name in names],
            [workload.iterations])


#: class -> (program, fields factory, scalars), extra config, rank count,
#: nests the vectorizer compiles
TRAFFIC = {
    "devito-cpu": (lambda: (_heat(cpu_target()), _heat_fields, [3]), {}, 1, 1),
    # Wider stars: 9- and 17-point sums in one nest.
    "devito-cpu-so4": (lambda: _devito_heat(4, cpu_target()), {}, 1, 1),
    "devito-cpu-so8": (lambda: _devito_heat(8, cpu_target()), {}, 1, 1),
    "dmp-swap": (lambda: (_heat(dmp_target((2, 1))), _heat_fields, [3]), {}, 2, 1),
    "dmp-libcall": (
        lambda: (_heat(dmp_target((2, 1), lower_to_library_calls=True)),
                 _heat_fields, [3]),
        {}, 2, 1,
    ),
    "psyclone-uncarried": (_psyclone, {}, 2, 2),
    "reduce": (_reduce, {}, 1, 1),
    # Cache-tiled so4: each min-clamped tile pair collapses.
    "tiled": (
        lambda: _devito_heat(4, cpu_target(tile_sizes=(16, 16)), (64, 64)),
        {}, 1, 1,
    ),
    "masked": (_masked, {}, 1, 6),
    "team": (
        lambda: (_heat(dmp_target((2, 1)), (96, 96)),
                 lambda: _heat_fields((98, 98)), [2]),
        {"threads_per_rank": 2}, 2, 1,
    ),
    "gpu": (lambda: (_heat(gpu_target()), _heat_fields, [3]), {}, 1, 1),
    "fpga": (lambda: (_heat(fpga_target()), _heat_fields, [3]), {}, 1, 1),
}


@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
def test_every_compiled_program_engages(traffic, monkeypatch):
    """Each traffic class runs its megakernel on every rank with every
    compiled nest fused, no fallback, and agrees with the tree walker:
    fields, Exec and Comm statistics.  A class with a team deals its boxes'
    blocks to it (with blocks shrunk: a thread needs a full block)."""
    build, extra, ranks, nests = TRAFFIC[traffic]
    team = extra.get("threads_per_rank", 1) > 1
    if team:
        monkeypatch.setattr(nestplan, "_BLOCK_CELLS", 1024)
    program, make_fields, scalars = build()
    with Session(runtime="threads", **extra) as session:
        plan = session.plan(program)
        assert program.compiled_kernel(plan.function).nest_count == nests
        fields = make_fields()
        result = plan.run(fields, scalars)
        assert_engaged(session, program, ranks)
        assert plan.codegen_fallback is None
        assert all(kernel.uses_team == team for kernel in _megakernels(program))
        walked = make_fields()
        reference = session.run(program, walked, scalars, codegen="planned")
    for mine, theirs in zip(fields, walked):
        assert mine.tobytes() == theirs.tobytes()
    assert _walker_view(result.statistics) == _walker_view(reference.statistics)
    assert result.comm_statistics == reference.comm_statistics
