"""Bit-identity and fallback tests for the plan-compiled megakernel path.

The megakernel codegen layer (repro.interp.codegen) traces a plan's time
loop once and emits a single fused Python function.  These tests pin its
contract: the generated function is *bit-identical* to the interpreter
loop — fields, ExecStatistics and CommStatistics — across the
{local, threads, processes} x {auto, megakernel, planned} x {overlap on, off}
x {1, 2 threads_per_rank} matrix, and every rejection (trace-time or
emit-time) carries an explicit fallback reason string.
"""

import numpy as np
import pytest

from repro.core import (
    ExecutionConfig,
    ExecutionError,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
)
from repro.core.rank import codegen_wanted
from repro.interp import (
    CodegenError,
    CodegenFallback,
    CompiledMegakernel,
    MegakernelTrace,
    trace_program,
)
from repro.runtime import processes_available
from repro.workloads import acoustic_wave, heat_diffusion
from tests.conftest import build_jacobi_module

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

    def test_megakernel_conflicts_with_interpreter_backend(self):
        with pytest.raises(ExecutionError, match="megakernel.*interpreter"):
            ExecutionConfig(codegen="megakernel", backend="interpreter")

    def test_auto_with_interpreter_backend_is_fine(self):
        config = ExecutionConfig(backend="interpreter")
        assert config.codegen == "auto"


# ---------------------------------------------------------------------------
# bit-identity vs the interpreter loop
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
@pytest.mark.parametrize("overlap", [None, False], ids=["overlap-on", "overlap-off"])
@pytest.mark.parametrize("codegen", ["auto", "megakernel", "planned"])
@pytest.mark.parametrize("world", [
    "local", "threads", pytest.param("processes", marks=needs_processes),
])
def test_every_tier_matches_the_interpreter_loop(
    session, world, codegen, overlap, threads_per_rank
):
    """Every (world, codegen, overlap, team) cell == the flat interpreter
    loop of the thread world: fields and both statistics."""
    compile_program, make_fields, steps = WORLDS[world]
    program = compile_program()
    base_fields = make_fields()
    baseline = session.run(
        program, base_fields, [steps],
        runtime="threads", codegen="planned", overlap_halos=overlap,
    )
    if overlap is False:
        assert all(s.halo_swaps_overlapped == 0 for s in baseline.statistics)
    plan = session.plan(
        program, runtime="threads" if world == "local" else world,
        codegen=codegen, overlap_halos=overlap,
        threads_per_rank=threads_per_rank,
    )
    for repeat in range(3):  # repeated runs reuse the kernel and must agree
        fields = make_fields()
        result = plan.run(fields, [steps])
        for mine, theirs in zip(fields, base_fields):
            assert np.array_equal(mine, theirs), (
                f"{world} {codegen} overlap={overlap} x{threads_per_rank} "
                f"repeat {repeat}: fields diverged from the interpreter loop"
            )
        assert result.statistics == baseline.statistics
        assert result.comm_statistics == baseline.comm_statistics
    if codegen == "megakernel" and world != "processes":
        assert isinstance(plan.compile(), MegakernelTrace)
        assert plan.codegen_fallback is None
        assert _megakernels(program), "the forced tier must actually have run"
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
    import threading
    import time

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


def test_auto_codegen_skips_thread_teams():
    """auto only engages on the flat threads_per_rank == 1 configuration."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads", threads_per_rank=2) as session:
        plan = session.plan(program)
        assert not codegen_wanted(plan.config)
        plan.run(_heat_fields(), [2])
        assert plan.codegen_fallback is None  # a gate, not a compile failure
        assert session.metrics.get("megakernel.engaged") == 0
        assert session.metrics.get("megakernel.fallback") == 0
        assert not program._megakernel_cache


def test_generated_source_is_inspectable():
    """The emitted kernel keeps its python source for dumps and artifacts."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads", codegen="megakernel") as session:
        plan = session.plan(program)
        plan.run(_heat_fields(), [2])
        kernels = _megakernels(program)
        assert len(kernels) == 4
        for kernel in kernels:
            assert "def " in kernel.source
            assert kernel.label


def _wave_source(extent):
    """The megakernel source of wave3d so4 on an ``extent``^3 grid, after 1 step."""
    workload = acoustic_wave((extent,) * 3, space_order=4, dtype=np.float64)
    program = compile_stencil_program(
        workload.operator(backend="xdsl").stencil_module(dt=workload.dt),
        cpu_target(),
    )
    data = workload.function.data_with_halo
    with Session(codegen="megakernel") as session:
        session.plan(program).run([data[k].copy() for k in range(3)], [1])
    (kernel,) = _megakernels(program)
    return kernel.source


def test_source_records_the_blocking_decision_per_box():
    """One comment per box: block shape and count, scratch slots x bytes."""
    blocked = _wave_source(40)  # 64 000 cells: more than one block
    assert "# box (40, 40, 40): 2 blocks of (20, 40, 40), scratch 5 x 256000 B" \
        in blocked
    assert "for _i0 in range(0, 40, 20):" in blocked
    single = _wave_source(16)
    assert "# box (16, 16, 16): single block, scratch 5 x 32768 B" in single
    assert "for _i" not in single
    program = _compile_heat((2, 1))  # overlapped: interior + one strip per rank
    with Session(runtime="threads", codegen="megakernel") as session:
        session.plan(program).run(_heat_fields(), [2])
    for kernel in _megakernels(program):
        assert kernel.source.count("# box ") == 2
        assert kernel.source.count(": single block, scratch ") == 2


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


# ---------------------------------------------------------------------------
# every rejection carries a reason string
# ---------------------------------------------------------------------------

def test_trace_rejection_records_reason():
    """auto mode on an untraceable plan records a CodegenFallback with why."""
    program = _compile_heat((2, 2))
    with Session(runtime="threads", backend="interpreter") as session:
        plan = session.plan(program)
        assert not codegen_wanted(plan.config)  # interpreter backend is gated out
        assert plan.compile() is None  # explicit tracing records the reason
        fallback = plan.codegen_fallback
        assert isinstance(fallback, CodegenFallback)
        assert fallback.reason and "kernel" in fallback.reason
        assert str(fallback) == f"{plan.function}: {fallback.reason}"


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


def test_forced_megakernel_raises_with_reason():
    """codegen='megakernel' refuses to fall back silently."""
    program = compile_stencil_program(build_jacobi_module(), cpu_target())
    data = np.zeros(10)
    shared = data.copy()
    with Session(codegen="megakernel") as session:
        plan = session.plan(program)
        with pytest.raises(ExecutionError, match="cannot be emitted.*alias"):
            plan.run([shared, shared], [2])


def test_trace_program_error_messages_are_specific():
    """trace_program raises CodegenError with a non-empty reason, never a
    bare failure."""
    program = _compile_heat((2, 2))
    func_op = program.module  # a module is not a traceable function
    kernel = object()
    with pytest.raises(CodegenError) as excinfo:
        trace_program(func_op, kernel)
    assert str(excinfo.value)
