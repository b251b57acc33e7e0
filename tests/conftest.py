"""Shared fixtures: small stencil programs used across the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.dialects import arith, builtin, func, scf, stencil
from repro.ir import Builder, FunctionType, MemRefType, f64, index
from repro.runtime import processes_available

# Property tests draw a fixed example set, so a red run reproduces; CI draws
# ten times as many from the same generators (``--hypothesis-profile=ci``).
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile(
    "ci", derandomize=True, deadline=None,
    max_examples=10 * settings.get_profile("tier1").max_examples,
)
settings.load_profile("tier1")


def build_jacobi_module(n: int = 8, halo: int = 1, coefficient: float = 1.0 / 3.0):
    """A double-buffered 1D Jacobi smoother at the stencil level.

    kernel(%u : field, %v : field, %steps : index) iterates ``steps`` times,
    each step computing v = (u[-1] + u[0] + u[1]) * coefficient over [0, n)
    and swapping the two buffers.
    """
    field_bounds = stencil.StencilBoundsAttr([-halo], [n + halo])
    store_bounds = stencil.StencilBoundsAttr([0], [n])
    field_type = stencil.FieldType(field_bounds, f64)

    kernel = func.FuncOp("kernel", FunctionType([field_type, field_type, index], []))
    u_arg, v_arg, steps = kernel.args
    builder = Builder.at_end(kernel.body.block)
    zero = builder.insert(arith.ConstantOp.from_int(0)).result
    one = builder.insert(arith.ConstantOp.from_int(1)).result
    loop = scf.ForOp(zero, steps, one, iter_args=[u_arg, v_arg])
    builder.insert(loop)
    builder.insert(func.ReturnOp([]))

    body = Builder.at_end(loop.body.block)
    current, nxt = loop.body.block.args[1], loop.body.block.args[2]
    load = body.insert(stencil.LoadOp(current))
    apply_op = stencil.ApplyOp([load.result], [stencil.TempType(store_bounds, f64)])
    body.insert(apply_op)
    inner = Builder.at_end(apply_op.body.block)
    arg = apply_op.region_args[0]
    left = inner.insert(stencil.AccessOp(arg, [-1])).result
    centre = inner.insert(stencil.AccessOp(arg, [0])).result
    right = inner.insert(stencil.AccessOp(arg, [1])).result
    scale = inner.insert(arith.ConstantOp.from_float(coefficient, f64)).result
    total = inner.insert(arith.AddfOp(inner.insert(arith.AddfOp(left, centre)).result, right)).result
    inner.insert(stencil.ReturnOp([inner.insert(arith.MulfOp(total, scale)).result]))
    body.insert(stencil.StoreOp(apply_op.results[0], nxt, store_bounds))
    body.insert(scf.YieldOp([nxt, current]))
    return builtin.ModuleOp([kernel])


def jacobi_reference(initial: np.ndarray, steps: int, halo: int = 1,
                     coefficient: float = 1.0 / 3.0) -> np.ndarray:
    """Numpy reference for :func:`build_jacobi_module` (returns the latest buffer)."""
    n = initial.shape[0] - 2 * halo
    a = initial.astype(np.float64).copy()
    b = a.copy()
    for _ in range(steps):
        for i in range(n):
            b[halo + i] = (a[halo + i - 1] + a[halo + i] + a[halo + i + 1]) * coefficient
        a, b = b, a
    return a


@pytest.fixture
def jacobi_module():
    return build_jacobi_module()


@pytest.fixture
def jacobi_initial():
    data = np.zeros(10)
    data[1:9] = np.arange(8, dtype=float)
    return data


def build_reduce_module(n: int, combine_op, init_value: float):
    """sum/min/max-style reduction of u[i,j]^2 over an n x n memref.

    kernel(%u : memref<nxn>, %out : memref<1>) runs one scf.parallel nest with
    an init value, folds every squared element through ``combine_op`` via
    scf.reduce, and stores the loop result to out[0].  Shared by the backend
    equivalence tests and the reduce speedup benchmark.
    """
    from repro.dialects import arith, memref

    kernel = func.FuncOp(
        "kernel",
        FunctionType([MemRefType([n, n], f64), MemRefType([1], f64)], []),
    )
    u, out = kernel.args
    builder = Builder.at_end(kernel.body.block)
    zero = builder.insert(arith.ConstantOp.from_int(0)).result
    one = builder.insert(arith.ConstantOp.from_int(1)).result
    extent = builder.insert(arith.ConstantOp.from_int(n)).result
    init = builder.insert(arith.ConstantOp.from_float(init_value, f64)).result
    loop = scf.ParallelOp(
        [zero, zero], [extent, extent], [one, one], init_values=[init]
    )
    inner = Builder.at_end(loop.body.block)
    i, j = loop.induction_variables
    value = inner.insert(memref.LoadOp(u, [i, j])).result
    squared = inner.insert(arith.MulfOp(value, value)).result
    inner.insert(scf.ReduceOp.combining(squared, combine_op))
    builder.insert(loop)
    builder.insert(memref.StoreOp(loop.results[0], out, [zero]))
    builder.insert(func.ReturnOp([]))
    return builtin.ModuleOp([kernel])


def run_compiled(module, function: str, *args, threads: int = 1):
    """Run ``function`` of a lowered ``module`` the way a rank does.

    The megakernel traced against the module's vectorized nests runs when it
    can be traced and emitted and the arguments do not alias, else the tree
    walker.  Returns ``(statistics, reason)``: reason is None when the
    megakernel ran and fused every nest the vectorizer compiled, else why it
    did not.
    """
    from repro.interp import (
        CodegenError,
        ExecStatistics,
        Interpreter,
        compile_kernel,
        emit_megakernel,
        megakernel_signature,
        trace_program,
    )
    from repro.core.rank import run_blocking
    from repro.interp.thread_team import get_thread_team

    func_op = next(
        op for op in module.walk()
        if isinstance(op, func.FuncOp) and op.sym_name == function
    )
    try:
        trace = trace_program(func_op, compile_kernel(module, function))
        kernel = emit_megakernel(trace, megakernel_signature(args), threads=threads)
    except CodegenError as err:
        reason = str(err)
    else:
        stats = ExecStatistics()
        halos = kernel.start(list(args), stats, team=get_thread_team(threads))
        if halos is not None:
            run_blocking(None, iter(halos))
        reason = None if halos is not None else "field arguments alias each other"
    if reason is not None:
        walker = Interpreter(module)
        walker.call(function, *args)
        return walker.stats, reason
    if trace.walked_nests:
        return stats, f"{trace.walked_nests} compiled nest(s) walked in islands"
    return stats, None


def assert_engaged(session, program, ranks, runs=1):
    """``runs`` compiled runs of ``program`` on ``session`` fused every nest.

    Counted, not timed: the megakernel ran on each of ``ranks`` ranks per
    run, nothing fell back to the tree walker, and every trace cached on
    ``program`` fuses as many nests as the vectorizer compiled for its
    function — at least one, so a vectorizer that compiles nothing fails
    too.  ``session`` must have run nothing else compiled; a process-world
    caller traces parent-side first (``plan.compile()``), since its workers
    cache their own traces.
    """
    from repro.interp import MegakernelTrace
    from repro.interp.nestplan import FusedNest

    assert session.metrics.get("megakernel.engaged") == ranks * runs
    assert session.metrics.get("megakernel.fallback") == 0
    traces = [entry for entry in program._megakernel_cache.values()
              if isinstance(entry, MegakernelTrace)]
    assert traces, "no megakernel trace was cached"
    for trace in traces:
        fused = sum(isinstance(step, FusedNest)
                    for step in (*trace.pre, *trace.body, *trace.post))
        compiled = program.compiled_kernel(trace.function_name).nest_count
        assert fused == compiled >= 1, (
            f"{trace.function_name}: {fused} nest(s) fused of {compiled} "
            f"compiled, {trace.walked_nests} walked")


def shm_segments() -> set:
    """The names in ``/dev/shm`` (none where it does not exist): a leak check
    compares two calls."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def run_spmd(body, size, args=(), **overrides):
    """``body(comm, *args)`` on ``size`` ranks through ``Session.run_spmd``, on
    a session of its own: the ranks' values and their merged statistics.

    ``overrides`` configure the round (``runtime``, ``timeout``).
    """
    from repro.core import Session
    from repro.interp.mpi_runtime import merge_comm_statistics

    with Session() as session:
        values, per_rank = session.run_spmd(body, size, args, **overrides)
    return values, merge_comm_statistics(per_rank)


#: Both worlds, as ``parametrize`` values (processes where available).
RUNTIMES = [
    "threads",
    pytest.param("processes", marks=pytest.mark.skipif(
        not processes_available(), reason="process runtime unavailable",
    )),
]


#: Step count that makes :func:`exploding_rank` fail a run.
POISON_STEPS = 13


def _forked_workers() -> bool:
    from repro.runtime import default_context

    return processes_available() and default_context().get_start_method() == "fork"


#: Runtimes :func:`exploding_rank` reaches, as ``parametrize`` values.
FAILURE_WORLDS = [
    "threads",
    pytest.param("processes", marks=pytest.mark.skipif(
        not _forked_workers(), reason="needs forked process workers",
    )),
]


@pytest.fixture
def exploding_rank(monkeypatch):
    """Rank 1 of any run of ``POISON_STEPS`` steps raises before its first send.

    Patches ``run_rank`` in :mod:`repro.core.rank`, where every world's
    rank coroutine looks it up — scheduled thread-world ranks included; the
    workers must be forked *after* the patch (a fresh Session/Server) and
    inherit it, so process-world users need a fork platform.  Every other
    run is untouched.
    """
    import repro.core.rank as rank_module

    run_rank = rank_module.run_rank

    def exploding(program, function, config, args, *, comm=None, **context):
        poisoned = isinstance(args[-1], int) and args[-1] == POISON_STEPS
        if poisoned and comm is not None and comm.rank == 1:
            raise RuntimeError("rank 1 exploded")
        return run_rank(program, function, config, args, comm=comm, **context)

    monkeypatch.setattr(rank_module, "run_rank", exploding)


class _FaultyNumPy:
    """NumPy as a megakernel sees it, except ``add`` in a poisoned run.

    The generated function calls ``_np.add`` with its own frame one level
    up: a run of ``POISON_STEPS`` steps (its ``_args``) raises on the first
    ``add`` of its second time step (``_t == 1``), with buffers half written.
    """

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def add(*args, **kwargs):
        import sys

        scope = sys._getframe(1).f_locals
        steps = scope.get("_args", [None])[-1]
        if scope.get("_t") == 1 and isinstance(steps, int) and steps == POISON_STEPS:
            raise FloatingPointError("injected fault in step 2")
        return np.add(*args, **kwargs)


@pytest.fixture
def exploding_kernel(monkeypatch):
    """Every rank of a run of ``POISON_STEPS`` steps fails inside its
    generated megakernel, mid-step 2 (see :class:`_FaultyNumPy`).

    Megakernels emitted while the fixture is active — by this process or
    by process workers forked after it (a fresh Session), which inherit the
    patch — carry the faulty ``_np``; programs must be compiled fresh.
    Every other run computes as usual.
    """
    import repro.interp.codegen as codegen

    monkeypatch.setattr(codegen, "np", _FaultyNumPy())
