"""The thread world's scheduler: megakernel ranks as coroutines on one thread.

A thread-world job whose ranks communicate only through their megakernels'
halos runs every rank on the calling thread (``repro.core.rank.run_scheduled``);
every other job keeps one rank thread per rank.  These tests pin that the
scheduled world computes what the process world and the tree walker compute,
bit for bit, that a deadlock fails typed at once, that a failing rank closes
its own job alone, and which jobs are scheduled.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

import repro.interp.codegen as codegen
from repro.core import Session, compile_stencil_program, dmp_target
from repro.core.rank import run_scheduled
from repro.interp import MPIRuntimeError, SimulatedMPI
from repro.interp.interpreter import PendingHalo, SwapMessagePlan, post_swap
from repro.runtime import processes_available
from repro.serve import Server
from repro.transforms.distribute import ConvertDMPToMPIPass
from repro.transforms.mpi import ConvertMPIToFuncPass
from repro.workloads import acoustic_wave, heat_diffusion

#: The rank grids of the parity suite, each with its heat stencil's shape.
GRIDS = {(2, 1): (16, 16), (2, 2): (16, 16), (2, 1, 2): (8, 8, 8)}


def _compile(make, shape, grid, space_order=2, **target):
    workload = make(shape, space_order=space_order, dtype=np.float64)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    return compile_stencil_program(module, dmp_target(grid, **target))


def _fields(program):
    """Every global field of ``program``'s kernel (its last argument is the
    step count), with a unit bump in the middle."""
    distribution = program.distribution
    u0 = np.zeros([lower + extent + upper for lower, extent, upper in zip(
        distribution.margin_lower, distribution.global_shape,
        distribution.margin_upper)])
    u0[tuple(slice(extent // 2 - 1, extent // 2 + 1) for extent in u0.shape)] = 1.0
    count = len(program.functions["kernel"].body.block.args) - 1
    return [u0.copy() for _ in range(count)]


def _run(program, steps, **config):
    """Fields, result and session metrics of one run on a fresh session."""
    fields = _fields(program)
    with Session(**config) as session:
        result = session.run(program, fields, [steps])
    return fields, result, session.metrics


def _walker_view(statistics):
    """Per-rank statistics without the two counters that say how a run went."""
    return [dataclasses.replace(s, ops_executed=0, halo_swaps_overlapped=0)
            for s in statistics]


@pytest.mark.parametrize("lower", [False, True], ids=["dmp-swap", "mpi-calls"])
@pytest.mark.parametrize("grid", sorted(GRIDS), ids=lambda grid: str(grid))
def test_scheduled_ranks_match_the_process_world_and_the_walker(grid, lower):
    program = _compile(heat_diffusion, GRIDS[grid], grid,
                       lower_to_library_calls=lower)
    size = program.target.ranks
    scheduled, result, metrics = _run(program, 3, runtime="threads")
    assert metrics.get("round.ranks_scheduled") == size
    assert metrics.get("round.ranks_threaded") == 0
    walked, reference, walker_metrics = _run(
        program, 3, runtime="threads", backend="interpreter")
    assert walker_metrics.get("round.ranks_threaded") == size
    assert walker_metrics.get("round.threaded.walker") == 1
    for mine, theirs in zip(scheduled, walked):
        assert mine.tobytes() == theirs.tobytes()
    assert _walker_view(result.statistics) == _walker_view(reference.statistics)
    assert result.comm_statistics == reference.comm_statistics
    if processes_available():
        pooled, other, _ = _run(program, 3, runtime="processes")
        for mine, theirs in zip(scheduled, pooled):
            assert mine.tobytes() == theirs.tobytes()
        assert other.statistics == result.statistics
        assert other.comm_statistics == result.comm_statistics


def test_a_deadlocked_job_fails_typed_at_once(monkeypatch):
    """Receive tags that never match: every rank waits, so the job fails at
    once — not after the 60 s world timeout — naming what each rank waits
    for; no thread is left and the session's next run is a fresh one's."""
    mismatched = {"on": False, "waits": {}}

    def mismatched_post(comm, array, plan):
        if not mismatched["on"]:
            return post_swap(comm, array, plan)
        receives = [(slices, peer, tag + 500, elements, axis)
                    for slices, peer, tag, elements, axis in plan.receives]
        mismatched["waits"].setdefault(comm.rank, (receives[0][1], receives[0][2]))
        return post_swap(comm, array, SwapMessagePlan(plan.sends, receives))

    monkeypatch.setattr(codegen, "post_swap", mismatched_post)
    program = _compile(heat_diffusion, (16, 16), (2, 1))
    threads_before = set(threading.enumerate())
    with Session(runtime="threads", timeout=60.0) as session:
        plan = session.plan(program)
        plan.run(_fields(program), [2])
        mismatched["on"] = True
        began = time.monotonic()
        with pytest.raises(MPIRuntimeError, match="deadlock") as info:
            plan.run(_fields(program), [3])
        assert time.monotonic() - began < 1.0
        for rank, (source, tag) in mismatched["waits"].items():
            assert f"rank {rank} waits for (source {source}, tag {tag})" in str(info.value)
        assert sorted(mismatched["waits"]) == [0, 1]
        mismatched["on"] = False
        survived = _fields(program)
        plan.run(survived, [3])
        assert session.counters.rank_executors_created == 0
    assert not set(threading.enumerate()) - threads_before
    fresh, _, _ = _run(program, 3, runtime="threads")
    assert [field.tobytes() for field in survived] == [field.tobytes() for field in fresh]


def _ping(comm, tag: int, closed: list):
    """Send this rank's number to its peer and return the peer's."""
    try:
        comm.isend(np.array([comm.rank], dtype=float), 1 - comm.rank, tag)
        landed = np.zeros(1)
        yield PendingHalo(landed, None, [comm.irecv(landed, 1 - comm.rank, tag)])
        return float(landed[0])
    finally:
        closed.append(comm.rank)


def _exploding(comm, tag: int, closed: list):
    raise RuntimeError(f"rank {comm.rank} exploded")
    yield


def test_a_failing_rank_closes_its_job_and_spares_its_sibling():
    closed: list = []
    healthy, failing = SimulatedMPI(2), SimulatedMPI(2)
    outcomes = run_scheduled([
        [_ping(healthy.communicator(rank), 7, closed) for rank in range(2)],
        [_ping(failing.communicator(0), 7, closed),
         _exploding(failing.communicator(1), 7, closed)],
    ])
    assert outcomes[0] == [1.0, 0.0]
    assert isinstance(outcomes[1], RuntimeError)
    assert str(outcomes[1]) == "rank 1 exploded"
    # Both healthy ranks finished, and the failed job's rank 0, suspended
    # on its receive, was closed rather than left behind.
    assert sorted(closed) == [0, 0, 1]


def test_serve_mix_jobs_are_scheduled_and_walker_jobs_threaded():
    """The three job classes of the ledger's serve-mix (heat 32^2 and wave
    24^3 on one rank, heat 64^2 on two) run on the scheduler; a tree-walker
    job and one whose islands pass messages keep their rank threads, each
    counted with its reason."""
    classes = [
        (_compile(heat_diffusion, (32, 32), (1, 1)), 10),
        (_compile(acoustic_wave, (24, 24, 24), (1, 1, 1), space_order=4), 20),
        (_compile(heat_diffusion, (64, 64), (2, 1)), 20),
    ]
    with Server(runtime="threads") as server:
        for program, steps in classes:
            server.submit(program, _fields(program), [steps]).result(timeout=60.0)
        metrics = server.session.metrics
        assert metrics.get("round.ranks_scheduled") == 4
        assert metrics.get("round.ranks_threaded") == 0
    walked = _compile(heat_diffusion, (16, 16), (2, 1))
    _, _, metrics = _run(walked, 2, runtime="threads", backend="interpreter")
    assert metrics.get("round.ranks_threaded") == 2
    assert metrics.get("round.threaded.walker") == 1
    # A message group without its swap declaration is walked as an island.
    lowered = _compile(heat_diffusion, (16, 16), (2, 1))
    ConvertDMPToMPIPass().apply(lowered.module)
    ConvertMPIToFuncPass().apply(lowered.module)
    for op in lowered.module.walk():
        if op.name == "mpi.allocate_requests":
            del op.attributes["swaps"]
    _, _, metrics = _run(lowered, 2, runtime="threads")
    assert metrics.get("megakernel.engaged") == 2
    assert metrics.get("round.ranks_threaded") == 2
    assert metrics.get("round.threaded.island_messages") == 1
