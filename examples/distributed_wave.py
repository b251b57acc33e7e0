"""Distributed acoustic wave propagation over simulated MPI ranks.

Compiles the isotropic acoustic wave equation for a rank grid: the shared
pipeline decomposes the domain (global-to-local pass), inserts dmp.swap halo
exchanges, lowers them all the way to MPI calls, and the program then runs on
the in-process message-passing runtime — one thread per rank
(``--runtime threads``, the default) or one OS process per rank with
shared-memory field buffers (``--runtime processes``).  ``--threads-per-rank``
adds the OpenMP level of the paper's hybrid MPI+OpenMP configurations: each
rank's vectorized nests execute on an intra-rank thread team.

Execution goes through the Session API: one :class:`repro.core.ExecutionConfig`
describes the run, a :class:`repro.core.Session` owns the worker pool and
thread teams (warmed up before the first run), and the Operator's plan is the
amortized hot path.  The distributed result is checked against a single-rank
run either way.

``--trace timeline`` records the run — compile passes, per-timestep spans,
halo post/wait windows, one track per rank — and writes Chrome trace-event
JSON loadable in Perfetto (ui.perfetto.dev) or ``chrome://tracing``;
summarize it with ``python -m repro.obs.report <file>``.

Run with::

    python examples/distributed_wave.py \
        [--runtime threads|processes] [--ranks 1|2|4] [--threads-per-rank N] \
        [--trace off|summary|timeline] [--trace-output wave_trace.json]
"""

import argparse

import numpy as np

from repro.core import (
    EXECUTION_RUNTIMES,
    EXECUTION_TRACE,
    ExecutionConfig,
    Session,
    dmp_target,
)
from repro.frontends.devito import Eq, Grid, Operator, TimeFunction, solve

SHAPE = (32, 32)
TIMESTEPS = 8

#: Rank-count -> Cartesian grid, mirroring the paper's 2D decompositions.
RANK_GRIDS = {1: (1, 1), 2: (2, 1), 4: (2, 2)}


def simulate(target=None, config=None, session=None) -> np.ndarray:
    grid = Grid(shape=SHAPE, extent=(1.0, 1.0))
    u = TimeFunction(name="u", grid=grid, space_order=4, time_order=2, dtype=np.float64)
    u.data[0][16, 16] = 1.0   # point source
    u.data[1][:] = u.data[0]

    wave_equation = Eq(u.dt2, 1.5 ** 2 * u.laplace)
    update = Eq(u.forward, solve(wave_equation, u.forward))
    kwargs = {"backend": "xdsl", "config": config, "session": session}
    if target is not None:
        kwargs["target"] = target
    op = Operator([update], **kwargs)
    op.apply(time=TIMESTEPS, dt=5e-3)
    return np.array(u.data[Operator.buffer_holding_time(u, TIMESTEPS)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runtime", choices=EXECUTION_RUNTIMES, default="threads",
        help="execution runtime for the distributed ranks",
    )
    parser.add_argument(
        "--ranks", type=int, choices=sorted(RANK_GRIDS), default=4,
        help="number of MPI ranks (mapped to a Cartesian grid)",
    )
    parser.add_argument(
        "--threads-per-rank", type=int, default=1,
        help="intra-rank thread-team size (hybrid MPI+OpenMP when > 1)",
    )
    parser.add_argument(
        "--trace", choices=EXECUTION_TRACE, default="off",
        help="record the distributed run: 'summary' keeps per-span totals, "
             "'timeline' additionally keeps every span for Perfetto export",
    )
    parser.add_argument(
        "--trace-output", default="wave_trace.json",
        help="Chrome trace-event JSON path written when --trace is not 'off'",
    )
    args = parser.parse_args()

    single_rank = simulate()
    # Halo exchanges lowered to MPI_Isend/MPI_Irecv/MPI_Waitall with mpich
    # magic constants, exactly as the paper's generated code issues them.
    config = ExecutionConfig(
        runtime=args.runtime,
        threads_per_rank=args.threads_per_rank,
        trace=args.trace,
    )
    with Session(config) as session:
        # Pre-spawn workers and thread teams so the first run pays no
        # spawn latency (the warm-up item of the execution roadmap).
        session.warmup(ranks=args.ranks)
        distributed = simulate(
            dmp_target(RANK_GRIDS[args.ranks], lower_to_library_calls=True),
            config=config,
            session=session,
        )
        if args.trace != "off":
            session.dump_trace(args.trace_output)
            print(f"trace written to {args.trace_output} "
                  "(open in ui.perfetto.dev, or run "
                  f"'python -m repro.obs.report {args.trace_output}')")

    error = np.abs(single_rank - distributed).max()
    print(f"{args.ranks}-rank x {args.threads_per_rank}-thread distributed "
          f"({args.runtime}) vs single-rank result: "
          f"max |difference| = {error:.3e}")
    assert error < 1e-10, "domain decomposition must not change the result"
    print(f"wavefront peak after {TIMESTEPS} steps: {distributed.max():.4f}")
    print("distributed execution matches the single-rank reference.")


if __name__ == "__main__":
    main()
