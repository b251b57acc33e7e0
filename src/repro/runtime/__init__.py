"""Process-based SPMD runtime: true multi-core execution of the MPI world.

The thread world (:class:`repro.interp.SimulatedMPI`) is concurrency-correct
but serialized by the GIL outside NumPy; this package runs every rank in its
own OS process so the paper's strong-scaling shape (figs. 8 and 11) is
measurable in wall-clock time rather than only modeled:

* :mod:`repro.runtime.mp_world` — shared-memory field buffers, which each
  worker attaches once and keeps mapped (:class:`AttachedBlocks`, one cache
  for field and message blocks), and the shared-memory message transport
  (payloads in message blocks, envelopes in per-rank queue inboxes):
  :class:`ProcessMailbox`, this world's mailbox
  under the same :class:`~repro.interp.mpi_runtime.Communicator` the thread
  world uses (hence the same collective algorithms and tag discipline);
* :mod:`repro.runtime.worker_pool` — a persistent worker pool: programs are
  compiled once in the parent, shipped once per worker, and cached worker-side
  so repeated runs amortize all startup.  A round is a list of ``RoundJob``
  records — ``body(comm, *args)`` on each rank, the same record the thread
  world runs — and ``collect_reports`` is the one collector of a round's
  rank reports in either world;
* :mod:`repro.runtime.stats` — :class:`RankStats`, the picklable per-rank
  report every rank of every world sends home, merged deterministically in
  the parent.

Select it with ``ExecutionConfig(runtime="processes")``; results are
bit-identical to ``runtime="threads"`` and plans fall back to threads (with a
``RuntimeFallbackWarning``) when shared memory is unavailable.  The pool and
the field blocks are explicit resources — :class:`PoolManager` and
:class:`SharedFieldPool` instances owned by a ``Session``; there is no
process-wide pool.  Every round, a plan's, a warm-up or a caller's SPMD
function (``Session.run_spmd``), goes through the session.
"""

from .mp_world import (
    AttachedBlocks,
    ProcessMailbox,
    SharedFieldSpec,
    default_context,
    processes_available,
)
from .shared_pool import LeasedField, SharedFieldPool
from .stats import RankStats, sort_rank_stats
from .worker_pool import (
    PoolManager,
    WorkerError,
    WorkerFailure,
    WorkerPool,
)

__all__ = [
    "ProcessMailbox",
    "AttachedBlocks", "SharedFieldSpec",
    "processes_available", "default_context",
    "WorkerPool", "WorkerError", "WorkerFailure", "PoolManager",
    "RankStats", "sort_rank_stats",
    "LeasedField", "SharedFieldPool",
]
