"""Job handles: the future half of the serving layer's submit/await split.

:meth:`Server.submit` returns a :class:`JobHandle` immediately; the
dispatcher thread later runs the job as part of a batched round and
resolves the handle.  The handle is a small purpose-built future rather
than a ``concurrent.futures.Future`` so cancellation has queue semantics:
``cancel()`` succeeds **only while the job is still queued** — once a
batch claimed it, the SPMD round cannot abandon one member's ranks without
deadlocking its siblings, so in-flight jobs always run to completion (or
failure).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from .errors import JobCancelledError

#: Job lifecycle states (``JobHandle.state``).
PENDING = "pending"      #: queued, not yet claimed by a batch
RUNNING = "running"      #: claimed by a dispatch round
DONE = "done"            #: completed; ``result()`` returns the ExecutionResult
FAILED = "failed"        #: the job's error is re-raised by ``result()``
CANCELLED = "cancelled"  #: cancelled while queued; ``result()`` raises

_TERMINAL = frozenset((DONE, FAILED, CANCELLED))


class JobHandle:
    """One submitted job: its payload, lifecycle state, and result slot."""

    def __init__(
        self,
        program: Any,
        fields: Sequence[Any],
        scalars: Sequence[Any],
        function: Optional[str],
        config: Any,
        tenant: str,
        on_cancel: Optional[Callable[["JobHandle"], None]] = None,
    ):
        self.program = program
        self.fields = fields
        self.scalars = scalars
        self.function = function
        self.config = config
        self.tenant = tenant
        self.state = PENDING
        #: Monotonic enqueue timestamp (queue-wait accounting).
        self.enqueued_at = time.monotonic()
        self._condition = threading.Condition()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._on_cancel = on_cancel

    # -- client surface -------------------------------------------------------
    def done(self) -> bool:
        """Whether the job reached a terminal state (done/failed/cancelled)."""
        return self.state in _TERMINAL

    def cancel(self) -> bool:
        """Cancel the job **if it is still queued**; returns success.

        A claimed (running) or finished job cannot be cancelled — the batch
        round it joined must complete as one SPMD unit.  On success the
        handle transitions to ``cancelled`` and :meth:`result` raises
        :class:`~repro.serve.errors.JobCancelledError`.
        """
        with self._condition:
            if self.state != PENDING:
                return False
            self.state = CANCELLED
            self._condition.notify_all()
        if self._on_cancel is not None:
            self._on_cancel(self)
        return True

    def result(self, timeout: Optional[float] = None):
        """Block until the job finishes; return its ``ExecutionResult``.

        Raises the job's own error if it failed,
        :class:`~repro.serve.errors.JobCancelledError` if it was cancelled,
        and :class:`TimeoutError` if ``timeout`` elapses first (the job keeps
        running; call again to keep waiting).
        """
        with self._condition:
            if not self._condition.wait_for(self.done, timeout):
                raise TimeoutError(
                    f"job for tenant {self.tenant!r} still {self.state} "
                    f"after {timeout}s"
                )
            if self.state == CANCELLED:
                raise JobCancelledError(
                    f"job for tenant {self.tenant!r} was cancelled while queued"
                )
            if self.state == FAILED:
                raise self._error
            return self._result

    # -- dispatcher surface ---------------------------------------------------
    def _begin(self) -> bool:
        """Claim the job for a batch round; False when it was cancelled."""
        with self._condition:
            if self.state != PENDING:
                return False
            self.state = RUNNING
            return True

    def _complete(self, result: Any) -> None:
        with self._condition:
            self._result = result
            self.state = DONE
            self._condition.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._condition:
            self._error = error
            self.state = FAILED
            self._condition.notify_all()
