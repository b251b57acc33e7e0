"""The mailbox contract both worlds implement under the one ``Communicator``.

A world's mailbox is three methods: ``post(source, dest, tag, data)`` copies
a payload at send time, ``take(dest, source, tag, timeout)`` pops the next
message of ``(source, tag)`` (``timeout=None`` never blocks), and
``land(message, into)`` copies a taken message into a buffer (``into=None``
drops it).  The same checks run on the thread world (:class:`SimulatedMPI`)
and on a hand-built process-world :class:`ProcessMailbox` over real
shared-memory message blocks.  The process mailbox's inboxes are in-process
queues here, so a post is visible to the very next take; the cross-process
queues are exercised by the parity suites of ``tests/test_process_runtime.py``.
"""

import contextlib
import os
import queue
import time

import numpy as np
import pytest

from repro.interp import Communicator, MPIRuntimeError, SimulatedMPI
from repro.runtime import ProcessMailbox, processes_available
from repro.runtime.mp_world import MessageBlocks, unlink_message_blocks
from tests.conftest import shm_segments

WORLDS = ["threads", "processes"]
TIMEOUT = 0.3


@contextlib.contextmanager
def two_rank_mailbox(world: str):
    """Yield ``(mailbox, prefix)`` of a 2-rank world; ``prefix`` names the
    process world's message blocks (None for threads).  They are unlinked on
    exit, and ``/dev/shm`` must be as it was."""
    if world == "threads":
        yield SimulatedMPI(2, timeout=TIMEOUT), None
        return
    if not processes_available():
        pytest.skip("process runtime unavailable on this platform")
    before = shm_segments()
    prefix = f"rmbx_test{os.getpid()}"
    inboxes = [queue.Queue(), queue.Queue()]
    try:
        yield ProcessMailbox(inboxes, run_id=1, blocks=MessageBlocks(prefix, 0)), prefix
    finally:
        unlink_message_blocks(prefix, 1)
    assert shm_segments() == before


def _blocks_named(prefix) -> int:
    """How many message blocks exist under ``prefix`` (0 for threads)."""
    if prefix is None:
        return 0
    return sum(1 for name in shm_segments() if name.startswith(prefix + "_"))


def _communicator(mailbox, rank: int) -> Communicator:
    if isinstance(mailbox, SimulatedMPI):
        return mailbox.communicator(rank)
    return Communicator(mailbox, rank, 2, timeout=TIMEOUT)


@pytest.mark.parametrize("world", WORLDS)
def test_mailbox_contract(world):
    with two_rank_mailbox(world) as (mailbox, prefix):
        # post, then a non-blocking take returns the message; land copies its
        # bytes into the target buffer, converting the dtype.
        sent = np.array([[1.5, 2.5, -3.0], [4.0, 5.75, 6.0]])
        mailbox.post(1, 0, 7, sent)
        sent[:] = 0.0  # the payload was copied at post time
        message = mailbox.take(0, 1, 7, None)
        assert message is not None
        landed = np.zeros(6, dtype=np.float32)
        mailbox.land(message, landed)
        assert landed.tobytes() == np.array(
            [1.5, 2.5, -3.0, 4.0, 5.75, 6.0], dtype=np.float32).tobytes()

        # An empty mailbox: a non-blocking take returns None ...
        assert mailbox.take(0, 1, 7, None) is None
        # ... and a blocking one times out after one deadline.
        began = time.monotonic()
        with pytest.raises(MPIRuntimeError, match="timed out"):
            mailbox.take(0, 1, 7, TIMEOUT)
        assert TIMEOUT <= time.monotonic() - began < 2 * TIMEOUT

        # FIFO per (source, tag); messages of other tags and sources wait.
        for source, tag, value in [(1, 1, 1.0), (1, 2, 10.0), (0, 1, 20.0),
                                   (1, 1, 2.0), (1, 2, 11.0)]:
            mailbox.post(source, 0, tag, np.array([value]))
        order = []
        for source, tag in [(1, 1), (1, 1), (1, 2), (0, 1), (1, 2)]:
            into = np.zeros(1)
            mailbox.land(mailbox.take(0, source, tag, None), into)
            order.append(into[0])
        assert order == [1.0, 2.0, 10.0, 20.0, 11.0]
        assert mailbox.take(0, 1, 1, None) is None

        # land(message, None) drops the message and, in the process world,
        # frees its block: the next post of that size class creates none.
        # (8 KB: a capacity class no earlier message used.)
        payload = np.ones(1000)
        mailbox.post(0, 1, 3, payload)
        held = mailbox.take(1, 0, 3, None)
        created = _blocks_named(prefix)
        mailbox.post(0, 1, 3, payload)
        if prefix is not None:  # the first block is still held: a new one
            assert _blocks_named(prefix) == created + 1
        mailbox.land(held, None)
        mailbox.land(mailbox.take(1, 0, 3, None), None)
        assert mailbox.take(1, 0, 3, None) is None
        created = _blocks_named(prefix)
        mailbox.post(0, 1, 3, payload)
        assert _blocks_named(prefix) == created
        mailbox.land(mailbox.take(1, 0, 3, None), None)


@pytest.mark.parametrize("world", WORLDS)
def test_receive_from_an_invalid_rank_fails_at_once(world):
    """A source outside the world is refused the way ``send`` refuses a bad
    destination, instead of waiting out the timeout for a message that can
    never come (or, for ``test``, polling forever)."""
    with two_rank_mailbox(world) as (mailbox, _prefix):
        comm = _communicator(mailbox, 0)
        for source in (5, 2, -1):
            began = time.monotonic()
            with pytest.raises(MPIRuntimeError, match="invalid rank"):
                comm.recv(np.zeros(1), source, 0)
            with pytest.raises(MPIRuntimeError, match="invalid rank"):
                comm.irecv(np.zeros(1), source, 0)
            assert time.monotonic() - began < 0.1
