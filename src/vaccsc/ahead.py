"""One scheduler for the Ed25519 jobs of a run or a replay, on two cores.

A forked helper works the jobs forward, claiming each free one in a shared
map; the caller takes the results in order. When the job it needs is busy
in the helper, the caller does the next free job ahead instead of waiting,
and with none left ahead it does the busy one too, so it never waits on a
helper that may be dead. A job gives the same result in either process,
so no output depends on which side did it or on whether a helper ran.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import signal
from collections.abc import Callable, Iterator

HELPER_THRESHOLD = 64  # more items than this fork a helper
# An item's state byte: free, claimed by the helper, done by the helper, taken by the caller.
FREE, BUSY, DONE, TAKEN = 0, 1, 2, 3
_FREE = bytes([FREE])


@contextlib.contextmanager
def worked_ahead(count: int, width: int, work: Callable[[int], bytes]) -> Iterator[Iterator[bytes | None]]:
    """The results of ``work(0)`` to ``work(count - 1)``, in order: each made by a
    helper forked for more than HELPER_THRESHOLD items or in this process, or None
    for an item left to the caller. An item both sides claim at once is done twice.

    The map holds a state byte per item, then a ``width``-byte slot per item.
    The helper writes a slot before its state byte, and the caller reads the
    state before the slot, so a slot is read only once it is whole where one
    process sees the other's stores in the order they were made (x86-64 does;
    Python exposes no fence for weaker machines). The helper is killed and
    reaped when the block exits, however it exits; one that cannot start
    leaves every item here.
    """
    pid, shared = None, None
    try:
        if count > HELPER_THRESHOLD and hasattr(os, "fork"):
            with contextlib.suppress(OSError):  # no map or no helper: every item is done here
                shared = mmap.mmap(-1, count * (1 + width))
                pid = os.fork()
            if pid == 0:
                try:
                    _help(shared, count, width, work)
                finally:
                    os._exit(0)
        yield _consumed(shared, count, width, work) if pid else itertools.repeat(None, count)
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if shared is not None:
            shared.close()


def _help(shared: mmap.mmap, count: int, width: int, work: Callable[[int], bytes]) -> None:
    """The helper: each item still free, from the first forward."""
    item = shared.find(_FREE, 0, count)
    while item >= 0:
        shared[item] = BUSY
        slot = count + item * width
        shared[slot : slot + width] = work(item)
        shared[item] = DONE
        item = shared.find(_FREE, item + 1, count)


def _consumed(shared: mmap.mmap, count: int, width: int, work: Callable[[int], bytes]) -> Iterator[bytes | None]:
    """The caller's side: each result in order, the helper's or its own, or None."""
    ahead: dict[int, bytes] = {}  # results of items this side took ahead of its place
    for item in range(count):
        result = ahead.pop(item, None)
        while result is None:
            state = shared[item]
            if state == DONE:
                slot = count + item * width
                result = shared[slot : slot + width]
            elif state == FREE or (later := shared.find(_FREE, item + 1, count)) < 0:
                shared[item] = TAKEN  # left to the caller: free, or busy in a helper that may be dead
                break
            else:  # busy in the helper: work the next free item instead of waiting
                shared[later] = TAKEN
                ahead[later] = work(later)
        yield result
