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
import mmap
import os
import signal
from collections.abc import Callable, Iterator
from hashlib import sha256

HELPER_THRESHOLD = 64  # more items than this fork a helper
# An item's state byte: free, claimed by the helper, done by the helper, taken by the caller.
FREE, BUSY, DONE, TAKEN = 0, 1, 2, 3
_FREE = bytes([FREE])
TAG_SIZE = 8  # a slot's tag: the first bytes of SHA-256 over its item's index and result


@contextlib.contextmanager
def worked_ahead(count: int, width: int, work: Callable[[int], bytes]) -> Iterator[Iterator[bytes]]:
    """The results of ``work(0)`` to ``work(count - 1)``, in order: each made by a
    helper forked for more than HELPER_THRESHOLD items or in this process. An item
    both sides claim at once is done twice.

    The map holds a state byte per item, then a slot per item: the ``width``-byte
    result and its tag (``_tagged``). The helper writes a slot, then sets its
    state byte DONE. The caller takes a DONE slot only if its tag matches, and
    does the item itself otherwise, so a result is exact in whatever order one
    process sees the other's stores. The helper is killed and reaped when the
    block exits, however it exits; one that cannot start leaves every item here.
    """
    width += TAG_SIZE
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
        yield _consumed(shared, count, width, work) if pid else map(work, range(count))
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
        shared[slot : slot + width] = _tagged(item, work(item))
        shared[item] = DONE
        item = shared.find(_FREE, item + 1, count)


def _consumed(shared: mmap.mmap, count: int, width: int, work: Callable[[int], bytes]) -> Iterator[bytes]:
    """The caller's side: each result in order, the helper's or its own."""
    ahead: dict[int, bytes] = {}  # results of items this side took ahead of its place
    for item in range(count):
        result = ahead.pop(item, None)
        while result is None:
            state = shared[item]
            slot = shared[count + item * width : count + (item + 1) * width]
            if state == DONE and slot == _tagged(item, slot[:-TAG_SIZE]):
                result = slot[:-TAG_SIZE]
            elif state != BUSY or (later := shared.find(_FREE, item + 1, count)) < 0:
                # done here: free, done in a slot not yet whole here, or busy in a helper that may be dead
                shared[item] = TAKEN
                result = work(item)
            else:  # busy in the helper: work the next free item instead of waiting
                shared[later] = TAKEN
                ahead[later] = work(later)
        yield result


def _tagged(item: int, result: bytes) -> bytes:
    """``result`` and its tag: the first TAG_SIZE bytes of SHA-256 over ``item`` and ``result``."""
    return result + sha256(item.to_bytes(8, "big") + result).digest()[:TAG_SIZE]
