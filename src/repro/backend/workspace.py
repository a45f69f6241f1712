"""The kernel workspace: large buffers are reused, not handed back to the OS.

A batch-64 training step creates and drops some forty arrays of 0.25-2.3 MiB.
Left to ``malloc``, their pages go back to the kernel when the finished graph
is dropped and the next step faults every one of them in again (2 942 minor
faults, 4.8 ms of system time per step).  :func:`empty` keeps them instead.

**Contract.**  ``empty(shape, dtype)`` returns an uninitialised C-contiguous
array like ``np.empty``, owned by the caller like any other array: there is
no release call.  Large requests come from a per-thread pool of *blocks* —
plain owning ``uint8`` arrays keyed by byte size — handed out as
``block.view(dtype).reshape(shape)``.  numpy collapses the ``.base`` of every
array derived from that view (slices, transposes, reshapes; an ``as_strided``
chain or a ``memoryview`` holds the view itself) onto the owning block, so
the block's reference count *is* the number of live arrays over its memory,
and a block is handed out again only when that count is back at its idle
baseline.  Whatever still references the memory — an activation, an array
saved for backward, a ``.grad``, something the user kept — pins its block and
the pool allocates another: no use-after-recycle by construction.

**Retention** is by replacement, with nothing to tune.  A miss on a byte size
the pool has *never held* first drops idle blocks, least recently used size
first, until as many bytes went as are about to be added: a phase change
(float32 → float64, a new batch size) replaces the old phase's blocks instead
of stacking on them.  A miss on a size it *held before* (all busy, or dropped
by that rule) means the pool was too small for its loop: it grows, evicting
nothing — evicting there would thrash, since least-recently-used is exactly
what a loop asks for next.  So phases that *alternate* (train and eval
batches, a last partial batch, eager inference over a few batch sizes) settle
on the union of their working sets, not the largest one, and a size once seen
stays a key of the pool.  :func:`trim` drops every idle block; call it where
a phase ends for good (``compile_inference`` does).

**Two fallbacks** are plain ``np.empty``: requests under 128 KiB (glibc's
default ``mmap`` threshold: ``malloc`` serves those from its heap, which stays
in the process once the large buffers no longer churn it) and interpreters
without usable reference counts (no ``sys.getrefcount``, or the GIL disabled).

**The small-request hook.**  A thread may install, with :func:`set_small`, a
function that serves its requests under the floor instead:
:class:`repro.autograd.replay.TrainReplay` hands each of them the array the
same request of its first replayed step got, so the stage tables it pins
bind them once.  The hook is the installing thread's only.

Kernels call :func:`empty` as ``workspace.empty`` (looked up per call) and
write into the result with ``out=``, keeping the order of the arithmetic.
"""

from __future__ import annotations

import math
import sys
import threading
import weakref
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["empty", "set_small", "stats", "trim"]

#: Requests below this many bytes are plain ``np.empty``.
FLOOR = 128 * 1024


def _refcount(blocks: List[np.ndarray], i: int) -> int:
    """Reference count of ``blocks[i]`` as every pool lookup reads it."""
    return sys.getrefcount(blocks[i])


#: What :func:`_refcount` reads on a block nothing else references — measured
#: through the same code because it is an interpreter detail, not a constant —
#: or ``None`` where reference counts cannot be trusted to count views.
_IDLE = (
    _refcount([np.empty(1, np.uint8)], 0)
    if hasattr(sys, "getrefcount") and getattr(sys, "_is_gil_enabled", lambda: True)()
    else None
)

#: Requests by how they were served, process-wide: one plain add per request
#: (monitoring counts, not synchronised across threads).
_REQUESTS = {"hit": 0, "miss": 0, "small": 0}


class _Local(threading.local):
    """Per thread: the pool (made by the first pooled request) and the
    small-request hook (see :func:`set_small`)."""

    pool: "Optional[_Pool]" = None
    small: Optional[Callable] = None


_LOCAL = _Local()
_POOLS: "weakref.WeakSet[_Pool]" = weakref.WeakSet()  # the live threads' pools
_LOCK = threading.Lock()  # a thread's first request adds to _POOLS while stats() reads it


class _Pool:
    """One thread's blocks, ``nbytes -> [block, ...]``, both levels ordered
    least recently used first.  A size with an empty list was held before."""

    def __init__(self) -> None:
        self.blocks: Dict[int, List[np.ndarray]] = {}
        self.peak = 0  # most bytes leased at once
        self.bound = 0  # an upper bound on the bytes leased now
        with _LOCK:
            _POOLS.add(self)

    def lease(self, nbytes: int) -> np.ndarray:
        blocks = self.blocks.pop(nbytes, None)
        if blocks is None:
            self.evict(nbytes)  # never held: replace, do not stack
            blocks = []
        self.blocks[nbytes] = blocks  # re-inserted last: the most recently used size
        # Most recently used first: the idle block most likely still in cache.
        for i in range(len(blocks) - 1, -1, -1):
            if _refcount(blocks, i) == _IDLE:
                block = blocks.pop(i)
                _REQUESTS["hit"] += 1
                break
        else:
            block = np.empty(nbytes, np.uint8)
            _REQUESTS["miss"] += 1
        blocks.append(block)
        # Counting the leased bytes is a scan of every block; it can only find
        # a new peak once the bytes leased since the last scan reach past it.
        self.bound += nbytes
        if self.bound > self.peak:
            self.bound = self.leased()
            self.peak = max(self.peak, self.bound)
        return block

    def leased(self) -> int:
        return sum(
            nbytes
            for nbytes, blocks in self.blocks.items()
            for i in range(len(blocks))
            if _refcount(blocks, i) != _IDLE
        )

    def retained(self) -> int:  # the one read other threads make (stats): over a copy
        return sum(nbytes * len(blocks) for nbytes, blocks in list(self.blocks.items()))

    def evict(self, goal: float) -> None:
        """Drop idle blocks, least recently used first, until ``goal`` bytes went."""
        for nbytes, blocks in self.blocks.items():
            i = 0
            while goal > 0 and i < len(blocks):
                if _refcount(blocks, i) == _IDLE:
                    del blocks[i]
                    goal -= nbytes
                else:
                    i += 1


def _pool() -> _Pool:
    pool = _LOCAL.pool
    if pool is None:
        pool = _LOCAL.pool = _Pool()
    return pool


def empty(shape, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` for a tuple ``shape``, pooled when large;
    under the floor, the calling thread's hook serves when one is set."""
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * math.prod(shape)
    if nbytes < FLOOR:
        small = _LOCAL.small
        if small is not None:
            return small(shape, dtype)
    elif _IDLE is not None:
        return _pool().lease(nbytes).view(dtype).reshape(shape)
    _REQUESTS["small"] += 1
    return np.empty(shape, dtype)


def set_small(hook: Optional[Callable]) -> Optional[Callable]:
    """Install ``hook(shape, dtype) -> ndarray`` as the calling thread's
    server of requests under the floor (``None``: plain ``np.empty``);
    returns the hook it replaces.  Set it in a ``try`` and put the previous
    one back in its ``finally``."""
    previous, _LOCAL.small = _LOCAL.small, hook
    return previous


def trim() -> None:
    """Drop every idle block of the calling thread's pool."""
    _pool().evict(math.inf)


def stats() -> Dict[str, int]:
    """Process-wide: requests by result (``hit``: a retained block, ``miss``:
    a new one, ``small``: plain ``np.empty``), and over the live threads'
    pools ``retained_bytes`` and ``leased_bytes_peak`` (per thread, summed)."""
    with _LOCK:
        pools = list(_POOLS)
    return dict(
        _REQUESTS,
        retained_bytes=sum(pool.retained() for pool in pools),
        leased_bytes_peak=sum(pool.peak for pool in pools),
    )
