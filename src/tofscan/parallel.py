"""Order-preserving map over a persistent thread pool.

A scan's independent units (one device's capture, one device's raster stage,
one ICP level, one chain edge, one block of PCA normals, one marching-cubes
slab, one metrology block) spend their time in numpy and scipy calls that
release the interpreter lock, so threads run them side by side. The pool runs
every item of a map while the caller waits for the results. Each unit keeps
its own arithmetic, so results do not depend on the worker count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

__all__ = ["map_ordered", "trim_heap"]

# The pool has WORKERS + 1 threads, one per usable core, since the caller
# only waits; WORKERS = 0 runs every map inline.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1) - 1

_THREAD_PREFIX = "tofscan-map"
_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_malloc_trim = _find_malloc_trim()


def _pool() -> ThreadPoolExecutor:
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(WORKERS + 1, thread_name_prefix=_THREAD_PREFIX)
        return _executor


def trim_heap() -> None:
    """Return the C heap's freed memory to the system (glibc's ``malloc_trim``;
    nothing where the C library has none)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]``, with the items run on the pool.

    A map called from inside an item runs inline on that item's thread: the
    pool's threads are already busy with the outer items. If items raise, the
    exception of the first failing item in order is raised once every started
    item has finished; items not yet started are skipped.
    """
    items = list(items)
    if (WORKERS < 1 or len(items) < 2
            or threading.current_thread().name.startswith(_THREAD_PREFIX)):
        return [fn(x) for x in items]

    futures = [_pool().submit(fn, x) for x in items]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()
        wait(futures)
        # freed worker-arena memory goes back to the system, where the
        # caller's own arena could not reuse it
        trim_heap()
