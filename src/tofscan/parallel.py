"""Order-preserving map over a persistent thread pool.

A scan's independent units (one device's capture, one device's raster stage,
one ICP level, one chain edge, one block of PCA normals) spend their time in
numpy and scipy calls that release the interpreter lock, so threads run them
side by side. Each unit keeps its own arithmetic, so results do not depend on
the worker count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = ["map_ordered"]

# The calling thread takes items too, so one worker per other usable core.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1) - 1

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()
_in_item = threading.local()


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
            _executor = ThreadPoolExecutor(WORKERS, thread_name_prefix="tofscan-map")
        return _executor


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]``, with the items shared by the caller and the pool.

    A map called from inside an item runs inline: the pool's threads are
    already busy with the outer items. If items raise, the exception of the
    first failing item in order is raised once every started item has
    finished; items not yet started are skipped.
    """
    items = list(items)
    helpers = min(WORKERS, len(items) - 1)
    if helpers < 1 or getattr(_in_item, "active", False):
        return [fn(x) for x in items]

    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    cursor = {"next": 0, "stop": False}

    def drain():
        _in_item.active = True
        try:
            while True:
                with lock:
                    i = cursor["next"]
                    if cursor["stop"] or i == len(items):
                        return
                    cursor["next"] = i + 1
                try:
                    results[i] = fn(items[i])
                except BaseException as e:  # re-raised in the caller below
                    with lock:
                        errors[i] = e
                        cursor["stop"] = True
        finally:
            _in_item.active = False

    futures = [_pool().submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        with lock:  # the caller returns only when every item is taken, unless interrupted
            cursor["stop"] = True
        for f in futures:
            if not f.cancel():
                f.result()
        # freed worker-arena memory goes back to the system, where the
        # caller's own arena could not reuse it
        if _malloc_trim is not None:
            _malloc_trim(0)
    if errors:
        raise errors[min(errors)]
    return results
