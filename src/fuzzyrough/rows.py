"""Row-independent kernels split across the CPUs the process may run on.

A kernel whose output rows depend only on its input rows is written once as
``part(lo, hi)``, which computes rows lo..hi-1 into preallocated output.
``over_row_ranges`` cuts the rows into one contiguous range per thread and
deals the ranges in order to whichever thread is free: the calling thread
takes the first and a pool of helper threads the others, so a range whose
helper has not woken by the time the caller is done is computed by the
caller instead of waited for. Each row goes through the same operations
whichever range holds it, so the output is bit-identical to one serial call.
The pool is built on the first call that splits, so importing the package
starts no thread.
"""

from __future__ import annotations

import os
import threading

PARALLEL_WORK = 1 << 20  # smaller calls lose more to thread hand-offs than they gain

_pool = None
_pool_lock = threading.Lock()
_helper = threading.local()  # marks the pool's own threads


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _current_cpu():
    """The CPU the calling thread runs on, from Linux's /proc; None elsewhere."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _mark_helper():
    _helper.active = True


def _reset_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool and its lock but none of the threads
    os.register_at_fork(after_in_child=_reset_pool)


def _get_pool(threads: int):
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(threads, "fuzzyrough-rows", _mark_helper)
        return _pool


class _Ranges:
    """Contiguous ranges covering range(rows), handed out in order under a lock."""

    def __init__(self, rows: int, count: int):
        bounds = [rows * i // count for i in range(count + 1)]
        self._pending = iter(zip(bounds, bounds[1:]))
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            return next(self._pending, None)

    def drop(self):
        with self._lock:
            for _ in self._pending:
                pass


def _run(ranges: _Ranges, part, bounds=None) -> None:
    """Compute ranges until none is left; after an error no thread starts another."""
    bounds = bounds or ranges.take()
    while bounds is not None:
        try:
            part(*bounds)
        except BaseException:
            ranges.drop()
            raise
        bounds = ranges.take()


def _help(ranges: _Ranges, part, caller_cpu, allowed) -> None:
    # the scheduler tends to wake a helper on its waker's CPU and leave it
    # there, the two sharing one CPU while another idles; step off it first,
    # then allow every CPU again so the scheduler may move it later
    if caller_cpu is not None and _current_cpu() == caller_cpu:
        try:
            os.sched_setaffinity(0, allowed - {caller_cpu})
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass  # only where the thread runs is at stake, not what it computes
    _run(ranges, part)


def over_row_ranges(part, rows: int, work: int) -> None:
    """Run ``part(lo, hi)`` over contiguous ranges that cover range(rows).

    ``work`` estimates the element operations of the whole call, so that one
    threshold stands for about the same serial time in every kernel: a
    similarity block counts its elements once per attribute, LOF the n x n x
    m differences of the full distance matrix (which its Gram prefilter
    mostly avoids), a sort its values times the bit length of a row
    (about its comparisons). Calls with less than PARALLEL_WORK work, with
    fewer than two rows or CPUs, or from inside a helper thread (whose nested
    waits could deadlock the pool) run ``part(0, rows)`` on the calling
    thread.
    Otherwise the rows are cut into one range per thread, the calling thread
    takes the first, and each thread takes the next range left when it
    finishes one. Ranges are not cut finer: a range's kernel runs one numpy
    call after another, and two threads on short calls spend their time
    handing the GIL back and forth. Every range is waited for before this
    returns or re-raises, so an exception in any range propagates and no
    range writes after the call; after an exception no further range starts.
    """
    cpus = 1 if work < PARALLEL_WORK or getattr(_helper, "active", False) else _cpus()
    workers = min(cpus, rows)
    if workers < 2:
        part(0, rows)
        return
    ranges = _Ranges(rows, workers)
    first = ranges.take()
    pool = _get_pool(cpus - 1)
    caller_cpu = allowed = None
    if hasattr(os, "sched_setaffinity"):
        caller_cpu, allowed = _current_cpu(), os.sched_getaffinity(0)
    futures = [pool.submit(_help, ranges, part, caller_cpu, allowed)
               for _ in range(workers - 1)]
    try:
        _run(ranges, part, first)
    finally:
        for future in futures:
            future.exception()  # waits, and keeps the first error for result()
    for future in futures:
        future.result()
