"""Kernels split by rows across CPUs give the bits of one thread.

``rows.over_row_ranges`` runs a kernel's ``part(lo, hi)`` over contiguous
row ranges, one per thread, dealt in order to whichever thread is free, the
calling thread taking the first. The helper's own traps come first: it waits
for every range before it returns or raises, leaves a late helper's range to
the caller, starts no range after an error, runs nested and small calls
serially, builds one pool for concurrent callers, rebuilds it in a forked
child, and moves a helper off the caller's CPU without keeping it off. Then
each split kernel (the similarity block, LOF's neighbour search and the fast
branch of ``sort_rows``) runs with the work threshold at 0, which splits
every call, and at the int64 maximum, which splits none; the two outputs
must agree bit for bit.
"""

import concurrent.futures
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from fuzzyrough import approx, choquet, outliers, rows

SERIAL = np.iinfo(np.int64).max


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool built inside the test, shut down after it, and the old one kept."""
    monkeypatch.setattr(rows, "_pool", None)
    yield
    if rows._pool is not None:
        rows._pool.shutdown(wait=True)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _late(help_):
    """A pool task that starts half a second after it is submitted."""
    def late(*args):
        time.sleep(0.5)
        help_(*args)
    return late


def _record(calls):
    def part(lo, hi):
        calls.append((lo, hi, threading.current_thread() is threading.main_thread()))
    return part


@pytest.mark.usefixtures("fresh_pool")
class TestHelper:
    @pytest.mark.parametrize("count,n,ranges", [
        (2, 7, [(0, 3), (3, 7)]),
        (3, 7, [(0, 2), (2, 4), (4, 7)]),
        (4, 3, [(0, 1), (1, 2), (2, 3)]),  # no more ranges than rows
    ])
    def test_ranges_cover_every_row_once_and_the_caller_takes_the_first(
            self, monkeypatch, count, n, ranges):
        _cpus(monkeypatch, count)
        calls = []
        rows.over_row_ranges(_record(calls), n, rows.PARALLEL_WORK)
        assert sorted((lo, hi) for lo, hi, _ in calls) == ranges
        assert [main for lo, _, main in calls if lo == 0] == [True]

    @pytest.mark.parametrize("count", [2, 3])
    def test_a_late_helper_leaves_its_range_to_the_caller(self, monkeypatch, count):
        _cpus(monkeypatch, count)
        monkeypatch.setattr(rows, "_help", _late(rows._help))
        calls = []
        rows.over_row_ranges(_record(calls), 9, rows.PARALLEL_WORK)
        bounds = [9 * i // count for i in range(count + 1)]
        assert calls == [(lo, hi, True) for lo, hi in zip(bounds, bounds[1:])]

    @pytest.mark.parametrize("n,work,count", [
        (0, SERIAL, 4), (1, SERIAL, 4),  # zero or one row
        (9, SERIAL, 1),  # one allowed CPU
        (9, rows.PARALLEL_WORK - 1, 4),  # below the threshold
    ])
    def test_serial_on_the_calling_thread_without_a_pool(self, monkeypatch, n, work, count):
        _cpus(monkeypatch, count)
        calls = []
        rows.over_row_ranges(_record(calls), n, work)
        assert calls == [(0, n, True)]
        assert rows._pool is None

    @pytest.mark.parametrize("failing", [0, 2])  # the caller's range, a later range
    def test_every_started_range_finishes_before_an_error_propagates(self, monkeypatch, failing):
        _cpus(monkeypatch, 3)
        started, finished = [], []
        second_started = threading.Event()

        def part(lo, hi):
            started.append(lo)
            if lo == 2:
                second_started.set()
            if lo == failing:
                if lo == 0:
                    # no range starts after an error, so the caller's range
                    # fails only once a helper has taken range 2
                    second_started.wait(timeout=5.0)
                raise ValueError(f"range {lo}")
            time.sleep(0.2)
            finished.append(lo)

        with pytest.raises(ValueError, match=f"^range {failing}$"):
            rows.over_row_ranges(part, 6, rows.PARALLEL_WORK)
        # ranges are dealt in order, so range 2 starts before range 4;
        # range 4 may be dropped after the error
        assert {0, 2} <= set(started)
        assert sorted(finished) == sorted(set(started) - {failing})

    def test_no_range_starts_after_an_error(self, monkeypatch):
        # the helper wakes after the caller's range failed: it finds no range
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(rows, "_help", _late(rows._help))
        started = []

        def part(lo, hi):
            started.append(lo)
            raise ValueError(f"range {lo}")

        with pytest.raises(ValueError, match="^range 0$"):
            rows.over_row_ranges(part, 8, rows.PARALLEL_WORK)
        assert started == [0]

    def test_no_range_writes_after_return(self, monkeypatch):
        _cpus(monkeypatch, 2)
        out = np.zeros(4)

        def part(lo, hi):
            if lo:
                time.sleep(0.2)
            out[lo:hi] = 1.0

        rows.over_row_ranges(part, 4, rows.PARALLEL_WORK)
        assert out.tolist() == [1.0] * 4

    def test_call_from_a_helper_thread_runs_serially(self, monkeypatch):
        # two CPUs give a pool of one thread: a nested split there would wait
        # on a range queued behind the very thread that waits
        _cpus(monkeypatch, 2)
        outer_threads, inner = {}, []
        second_taken = threading.Event()

        def outer(lo, hi):
            outer_threads[lo] = threading.get_ident()
            if lo == 0:  # hold the caller until the helper has taken range 1
                second_taken.wait(30)
            else:
                second_taken.set()
            rows.over_row_ranges(lambda a, b: inner.append((lo, a, b, threading.get_ident())),
                                 5, rows.PARALLEL_WORK)

        caller = threading.Thread(target=rows.over_row_ranges,
                                  args=(outer, 2, rows.PARALLEL_WORK), daemon=True)
        caller.start()
        caller.join(30)
        assert not caller.is_alive(), "nested call deadlocked"
        helper = outer_threads[1]
        assert helper != caller.ident
        assert [call for call in inner if call[0] == 1] == [(1, 0, 5, helper)]
        # the caller's own nested call still splits
        assert sorted(call[1:3] for call in inner if call[0] == 0) == [(0, 2), (2, 5)]

    def test_concurrent_callers_share_one_pool_and_cover_each_row_once(self, monkeypatch):
        # eight callers at once, more ranges than this machine may have cores,
        # and a switch interval short enough to interleave them anywhere
        _cpus(monkeypatch, 4)
        built = []
        executor = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda *args: built.append(args) or executor(*args))
        counts = np.zeros((8, 1000), dtype=np.int64)

        def caller(c):
            def part(lo, hi):
                counts[c, lo:hi] += 1
            for _ in range(20):
                rows.over_row_ranges(part, 1000, rows.PARALLEL_WORK)

        callers = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert len(built) == 1
        assert np.all(counts == 20)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        _cpus(monkeypatch, 2)
        rows.over_row_ranges(_record([]), 4, rows.PARALLEL_WORK)
        assert rows._pool is not None
        with warnings.catch_warnings():
            # forking a process that runs threads is what this test is about
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # child: its inherited pool has no threads behind it
            status = 1
            try:
                if rows._pool is None:
                    out = np.zeros(4)

                    def part(lo, hi):
                        out[lo:hi] = lo + 1

                    rows.over_row_ranges(part, 4, rows.PARALLEL_WORK)
                    status = 0 if out.tolist() == [1, 1, 3, 3] else 2
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_a_helper_on_the_callers_cpu_steps_off_and_keeps_every_cpu(self, monkeypatch):
        _cpus(monkeypatch, 3)
        moves = []

        def record(pid, cpus):
            moves.append((threading.get_ident(), pid, set(cpus)))

        monkeypatch.setattr(os, "sched_setaffinity", record)
        monkeypatch.setattr(rows, "_current_cpu", lambda: 1)  # every thread on CPU 1
        rows.over_row_ranges(_record([]), 6, rows.PARALLEL_WORK)
        # two helper tasks (one pool thread may run both), each stepping off
        # CPU 1 and then allowing all three again; the caller never moves
        helpers = {ident for ident, _, _ in moves}
        assert threading.get_ident() not in helpers
        per_helper = [[move[1:] for move in moves if move[0] == helper] for helper in helpers]
        assert sorted(len(seq) for seq in per_helper) in ([4], [2, 2])
        for seq in per_helper:
            assert seq == [(0, {0, 2}), (0, {0, 1, 2})] * (len(seq) // 2)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_a_helper_elsewhere_stays_put(self, monkeypatch):
        _cpus(monkeypatch, 2)
        moves = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(cpus))
        monkeypatch.setattr(rows, "_current_cpu", lambda: int(
            threading.current_thread() is not threading.main_thread()))
        calls = []
        rows.over_row_ranges(_record(calls), 6, rows.PARALLEL_WORK)
        assert moves == []
        assert sorted(call[:2] for call in calls) == [(0, 3), (3, 6)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_a_refused_move_still_computes_every_range(self, monkeypatch):
        _cpus(monkeypatch, 2)

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        monkeypatch.setattr(rows, "_current_cpu", lambda: 0)
        calls = []
        rows.over_row_ranges(_record(calls), 6, rows.PARALLEL_WORK)
        assert sorted(call[:2] for call in calls) == [(0, 3), (3, 6)]

    @pytest.mark.skipif(not os.path.exists("/proc/thread-self/stat"), reason="needs Linux /proc")
    def test_current_cpu_is_one_the_thread_may_run_on(self):
        assert rows._current_cpu() in os.sched_getaffinity(0)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
    def test_helpers_may_run_on_every_allowed_cpu_after_a_split(self):
        allowed = os.sched_getaffinity(0)
        seen = []

        def part(lo, hi):
            seen.append(os.sched_getaffinity(0))
            time.sleep(0.01)

        for _ in range(5):
            rows.over_row_ranges(part, 2 * len(allowed), rows.PARALLEL_WORK)
        assert seen and all(cpus == allowed for cpus in seen)


def _both(monkeypatch, fn):
    """fn() split into three ranges and on one thread."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(rows, "PARALLEL_WORK", 0)
    split = fn()
    monkeypatch.setattr(rows, "PARALLEL_WORK", SERIAL)
    return split, fn()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSimilarity:
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 10])  # 7 and 10 leave ranges of two sizes
    def test_block_with_a_constant_attribute(self, monkeypatch, n_rows):
        rng = np.random.default_rng(n_rows)
        X = rng.normal(size=(40, 4))
        X[:, 2] = 3.0  # sigma = 0: similarity on it is an equality test
        block = rng.normal(size=(n_rows, 4))
        block[::2, 2] = 3.0
        block[1::3, 0] = X[5, 0]
        sigmas = np.std(X, axis=0, ddof=1)
        assert sigmas[2] == 0.0
        split, serial = _both(monkeypatch, lambda: approx.similarity_to_test(X, sigmas, block))
        assert _same_bits(split, serial)

    def test_matrix(self, monkeypatch):
        X = np.random.default_rng(3).integers(0, 4, (31, 3)).astype(float)
        sigmas = np.std(X, axis=0, ddof=1)
        split, serial = _both(monkeypatch, lambda: approx.similarity_matrix(X, sigmas))
        assert _same_bits(split, serial)
        assert np.all(np.diag(split) == 1.0)


class TestLof:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_duplicates_and_ties_at_the_kth_distance(self, monkeypatch, k):
        # lattice points: many neighbours share the k-th distance; the first
        # rows repeat, so some distances are 0
        grid = np.array([[i, j] for i in range(6) for j in range(5)], dtype=float)
        pts = np.vstack([grid[:4], grid])
        split, serial = _both(monkeypatch, lambda: outliers.lof_scores(pts, k))
        assert _same_bits(split, serial)

    def test_ranges_with_blocks_of_their_own(self, monkeypatch):
        # 2^20 / (n * m) = 3 rows of block buffer shared by three ranges of
        # 66 or 67 rows: one range gets no share and blocks one row at a
        # time in a buffer of its own, the others take one and two rows
        pts = np.random.default_rng(5).normal(size=(200, 1500))
        pts[7] = pts[3]
        split, serial = _both(monkeypatch, lambda: outliers.lof_scores(pts, 5))
        assert _same_bits(split, serial)


class TestSortRows:
    @pytest.fixture(autouse=True)
    def fast_branch(self, monkeypatch):
        monkeypatch.setattr(choquet, "FAST_SORT_VALUES", 0)

    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_tied_rows_and_signed_zeros(self, monkeypatch, n_rows):
        rng = np.random.default_rng(n_rows)
        values = rng.choice([0.0, -0.0, 0.25, 0.5], size=(n_rows, 97))
        values[::2] = rng.random((len(values[::2]), 97))  # tie-free rows
        if n_rows > 1:
            values[1, [4, 60]] = [-0.0, 0.0]
        split, serial = _both(monkeypatch, lambda: choquet.sort_rows(values))
        for got, ref in zip(split, serial):
            assert _same_bits(got, ref)
        stable = np.argsort(values, axis=-1, kind="stable")
        assert np.array_equal(split[0], stable)
        assert _same_bits(split[1], np.take_along_axis(values, stable, axis=-1))
