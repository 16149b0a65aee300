import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyrough import outliers, rows
from fuzzyrough.data import DecisionSystem
from fuzzyrough.outliers import (
    DISTANCE_FLOOR,
    FAST_KNN_DISTANCES,
    _neighbors,
    label_outliers,
    lof_scores,
    normalize_scores,
    per_class_scores,
    scored_with_labels,
)
from fuzzyrough.sets import DomainError


def brute_force_lof(points, k):
    """Plain-python reachability-based reference, exhaustive over all pairs.

    Mirrors the production contract: k nearest neighbors with index
    tie-break, distances floored at DISTANCE_FLOOR.
    """
    pts = [list(map(float, np.atleast_1d(p))) for p in points]
    n = len(pts)

    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])))

    def neighbors(i):
        order = sorted((dist(i, j), j) for j in range(n) if j != i)
        return [j for _, j in order[:k]]

    nb = {i: neighbors(i) for i in range(n)}
    kdist = {i: max(dist(i, nb[i][-1]), DISTANCE_FLOOR) for i in range(n)}

    def lrd(i):
        reach = [max(kdist[j], dist(i, j), DISTANCE_FLOOR) for j in nb[i]]
        return 1.0 / (sum(reach) / len(reach))

    lrds = {i: lrd(i) for i in range(n)}
    return [sum(lrds[j] for j in nb[i]) / len(nb[i]) / lrds[i] for i in range(n)]


def full_tensor_lof(points, k):
    """LOF with the whole n x n x m difference tensor built at once.

    The same arithmetic as lof_scores, without its row blocks; the two must
    agree bit for bit.
    """
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    k_dist = np.maximum(np.take_along_axis(dist, neighbors[:, -1:], axis=1)[:, 0],
                        DISTANCE_FLOOR)
    reach = np.maximum(k_dist[neighbors],
                       np.maximum(np.take_along_axis(dist, neighbors, axis=1), DISTANCE_FLOOR))
    lrd = 1.0 / np.mean(reach, axis=1)
    return np.mean(lrd[neighbors], axis=1) / lrd


class TestLofScores:
    def test_identical_points_score_one(self):
        pts = np.ones((6, 2)) * 3.7
        assert np.allclose(lof_scores(pts, 3), 1.0)

    def test_uniform_grid_interior_near_one(self):
        pts = np.arange(20.0)[:, None]
        scores = lof_scores(pts, 3)
        interior = scores[4:-4]
        oracle = brute_force_lof(pts, 3)
        assert np.allclose(scores, oracle, atol=1e-9)
        assert np.all(np.abs(interior - 1.0) < 0.2)

    def test_far_point_scores_high(self):
        pts = np.concatenate([np.arange(10.0), [100.0]])[:, None]
        scores = lof_scores(pts, 3)
        oracle = brute_force_lof(pts, 3)
        assert np.allclose(scores, oracle, atol=1e-9)
        assert scores[-1] > 2.0

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(4, 31))
            d = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, d))
            for k in (1, 3):
                if n < k + 1:
                    continue
                assert np.allclose(lof_scores(pts, k), brute_force_lof(pts, k), atol=1e-9)

    def test_row_blocks_equal_full_tensor(self):
        # 400 x 30 spans several row blocks of 2^20 difference elements
        rng = np.random.default_rng(44)
        pts = rng.normal(size=(400, 30))
        pts[50:60] = pts[7]  # duplicate points: zero distances, tied neighbors
        pts[399] = pts[0]
        for k in (1, 20, 399):  # 399 is the class-size clamp n - 1
            assert np.array_equal(lof_scores(pts, k), full_tensor_lof(pts, k))

    def test_row_blocks_equal_full_tensor_wide_and_narrow(self):
        # one row per block at 8 x 70000, a partial last block at 20 x 4000
        rng = np.random.default_rng(45)
        for n, m in ((3, 1), (40, 1), (8, 70000), (20, 4000), (300, 4)):
            pts = np.round(rng.normal(size=(n, m)), 1)  # coarse grid: ties
            for k in (1, n - 1):
                assert np.array_equal(lof_scores(pts, k), full_tensor_lof(pts, k))

    def test_partial_neighbor_selection_equals_full_tensor(self):
        # 160 points on a coarse grid with 20 duplicates: the class is large
        # enough for the Gram prefilter, and k-th distances recur
        assert 160 * 160 >= FAST_KNN_DISTANCES
        rng = np.random.default_rng(47)
        pts = np.round(rng.normal(size=(160, 3)), 1)
        pts[140:] = pts[rng.choice(140, size=20, replace=False)]
        for k in (1, 5, 20, 159):
            assert np.array_equal(lof_scores(pts, k), full_tensor_lof(pts, k))

    def test_memory_stays_below_n_squared_m(self):
        # a 1200 x 1200 x 30 difference tensor would be 345 MB; the distance
        # matrix and the neighbor order are 11.5 MB each
        pts = np.random.default_rng(46).normal(size=(1200, 30))
        tracemalloc.start()
        try:
            lof_scores(pts, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20

    def test_memory_holds_no_distance_matrix(self):
        # one Gram block of 2^16 values and its candidates per row range,
        # plus k neighbors per point; the 1200 x 1200 distance matrix and its
        # argsort would add 23 MB
        pts = np.random.default_rng(46).normal(size=(1200, 30))
        tracemalloc.start()
        try:
            lof_scores(pts, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            lof_scores(np.zeros((3, 2)), 3)
        with pytest.raises(DomainError):
            lof_scores(np.zeros((3, 2)), 0)


def full_neighbors(points, k):
    """The first k columns of the stable argsort of the whole distance
    matrix, each point at distance inf from itself, and their distances."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def assert_full_matrix_bits(points, k):
    """``_neighbors`` and ``lof_scores`` have the bits of the full matrix."""
    got, near = _neighbors(np.asarray(points, dtype=float), k)
    want, want_near = full_neighbors(points, k)
    assert np.array_equal(got, want)
    assert np.array_equal(near.view(np.int64), want_near.view(np.int64))
    assert np.array_equal(lof_scores(points, k).view(np.int64),
                          full_tensor_lof(points, k).view(np.int64))
    return got


@pytest.fixture(params=("stable", "fast"))
def knn_kernel(request, monkeypatch):
    """Run a test once with every class on the exact blocked search and its
    stable sort, and once with every class on the Gram prefilter."""
    threshold = {"stable": np.iinfo(np.int64).max, "fast": 0}[request.param]
    monkeypatch.setattr(outliers, "FAST_KNN_DISTANCES", threshold)


@pytest.mark.usefixtures("knn_kernel")
class TestNearest:
    """The neighbors lof_scores reads are exactly the first k columns of the
    stable argsort of the full distance matrix, with their distances' bits,
    whichever search finds them. NaN and signed-zero distances, which the
    stable sort orders in its own way, cannot arise from finite points: a
    sum of squares is never NaN or -0.0."""

    @pytest.mark.parametrize("n", (2, 3, 50, 127, 128, 300))
    def test_tie_heavy_grid(self, n):
        rng = np.random.default_rng(n)
        points = rng.integers(0, 5, (n, 3)).astype(float)  # equal distances abound
        for k in sorted({1, min(2, n - 1), min(20, n - 1), n - 1}):
            assert_full_matrix_bits(points, k)

    @pytest.mark.parametrize("n", (127, 128, 300))
    def test_mixed_signed_zeros(self, n):
        rng = np.random.default_rng(100 + n)
        points = rng.choice([0.0, -0.0, 1.0, 2.0], size=(n, 2))
        for k in (1, 5, n - 1):
            assert_full_matrix_bits(points, k)

    @pytest.mark.parametrize("n", (127, 128, 300))
    def test_kth_distance_recurs_outside_the_chosen(self, n):
        k = 5
        x = np.arange(n, dtype=float) + 10.0
        x[0] = 0.0
        x[[n - 20, 20, 90, 3]] = [1.0, 2.0, 3.0, 4.0]
        # point 0's 5th smallest distance, 5.0, at three points: index 60 wins
        x[[n - 10, 60, n - 40]] = 5.0
        assert assert_full_matrix_bits(x[:, None], k)[0, -1] == 60
        # and at a point before every chosen index, which wins instead
        x[1] = -5.0
        assert assert_full_matrix_bits(x[:, None], k)[0, -1] == 1

    @pytest.mark.parametrize("n", (127, 128, 300))
    def test_k_is_n_minus_one(self, n):
        rng = np.random.default_rng(300 + n)
        assert_full_matrix_bits(np.round(rng.random((n, 2)), 1), n - 1)

    def test_nan_distances(self):
        # two clusters near +-1e154 in 4 attributes: the centred squared norms
        # overflow, so the Gram estimates are inf and NaN and keep every
        # column a candidate, while the distances within a cluster are finite
        rng = np.random.default_rng(8)
        side = np.where(np.arange(200) < 100, 1e154, -1e154)[:, None]
        points = side + rng.normal(size=(200, 4)) * 1e150
        centred = points - points.mean(axis=0)
        with np.errstate(over="ignore"):
            assert np.isinf(np.einsum("ij,ij->i", centred, centred)).all()
        for k in (1, 20, 99):
            assert_full_matrix_bits(points, k)

    def test_overflowing_neighbor_distance_raises(self):
        # the far point's distances square to inf, and so would its LOF's
        # densities
        points = np.random.default_rng(11).normal(size=(120, 3))
        points[7, 1] = 1e160
        with pytest.raises(DomainError, match="^LOF neighbor distances overflow"):
            lof_scores(points, 20)

    @pytest.mark.parametrize("offset, scale", ((0.0, 1e-3), (1e5, 1.0), (1e5, 1e-3),
                                               (0.0, 1e5), (0.0, 1e-200), (0.0, 1e-160)))
    def test_offsets_and_scales(self, offset, scale):
        # far from the origin the Gram matrix of uncentred points would lose
        # the distances; at 1e-160 the squares are subnormal, and at 1e-200
        # every square underflows to 0
        rng = np.random.default_rng(9)
        points = offset + np.round(rng.normal(size=(150, 6)), 1) * scale
        for k in (1, 20):
            assert_full_matrix_bits(points, k)

    @pytest.mark.parametrize("work", (0, np.iinfo(np.int64).max))
    def test_row_range_split_on_and_off(self, monkeypatch, work):
        # 400 rows: two ranges cut the Gram blocks of 163 rows elsewhere than
        # one serial pass does
        monkeypatch.setattr(rows, "PARALLEL_WORK", work)
        rng = np.random.default_rng(10)
        points = np.round(rng.normal(size=(400, 5)), 1)
        points[300:] = points[:100]
        for k in (1, 20, 399):
            assert_full_matrix_bits(points, k)


@pytest.mark.parametrize("n", (90, 91))
def test_lof_on_both_sides_of_the_switch(monkeypatch, n):
    """90 points (8,100 distances) take the exact search, 91 (8,281) the Gram
    prefilter; both give the full matrix's bits."""
    calls = []
    prefiltered = outliers._prefiltered
    monkeypatch.setattr(outliers, "_prefiltered", lambda *a: calls.append(a) or prefiltered(*a))
    rng = np.random.default_rng(n)
    for points in (rng.normal(size=(n, 30)), rng.integers(0, 3, (n, 30)).astype(float)):
        for k in (1, 20, n - 1):
            assert_full_matrix_bits(points, k)
    assert bool(calls) == (n * n >= FAST_KNN_DISTANCES)


def test_gram_products_stay_within_one_blas_thread(monkeypatch):
    """Every Gram product of the prefilter has at most GEMM_WORK
    multiply-adds, and together they write each Gram value once."""
    shapes = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        shapes.append((a.shape[0], b.shape[1], a.shape[1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    points = np.random.default_rng(12).normal(size=(1500, 30))
    lof_scores(points, 20)
    assert shapes and all(m * n * k <= outliers.GEMM_WORK for m, n, k in shapes)
    assert sum(m * n for m, n, _ in shapes) == 1500 * 1500


@pytest.mark.parametrize("work", (1, 2**40))
def test_gram_chunks_keep_the_scores_bits(monkeypatch, work):
    """One column per product, or the whole block in one: the same scores as
    the default chunks, which only choose candidates."""
    rng = np.random.default_rng(13)
    points = np.round(rng.normal(size=(300, 7)), 1)
    points[250:] = points[:50]
    default = lof_scores(points, 20)
    monkeypatch.setattr(outliers, "GEMM_WORK", work)
    assert lof_scores(points, 20).tobytes() == default.tobytes()
    assert_full_matrix_bits(points, 20)


@given(st.integers(2, 120), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from((1e-3, 1.0, 1e5)))
def test_neighbors_have_the_full_matrix_bits(n, m, seed, grid, scale):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m))
    if grid:
        points = np.round(points, 0)  # ties and duplicates
    points = points * scale
    k = int(rng.integers(1, n))
    for threshold in (0, np.iinfo(np.int64).max):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(outliers, "FAST_KNN_DISTANCES", threshold)
            assert_full_matrix_bits(points, k)


class TestNormalizeScores:
    def test_constant_maps_to_zero(self):
        assert np.array_equal(normalize_scores(np.full(5, 2.3)), np.zeros(5))

    def test_mean_maps_to_zero(self):
        raw = np.array([1.0, 2.0, 3.0])
        assert normalize_scores(raw)[1] == 0.0

    def test_single_spike(self):
        got = normalize_scores(np.array([1.0, 1.0, 1.0, 1.0, 5.0]))
        assert got[-1] > 0.9
        assert np.array_equal(got[:-1], np.zeros(4))

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=20))
    def test_monotone_and_in_unit_interval(self, raw):
        raw = np.asarray(raw)
        got = normalize_scores(raw)
        assert np.all((got >= 0.0) & (got <= 1.0))
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(got[order]) >= -1e-12)


def two_cluster_ds(rng, n_per=12, spread=0.5, gap=50.0):
    a = rng.normal(0.0, spread, size=(n_per, 2))
    b = rng.normal(gap, spread, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.array(["a"] * n_per + ["b"] * n_per, dtype=object)
    return DecisionSystem(("f0", "f1"), X, y)


class TestPerClassScores:
    def test_two_clean_clusters_low_scores(self):
        rng = np.random.default_rng(3)
        ds = two_cluster_ds(rng)
        scores = per_class_scores(ds, k=3)
        for label in ("a", "b"):
            idx = np.flatnonzero(ds.y == label)
            oracle = normalize_scores(np.array(brute_force_lof(ds.X[idx], 3)))
            assert np.allclose(scores.normalized[idx], oracle, atol=1e-9)
        assert scores.normalized.mean() < 0.3

    def test_planted_point_is_class_maximum(self):
        rng = np.random.default_rng(5)
        ds = two_cluster_ds(rng)
        X = ds.X.copy()
        X[0] = [1000.0, 1000.0]  # far from its own class "a"
        planted = DecisionSystem(ds.attributes, X, ds.y)
        scores = per_class_scores(planted, k=3)
        idx_a = np.flatnonzero(planted.y == "a")
        assert scores.normalized[0] == scores.normalized[idx_a].max()
        assert scores.normalized[0] > 0.5

    def test_single_class_equals_global(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 3))
        ds = DecisionSystem(("a", "b", "c"), X, np.array(["z"] * 15, dtype=object))
        got = per_class_scores(ds, k=4)
        assert np.allclose(got.raw, lof_scores(X, 4), atol=1e-12)

    def test_k_clamped_for_small_class(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(size=(3, 2)), rng.normal(10, 1, size=(30, 2))])
        y = np.array(["small"] * 3 + ["big"] * 30, dtype=object)
        ds = DecisionSystem(("f0", "f1"), X, y)
        scores = per_class_scores(ds, k=20)  # small class forces k = 2
        idx = np.flatnonzero(y == "small")
        assert np.allclose(scores.raw[idx], brute_force_lof(X[:3], 2), atol=1e-9)

    def test_within_class_permutation_invariance(self):
        rng = np.random.default_rng(11)
        ds = two_cluster_ds(rng)
        perm = np.concatenate([rng.permutation(12), 12 + rng.permutation(12)])
        shuffled = DecisionSystem(ds.attributes, ds.X[perm], ds.y[perm])
        s1 = per_class_scores(ds, k=3)
        s2 = per_class_scores(shuffled, k=3)
        assert np.allclose(s2.raw, s1.raw[perm], atol=1e-12)


class TestLabelOutliers:
    def test_zero_contamination(self):
        rng = np.random.default_rng(13)
        ds = two_cluster_ds(rng)
        scores = per_class_scores(ds, k=3)
        assert not label_outliers(scores, 0.0).any()

    def test_count_rule(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(10, 2))
        ds = DecisionSystem(("f0", "f1"), X, np.array(["u"] * 5 + ["v"] * 5, dtype=object))
        scores = per_class_scores(ds, k=2)
        assert label_outliers(scores, 0.1).sum() == 1
        assert label_outliers(scores, 0.25).sum() == 3  # ceil(2.5)

    def test_planted_point_is_labeled(self):
        rng = np.random.default_rng(17)
        ds = two_cluster_ds(rng)
        X = ds.X.copy()
        X[5] = [-900.0, 900.0]
        planted = DecisionSystem(ds.attributes, X, ds.y)
        scores = scored_with_labels(planted, 3, 0.1)
        assert scores.labels[5]

    def test_tie_break_by_index(self):
        from fuzzyrough.outliers import OutlierScores

        scores = OutlierScores(np.ones(4), np.array([0.5, 0.9, 0.9, 0.1]))
        mask = label_outliers(scores, 0.4)  # ceil(1.6) = 2
        assert np.array_equal(mask, [False, True, True, False])
