import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm, rankdata

from fuzzyrough.classifier import AggregatorSpec
from fuzzyrough.data import DecisionSystem
from fuzzyrough.evaluation import (
    _exact_p_value,
    _mid_ranks,
    _normal_p_value,
    balanced_accuracy,
    crossval_accuracies,
    run_benchmark,
    stratified_kfold,
    wilcoxon_signed_rank,
    write_report_csvs,
)
from fuzzyrough.sets import DomainError


class TestStratifiedKFold:
    def test_balanced_two_class(self):
        labels = np.array(["a"] * 5 + ["b"] * 5, dtype=object)
        plan = stratified_kfold(labels, 5, seed=3)
        for fold in range(5):
            _, test = plan.train_test(fold)
            assert test.size == 2
            assert sorted(labels[test]) == ["a", "b"]

    def test_deterministic(self):
        labels = np.array(["a", "b"] * 20, dtype=object)
        p1 = stratified_kfold(labels, 5, seed=9)
        p2 = stratified_kfold(labels, 5, seed=9)
        assert np.array_equal(p1.assignments, p2.assignments)

    def test_small_class_round_robin(self):
        labels = np.array(["rare"] * 3 + ["common"] * 12, dtype=object)
        plan = stratified_kfold(labels, 5, seed=1)
        rare_folds = plan.assignments[:3]
        assert len(set(rare_folds.tolist())) == 3

    @pytest.mark.parametrize("k", (1, 0, -2))
    def test_fewer_than_two_folds_rejected(self, k):
        labels = np.array(["a", "b"] * 5, dtype=object)
        with pytest.raises(DomainError, match=rf"^cross-validation needs at least 2 folds, "
                                              rf"got {k}$"):
            stratified_kfold(labels, k, seed=0)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DomainError):
            stratified_kfold(np.array(["a", "b"], dtype=object), 3, seed=0)

    def test_stratification_invariant_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            n_classes = int(rng.integers(1, 4))
            labels = rng.integers(0, n_classes + 1, n)
            k = int(rng.integers(2, min(n, 8) + 1))
            seed = int(rng.integers(0, 10_000))
            plan = stratified_kfold(labels, k, seed)
            for label in set(labels.tolist()):
                counts = np.bincount(plan.assignments[labels == label], minlength=k)
                assert counts.max() - counts.min() <= 1

    def test_fold_left_empty_rejected_before_the_first_fold(self):
        # two classes of two, dealt from fold 0 into three folds, leave fold 2
        # empty; the protocol rejects k naming the largest class size
        labels = np.array(["a", "a", "b", "b"], dtype=object)
        assert np.bincount(stratified_kfold(labels, 3, seed=0).assignments).tolist() == [2, 2]
        message = ("cannot split into 3 folds: the largest class has 2 instances, "
                   "so fold 2 would be empty")
        ds = DecisionSystem(("x",), np.array([[0.0], [1.0], [5.0], [6.0]]), labels)
        report = run_benchmark([("tiny", ds)], [AggregatorSpec(kind="min")], k=3)
        assert report.failures == {"tiny": f"DomainError: {message}"}
        with pytest.raises(DomainError, match=f"^{message}$"):
            crossval_accuracies(ds, AggregatorSpec(kind="min"), 3, seed=0)
        # k equal to the largest class fills every fold
        assert not run_benchmark([("tiny", ds)], [AggregatorSpec(kind="min")], k=2).failures


class TestBalancedAccuracy:
    def test_two_class_formula(self):
        # TPR 0.8 (4/5), TNR 0.6 (3/5) -> 0.7
        y_true = np.array([1] * 5 + [0] * 5, dtype=object)
        y_pred = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 1], dtype=object)
        assert abs(balanced_accuracy(y_true, y_pred) - 0.7) < 1e-12

    def test_perfect(self):
        y = np.array(["x", "y", "x"], dtype=object)
        assert balanced_accuracy(y, y) == 1.0

    def test_constant_predictor(self):
        y_true = np.array(["a", "a", "b"], dtype=object)
        y_pred = np.array(["a", "a", "a"], dtype=object)
        assert balanced_accuracy(y_true, y_pred) == 0.5

    def test_label_renaming_invariance(self):
        rng = np.random.default_rng(23)
        y_true = rng.integers(0, 3, 40)
        y_pred = rng.integers(0, 3, 40)
        renamed = {0: "zebra", 1: "ant", 2: "moth"}
        a = balanced_accuracy(y_true, y_pred)
        b = balanced_accuracy([renamed[v] for v in y_true], [renamed[v] for v in y_pred])
        assert a == b


def recurrence_p_value(double_ranks, w2):
    """Count-based reference: exact integer distribution of 2*W+."""
    total_sum = int(sum(int(r) for r in double_ranks))
    counts = [0] * (total_sum + 1)
    counts[0] = 1
    for r in double_ranks:
        r = int(r)
        for s in range(total_sum, r - 1, -1):
            counts[s] += counts[s - r]
    total = 2 ** len(double_ranks)
    n_le = sum(counts[: w2 + 1])
    n_ge = sum(counts[w2:])
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def enumeration_p_value(double_ranks, w2):
    """Brute-force reference: 2*W+ of every one of the 2^m sign patterns."""
    sums = np.zeros(1 << len(double_ranks), dtype=np.int64)
    size = 1
    for r in double_ranks:
        sums[size:2 * size] = sums[:size] + int(r)
        size *= 2
    n_le = int(np.count_nonzero(sums <= w2))
    n_ge = int(np.count_nonzero(sums >= w2))
    return min(1.0, 2.0 * min(n_le, n_ge) / sums.size)


# few distinct magnitudes, so most ranks are tied mid-ranks
tied_differences = st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=20)

# rows for the mid-rank oracle: heavy ties, all-equal rows, any length 1..60
rank_rows = st.one_of(
    st.lists(st.integers(0, 3).map(lambda k: k / 4), min_size=1, max_size=60),
    st.builds(lambda v, n: [v] * n, st.floats(0, 10), st.integers(1, 60)),
    st.lists(st.floats(0, 10), min_size=1, max_size=60),
    st.lists(st.sampled_from([0.5, 2.0, np.inf]), min_size=1, max_size=60),
)


class TestWilcoxon:
    def test_all_positive_m5(self):
        res = wilcoxon_signed_rank(np.array([2.0, 3, 4, 5, 6]), np.array([1.0, 1, 1, 1, 1]))
        assert res.statistic == 0.0
        assert res.p_value == 0.0625
        assert res.reliable
        assert res.method == "exact"

    def test_identical_samples_degenerate(self):
        a = np.array([1.0, 2.0, 3.0])
        res = wilcoxon_signed_rank(a, a)
        assert res.method == "degenerate"
        assert not res.reliable
        assert res.p_value == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            r1 = wilcoxon_signed_rank(a, b)
            r2 = wilcoxon_signed_rank(b, a)
            assert r1.p_value == r2.p_value
            assert r1.rank_sum_positive == r2.rank_sum_negative
            assert r1.rank_sum_negative == r2.rank_sum_positive

    def test_enumeration_matches_recurrence_oracle(self):
        # every m <= 12, with heavy ties to stress mid-ranking
        rng = np.random.default_rng(31)
        for m in range(1, 13):
            for _ in range(20):
                d = rng.integers(-4, 5, m).astype(float)
                d[d == 0.0] = 1.0
                ranks = rankdata(np.abs(d))
                double_ranks = np.rint(2 * ranks).astype(int)
                w2 = int(round(2 * ranks[d > 0].sum()))
                assert _exact_p_value(double_ranks, w2) == recurrence_p_value(double_ranks, w2)

    def test_production_p_matches_oracle_end_to_end(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = int(rng.integers(5, 13))
            a = rng.normal(size=m)
            b = a + rng.integers(-3, 4, m) * 0.25
            res = wilcoxon_signed_rank(a, b)
            d = a - b
            d = d[d != 0]
            if d.size == 0:
                continue
            ranks = rankdata(np.abs(d))
            double_ranks = np.rint(2 * ranks).astype(int)
            w2 = int(round(2 * ranks[d > 0].sum()))
            assert res.p_value == recurrence_p_value(double_ranks, w2)

    def test_exact_close_to_normal_at_m20(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = rng.normal(size=20)
            ranks = rankdata(np.abs(d))
            double_ranks = np.rint(2 * ranks).astype(int)
            w_pos = float(ranks[d > 0].sum())
            exact = _exact_p_value(double_ranks, int(round(2 * w_pos)))
            approx = _normal_p_value(ranks, w_pos)
            assert abs(exact - approx) < 0.02

    def test_short_vector_flagged_unreliable(self):
        res = wilcoxon_signed_rank(np.array([1.0, 2, 3, 4]), np.array([0.0, 0, 0, 0]))
        assert not res.reliable
        assert 0.0 <= res.p_value <= 1.0

    @given(tied_differences, st.data())
    def test_recurrence_matches_enumeration(self, d, data):
        d = np.asarray(d, dtype=float)
        ranks = rankdata(np.abs(d))
        double_ranks = np.rint(2 * ranks).astype(np.int32)
        observed = int(round(2 * ranks[d > 0].sum()))
        anywhere = data.draw(st.integers(0, int(double_ranks.sum())))
        for w2 in (observed, anywhere):
            assert _exact_p_value(double_ranks, w2) == enumeration_p_value(double_ranks, w2)

    def test_pinned_m25_with_ties(self):
        # four distinct magnitudes over 25 differences; p-value recorded from
        # the 2^25 enumeration
        d = np.array([3, -1, 2, 2, -3, 1, 4, 2, -2, 1, 3, 1, -4,
                      2, 3, 1, 2, -1, 4, 3, 1, 2, -2, 3, 1], dtype=float)
        res = wilcoxon_signed_rank(d / 4, np.zeros(25))
        assert res.method == "exact"
        assert (res.rank_sum_positive, res.rank_sum_negative) == (247.5, 77.5)
        assert res.p_value == 0.019992530345916748

    @given(rank_rows)
    def test_mid_ranks_equal_rankdata_bit_for_bit(self, row):
        x = np.asarray(row, dtype=float)
        ours, theirs = _mid_ranks(x), rankdata(x)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    def test_normal_p_equals_the_normal_tail_oracle(self):
        # m = 26..60 with heavy ties: the p-value is 2 * norm.sf(z), z computed
        # here from the same tie-corrected, continuity-corrected statistic
        rng = np.random.default_rng(47)
        for m in range(26, 61):
            for _ in range(5):
                d = rng.integers(1, 6, m) * rng.choice([-1.0, 1.0], m) / 4
                res = wilcoxon_signed_rank(d, np.zeros(m))
                ranks = rankdata(np.abs(d))
                _, counts = np.unique(ranks, return_counts=True)
                var = (m * (m + 1) * (2 * m + 1) / 24.0
                       - float(np.sum(counts.astype(float) ** 3 - counts)) / 48.0)
                w_pos = float(ranks[d > 0].sum())
                z = max(abs(w_pos - m * (m + 1) / 4.0) - 0.5, 0.0) / np.sqrt(var)
                assert res.method == "normal"
                assert res.p_value == min(1.0, 2.0 * float(norm.sf(z)))

    def test_pinned_m30_with_ties(self):
        # four distinct magnitudes over 30 differences, on the normal path; the
        # p-value equals scipy.stats.wilcoxon(d / 4, correction=True,
        # method="approx")
        d = np.array([3, -1, 2, 2, -3, 1, 4, 2, -2, 1, 3, 1, -4, 2, 3, 1, 2, -1, 4, 3,
                      1, 2, -2, 3, 1, 4, -1, 2, 3, -2], dtype=float)
        res = wilcoxon_signed_rank(d / 4, np.zeros(30))
        assert res.method == "normal"
        assert (res.rank_sum_positive, res.rank_sum_negative) == (355.0, 110.0)
        assert res.p_value == 0.011310535154756213

    @pytest.mark.parametrize("a,b", [([1.0, np.nan, 3.0], [0.0, 0.0, 0.0]),
                                     ([1.0, np.inf, 3.0], [0.0, np.inf, 0.0])],
                             ids=["nan-sample", "inf-minus-inf"])
    def test_nan_difference_rejected(self, a, b):
        with pytest.raises(DomainError, match="paired differences must not be NaN"):
            wilcoxon_signed_rank(a, b)

    def test_infinite_difference_ranks_largest(self):
        res = wilcoxon_signed_rank([1.0, 2, np.inf, 4, 5], np.zeros(5))
        assert (res.rank_sum_positive, res.p_value) == (15.0, 0.0625)

    def test_exact_path_memory_at_limit(self):
        # the exact distribution has sum(double ranks) + 1 <= 651 entries at
        # m = 25; a 2^25 table would be 128 MiB
        rng = np.random.default_rng(43)
        a, b = rng.normal(size=25), rng.normal(size=25)
        tracemalloc.start()
        try:
            res = wilcoxon_signed_rank(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "exact"
        assert peak < 1 << 20


def tiny_dataset(seed, n_per=6, gap=8.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, size=(n_per, 2)), rng.normal(gap, 1, size=(n_per, 2))])
    y = np.array(["a"] * n_per + ["b"] * n_per, dtype=object)
    return DecisionSystem(("f0", "f1"), X, y)


class TestRunBenchmark:
    def test_single_cell_shape(self):
        report = run_benchmark([("toy", tiny_dataset(1))], [AggregatorSpec(kind="min")],
                               k=2, seed=0)
        assert report.accuracies.shape == (1, 1)
        assert not np.isnan(report.accuracies[0, 0])

    def test_identical_columns_flagged_unreliable(self):
        datasets = [(f"d{i}", tiny_dataset(i)) for i in range(5)]
        specs = [AggregatorSpec(kind="min"), AggregatorSpec(kind="min")]
        report = run_benchmark(datasets, specs, k=2, seed=0)
        assert ("Min", "Min") in report.unreliable_pairs

    def test_usage_counts_sum_to_k(self):
        datasets = [("toy", tiny_dataset(3, n_per=8))]
        specs = [AggregatorSpec(kind="comb")]
        report = run_benchmark(datasets, specs, k=4, seed=1)
        assert sum(report.usage_counts["toy"].values()) == 4

    def test_failures_recorded_not_fatal(self):
        bad = DecisionSystem(("f0",), np.array([[0.0], [1.0]]),
                             np.array(["only"] * 2, dtype=object))
        report = run_benchmark([("bad", bad), ("good", tiny_dataset(5))],
                               [AggregatorSpec(kind="avg")], k=2, seed=0)
        assert "bad" in report.failures
        assert not np.isnan(report.accuracies[1, 0])

    def test_one_fold_raised_before_any_dataset(self):
        # one fold leaves no training data; that is a bad argument, not a
        # failure of each dataset
        datasets = [("x", tiny_dataset(1)), ("y", tiny_dataset(2))]
        with pytest.raises(DomainError, match=r"^cross-validation needs at least 2 folds, "
                                              r"got 1$"):
            run_benchmark(datasets, [AggregatorSpec(kind="min")], k=1, seed=0)

    def test_repeated_dataset_names_rejected(self):
        # usage_counts and failures are keyed by name, so a repeated name
        # would let one dataset's entry stand for both rows
        datasets = [("x", tiny_dataset(1)), ("y", tiny_dataset(2)),
                    ("x", tiny_dataset(3)), ("y", tiny_dataset(4)), ("z", tiny_dataset(5))]
        with pytest.raises(DomainError,
                           match=r"dataset name 'x' is repeated at positions \[0, 2\]"):
            run_benchmark(datasets, [AggregatorSpec(kind="comb")], k=2, seed=0)

    def test_failure_names_the_fold(self):
        # the one instance of "a" is dealt to fold 0, whose training fold
        # then holds a single class
        X = np.arange(7, dtype=float)[:, None]
        y = np.array(["a"] + ["b"] * 6, dtype=object)
        small = DecisionSystem(("f0",), X, y)
        report = run_benchmark([("small", small)], [AggregatorSpec(kind="avg")], k=2, seed=0)
        assert report.failures["small"].startswith("fold 0: DomainError: ")

    def test_comb_class_too_small_fails_before_the_folds(self):
        # two instances of "a" over two folds leave one per training fold,
        # too few for comb's leave-one-out
        X = np.arange(8, dtype=float)[:, None]
        y = np.array(["a", "a"] + ["b"] * 6, dtype=object)
        small = DecisionSystem(("f0",), X, y)
        report = run_benchmark([("small", small), ("good", tiny_dataset(5))],
                               [AggregatorSpec(kind="min"), AggregatorSpec(kind="comb")],
                               k=2, seed=0)
        assert report.failures["small"] == (
            "DomainError: comb needs at least two instances of each class in every "
            "training fold; class 'a' has 2 instances, so with k=2 folds one training "
            "fold keeps 1")
        assert "good" not in report.failures
        # without comb the same dataset runs every fold
        report = run_benchmark([("small", small)], [AggregatorSpec(kind="min")], k=2, seed=0)
        assert not report.failures

    def test_crossval_checks_comb_class_sizes_first(self):
        # 28/2 over 5 folds: fold 0 takes one of the two "b", its training fold keeps one
        rng = np.random.default_rng(3)
        ds = DecisionSystem(("f0", "f1"), rng.normal(size=(30, 2)),
                            np.array(["a"] * 28 + ["b"] * 2, dtype=object))
        with pytest.raises(DomainError, match=r"class 'b' has 2 instances, so with k=5 "
                                              r"folds one training fold keeps 1$"):
            crossval_accuracies(ds, AggregatorSpec(kind="comb"), 5, 0)
        accs, kinds = crossval_accuracies(ds, AggregatorSpec(kind="min"), 5, 0)
        assert len(accs) == 5 and kinds == ["min"] * 5

    def test_crossval_folds_match_the_first_benchmark_dataset(self, fold_accuracies):
        # crossval seeds its folds as run_benchmark seeds dataset 0
        ds = tiny_dataset(4, n_per=10, gap=1.5)
        accs, _ = crossval_accuracies(ds, AggregatorSpec(kind="comb"), 2, 7)
        fold_accuracies.clear()  # keep run_benchmark's folds only
        run_benchmark([("d", ds)], [AggregatorSpec(kind="comb")], k=2, seed=7)
        assert accs == [comb for (comb,) in fold_accuracies]

    def test_program_errors_propagate(self, monkeypatch):
        import fuzzyrough.evaluation as evaluation

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a property of the dataset")

        monkeypatch.setattr(evaluation, "resolve_and_score", broken)
        with pytest.raises(TypeError):
            run_benchmark([("toy", tiny_dataset(1))], [AggregatorSpec(kind="min")], k=2, seed=0)

    def test_byte_identical_reports(self, tmp_path):
        datasets = [(f"d{i}", tiny_dataset(10 + i)) for i in range(3)]
        specs = [AggregatorSpec(kind=k) for k in ("min", "comb")]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            report = run_benchmark(datasets, specs, k=3, seed=7)
            write_report_csvs(report, str(out))
        for name in ("results.csv", "usage_counts.csv",
                     "wilcoxon_pvalues.csv", "wilcoxon_ranksums.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_results_csv_has_mean_median_footer(self, tmp_path):
        datasets = [(f"d{i}", tiny_dataset(20 + i)) for i in range(2)]
        report = run_benchmark(datasets, [AggregatorSpec(kind="avg")], k=2, seed=0)
        write_report_csvs(report, str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "dataset,Avg"
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("median,")
