import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from fuzzyrough import approx, classifier
from fuzzyrough import connectives as con
from fuzzyrough.approx import (
    SimilarityRelation,
    attribute_scales,
    build_similarity,
    lower_approximation,
    similarity_matrix,
    similarity_to_test,
)
from fuzzyrough.classifier import (
    BASE_KINDS,
    QUANTIFIER_KINDS,
    AggregatorSpec,
    FittedModel,
    aggregate,
    comb_select,
    fit,
    membership_matrix,
    predict,
    predict_batch,
    resolve_and_score,
)
from fuzzyrough.data import DecisionSystem
from fuzzyrough import (
    fuzzy_removal,
    ordered_two_symmetric,
    partial_universal,
    symmetric_from_quantifier,
    wowa_measure,
)
from fuzzyrough.choquet import choquet_integral
from fuzzyrough.outliers import OutlierScores
from fuzzyrough.quantifiers import AdditiveQuantifier, CallableQuantifier
from fuzzyrough.sets import DomainError, FuzzySet, Universe

TOL = 1e-12


def spec(kind, **kw):
    return AggregatorSpec(kind=kind, **kw)


class TestAggregate:
    def test_min(self):
        assert aggregate([0.4, 0.7, 0.2], np.zeros(3), spec("min")) == 0.2

    def test_owa_additive_example(self):
        got = aggregate([0.2, 0.4, 0.6, 0.8], np.zeros(4), spec("owa"))
        assert abs(got - 0.40) < TOL

    def test_fr_with_crisp_o_is_partial_minimum(self):
        values = np.array([0.9, 0.5, 0.7, 0.3, 0.6])
        o = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        got = aggregate(values, o, spec("fr"))
        assert abs(got - values[:3].min()) < TOL

    def test_fr_party_configuration(self):
        values = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        o = np.array([0.0, 0.0, 0.0, 0.3, 0.3])
        assert abs(aggregate(values, o, spec("fr")) - 0.3) < TOL

    def test_empty_values_rejected(self):
        with pytest.raises(DomainError):
            aggregate([], [], spec("min"))

    @pytest.mark.parametrize("outliers", [[True], [True, False], [False] * 4])
    def test_misaligned_outlier_labels_rejected(self, outliers):
        # one label used to broadcast to every element: mino then gave the plain min
        with pytest.raises(DomainError, match="outlier labels must align with the values"):
            aggregate([0.4, 0.7, 0.2], np.zeros(3), spec("mino"), outliers=outliers)

    @pytest.mark.parametrize("values,o,outliers,message", [
        # a block is not flattened into one vector
        ([[0.2, 0.4], [0.6, 0.8]], np.zeros((2, 2)), None, "one vector of values"),
        ([0.2, 0.4, 0.6, 0.8], np.zeros((1, 4)), None, "outlier degrees must align"),
        ([0.2, 0.4, 0.6, 0.8], np.zeros(4), [[False, False, False, True]],
         "outlier labels must align"),
    ], ids=["2x2-values", "1x4-degrees", "1x4-labels"])
    def test_inputs_that_are_not_vectors_rejected(self, values, o, outliers, message):
        with pytest.raises(DomainError, match=message):
            aggregate(np.array(values), o, spec("min"), outliers=outliers)

    def test_scalar_is_a_one_element_vector(self):
        assert aggregate(0.5, 0.0, spec("min")) == 0.5

    def test_comb_must_be_resolved(self):
        with pytest.raises(DomainError):
            aggregate([0.5], [0.0], spec("comb"))

    @pytest.mark.parametrize("alpha,beta", [(0.9, 0.3), (0.5, 0.5), (-0.1, 0.5), (0.2, 1.5)])
    def test_bad_quadratic_knots_rejected_at_construction(self, alpha, beta):
        with pytest.raises(DomainError):
            spec("owa", quantifier="quadratic", alpha=alpha, beta=beta)
        spec("owa", quantifier="additive", alpha=alpha, beta=beta)  # knots unused


class TestAggregateReductions:
    def setup_method(self):
        self.rng = np.random.default_rng(71)

    def test_zero_o_reductions(self):
        for _ in range(200):
            n = int(self.rng.integers(1, 15))
            v = self.rng.uniform(0, 1, n)
            zeros = np.zeros(n)
            assert abs(aggregate(v, zeros, spec("fr")) - aggregate(v, zeros, spec("min"))) < TOL
            assert abs(aggregate(v, zeros, spec("wowa")) - aggregate(v, zeros, spec("owa"))) < TOL

    def test_ts_with_t_one_is_owa(self):
        for _ in range(200):
            n = int(self.rng.integers(1, 15))
            v = self.rng.uniform(0, 1, n)
            o = self.rng.uniform(0, 1, n)
            got = aggregate(v, o, spec("ts", t=1.0))
            assert abs(got - aggregate(v, np.zeros(n), spec("owa"))) < TOL

    def test_empty_label_set_reductions(self):
        for _ in range(200):
            n = int(self.rng.integers(1, 15))
            v = self.rng.uniform(0, 1, n)
            o = self.rng.uniform(0, 1, n)
            none = np.zeros(n, dtype=bool)
            for restricted, plain in (("mino", "min"), ("avgo", "avg"), ("owao", "owa")):
                got = aggregate(v, o, spec(restricted), outliers=none)
                assert abs(got - aggregate(v, o, spec(plain))) < TOL

    def test_all_labeled_falls_back_to_unrestricted(self):
        v = np.array([0.2, 0.9, 0.5])
        o = np.ones(3)
        everyone = np.ones(3, dtype=bool)
        assert aggregate(v, o, spec("mino"), outliers=everyone) == 0.2
        assert abs(aggregate(v, o, spec("avgo"), outliers=everyone) - v.mean()) < TOL

    def test_aggregators_match_their_measures(self):
        # the strategy shortcuts agree with explicit Choquet integration
        from fuzzyrough.choquet import choquet_integral

        for _ in range(100):
            n = int(self.rng.integers(1, 12))
            v = self.rng.uniform(0, 1, n)
            o = self.rng.uniform(0, 0.95, n)
            q = AdditiveQuantifier(n)
            pairs = [
                ("owa", symmetric_from_quantifier(q, n)),
                ("fr", fuzzy_removal(o)),
                ("wowa", wowa_measure(q, o)),
                ("ts", ordered_two_symmetric(q, o, 0.3, 0.1)),
            ]
            for kind, mu in pairs:
                assert abs(aggregate(v, o, spec(kind)) - choquet_integral(v, mu)) < TOL


IDENTITY = CallableQuantifier(lambda p: p)  # Q(p) = p: WOWA becomes a weighted mean


def strategy_measure(s, labels):
    """The measure whose Choquet integral base strategy ``s`` computes on a
    row whose elements carry these crisp outlier labels: the classifier
    module's table, with the plain strategy when every element is labelled."""
    n = labels.size
    k = n - int(labels.sum())  # trusted elements
    kind = s.kind
    if kind in ("mino", "avgo", "owao") and k == 0:
        kind, labels = kind[:-1], np.zeros(n, dtype=bool)
    if kind == "min":
        return partial_universal(np.zeros(n, dtype=bool))
    if kind == "mino":
        return partial_universal(labels)
    if kind == "avg":
        return wowa_measure(IDENTITY, np.zeros(n))
    if kind == "avgo":
        return wowa_measure(IDENTITY, labels.astype(float))
    if kind == "owa":
        return symmetric_from_quantifier(s.quantifier_for(n), n)
    return wowa_measure(s.quantifier_for(k), labels.astype(float))


TIED = st.sampled_from([0.0, 0.5, 1.0])  # coarse values: many tied similarities


class TestBaseStrategiesAreChoquetIntegrals:
    """min, mino, avg, avgo, owa and owao compute closed forms, not integrals;
    each equals the Choquet integral against its measure in the classifier
    module's table, on prediction rows and on leave-one-out rows alike."""

    @given(data=st.data(), quantifier=st.sampled_from(QUANTIFIER_KINDS))
    def test_block_memberships_equal_the_integrals(self, data, quantifier):
        n = data.draw(st.integers(3, 9), label="n")
        m = data.draw(st.integers(1, 3), label="m")
        value = st.one_of(TIED, st.floats(0.0, 1.0))
        rows = st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n)
        X = np.array(data.draw(rows, label="X"))
        y = data.draw(st.lists(st.sampled_from("pqr"), min_size=n, max_size=n)
                      .filter(lambda labels: len(set(labels)) > 1), label="y")
        train = DecisionSystem(tuple(f"a{j}" for j in range(m)), X, np.array(y, dtype=object))
        labels = np.array(data.draw(st.one_of(st.just([True] * n),
                                               st.lists(st.booleans(), min_size=n, max_size=n)),
                                    label="labels"))
        degrees = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                                     label="o"))
        specs = [spec(kind, quantifier=quantifier)
                 for kind in ("min", "mino", "avg", "avgo", "owa", "owao")]
        model = FittedModel(train, specs[0])
        # the outlier scores are drawn, so rows with every element labelled occur
        model._scores[(specs[0].lof_k, specs[0].contamination)] = OutlierScores(
            np.ones(n), degrees, labels)
        X_test = np.array(data.draw(st.lists(st.lists(value, min_size=m, max_size=m),
                                             min_size=1, max_size=4), label="X_test"))

        for S, loo_start in ((similarity_to_test(X, model.sigmas, X_test), None),
                             (similarity_to_test(X, model.sigmas, X), 0)):
            got = classifier._block_memberships(model, S, specs, loo_start)
            for r in range(S.shape[0]):
                for c, label in enumerate(model.classes):
                    cols = np.flatnonzero(train.y != label)
                    if loo_start is not None:
                        cols = cols[cols != r]  # the row leaves itself out
                    if cols.size == 0:
                        assert np.all(got[:, r, c] == 0.0)
                        continue
                    for i, s in enumerate(specs):
                        mu = strategy_measure(s, labels[cols])
                        expected = choquet_integral(1.0 - S[r, cols], mu)
                        assert abs(got[i, r, c] - expected) <= TOL, (s.kind, r, label)


class TestLowerApproximationCoupling:
    """The per-class aggregation is a bona fide lower approximation."""

    @pytest.mark.parametrize("impl", con.implicator_kinds())
    def test_restricted_universe_equality(self, impl):
        # on the aggregated subset, I(r, 0) = 1 - r for all three implicators,
        # so aggregating 1 - R matches integrating I(R, empty concept)
        rng = np.random.default_rng(83)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            u = Universe.of_size(m)
            mat = rng.uniform(0, 1, (m, m))
            mat = (mat + mat.T) / 2
            np.fill_diagonal(mat, 1.0)
            r = SimilarityRelation(u, mat)
            empty = FuzzySet(u, np.zeros(m))
            q = AdditiveQuantifier(m)
            mu = symmetric_from_quantifier(q, m, u)
            y = int(rng.integers(0, m))
            via_approx = lower_approximation(r, empty, mu, impl, y)
            via_agg = aggregate(1.0 - mat[y], np.zeros(m), spec("owa"))
            assert abs(via_approx - via_agg) < TOL

    @pytest.mark.parametrize("impl", con.implicator_kinds())
    def test_min_strategy_equals_full_universe_partial_minimum(self, impl):
        # dropping the in-class ones is exact for the minimum: it equals the
        # full-universe lower approximation w.r.t. the partial-universal
        # measure that distrusts the class itself
        rng = np.random.default_rng(89)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            u = Universe.of_size(n)
            mat = rng.uniform(0, 1, (n, n))
            mat = (mat + mat.T) / 2
            np.fill_diagonal(mat, 1.0)
            r = SimilarityRelation(u, mat)
            members = rng.random(n) < 0.5
            if members.all():
                members[0] = False
            if not members.any():
                members[0] = True
            concept = FuzzySet(u, members.astype(float))
            mu = partial_universal(members)  # trusts exactly the complement
            y = int(rng.integers(0, n))
            full = lower_approximation(r, concept, mu, impl, y)
            restricted = aggregate(1.0 - mat[y][~members], np.zeros((~members).sum()),
                                   spec("min"))
            assert abs(full - restricted) < TOL


def toy_two_cluster(rng, n_per=8, gap=30.0):
    a = rng.normal(0.0, 0.6, size=(n_per, 2))
    b = rng.normal(gap, 0.6, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.array(["a"] * n_per + ["b"] * n_per, dtype=object)
    return DecisionSystem(("f0", "f1"), X, y)


class TestFitPredict:
    def test_two_instance_toy_fit(self):
        ds = DecisionSystem(("f0",), np.array([[0.0], [10.0]]),
                            np.array(["A", "B"], dtype=object))
        model = fit(ds, spec("min"))
        assert predict(model, [0.0]) == "A"
        assert predict(model, [10.0]) == "B"

    def test_separated_pair_memberships(self):
        from fuzzyrough.classifier import class_memberships

        ds = DecisionSystem(("f0",), np.array([[0.0], [10.0]]),
                            np.array(["A", "B"], dtype=object))
        model = fit(ds, spec("min"))
        ms = class_memberships(model, [0.0])
        assert ms["A"] == 1.0 and ms["B"] == 0.0

    def test_single_class_rejected(self):
        ds = DecisionSystem(("f0",), np.array([[0.0], [1.0]]),
                            np.array(["A", "A"], dtype=object))
        with pytest.raises(DomainError):
            fit(ds, spec("min"))

    def test_tie_goes_to_smallest_label(self):
        ds = DecisionSystem(("f0",), np.array([[0.0], [10.0]]),
                            np.array(["B", "A"], dtype=object))
        model = fit(ds, spec("min"))
        assert predict(model, [5.0]) == "A"

    @pytest.mark.parametrize("kind", BASE_KINDS)
    def test_centroid_predicted_for_every_strategy(self, kind):
        rng = np.random.default_rng(97)
        ds = toy_two_cluster(rng)
        model = fit(ds, spec(kind))
        assert predict(model, [0.0, 0.0]) == "a"
        assert predict(model, [30.0, 30.0]) == "b"

    def test_predict_invariant_under_row_permutation(self):
        rng = np.random.default_rng(101)
        ds = toy_two_cluster(rng, n_per=10)
        perm = rng.permutation(ds.n)
        shuffled = DecisionSystem(ds.attributes, ds.X[perm], ds.y[perm])
        tests = rng.normal(15, 12, size=(20, 2))
        for kind in BASE_KINDS:
            m1 = fit(ds, spec(kind))
            m2 = fit(shuffled, spec(kind))
            assert np.array_equal(predict_batch(m1, tests), predict_batch(m2, tests))

    def test_fit_deterministic_given_seed(self):
        rng = np.random.default_rng(103)
        ds = toy_two_cluster(rng)
        m1 = fit(ds, spec("comb"), seed=5)
        m2 = fit(ds, spec("comb"), seed=5)
        assert m1.resolved.kind == m2.resolved.kind

    def test_sigma_comes_from_training_only(self):
        rng = np.random.default_rng(107)
        ds = toy_two_cluster(rng)
        model = fit(ds, spec("min"))
        assert np.allclose(model.sigmas, attribute_scales(ds))
        sims = similarity_to_test(ds.X, model.sigmas, np.array([1e6, 1e6]))
        assert np.all(sims == 0.0)


    def test_bad_test_rows_raise_the_same_errors_in_blocks(self, monkeypatch):
        rng = np.random.default_rng(113)
        model = fit(toy_two_cluster(rng), spec("min"))
        assert membership_matrix(model, np.empty((0, 2))).shape == (0, 2)
        with pytest.raises(DomainError, match="^test instances have 3 attribute columns; "
                                              "the model was fitted on 2$"):
            membership_matrix(model, np.empty((0, 3)))
        with pytest.raises(DomainError, match="2-D array"):
            membership_matrix(model, np.zeros(2))
        monkeypatch.setattr(classifier, "BLOCK_ELEMENTS", model.n)  # one row per block
        rows = np.zeros((5, 2))
        rows[4, 1] = np.nan  # in the last block only
        with pytest.raises(DomainError, match="must be finite"):
            membership_matrix(model, rows)
        with pytest.raises(DomainError, match="^test instances have 3 attribute columns; "
                                              "the model was fitted on 2$"):
            membership_matrix(model, np.zeros((5, 3)))
        with pytest.raises(DomainError, match="^test instances have 1 attribute columns; "
                                              "the model was fitted on 2$"):
            membership_matrix(model, np.zeros((5, 1)))

    @pytest.mark.parametrize("kind,first_pass", [("wowa", "_streamed_memberships"),
                                                 ("comb", "_choose")])
    def test_a_nan_in_the_last_block_is_rejected_before_any_scoring(self, monkeypatch, kind,
                                                                    first_pass):
        # scoring without comb starts with _streamed_memberships; comb alone
        # (the unfused side) starts with _choose's leave-one-out pass
        rng = np.random.default_rng(113)
        model = FittedModel(toy_two_cluster(rng))
        monkeypatch.setattr(classifier, "BLOCK_ELEMENTS", model.n)  # one row per block
        calls = []
        real = getattr(classifier, first_pass)

        def spy(*args, **kwargs):
            calls.append(first_pass)
            return real(*args, **kwargs)

        monkeypatch.setattr(classifier, first_pass, spy)
        rows = np.zeros((5, 2))
        rows[4, 1] = np.nan  # in the last block only
        with pytest.raises(DomainError, match="^test instance values must be finite$"):
            resolve_and_score(model, [spec(kind)], rows, 0)
        assert calls == []
        rows[4, 1] = 0.0
        resolve_and_score(model, [spec(kind)], rows, 0)
        assert calls == [first_pass]

    @pytest.mark.parametrize("kind", ["wowa", "comb"])
    def test_the_rows_are_checked_once_however_many_blocks(self, monkeypatch, kind):
        rng = np.random.default_rng(113)
        model = FittedModel(toy_two_cluster(rng))
        monkeypatch.setattr(classifier, "BLOCK_ELEMENTS", model.n)  # one row per block
        checked = []
        real = approx.check_test_rows

        def spy(block, attributes):
            checked.append(block.shape)
            return real(block, attributes)

        monkeypatch.setattr(approx, "check_test_rows", spy)
        monkeypatch.setattr(classifier, "check_test_rows", spy)
        resolve_and_score(model, [spec(kind)], np.zeros((5, 2)), 0)
        assert checked == [(5, 2)]


def _gaussian(rng, n, m):
    X = np.vstack([rng.normal(0.0, 1.0, size=(n // 2, m)),
                   rng.normal(0.7, 1.3, size=(n - n // 2, m))])
    y = np.array(["a"] * (n // 2) + ["b"] * (n - n // 2), dtype=object)
    perm = rng.permutation(n)
    return DecisionSystem(tuple(f"f{j}" for j in range(m)), X[perm], y[perm])


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """Scoring holds one row block of similarities at a time (about 2 MB each),
    never a whole rows x train or train x train array."""

    def test_comb_selection(self):
        # 2000 x 10, LOF included: the train x train similarity alone is 32 MB,
        # and the leave-one-out on whole arrays peaked at about 110 MB
        model = FittedModel(_gaussian(np.random.default_rng(127), 2000, 10))
        candidates = [spec(k) for k in BASE_KINDS]
        assert _peak_bytes(lambda: comb_select(model, candidates, 0)) < 24 << 20

    def test_nine_spec_prediction(self):
        # 1000 train x 1000 test, LOF included: one test x train array is
        # 8 MB, and scoring on whole arrays peaked at about 42 MB
        rng = np.random.default_rng(131)
        model = FittedModel(_gaussian(rng, 1000, 10))
        X_test = rng.normal(0.3, 1.2, size=(1000, 10))
        specs = [spec(k) for k in BASE_KINDS]
        assert _peak_bytes(lambda: resolve_and_score(model, specs, X_test, 0)) < 20 << 20


class TestCombSelect:
    def test_single_candidate(self):
        rng = np.random.default_rng(109)
        ds = toy_two_cluster(rng)
        only = spec("avg")
        assert comb_select(ds, [only], seed=0) is only

    def test_all_tie_uniform_selection(self):
        # far-apart tight clusters: every strategy reaches the same loocv
        # accuracy, so selection must be uniform over the nine candidates
        rng = np.random.default_rng(113)
        ds = toy_two_cluster(rng, n_per=2, gap=100.0)
        candidates = [spec(k) for k in BASE_KINDS]
        counts = dict.fromkeys(BASE_KINDS, 0)
        for seed in range(1000):
            chosen = comb_select(ds, candidates, seed=seed)
            counts[chosen.kind] += 1
        observed = np.array([counts[k] for k in BASE_KINDS])
        assert chisquare(observed).pvalue > 0.01

    def test_needs_two_instances_per_class(self):
        ds = DecisionSystem(("f0",), np.array([[0.0], [1.0], [10.0]]),
                            np.array(["A", "A", "B"], dtype=object))
        with pytest.raises(DomainError):
            comb_select(ds, [spec("min")], seed=0)

    def test_dominant_strategy_always_selected(self):
        # constructed so the minimum strategy is strictly best in loocv
        # balanced accuracy; found by brute-force search over random datasets
        ds = _min_dominant_dataset()
        candidates = [spec(k) for k in BASE_KINDS]
        accs = _loocv_accuracies(ds, candidates)
        ranked = sorted(accs.values())
        assert max(accs, key=accs.get) == "min"
        assert ranked[-1] > ranked[-2] + 1e-9
        for seed in range(25):
            assert comb_select(ds, candidates, seed=seed).kind == "min"


def _loocv_accuracies(ds, candidates):
    # per-row scalar reference, independent of the batched leave-one-out
    from fuzzyrough.classifier import FittedModel
    from fuzzyrough.evaluation import balanced_accuracy
    from tests import scalar_reference

    model = FittedModel(ds)
    S = similarity_matrix(model.train.X, model.sigmas)
    out = {}
    for cand in candidates:
        ms = scalar_reference.memberships(model, S, cand, loo=True)
        preds = [model.classes[scalar_reference.predict_index(row)] for row in ms]
        out[cand.kind] = balanced_accuracy(ds.y, np.array(preds, dtype=object))
    return out


def _min_dominant_dataset():
    rng = np.random.default_rng(11)
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(10, 2)),
        rng.normal(2.0, 1.0, size=(10, 2)),
    ])
    y = np.array(["a"] * 10 + ["b"] * 10, dtype=object)
    return DecisionSystem(("f0", "f1"), X, y)
