"""The batched scoring path equals the per-row scalar reference exactly.

``tests/scalar_reference.py`` keeps the per-(row, class, strategy) loop the
batched engine replaced. These properties run both on small datasets drawn
on a coarse grid, so ties, duplicate rows, constant attributes, singleton
classes and size-1 aggregation subsets come up routinely, and compare the
results with ``==``, not with a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyrough import classifier
from fuzzyrough import connectives as con
from fuzzyrough.approx import similarity_matrix, similarity_to_test
from fuzzyrough.outliers import FAST_KNN_DISTANCES
from fuzzyrough.choquet import FAST_SORT_VALUES, choquet_integral, owa_values
from fuzzyrough.classifier import (
    BASE_KINDS,
    AggregatorSpec,
    FittedModel,
    _aggregate_rows,
    _block_memberships,
    _streamed_memberships,
    aggregate,
    class_memberships,
    fit,
    predict_batch,
    resolve_and_score,
)
from fuzzyrough.data import DecisionSystem
from fuzzyrough.measures import (
    AdditiveMeasure,
    DualMeasure,
    FuzzyRemovalMeasure,
    OrderedTwoSymmetricMeasure,
    PartialExistentialMeasure,
    PartialUniversalMeasure,
    SymmetricMeasure,
    WowaMeasure,
)
from fuzzyrough.quantifiers import AdditiveQuantifier, QuadraticQuantifier, WeightVector
from fuzzyrough.sets import DomainError
from tests import scalar_reference
from tests.test_outliers import full_tensor_lof

TNORMS = (con.MINIMUM, con.PRODUCT, con.LUKASIEWICZ)
TOL = 1e-12


@st.composite
def decision_systems(draw):
    """2-3 classes of 1-12 instances, 1-3 attributes on a coarse grid.

    Complements of more than 8 elements matter: numpy sums those pairwise,
    so a row summed in another memory order would differ in the last bits.
    """
    counts = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3))
    m = draw(st.integers(1, 3))
    n = sum(counts)
    cells = draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m))
    X = np.array(cells, dtype=float).reshape(n, m) / 2.0
    if draw(st.booleans()):
        X[:, 0] = 1.0  # constant attribute
    y = np.repeat(np.array(("a", "b", "c")[:len(counts)], dtype=object), counts)
    perm = np.array(draw(st.permutations(range(n))))
    return DecisionSystem(tuple(f"f{j}" for j in range(m)), X[perm], y[perm])


@st.composite
def specs(draw, kinds=BASE_KINDS):
    alpha, beta = draw(st.sampled_from(((0.0, 1.0), (0.3, 0.9), (0.2, 0.5))))
    return AggregatorSpec(
        kind=draw(st.sampled_from(kinds)),
        quantifier=draw(st.sampled_from(("additive", "quadratic"))),
        alpha=alpha,
        beta=beta,
        t=draw(st.sampled_from((0.0, 0.3, 1.0))),
        contamination=draw(st.sampled_from((0.0, 0.1, 0.5, 0.9))),
        tnorm=draw(st.sampled_from(TNORMS)),
        lof_k=draw(st.sampled_from((1, 2, 20))),
    )


spec_lists = st.lists(specs(), min_size=1, max_size=4)


def _test_rows(data, ds):
    """Fresh grid rows plus copies of training rows (exact duplicates)."""
    m = ds.X.shape[1]
    fresh = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m),
                               min_size=0, max_size=4))
    copies = data.draw(st.lists(st.integers(0, ds.n - 1), min_size=0, max_size=3))
    rows = [np.array(r, dtype=float) / 2.0 for r in fresh] + [ds.X[i] for i in copies]
    if not rows:
        rows = [ds.X[0]]
    return np.array(rows)


class TestClassifierEquivalence:
    @given(decision_systems(), spec_lists, st.data())
    def test_out_of_sample_rows(self, ds, spec_list, data):
        model = FittedModel(ds)
        X_test = _test_rows(data, ds)
        S = similarity_to_test(ds.X, model.sigmas, X_test)
        for i, row in enumerate(X_test):
            assert np.array_equal(S[i], similarity_to_test(ds.X, model.sigmas, row))
        got = _block_memberships(model, S, spec_list)
        for k, spec in enumerate(spec_list):
            assert np.array_equal(got[k], scalar_reference.memberships(model, S, spec))

    @given(decision_systems(), spec_lists)
    def test_leave_one_out_rows(self, ds, spec_list):
        model = FittedModel(ds)
        S = similarity_matrix(model.train.X, model.sigmas)
        got = _block_memberships(model, S, spec_list, loo_start=0)
        for k, spec in enumerate(spec_list):
            want = scalar_reference.memberships(model, S, spec, loo=True)
            assert np.array_equal(got[k], want)

    @given(decision_systems(), specs(), st.data())
    def test_public_scoring_is_a_row_count_case(self, ds, spec, data):
        model = fit(ds, spec)
        X_test = _test_rows(data, ds)
        S = similarity_to_test(ds.X, model.sigmas, X_test)
        want = scalar_reference.memberships(model, S, spec)
        labels = predict_batch(model, X_test)
        for i, row in enumerate(X_test):
            assert labels[i] == model.classes[scalar_reference.predict_index(want[i])]
            assert list(class_memberships(model, row).values()) == want[i].tolist()

    def test_complement_emptied_by_leave_one_out_is_zero(self):
        ds = DecisionSystem(("f",), np.array([[0.0], [1.0], [2.0]]),
                            np.array(["a", "a", "b"], dtype=object))
        model = FittedModel(ds)
        S = similarity_matrix(model.train.X, model.sigmas)
        for kind in BASE_KINDS:
            got = _block_memberships(model, S, [AggregatorSpec(kind=kind)], loo_start=0)[0]
            # instance 2 is the whole complement of class "a"; without it
            # nothing is left to aggregate
            assert got[2, 0] == 0.0
            want = scalar_reference.memberships(model, S, AggregatorSpec(kind=kind), loo=True)
            assert np.array_equal(got, want)


def _sorted_classes():
    """11 training rows in runs of 5, 4 and 2 per class, with duplicate rows,
    so row blocks of 2 to 4 cut through classes; 7 test rows."""
    X = np.array([[0.0, 1.0], [0.5, 1.0], [0.5, 1.0], [1.0, 2.0], [0.0, 0.5],
                  [2.0, 1.5], [1.5, 2.0], [2.0, 1.5], [1.0, 1.0],
                  [0.5, 2.0], [1.5, 0.5]])
    y = np.array(["a"] * 5 + ["b"] * 4 + ["c"] * 2, dtype=object)
    X_test = np.array([[0.5, 1.0], [1.0, 1.5], [2.0, 2.0], [0.0, 0.0], [1.5, 0.5],
                       [0.25, 1.75], [1.0, 1.0]])
    return DecisionSystem(("f0", "f1"), X, y), X_test


ROW_BLOCK_SPECS = ([AggregatorSpec(kind=k) for k in BASE_KINDS]
                   + [AggregatorSpec(kind=k, quantifier="quadratic", contamination=0.3,
                                     tnorm=con.PRODUCT, lof_k=2) for k in BASE_KINDS])


class TestRowBlocks:
    """Scoring in row blocks equals the scalar reference at every block size.

    The block budget is set to a multiple of the training size, so blocks
    hold that many rows: one-row blocks, blocks that cut through classes and
    one-row last blocks all come up.
    """

    @pytest.mark.parametrize("rows_per_block", (1, 2, 3, 4, 6, 11, 20))
    def test_prediction_and_leave_one_out(self, monkeypatch, rows_per_block):
        ds, X_test = _sorted_classes()
        model = FittedModel(ds)
        monkeypatch.setattr(classifier, "BLOCK_ELEMENTS", rows_per_block * model.n)
        got = resolve_and_score(model, ROW_BLOCK_SPECS, X_test, 0)[1]
        loo = _streamed_memberships(model, ds.X, ROW_BLOCK_SPECS, loo=True)
        S_test = similarity_to_test(ds.X, model.sigmas, X_test)
        S_train = similarity_matrix(ds.X, model.sigmas)
        for k, spec in enumerate(ROW_BLOCK_SPECS):
            assert np.array_equal(got[k], scalar_reference.memberships(model, S_test, spec))
            assert np.array_equal(loo[k], scalar_reference.memberships(model, S_train, spec,
                                                                       loo=True))

    @given(decision_systems(), spec_lists, st.integers(1, 3), st.data())
    def test_prediction_blocks(self, ds, spec_list, rows_per_block, data):
        model = FittedModel(ds)
        X_test = _test_rows(data, ds)
        S = similarity_to_test(ds.X, model.sigmas, X_test)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "BLOCK_ELEMENTS", rows_per_block * model.n)
            got = resolve_and_score(model, spec_list, X_test, 0)[1]
        for k, spec in enumerate(spec_list):
            assert np.array_equal(got[k], scalar_reference.memberships(model, S, spec))

    @given(decision_systems(), spec_lists, st.integers(1, 4))
    def test_leave_one_out_blocks(self, ds, spec_list, rows_per_block):
        model = FittedModel(ds)
        S = similarity_matrix(ds.X, model.sigmas)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "BLOCK_ELEMENTS", rows_per_block * model.n)
            got = _streamed_memberships(model, ds.X, spec_list, loo=True)
        for k, spec in enumerate(spec_list):
            assert np.array_equal(got[k], scalar_reference.memberships(model, S, spec,
                                                                       loo=True))


def _long_classes():
    """Two classes of 160 training rows, so every block of rows a class
    scores holds at least FAST_SORT_VALUES similarities and each class's
    LOF block at least FAST_KNN_DISTANCES distances. Class "a" lies on an
    integer grid with 20 duplicated rows, so its similarities and neighbor
    distances tie; class "b" is continuous, so rows without ties reach the
    fast sort too. The fifth attribute is constant, and 10 of the 40
    test rows copy training rows."""
    rng = np.random.default_rng(48)
    a = np.round(rng.normal(0.0, 1.0, (160, 4)))  # integer grid: tied distances
    a[140:] = a[rng.choice(140, size=20, replace=False)]
    b = rng.normal(1.0, 1.0, (160, 4))
    X = np.column_stack([np.vstack([a, b]), np.full(320, 2.0)])
    y = np.repeat(np.array(["a", "b"], dtype=object), 160)
    perm = rng.permutation(320)
    X_test = np.vstack([np.column_stack([rng.normal(0.5, 1.0, (30, 4)), np.full(30, 2.0)]),
                        X[rng.choice(320, size=10, replace=False)]])
    return DecisionSystem(tuple(f"f{j}" for j in range(5)), X[perm], y[perm]), X_test


class TestLongRows:
    """Blocks this large take the fast sorts (the unstable argsort with its
    tie check, and LOF's partial neighbor selection); with duplicated rows
    and a constant attribute they still equal the scalar reference, whose
    sorts are numpy's stable ones."""

    def test_prediction_and_leave_one_out(self):
        ds, X_test = _long_classes()
        model = FittedModel(ds)
        for spec in (ROW_BLOCK_SPECS[0], ROW_BLOCK_SPECS[-1]):
            raw = model.scores_for(spec).raw
            for label in model.classes:
                idx = np.flatnonzero(ds.y == label)
                assert idx.size ** 2 >= FAST_KNN_DISTANCES
                assert X_test.shape[0] * idx.size >= FAST_SORT_VALUES
                assert np.array_equal(raw[idx], full_tensor_lof(ds.X[idx], spec.lof_k))
        S_test = similarity_to_test(ds.X, model.sigmas, X_test)
        S_train = similarity_matrix(ds.X, model.sigmas)
        # the rows each class aggregates: with ties over "a", some without over "b"
        for label, some_tie_free in (("a", False), ("b", True)):
            rows = np.sort(1.0 - S_test[:, ds.y == label], axis=1)
            tied = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
            assert tied.any() and (not tied.all()) == some_tie_free
        # each kind once, from both settings; the reference is slow, so
        # leave-one-out is checked on every eighth training row
        spec_list = ROW_BLOCK_SPECS[::2]
        got = resolve_and_score(model, spec_list, X_test, 0)[1]
        loo = _streamed_memberships(model, ds.X, spec_list, loo=True)
        checked = np.arange(0, ds.n, 8)
        for k, spec in enumerate(spec_list):
            assert np.array_equal(got[k], scalar_reference.memberships(model, S_test, spec))
            want = [[scalar_reference.class_membership(model, S_train[i], spec, label, i)
                     for label in model.classes] for i in checked]
            assert np.array_equal(loo[k][checked], np.array(want))


values_grid = st.lists(st.integers(0, 4), min_size=1, max_size=20)


class TestAggregateEquivalence:
    @given(values_grid, st.data(), specs())
    def test_aggregate_matches_reference(self, cells, data, spec):
        n = len(cells)
        values = np.array(cells, dtype=float) / 7.0
        o = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                                        min_size=n, max_size=n)))
        if spec.kind == "wowa" and o.sum() >= n:
            o[0] = 0.0  # wowa needs some confidence mass
        labels = data.draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n,
                                                          max_size=n)))
        got = aggregate(values, o, spec, labels)
        assert got == scalar_reference.aggregate(values, o, spec, labels)

    @given(st.integers(1, 20), st.integers(1, 5), specs(), st.data())
    def test_rows_with_their_own_degrees(self, n, rows, spec, data):
        cells = data.draw(st.lists(st.integers(0, 4), min_size=n * rows, max_size=n * rows))
        values = np.array(cells, dtype=float).reshape(rows, n) / 7.0
        o = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.3, 0.9)), min_size=n * rows,
                                        max_size=n * rows))).reshape(rows, n)
        labels = np.array(data.draw(st.lists(st.booleans(), min_size=n * rows,
                                             max_size=n * rows))).reshape(rows, n)
        got = _aggregate_rows(values, o, labels, [spec])[0]
        want = [scalar_reference.aggregate(values[r], o[r], spec, labels[r])
                for r in range(rows)]
        assert got.tolist() == want

    @pytest.mark.parametrize("kind", ("mino", "avgo", "owao"))
    def test_all_outliers_fall_back_to_the_unrestricted_variant(self, kind):
        values = np.array([0.2, 0.9, 0.5, 0.5])
        o = np.full(4, 0.7)
        everyone = np.ones(4, dtype=bool)
        got = aggregate(values, o, AggregatorSpec(kind=kind), everyone)
        assert got == aggregate(values, o, AggregatorSpec(kind=kind[:-1]))
        assert got == scalar_reference.aggregate(values, o, AggregatorSpec(kind=kind), everyone)

    def test_size_one_subsets(self):
        for kind in BASE_KINDS:
            spec = AggregatorSpec(kind=kind)
            assert aggregate([0.4], [0.2], spec) == scalar_reference.aggregate(
                np.array([0.4]), np.array([0.2]), spec)


def _every_measure_kind(rng, n):
    o = rng.choice((0.0, 0.3, 0.3, 0.8, 1.0), size=n)
    o[0] = min(o[0], 0.5)  # keeps wowa's confidence mass positive
    outliers = o >= 0.8
    outliers[0] = False  # the partial measures need one trusted element
    q = AdditiveQuantifier(n)
    w = rng.uniform(0.1, 1.0, n)
    out = [SymmetricMeasure(q, n), AdditiveMeasure(WeightVector(w / w.sum())),
           DualMeasure(SymmetricMeasure(QuadraticQuantifier(0.3, 0.9), n)),
           WowaMeasure(q, o), OrderedTwoSymmetricMeasure(q, o, 0.3, 0.25),
           PartialUniversalMeasure(outliers), PartialExistentialMeasure(outliers)]
    out += [FuzzyRemovalMeasure(o, tnorm) for tnorm in TNORMS]
    out.append(DualMeasure(FuzzyRemovalMeasure(o, con.PRODUCT)))
    return out


class TestRowAxis:
    @given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_chain_rows_equal_one_dimensional_chains_and_values(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        orders = np.array([rng.permutation(n) for _ in range(rows)])
        for mu in _every_measure_kind(rng, n):
            chain = mu.chain_values(orders)
            assert chain.shape == orders.shape
            for order, row in zip(orders, chain):
                assert np.array_equal(row, mu.chain_values(order))
                for i in range(n):
                    assert abs(row[i] - mu.value(order[i:])) < TOL

    @given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_stacked_measures_equal_their_rows(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        o = rng.choice((0.0, 0.2, 0.2, 0.9), size=(rows, n))
        f = rng.choice((0.0, 0.5, 0.5, 1.0), size=(rows, n))
        q = AdditiveQuantifier(n)
        stacks = [(lambda d, t=t: FuzzyRemovalMeasure(d, t)) for t in TNORMS]
        stacks += [lambda d: WowaMeasure(q, d),
                   lambda d: OrderedTwoSymmetricMeasure(q, d, 0.3, 0.4)]
        for build in stacks:
            stack = build(o)
            assert stack.rows == rows
            got = choquet_integral(f, stack)
            orders = np.argsort(f, axis=1, kind="stable")
            chains = stack.chain_values(orders)
            for r in range(rows):
                single = build(o[r])
                assert np.array_equal(chains[r], single.chain_values(orders[r]))
                assert got[r] == choquet_integral(f[r], single)
            with pytest.raises(DomainError):
                stack.value(np.arange(n))

    @given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_integral_and_owa_rows_equal_scalar_calls(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        f = rng.choice((0.0, 0.25, 0.5, 0.5, 1.0), size=(rows, n))
        w = WeightVector(np.full(n, 1.0 / n))
        for mu in _every_measure_kind(rng, n):
            got = choquet_integral(f, mu)
            assert got.tolist() == [choquet_integral(row, mu) for row in f]
        assert owa_values(f, w).tolist() == [owa_values(row, w) for row in f]

    @pytest.mark.parametrize("tnorm", TNORMS)
    def test_tnorm_accumulate_equals_prefix_folds(self, tnorm):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 1.0, size=(3, 9))
        t = con.tnorm_fn(tnorm)
        running = con.tnorm_accumulate(tnorm, xs)
        for r in range(3):
            acc = xs[r, 0]
            for i in range(9):
                if i:
                    acc = t(acc, xs[r, i])
                assert running[r, i] == acc
                assert con.tnorm_eval(tnorm, xs[r, :i + 1]) == acc
