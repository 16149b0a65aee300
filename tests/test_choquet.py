import inspect
import itertools

import numpy as np
import pytest

from fuzzyrough import choquet
from fuzzyrough.choquet import (
    FAST_SORT_VALUES,
    Valuation,
    choquet_integral,
    owa,
    owa_values,
    sort_rows,
)
from fuzzyrough import (
    additive_from_weights,
    dual_measure,
    partial_existential,
    partial_universal,
    symmetric_from_quantifier,
)
from fuzzyrough.quantifiers import (
    AdditiveQuantifier,
    QuadraticQuantifier,
    WeightVector,
    weights_from_quantifier,
)
from fuzzyrough.sets import DomainError, FuzzySet, Universe
from tests import scalar_reference
from tests.scalar_reference import dot
from tests.test_measures import random_measure

TOL = 1e-12
MOST = QuadraticQuantifier(0.3, 0.9)


class TestChoquetBasics:
    def test_constant_function(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            mu = random_measure(rng, n)
            c = float(rng.uniform(-3, 3))
            assert abs(choquet_integral(np.full(n, c), mu) - c) < TOL

    def test_crisp_indicator_gives_measure(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            mu = random_measure(rng, n)
            mask = rng.random(n) < 0.5
            assert abs(choquet_integral(mask.astype(float), mu) - mu.value(mask)) < TOL

    def test_basketball_valuation(self):
        u = Universe.of_size(4)
        f = Valuation(u, np.array([0.5, 0.5, 1.0, 1.0]))
        mu = symmetric_from_quantifier(MOST, 4, u)
        assert abs(choquet_integral(f, mu) - 0.6111111111111111) < 1e-3

    def test_universe_mismatch_rejected(self):
        f = Valuation(Universe.of_size(3), np.array([1.0, 2.0, 3.0]))
        mu = symmetric_from_quantifier(MOST, 4)
        with pytest.raises(DomainError):
            choquet_integral(f, mu)

    def test_signature_takes_no_order(self):
        # the integral sorts its own rows; no caller passes an unchecked order
        assert list(inspect.signature(choquet_integral).parameters) == ["f", "mu"]

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 8), (2, 1, 2, 2)])
    def test_three_or_more_dimensions_rejected(self, shape):
        values = np.linspace(0.0, 1.0, 8).reshape(shape)
        mu = symmetric_from_quantifier(AdditiveQuantifier(8), 8)
        with pytest.raises(DomainError, match="vector or a 2-D array of rows"):
            choquet_integral(values, mu)
        with pytest.raises(DomainError, match="vector or a 2-D array of rows"):
            owa(values, weights_from_quantifier(AdditiveQuantifier(8), 8))

    def test_result_within_value_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            mu = random_measure(rng, n)
            f = rng.uniform(-5, 5, n)
            got = choquet_integral(f, mu)
            assert f.min() - TOL <= got <= f.max() + TOL


class TestOwaOperator:
    def test_max_mean_min(self):
        f = np.array([0.3, 0.9, 0.1, 0.5])
        n = 4
        w_max = WeightVector(np.array([1.0, 0.0, 0.0, 0.0]))
        w_min = WeightVector(np.array([0.0, 0.0, 0.0, 1.0]))
        w_mean = WeightVector(np.full(n, 0.25))
        assert owa(f, w_max) == 0.9
        assert owa(f, w_min) == 0.1
        assert abs(owa(f, w_mean) - f.mean()) < TOL

    def test_direct_expansion(self):
        got = owa(np.array([0.2, 0.7, 0.5]), WeightVector(np.array([0.5, 0.3, 0.2])))
        assert abs(got - 0.54) < TOL

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            owa(np.array([0.1, 0.2]), WeightVector(np.array([1.0])))

    def test_owa_is_owa_values(self):
        assert owa is owa_values

    def test_scalar_is_a_one_element_vector(self):
        assert owa_values(np.float64(0.5), WeightVector(np.array([1.0]))) == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError, match="values must be finite"):
            owa_values(np.array([0.1, bad]), WeightVector(np.full(2, 0.5)))

    def test_three_dimensions_rejected_as_a_row_shape(self):
        with pytest.raises(DomainError, match="vector or a 2-D array of rows"):
            owa_values(np.full((2, 2, 2), 0.5), WeightVector(np.full(2, 0.5)))

    def test_fuzzy_set_and_valuation_accepted(self):
        u = Universe.of_size(3)
        values = np.array([0.2, 0.7, 0.5])
        w = WeightVector(np.array([0.5, 0.3, 0.2]))
        for f in (FuzzySet(u, values), Valuation(u, values)):
            assert owa_values(f, w) == owa_values(values, w)


class TestEquivalences:
    def test_owa_equivalence_exhaustive_small(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            for _ in range(200):
                a = float(rng.uniform(0.0, 0.5))
                b = float(rng.uniform(a + 0.1, 1.0))
                q = QuadraticQuantifier(a, b)
                mu = symmetric_from_quantifier(q, n)
                f = rng.uniform(-2, 2, n)
                w = weights_from_quantifier(q, n)
                assert abs(choquet_integral(f, mu) - owa_values(f, w)) < TOL

    def test_owa_equivalence_random_bulk(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            n = int(rng.integers(1, 12))
            q = AdditiveQuantifier(n)
            mu = symmetric_from_quantifier(q, n)
            f = rng.uniform(0, 1, n)
            assert abs(choquet_integral(f, mu) - owa_values(f, weights_from_quantifier(q, n))) < TOL

    def test_weighted_mean_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 10))
            w = rng.uniform(0.01, 1.0, n)
            p = WeightVector(w / w.sum())
            mu = additive_from_weights(p)
            f = rng.uniform(-4, 4, n)
            assert abs(choquet_integral(f, mu) - float(np.dot(p.weights, f))) < TOL

    def test_translation(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            mu = random_measure(rng, n)
            f = rng.uniform(-3, 3, n)
            c = float(rng.uniform(-5, 5))
            assert abs(choquet_integral(c + f, mu) - (c + choquet_integral(f, mu))) < 1e-11

    def test_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            mu = random_measure(rng, n)
            dual = dual_measure(mu)
            f = rng.uniform(-3, 3, n)
            assert abs(choquet_integral(f, dual) + choquet_integral(-f, mu)) < 1e-11
            g = rng.uniform(0, 1, n)
            assert abs(choquet_integral(g, dual) - (1.0 - choquet_integral(1.0 - g, mu))) < 1e-11

    def test_partial_minimum_maximum(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            outliers = rng.random(n) < 0.5
            if outliers.all():
                outliers[int(rng.integers(0, n))] = False
            f = rng.uniform(-2, 2, n)
            trusted = ~outliers
            got_min = choquet_integral(f, partial_universal(outliers))
            got_max = choquet_integral(f, partial_existential(outliers))
            assert abs(got_min - f[trusted].min()) < TOL
            assert abs(got_max - f[trusted].max()) < TOL

    def test_dual_owa_weight_reversal(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            q = QuadraticQuantifier(0.1, 0.8)
            mu = symmetric_from_quantifier(q, n)
            w = weights_from_quantifier(q, n)
            w_rev = WeightVector(w.weights[::-1].copy())
            f = rng.uniform(-2, 2, n)
            assert abs(choquet_integral(f, dual_measure(mu)) - owa_values(f, w_rev)) < TOL


class TestTieAndMonotonicity:
    def test_tie_independence_exhaustive(self):
        # every ascending ordering of a tied vector must give the same
        # integral, so the stable index tie-break is only a determinism aid
        rng = np.random.default_rng(12)
        f = np.array([0.3, 0.3, 0.7, 0.7, 0.3])
        n = f.size
        for _ in range(50):
            mu = random_measure(rng, n)
            got = choquet_integral(f, mu)
            for perm in itertools.permutations(range(n)):
                fs = f[list(perm)]
                if np.any(np.diff(fs) < 0):
                    continue
                total = fs[0] * mu.value(np.array(perm))
                for i in range(1, n):
                    total += (fs[i] - fs[i - 1]) * mu.value(np.array(perm[i:]))
                assert abs(total - got) < TOL

    def test_monotone_in_function(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            mu = random_measure(rng, n)
            f = rng.uniform(0, 1, n)
            g = np.minimum(f + rng.uniform(0, 0.5, n), 1.0)
            assert choquet_integral(f, mu) <= choquet_integral(g, mu) + TOL

    def test_fuzzyset_accepted_as_integrand(self):
        u = Universe.of_size(3)
        a = FuzzySet(u, [0.2, 0.9, 0.5])
        mu = symmetric_from_quantifier(AdditiveQuantifier(3), 3, u)
        assert abs(choquet_integral(a, mu) - choquet_integral(a.memberships, mu)) < TOL


def _assert_stable_sort(values):
    """sort_rows(values) is numpy's stable argsort and the rows it sorts, bit
    for bit (signed zeros and NaNs included)."""
    order, asc = sort_rows(values)
    want = np.argsort(values, axis=-1, kind="stable")
    assert order.shape == want.shape and np.array_equal(order, want)
    assert asc.tobytes() == np.take_along_axis(values, want, axis=-1).tobytes()


ROW_LENGTHS = (1, 2, 3, 127, 128, 300)


@pytest.fixture(params=("stable", "fast"))
def sort_kernel(request, monkeypatch):
    """Run a test once with every call on the stable sort and once with
    every call on the unstable sort and its tie check."""
    threshold = {"stable": np.iinfo(np.int64).max, "fast": 0}[request.param]
    monkeypatch.setattr(choquet, "FAST_SORT_VALUES", threshold)


@pytest.mark.usefixtures("sort_kernel")
class TestSortRows:
    """sort_rows gives exactly numpy's stable argsort, with either kernel:
    the stable sort itself, or the unstable sort with the rows that hold
    ties sorted again."""

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    def test_tie_heavy_grid_and_tie_free_rows(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 4, (30, n)).astype(float)
        values[::3] = rng.random((10, n))  # every third row without ties
        _assert_stable_sort(values)

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    def test_mixed_signed_zeros(self, n):
        rng = np.random.default_rng(100 + n)
        values = rng.choice([0.0, -0.0, 0.5], size=(12, n))
        # distinct values but for one 0.0 and one -0.0, which compare equal
        distinct = rng.permutation(n).astype(float) + 1.0
        distinct[rng.choice(n, size=min(n, 2), replace=False)] = [0.0, -0.0][:min(n, 2)]
        _assert_stable_sort(np.vstack([values, distinct]))

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    def test_one_dimensional_input(self, n):
        rng = np.random.default_rng(200 + n)
        for values in (rng.random(n), rng.integers(0, 3, n).astype(float)):
            _assert_stable_sort(values)

    def test_stacked_rows_and_nan(self):
        rng = np.random.default_rng(7)
        values = rng.random((2, 3, 300))
        values[0, 1, 5] = values[0, 1, 9]
        values[1, 2, [3, 40]] = np.nan  # NaNs compare unequal to themselves
        _assert_stable_sort(values)

    def test_empty_rows(self):
        for shape in ((0, 128), (3, 0), (0,), (2, 0, 5), (2, 3, 0), (0, 4, 6)):
            _assert_stable_sort(np.zeros(shape))

    def test_a_table_of_any_layout_sorts_into_new_arrays(self):
        """A 2-D input is sorted as the table it is: transposed, strided and
        reversed views give the stable argsort, in new row-contiguous arrays."""
        rng = np.random.default_rng(9)
        base = rng.integers(0, 3, (40, 12)).astype(float)
        base[::5] = rng.choice([0.0, -0.0], size=(8, 12))
        for values in (base, base.T, base[:, ::-2], base[::3], np.asfortranarray(base)):
            _assert_stable_sort(values)
            order, asc = sort_rows(values)
            assert order.flags.c_contiguous and asc.flags.c_contiguous
            assert not np.shares_memory(asc, base)


@pytest.mark.parametrize("size", (FAST_SORT_VALUES - 1, FAST_SORT_VALUES))
def test_sort_rows_on_both_sides_of_the_threshold(size):
    """One row just below and at FAST_SORT_VALUES values, with and without
    ties, gives the stable argsort."""
    rng = np.random.default_rng(size)
    for shape in ((size,), (1, size)):
        _assert_stable_sort(rng.random(shape))
        _assert_stable_sort(rng.integers(0, 3, shape).astype(float))


class TestChoquetSortedOracle:
    """_choquet_sorted multiplies the steps into the array that holds them and
    sums it as _dot_rows does: each row of a stack keeps every bit of the
    scalar reference, signed zeros included, whatever the stack's layout, and
    neither input is written."""

    @pytest.mark.parametrize("n", (1, 2))
    def test_every_short_row_of_signed_zeros(self, n):
        rows = np.array(list(itertools.product([-0.5, -0.0, 0.0, 0.5], repeat=n)))
        # a chain may hold -0.0: fuzzy removal under the product on a degree -0.0
        chains = np.array(list(itertools.product([-0.0, 0.0, 0.25, 1.0], repeat=n)))
        # every row against every chain; a stable sort keeps 0.0 before -0.0,
        # so their step is -0.0
        asc = np.sort(np.repeat(rows, len(chains), axis=0), axis=1, kind="stable")
        self._assert_rows_match(asc, np.tile(chains, (len(rows), 1)))

    @pytest.mark.parametrize("n", (3, 9, 130))
    def test_tie_heavy_and_tie_free_stacks(self, n):
        rng = np.random.default_rng(500 + n)
        values = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5], size=(24, n))
        chain = rng.choice([0.0, 0.25, 0.5, 1.0], size=(24, n))
        # rows whose sums round, so that a different summation order shows
        values[::2], chain[::2] = rng.normal(size=(12, n)), rng.random((12, n))
        self._assert_rows_match(np.sort(values, axis=1, kind="stable"), chain)

    @staticmethod
    def _assert_rows_match(asc, chain):
        want = _bits([scalar_reference._choquet(a, lambda order, c=c: c[order])
                      for a, c in zip(asc, chain)])
        for layout in (np.ascontiguousarray, np.asfortranarray):
            a, c = layout(asc), layout(chain)
            got = choquet._choquet_sorted(a, c)
            assert np.array_equal(_bits(got), want)
            assert a.tobytes() == asc.tobytes() and c.tobytes() == chain.tobytes()


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.int64)


def _owa_oracle(values, weights):
    """owa_values as it was before it sorted through sort_rows: a stable
    descending argsort, then one sum of products per row."""
    desc = np.take_along_axis(values, np.argsort(-values, axis=-1, kind="stable"), -1)
    return np.array([dot(row, weights) for row in np.atleast_2d(desc)])


@pytest.mark.usefixtures("sort_kernel")
class TestOwaValuesOracle:
    """owa_values reads sort_rows' ascending rows backwards. Equal values then
    meet the weights in the opposite index order, which may only move signed
    zeros; the result keeps every bit of the descending-sort oracle."""

    @pytest.mark.parametrize("n", ROW_LENGTHS)
    def test_tie_heavy_grid_with_signed_zeros(self, n):
        rng = np.random.default_rng(300 + n)
        values = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(24, n))
        values[1] = rng.choice([0.0, -0.0], size=n)  # all zeros, mixed signs
        values[2] = -0.0
        values[::4] = rng.random((6, n))  # rows without ties
        for w in (WeightVector(rng.dirichlet(np.ones(n))), weights_from_quantifier(MOST, n)):
            assert np.array_equal(_bits(owa_values(values, w)), _bits(_owa_oracle(values, w.weights)))
            for row in values[:4]:
                assert np.array_equal(_bits(owa_values(row, w)), _bits(_owa_oracle(row, w.weights)))

    def test_signed_zero_ties_under_zero_weights(self):
        # w = 0 times -0.0 is -0.0: each zero product lands wherever the sort put it
        w = WeightVector(np.array([0.0, 0.5, 0.0, 0.5, 0.0]))
        for row in itertools.product([0.0, -0.0, 1.0], repeat=5):
            row = np.array(row)
            assert np.array_equal(_bits(owa_values(row, w)), _bits(_owa_oracle(row, w.weights)))
