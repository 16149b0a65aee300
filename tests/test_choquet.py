import itertools

import numpy as np
import pytest

from fuzzyrough.choquet import Valuation, choquet_integral, owa, owa_values
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
