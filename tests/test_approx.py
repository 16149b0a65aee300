import numpy as np
import pytest

from fuzzyrough import connectives as con
from fuzzyrough.approx import (
    SimilarityRelation,
    attribute_scales,
    build_similarity,
    lower_approximation,
    similarity_to_test,
    upper_approximation,
)
from fuzzyrough.choquet import owa_values
from fuzzyrough.data import DecisionSystem
from fuzzyrough import (
    dual_measure,
    symmetric_from_quantifier,
)
from fuzzyrough.quantifiers import (
    AdditiveQuantifier,
    ExistentialQuantifier,
    QuadraticQuantifier,
    UniversalQuantifier,
    weights_from_quantifier,
)
from fuzzyrough.sets import DomainError, FuzzySet, Universe
from tests.test_measures import random_measure

TOL = 1e-12
KD = con.KLEENE_DIENES
KD_CONJ = con.conjunctor_fn(con.KLEENE_DIENES, con.STANDARD)


def random_relation(rng, u):
    n = u.size
    m = rng.uniform(0, 1, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return SimilarityRelation(u, m)


def partition_relation(u, block):
    """Equivalence relation of the partition {block, complement}."""
    n = u.size
    ind = np.zeros(n, dtype=bool)
    ind[block] = True
    m = (ind[:, None] == ind[None, :]).astype(float)
    return SimilarityRelation(u, m)


class TestSimilarity:
    def _ds(self, X):
        X = np.asarray(X, dtype=float)
        y = np.array(["a"] * X.shape[0], dtype=object)
        return DecisionSystem(tuple(f"f{i}" for i in range(X.shape[1])), X, y)

    def test_identical_instances(self):
        ds = self._ds([[1.0, 2.0], [1.0, 2.0], [3.0, 5.0]])
        r = build_similarity(ds)
        assert r.matrix[0, 1] == 1.0

    def test_difference_beyond_sigma_clamps_to_zero(self):
        ds = self._ds([[0.0], [1.0], [100.0]])
        r = build_similarity(ds)
        sigma = attribute_scales(ds)[0]
        assert abs(ds.X[2, 0] - ds.X[0, 0]) >= sigma
        assert r.matrix[0, 2] == 0.0

    def test_mean_over_attributes(self):
        # engineered so per-attribute similarities are 0.4 and 0.8
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.6, 0.2]])
        sigmas = attribute_scales(self._ds(X))
        diff = np.abs(X[3] - X[0])
        per_attr = np.maximum(1 - diff / sigmas, 0)
        r = build_similarity(self._ds(X))
        assert abs(r.matrix[0, 3] - per_attr.mean()) < TOL

    def test_sample_std_is_used(self):
        ds = self._ds([[0.0], [2.0]])
        assert attribute_scales(ds)[0] == np.std([0.0, 2.0], ddof=1)

    def test_constant_attribute_equality_rule(self):
        ds = self._ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        r = build_similarity(ds)
        sim_const = 1.0  # equal values on the zero-variance attribute
        assert r.matrix[0, 1] == pytest.approx((sim_const + max(1 - 1 / 1.0, 0)) / 2)

    def test_out_of_sample_vector(self):
        ds = self._ds([[0.0], [4.0]])
        sigmas = attribute_scales(ds)
        got = similarity_to_test(ds.X, sigmas, np.array([0.0]))
        assert got[0] == 1.0
        sigma = sigmas[0]
        got2 = similarity_to_test(ds.X, sigmas, np.array([0.0 + sigma / 2]))
        assert abs(got2[0] - 0.5) < TOL

    def test_missing_attribute_rejected(self):
        ds = self._ds([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(DomainError):
            similarity_to_test(ds.X, attribute_scales(ds), np.array([1.0]))


class TestApproximationBasics:
    def setup_method(self):
        self.rng = np.random.default_rng(101)

    def test_universal_measure_recovers_min(self):
        u = Universe.of_size(5)
        r = random_relation(self.rng, u)
        a = FuzzySet(u, self.rng.uniform(0, 1, 5))
        mu = symmetric_from_quantifier(UniversalQuantifier(), 5, u)
        for y in range(5):
            classic = np.min(con.implicator_eval(KD, r.matrix[y], a.memberships))
            assert abs(lower_approximation(r, a, mu, KD, y) - classic) < TOL

    def test_existential_measure_recovers_max(self):
        u = Universe.of_size(5)
        r = random_relation(self.rng, u)
        a = FuzzySet(u, self.rng.uniform(0, 1, 5))
        mu = symmetric_from_quantifier(ExistentialQuantifier(), 5, u)
        for y in range(5):
            classic = np.max(KD_CONJ(r.matrix[y], a.memberships))
            assert abs(upper_approximation(r, a, mu, KD_CONJ, y) - classic) < TOL

    def test_full_concept_lower_is_one(self):
        u = Universe.of_size(4)
        r = random_relation(self.rng, u)
        a = FuzzySet(u, np.ones(4))
        mu = random_measure(self.rng, 4)
        assert abs(lower_approximation(r, a, mu, KD, 0) - 1.0) < TOL

    def test_empty_concept_upper_is_zero(self):
        u = Universe.of_size(4)
        r = random_relation(self.rng, u)
        a = FuzzySet(u, np.zeros(4))
        mu = random_measure(self.rng, 4)
        assert abs(upper_approximation(r, a, mu, KD_CONJ, 0)) < TOL

    def test_partitioned_universe_oracle(self):
        # equivalence relation of {B, coB}, crisp constant concept:
        # lower = a + mu_l(coB) * (1 - a), upper = mu_u(B) * a
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            u = Universe.of_size(n)
            for _ in range(20):
                size = int(rng.integers(1, n))
                block = rng.choice(n, size=size, replace=False)
                r = partition_relation(u, block)
                mu_l = random_measure(rng, n)
                mu_u = random_measure(rng, n)
                co_block = np.setdiff1d(np.arange(n), block)
                for a_const in (0.0, 1.0):
                    a = FuzzySet(u, np.full(n, a_const))
                    y = int(block[0])
                    low = lower_approximation(r, a, mu_l, KD, y)
                    up = upper_approximation(r, a, mu_u, KD_CONJ, y)
                    assert abs(low - (a_const + mu_l.value(co_block) * (1 - a_const))) < TOL
                    assert abs(up - mu_u.value(block) * a_const) < TOL


class TestApproximationProperties:
    def test_relation_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            u = Universe.of_size(n)
            big = random_relation(rng, u)
            shrink = rng.uniform(0, 1, (n, n))
            shrink = np.minimum(shrink, shrink.T)
            small_m = big.matrix * shrink
            np.fill_diagonal(small_m, 1.0)
            small = SimilarityRelation(u, small_m)
            a = FuzzySet(u, rng.uniform(0, 1, n))
            mu = random_measure(rng, n)
            for y in range(n):
                assert (lower_approximation(small, a, mu, KD, y)
                        >= lower_approximation(big, a, mu, KD, y) - TOL)
                assert (upper_approximation(small, a, mu, KD_CONJ, y)
                        <= upper_approximation(big, a, mu, KD_CONJ, y) + TOL)

    def test_set_monotonicity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            u = Universe.of_size(n)
            r = random_relation(rng, u)
            small = rng.uniform(0, 1, n)
            big = np.minimum(small + rng.uniform(0, 0.5, n), 1.0)
            a1, a2 = FuzzySet(u, small), FuzzySet(u, big)
            mu = random_measure(rng, n)
            for y in range(n):
                assert (lower_approximation(r, a1, mu, KD, y)
                        <= lower_approximation(r, a2, mu, KD, y) + TOL)
                assert (upper_approximation(r, a1, mu, KD_CONJ, y)
                        <= upper_approximation(r, a2, mu, KD_CONJ, y) + TOL)

    @pytest.mark.parametrize("impl", con.implicator_kinds())
    def test_duality(self, impl):
        # lower(R, A, mu) == 1 - upper(R, 1-A, dual(mu)) with induced conjunctor
        rng = np.random.default_rng(31)
        conj = con.conjunctor_fn(impl, con.STANDARD)
        for n in range(1, 6):
            u = Universe.of_size(n)
            for _ in range(30):
                r = random_relation(rng, u)
                a = FuzzySet(u, rng.uniform(0, 1, n))
                co_a = FuzzySet(u, 1.0 - a.memberships)
                mu = random_measure(rng, n)
                for y in range(n):
                    low = lower_approximation(r, a, mu, impl, y)
                    up = upper_approximation(r, co_a, dual_measure(mu), conj, y)
                    assert abs(low - (1.0 - up)) < 1e-11

    def test_inclusion_counterexample_witness(self):
        # with mu_l = mu_u = symmetric additive-quantifier measure there is a
        # partition relation and crisp concept whose lower approximation
        # exceeds its upper approximation
        n = 4
        u = Universe.of_size(n)
        mu = symmetric_from_quantifier(AdditiveQuantifier(n), n, u)
        block = np.array([0, 1])
        r = partition_relation(u, block)
        a = FuzzySet(u, np.ones(n))  # crisp constant concept, a = 1
        y = 0
        low = lower_approximation(r, a, mu, KD, y)
        up = upper_approximation(r, a, mu, KD_CONJ, y)
        assert low > up + 0.01
        assert abs(low - 1.0) < TOL
        assert abs(up - mu.value(block)) < TOL

    def test_symmetric_measures_match_owa_formulation(self):
        # symmetric-measure approximations equal the OWA formulations
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            u = Universe.of_size(n)
            r = random_relation(rng, u)
            a = FuzzySet(u, rng.uniform(0, 1, n))
            q = QuadraticQuantifier(0.3, 0.9)
            mu = symmetric_from_quantifier(q, n, u)
            w = weights_from_quantifier(q, n)
            for y in range(n):
                low = lower_approximation(r, a, mu, KD, y)
                owa_low = owa_values(con.implicator_eval(KD, r.matrix[y], a.memberships), w)
                assert abs(low - owa_low) < TOL
                up = upper_approximation(r, a, mu, KD_CONJ, y)
                owa_up = owa_values(KD_CONJ(r.matrix[y], a.memberships), w)
                assert abs(up - owa_up) < TOL
