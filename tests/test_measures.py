import itertools

import numpy as np
import pytest

from fuzzyrough import connectives as con
from fuzzyrough import (
    additive_from_weights,
    dual_measure,
    fuzzy_removal,
    measure_eval,
    ordered_two_symmetric,
    partial_existential,
    partial_universal,
    symmetric_from_quantifier,
    wowa_measure,
)
from fuzzyrough.quantifiers import (
    AdditiveQuantifier,
    ExistentialQuantifier,
    QuadraticQuantifier,
    UniversalQuantifier,
    WeightVector,
)
from fuzzyrough.sets import DomainError

TOL = 1e-12
MOST = QuadraticQuantifier(0.3, 0.9)


def all_subsets(n):
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            yield np.array(combo, dtype=int)


def random_measure(rng, n):
    """One randomly parameterized measure of a random kind on size n."""
    kind = rng.integers(0, 7)
    o = rng.uniform(0.0, 1.0, n)
    if kind == 0:
        return symmetric_from_quantifier(MOST, n)
    if kind == 1:
        w = rng.uniform(0.0, 1.0, n) + 1e-3
        return additive_from_weights(WeightVector(w / w.sum()))
    if kind == 2:
        return fuzzy_removal(o)
    if kind == 3:
        return wowa_measure(AdditiveQuantifier(n), o)
    if kind == 4:
        return ordered_two_symmetric(AdditiveQuantifier(n), o, 0.3, 0.1)
    if kind == 5:
        mask = np.zeros(n, dtype=bool)
        if n > 1:
            mask[rng.choice(n, rng.integers(0, n), replace=False)] = True
        return partial_universal(mask)
    return dual_measure(fuzzy_removal(o))


class TestMeasureAxioms:
    def test_empty_and_full(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            mu = random_measure(rng, n)
            assert measure_eval(mu, np.array([], dtype=int)) == 0.0
            assert measure_eval(mu, np.arange(n)) == 1.0

    def test_monotone_random_nested_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            mu = random_measure(rng, n)
            small = rng.random(n) < 0.4
            big = small | (rng.random(n) < 0.4)
            assert mu.value(small) <= mu.value(big) + TOL

    def test_foreign_indices_rejected(self):
        mu = symmetric_from_quantifier(MOST, 3)
        with pytest.raises(DomainError):
            mu.value(np.array([0, 5]))
        with pytest.raises(DomainError):
            mu.value(np.array([1, 1]))


class TestSymmetricMeasure:
    def test_most_cardinality(self):
        mu = symmetric_from_quantifier(MOST, 5)
        assert abs(mu.value(np.arange(3)) - 0.5) < TOL  # Q(3/5)

    def test_universal_existential(self):
        mu_all = symmetric_from_quantifier(UniversalQuantifier(), 4)
        mu_any = symmetric_from_quantifier(ExistentialQuantifier(), 4)
        for a in all_subsets(4):
            assert mu_all.value(a) == (1.0 if a.size == 4 else 0.0)
            assert mu_any.value(a) == (1.0 if a.size > 0 else 0.0)

    def test_additive_quantifier_half(self):
        mu = symmetric_from_quantifier(AdditiveQuantifier(4), 4)
        assert abs(mu.value(np.arange(2)) - 0.3) < TOL


class TestAdditiveMeasure:
    def test_uniform_and_singletons(self):
        p = WeightVector(np.array([0.1, 0.2, 0.3, 0.4]))
        mu = additive_from_weights(p)
        assert abs(mu.value(np.array([2])) - 0.3) < TOL
        uniform = additive_from_weights(WeightVector(np.full(5, 0.2)))
        assert abs(uniform.value(np.arange(3)) - 0.6) < TOL

    def test_additivity_on_disjoint(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, 6)
        mu = additive_from_weights(WeightVector(w / w.sum()))
        a = np.array([0, 2])
        b = np.array([1, 5])
        assert abs(mu.value(np.concatenate([a, b])) - (mu.value(a) + mu.value(b))) < TOL


class TestDualMeasure:
    def test_involution_exhaustive(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            mu = random_measure(rng, n)
            dd = dual_measure(dual_measure(mu))
            for a in all_subsets(n):
                assert abs(dd.value(a) - mu.value(a)) < TOL

    def test_dual_of_partial_universal_is_partial_existential(self):
        outliers = np.array([False, True, False, True, False])
        direct = partial_existential(outliers)
        via_dual = dual_measure(partial_universal(outliers))
        for a in all_subsets(5):
            assert direct.value(a) == via_dual.value(a)

    def test_dual_of_additive_is_itself(self):
        p = WeightVector(np.array([0.4, 0.1, 0.5]))
        mu, md = additive_from_weights(p), dual_measure(additive_from_weights(p))
        for a in all_subsets(3):
            assert abs(mu.value(a) - md.value(a)) < TOL

    def test_dual_symmetric_reverses_weights(self):
        # via cardinality increments: dual weight vector is the reversal
        n = 5
        mu = symmetric_from_quantifier(MOST, n)
        md = dual_measure(mu)
        w = [mu.value(np.arange(k)) - mu.value(np.arange(k - 1)) for k in range(1, n + 1)]
        wd = [md.value(np.arange(k)) - md.value(np.arange(k - 1)) for k in range(1, n + 1)]
        assert np.allclose(wd, w[::-1], atol=TOL)


class TestPartialMeasures:
    def test_definitions(self):
        outliers = np.array([False, False, True, True])
        mu = partial_universal(outliers)
        trusted = np.array([0, 1])
        assert mu.value(trusted) == 1.0
        assert mu.value(np.array([0, 2, 3])) == 0.0  # trusted element 1 missing
        assert mu.value(np.arange(4)) == 1.0

    def test_empty_outliers_is_classical_universal(self):
        mu = partial_universal(np.zeros(4, dtype=bool))
        for a in all_subsets(4):
            assert mu.value(a) == (1.0 if a.size == 4 else 0.0)

    def test_all_outliers_rejected(self):
        with pytest.raises(DomainError):
            partial_universal(np.ones(3, dtype=bool))

    def test_chain_of_a_malformed_order_is_defined(self):
        # the only trusted element is missing from the order: it counts as
        # never reached, so every suffix of the chain keeps the measure at 1
        mu = partial_universal(np.array([True, True, False]))
        for _ in range(3):
            assert np.array_equal(mu.chain_values(np.array([0, 0, 1])), np.ones(3))


class TestFuzzyRemoval:
    def test_party_example(self):
        o = np.array([0.0, 0.0, 0.0, 0.3, 0.3])
        mu = fuzzy_removal(o, con.MINIMUM)
        assert mu.value(np.array([0, 1, 2])) == 0.3

    def test_trusted_element_outside_forces_zero(self):
        o = np.array([0.0, 0.5, 0.9])
        mu = fuzzy_removal(o, con.MINIMUM)
        assert mu.value(np.array([1, 2])) == 0.0

    def test_all_distrusted_gives_one(self):
        mu = fuzzy_removal(np.ones(4))
        for a in all_subsets(4):
            if a.size:
                assert mu.value(a) == 1.0

    def test_crisp_o_agrees_with_partial_universal(self):
        rng = np.random.default_rng(13)
        for n in range(1, 7):
            outliers = rng.random(n) < 0.4
            if outliers.all():
                outliers[0] = False
            mu_f = fuzzy_removal(outliers.astype(float))
            mu_p = partial_universal(outliers)
            for a in all_subsets(n):
                assert mu_f.value(a) == mu_p.value(a)

    @pytest.mark.parametrize("tnorm", [con.PRODUCT, con.LUKASIEWICZ])
    def test_other_tnorms_chain_matches_value(self, tnorm):
        rng = np.random.default_rng(17)
        o = rng.uniform(0.3, 1.0, 6)
        mu = fuzzy_removal(o, tnorm)
        order = rng.permutation(6)
        chain = mu.chain_values(order)
        for i in range(6):
            assert abs(chain[i] - mu.value(order[i:])) < TOL


@pytest.mark.parametrize("build", [
    lambda o: fuzzy_removal(o),
    lambda o: wowa_measure(AdditiveQuantifier(8), o),
    lambda o: ordered_two_symmetric(AdditiveQuantifier(8), o, 0.3, 0.1),
], ids=["fuzzy_removal", "wowa", "ordered_two_symmetric"])
def test_three_dimensional_degrees_rejected(build):
    with pytest.raises(DomainError, match="vector or a 2-D array of rows"):
        build(np.full((2, 2, 2), 0.1))


class TestWowaMeasure:
    def test_party_example_formula_value(self):
        o = np.array([0.0, 0.0, 0.0, 0.3, 0.3])
        mu = wowa_measure(MOST, o)
        # Q_(0.3,0.9)(3/4.4) by direct formula evaluation
        assert abs(mu.value(np.array([0, 1, 2])) - 0.7355371900826445) < 1e-9

    def test_zero_o_reduces_to_symmetric(self):
        for n in range(1, 7):
            mu_w = wowa_measure(MOST, np.zeros(n))
            mu_s = symmetric_from_quantifier(MOST, n)
            for a in all_subsets(n):
                assert abs(mu_w.value(a) - mu_s.value(a)) < TOL

    def test_full_set_is_one(self):
        rng = np.random.default_rng(19)
        o = rng.uniform(0.0, 0.9, 5)
        assert wowa_measure(MOST, o).value(np.arange(5)) == 1.0

    def test_no_confidence_mass_rejected(self):
        with pytest.raises(DomainError):
            wowa_measure(MOST, np.ones(4))


class TestOrderedTwoSymmetric:
    def test_t_one_is_symmetric(self):
        rng = np.random.default_rng(23)
        o = rng.uniform(0.0, 1.0, 5)
        mu_t1 = ordered_two_symmetric(MOST, o, t=1.0, contamination=0.4)
        mu_s = symmetric_from_quantifier(MOST, 5)
        for a in all_subsets(5):
            assert abs(mu_t1.value(a) - mu_s.value(a)) < TOL

    def test_t_zero_crisp_is_symmetric_on_trusted(self):
        o = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        mu = ordered_two_symmetric(MOST, o, t=0.0, contamination=0.4)  # k = 3
        trusted = np.array([0, 1, 2])
        for a in all_subsets(5):
            inside = len(set(a.tolist()) & set(trusted.tolist()))
            assert abs(mu.value(a) - MOST(inside / 3)) < TOL

    def test_party_crisp_example(self):
        o = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        mu = ordered_two_symmetric(MOST, o, t=0.3, contamination=0.4)  # k = 3
        got = mu.value(np.array([0, 1, 2]))
        assert abs(got - 0.9977777777777778) < TOL  # Q(1 - 0.3 * 2/5) = Q(0.88)

    def test_weights_follow_o_order_with_index_ties(self):
        o = np.array([0.5, 0.1, 0.5, 0.9])
        mu = ordered_two_symmetric(MOST, o, t=0.0, contamination=0.5)  # k = 2
        # ranks ascending by (o, index): 1, 0, 2, 3 -> elements 1 and 0 trusted
        assert mu.value(np.array([0, 1])) == 1.0
        assert mu.value(np.array([2, 3])) == 0.0


class TestChainEvaluation:
    def test_chain_matches_value_for_all_kinds(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            mu = random_measure(rng, n)
            order = rng.permutation(n)
            chain = mu.chain_values(order)
            assert chain[0] == 1.0
            for i in range(n):
                assert abs(chain[i] - mu.value(order[i:])) < TOL

    def test_chain_total_cost_scales(self):
        # one chain pass over n elements must stay cheap for the hot kinds
        import time

        rng = np.random.default_rng(31)
        n = 4000
        o = rng.uniform(0.0, 1.0, n)
        measures = [
            symmetric_from_quantifier(AdditiveQuantifier(n), n),
            wowa_measure(AdditiveQuantifier(n), o),
            ordered_two_symmetric(AdditiveQuantifier(n), o, 0.3, 0.1),
            fuzzy_removal(o, con.MINIMUM),
        ]
        order = rng.permutation(n)
        start = time.perf_counter()
        for mu in measures:
            mu.chain_values(order)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
