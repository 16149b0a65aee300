import itertools

import numpy as np
import pytest

from fuzzyrough import connectives as con
from fuzzyrough import measures
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
from fuzzyrough.measures import FuzzyRemovalMeasure, PartialUniversalMeasure
from fuzzyrough.quantifiers import (
    AdditiveQuantifier,
    ExistentialQuantifier,
    QuadraticQuantifier,
    UniversalQuantifier,
    WeightVector,
)
from fuzzyrough.sets import DomainError, FuzzySet, Universe
from tests import scalar_reference

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


class TestSymmetricChain:
    def test_the_quantifier_is_called_once_however_many_chains_are_read(self):
        calls = []

        class Counted(QuadraticQuantifier):
            def __call__(self, p):
                calls.append(np.shape(p))
                return super().__call__(p)

        q = Counted(0.3, 0.9)
        n = 7
        mu = symmetric_from_quantifier(q, n)
        want = q(np.arange(n, 0, -1) / n)
        del calls[:]
        rng = np.random.default_rng(3)
        dual = mu.dual()
        for _ in range(3):
            order = rng.permutation(n)
            chain = mu.chain_values(order)
            assert chain.tobytes() == want.tobytes()
            chain[:] = 0.0  # a fresh array each time
            orders = np.array([rng.permutation(n) for _ in range(4)])
            assert mu.chain_values(orders).tobytes() == np.tile(want, (4, 1)).tobytes()
            dual.chain_values(order)
        assert calls == [] and not mu.chain.flags.writeable
        assert mu.chain.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", (1, 2, 7))
    def test_symmetric_and_dual_chains_are_fresh_writable_and_row_contiguous(self, n):
        """Every chain of a symmetric measure and of its dual is a new C-ordered
        array the caller may write, for one order or a stack of them, contiguous
        or not, and each row keeps every bit of the scalar reference."""
        mu = symmetric_from_quantifier(MOST, n)
        reference = scalar_reference.symmetric_chain(MOST, n)
        rng = np.random.default_rng(n)
        orders = np.array([rng.permutation(n) for _ in range(5)])
        layouts = (orders[0], orders, orders[:, ::-1], orders[::2], np.asfortranarray(orders))
        for measure, chain_of in ((mu, reference),
                                  (mu.dual(), scalar_reference.dual_chain(reference))):
            for order in layouts:
                chain = measure.chain_values(order)
                assert chain.shape == order.shape and chain.dtype == np.float64
                assert chain.flags.writeable and chain.flags.c_contiguous and chain.flags.owndata
                assert not np.shares_memory(chain, mu.chain)
                want = np.array([chain_of(row) for row in np.atleast_2d(order)])
                assert chain.tobytes() == want.tobytes()


class TestGather:
    def test_a_stack_gathers_as_take_along_axis(self):
        rng = np.random.default_rng(4)
        for rows, n in ((1, 1), (1, 9), (5, 1), (5, 9), (3, 0)):
            params = rng.random((rows, n))
            order = np.argsort(rng.random((rows, n)), axis=-1)
            got = measures._gather(params, order)
            assert got.tobytes() == np.take_along_axis(params, order, axis=-1).tobytes()
            assert got.shape == (rows, n)


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


def chain_by_definition(outliers, order, existential):
    """mu(order[i:]) for every i, read off the definition: a suffix is 1
    under the universal measure iff it holds every trusted element, and
    under the existential one iff it holds some trusted element."""
    trusted = set(np.flatnonzero(~outliers).tolist())
    n = order.shape[-1]
    chain = np.empty(order.shape)
    for row, out in zip(order.reshape(-1, n), chain.reshape(-1, n)):
        for i in range(n):
            held = trusted & set(row[i:].tolist())
            out[i] = float(bool(held) if existential else held == trusted)
    return chain


class TestPartialChains:
    @pytest.mark.parametrize("existential", [False, True], ids=["universal", "existential"])
    def test_chain_is_the_definition(self, existential):
        build = partial_existential if existential else partial_universal
        rng = np.random.default_rng(37)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            outliers = rng.random(n) < rng.random()
            outliers[rng.integers(n)] = False
            mu = build(outliers)
            rows = int(rng.integers(1, 5))
            for order in (rng.permutation(n),
                          np.array([rng.permutation(n) for _ in range(rows)])):
                chain = mu.chain_values(order)
                assert np.array_equal(chain, chain_by_definition(outliers, order, existential))

    def test_partial_universal_is_crisp_fuzzy_removal(self):
        # one removal chain: the crisp class adds no chain or value of its own
        assert issubclass(PartialUniversalMeasure, FuzzyRemovalMeasure)
        assert "chain_values" not in vars(PartialUniversalMeasure)
        assert "_value" not in vars(PartialUniversalMeasure)
        mu = partial_universal(np.array([True, False, True]))
        assert mu.tnorm == con.MINIMUM
        assert np.array_equal(mu.o, [1.0, 0.0, 1.0])


class TestPartialConstruction:
    U = Universe(("a", "b", "c", "d"))

    def test_from_a_crisp_fuzzy_set(self):
        mu = partial_universal(FuzzySet.crisp(self.U, ["b", "d"]))
        assert mu.universe is self.U
        assert np.array_equal(mu.outliers, [False, True, False, True])
        assert mu.value(np.array([0, 2])) == 1.0
        assert mu.value(np.array([0, 1, 3])) == 0.0

    def test_from_a_fuzzy_set_that_is_not_crisp(self):
        with pytest.raises(DomainError, match="^measures are defined on crisp subsets only$"):
            partial_universal(FuzzySet(self.U, [0.0, 0.5, 0.0, 1.0]))

    def test_from_indices_with_n(self):
        mu = partial_universal([1, 3], n=4)
        assert np.array_equal(mu.trusted, [True, False, True, False])
        assert np.array_equal(partial_existential([1, 3], n=4).trusted, mu.trusted)

    def test_from_indices_without_n(self):
        with pytest.raises(DomainError, match="^pass n when giving outlier indices$"):
            partial_universal([1, 3])

    def test_subset_as_a_fuzzy_set(self):
        mu = partial_universal(np.array([False, True, False, True]), universe=self.U)
        assert mu.value(FuzzySet.crisp(self.U, ["a", "c"])) == 1.0
        assert mu.value(FuzzySet.crisp(self.U, ["a", "b"])) == 0.0
        with pytest.raises(DomainError, match="^measures are defined on crisp subsets only$"):
            mu.value(FuzzySet(self.U, [1.0, 0.2, 1.0, 0.0]))

    def test_empty_index_list_is_the_empty_subset(self):
        mu = partial_universal(np.array([False, True, False, True]))
        assert mu.value([]) == 0.0
        assert mu.dual().value([]) == 0.0


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
