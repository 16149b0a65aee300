import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyrough.quantifiers import (
    AdditiveQuantifier,
    CallableQuantifier,
    ExistentialQuantifier,
    QuadraticQuantifier,
    StepQuantifier,
    UniversalQuantifier,
    WeightVector,
    andness,
    eval_quantifier,
    orness,
    quantifier_from_weights,
    weights_from_quantifier,
    yager_eval,
    zadeh_eval,
)
from fuzzyrough.sets import DomainError, FuzzySet, Universe
from tests import scalar_reference

TOL = 1e-12

weight_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10).filter(
    lambda w: sum(w) > 1e-6
)


def normalized(ws):
    a = np.asarray(ws, dtype=float)
    return WeightVector(a / a.sum())


class TestEvalQuantifier:
    def test_most_at_three_quarters(self):
        assert eval_quantifier(QuadraticQuantifier(0.3, 0.9), 0.75) == 0.875

    def test_most_at_three_fifths(self):
        assert abs(eval_quantifier(QuadraticQuantifier(0.3, 0.9), 0.6) - 0.5) < TOL

    def test_universal_and_existential(self):
        q_all, q_any = UniversalQuantifier(), ExistentialQuantifier()
        for p in (0.0, 0.1, 0.5, 0.999):
            assert q_all(p) == 0.0
        assert q_all(1.0) == 1.0
        for p in (1e-9, 0.1, 0.5, 1.0):
            assert q_any(p) == 1.0
        assert q_any(0.0) == 0.0

    def test_additive_formula(self):
        q = AdditiveQuantifier(4)
        assert abs(q(0.5) - 0.3) < TOL  # 0.5 * 3 / 5

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.9), (0.0, 1.0), (0.0, 0.5), (0.5, 1.0)])
    def test_quadratic_is_its_piecewise_definition_bit_for_bit(self, alpha, beta):
        q = QuadraticQuantifier(alpha, beta)
        mid = (alpha + beta) / 2.0
        edges = [0.0, 1.0, alpha, beta, mid, *(np.nextafter(x, y) for x in (alpha, beta, mid)
                                                for y in (0.0, 1.0) if 0.0 <= np.nextafter(x, y) <= 1.0)]
        p = np.concatenate([np.random.default_rng(7).random(300), edges])
        want = np.array([scalar_reference.quadratic(alpha, beta, x) for x in p.tolist()])
        assert q(p).tobytes() == want.tobytes()

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            QuadraticQuantifier(0.3, 0.9)(1.5)

    def test_bad_parameters_rejected(self):
        with pytest.raises(DomainError):
            QuadraticQuantifier(0.9, 0.3)

    def test_non_rim_callable_rejected(self):
        with pytest.raises(DomainError):
            CallableQuantifier(lambda p: 1.0 - p)


class TestWeightsFromQuantifier:
    def test_additive_n4(self):
        w = weights_from_quantifier(AdditiveQuantifier(4), 4).weights
        assert np.allclose(w, [0.1, 0.2, 0.3, 0.4], atol=TOL)

    def test_existential_all_mass_first(self):
        for n in (1, 3, 7):
            w = weights_from_quantifier(ExistentialQuantifier(), n).weights
            expected = np.zeros(n)
            expected[0] = 1.0
            assert np.array_equal(w, expected)

    def test_quadratic_n4(self):
        w = weights_from_quantifier(QuadraticQuantifier(0.3, 0.9), 4).weights
        assert np.allclose(w, [0.0, 0.2222, 0.6528, 0.125], atol=1e-4)

    @given(st.integers(min_value=1, max_value=30))
    def test_sums_to_one_nonnegative(self, n):
        w = weights_from_quantifier(QuadraticQuantifier(0.2, 0.7), n).weights
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-9


class TestQuantifierFromWeights:
    def test_all_mass_last_acts_universal(self):
        n = 4
        q = quantifier_from_weights(WeightVector(np.array([0.0, 0.0, 0.0, 1.0])))
        for i in range(n):
            assert q(i / n) == 0.0
        assert q(1.0) == 1.0

    def test_uniform_is_linear_on_grid(self):
        n = 5
        q = quantifier_from_weights(WeightVector(np.full(n, 1.0 / n)))
        for i in range(n + 1):
            assert abs(q(i / n) - i / n) < TOL

    def test_round_trip(self):
        w = WeightVector(np.array([0.1, 0.2, 0.3, 0.4]))
        back = weights_from_quantifier(quantifier_from_weights(w), 4)
        assert np.allclose(back.weights, w.weights, atol=TOL)

    @given(weight_lists)
    def test_round_trip_random(self, ws):
        w = normalized(ws)
        back = weights_from_quantifier(quantifier_from_weights(w), len(w))
        assert np.allclose(back.weights, w.weights, atol=1e-9)


class TestOrness:
    def test_maximum_operator(self):
        assert orness(WeightVector(np.array([1.0, 0.0, 0.0]))) == 1.0

    def test_uniform(self):
        assert abs(orness(WeightVector(np.full(6, 1 / 6))) - 0.5) < TOL

    def test_additive_weights(self):
        w = WeightVector(np.array([0.1, 0.2, 0.3, 0.4]))
        assert abs(orness(w) - 1.0 / 3.0) < TOL
        assert abs(andness(w) - 2.0 / 3.0) < TOL

    def test_single_weight_rejected(self):
        with pytest.raises(DomainError):
            orness(WeightVector(np.array([1.0])))

    @given(weight_lists)
    def test_reversal(self, ws):
        w = normalized(ws)
        rev = WeightVector(w.weights[::-1].copy())
        assert abs(orness(rev) - (1.0 - orness(w))) < 1e-9


class TestZadehYager:
    def setup_method(self):
        self.u = Universe.of_size(4)
        self.tall = FuzzySet(self.u, [0.5, 0.5, 1.0, 1.0])
        self.most = QuadraticQuantifier(0.3, 0.9)

    def test_zadeh_basketball(self):
        assert zadeh_eval(self.most, self.tall) == 0.875

    def test_zadeh_boundaries(self):
        assert zadeh_eval(self.most, FuzzySet(self.u, np.ones(4))) == 1.0
        assert zadeh_eval(self.most, FuzzySet(self.u, np.zeros(4))) == 0.0

    def test_yager_basketball(self):
        assert abs(yager_eval(self.most, self.tall) - 0.6111111111111111) < 1e-3

    def test_yager_equals_zadeh_on_crisp(self):
        crisp = FuzzySet(self.u, [1.0, 0.0, 1.0, 1.0])
        assert abs(yager_eval(self.most, crisp) - zadeh_eval(self.most, crisp)) < TOL

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_yager_of_constant(self, c):
        const = FuzzySet(self.u, np.full(4, c))
        assert abs(yager_eval(self.most, const) - c) < TOL


class TestSemanticEquivalence:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=6))
    def test_same_grid_values_same_yager(self, ms):
        n = len(ms)
        u = Universe.of_size(n)
        a = FuzzySet(u, ms)
        smooth = QuadraticQuantifier(0.2, 0.8)
        step = quantifier_from_weights(weights_from_quantifier(smooth, n))
        assert abs(yager_eval(smooth, a) - yager_eval(step, a)) < 1e-9

    def test_additive_matches_cumulative_weights(self):
        for n in range(1, 51):
            q = AdditiveQuantifier(n)
            i = np.arange(1, n + 1)
            expected = np.cumsum(2.0 * i / (n * (n + 1)))
            got = np.array([q(j / n) for j in i])
            assert np.allclose(got, expected, atol=1e-9)
