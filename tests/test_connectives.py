import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyrough import connectives as con
from fuzzyrough import fuzzy_removal, symmetric_from_quantifier
from fuzzyrough.approx import SimilarityRelation, upper_approximation
from fuzzyrough.choquet import choquet_integral
from fuzzyrough.quantifiers import QuadraticQuantifier
from fuzzyrough.sets import DomainError, FuzzySet, Universe, intersect_min

degrees = st.floats(min_value=0.0, max_value=1.0)

TOL = 1e-12


def drastic(x, y):
    """The drastic t-norm, elementwise on arrays."""
    return np.where(np.maximum(x, y) == 1.0, np.minimum(x, y), 0.0)


def choquet_by_definition(f, mu):
    """Sum of the sorted increments of f, each times the measure of its suffix set."""
    order = np.argsort(f, kind="stable")
    total, previous = 0.0, 0.0
    for i, j in enumerate(order):
        total += (f[j] - previous) * mu.value(order[i:])
        previous = f[j]
    return total


class TestTnormEval:
    def test_minimum_fold(self):
        assert con.tnorm_eval(con.MINIMUM, (0.3, 0.7, 0.5)) == 0.3

    @pytest.mark.parametrize("kind", con.tnorm_kinds())
    @given(x=degrees)
    def test_neutral_element(self, kind, x):
        assert abs(con.tnorm_eval(kind, (1.0, x)) - x) < TOL

    def test_party_unreliabilities(self):
        assert con.tnorm_eval(con.MINIMUM, (0.3, 0.3)) == 0.3

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            con.tnorm_eval(con.MINIMUM, [])

    @pytest.mark.parametrize("xs", [[[0.2, 0.4], [0.6, 0.8]], [[0.2, 0.4, 0.6]], np.zeros((1, 1, 2))],
                             ids=["2x2", "1x3", "1x1x2"])
    def test_anything_but_one_vector_rejected(self, xs):
        # the 2x2 block was folded as one 4-vector and gave 0.2
        with pytest.raises(DomainError, match="one vector of degrees"):
            con.tnorm_eval(con.MINIMUM, xs)

    def test_scalar_is_a_one_element_vector(self):
        assert con.tnorm_eval(con.PRODUCT, 0.4) == 0.4

    @pytest.mark.parametrize("kind", con.tnorm_kinds())
    @given(x=degrees, y=degrees, z=degrees)
    def test_axioms(self, kind, x, y, z):
        t = lambda a, b: con.tnorm_eval(kind, (a, b))
        assert abs(t(x, y) - t(y, x)) < TOL
        assert abs(t(t(x, y), z) - t(x, t(y, z))) < TOL
        if y <= z:
            assert t(x, y) <= t(x, z) + TOL
        assert 0.0 <= t(x, y) <= 1.0


def lukasiewicz_fold(xs):
    """The running Lukasiewicz fold, every step computed."""
    out = np.array(xs, dtype=float)
    for i in range(1, out.shape[-1]):
        out[..., i] = np.maximum(out[..., i - 1] + out[..., i] - 1.0, 0.0)
    return out


# values that reach 0 at once, late, or never (ones), signed zeros included
fold_degrees = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 0.5)), st.floats(0.9, 1.0), degrees)


class TestLukasiewiczFold:
    """The built-in Lukasiewicz fold stops once every row is 0 and fills the
    rest with 0.0; the entries keep the bits of folding every step."""

    @given(st.data(), st.integers(0, 4), st.integers(1, 12))
    def test_equals_the_step_by_step_fold(self, data, rows, n):
        shape = (n,) if rows == 0 else (rows, n)  # 0 rows: one 1-D vector
        xs = np.array(data.draw(st.lists(fold_degrees, min_size=n * max(rows, 1),
                                         max_size=n * max(rows, 1)))).reshape(shape)
        got = con.tnorm_accumulate(con.LUKASIEWICZ, xs)
        assert got.shape == xs.shape
        assert got.tobytes() == lukasiewicz_fold(xs).tobytes()

    def test_rows_reaching_zero_at_different_steps_or_never(self):
        xs = np.array([[0.3, 0.9, 0.8, 1.0, 0.7],
                       [0.9, 0.95, 0.4, 0.9, 1.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0],
                       [0.9, 0.9, 0.9, 0.9, 0.9]])
        for block in (xs, xs[:2], xs[2:], xs[1], xs[2], xs[:, :1]):
            got = con.tnorm_accumulate(con.LUKASIEWICZ, block)
            assert got.tobytes() == lukasiewicz_fold(block).tobytes()
        assert con.tnorm_eval(con.LUKASIEWICZ, xs[0]) == 0.0
        assert con.tnorm_eval(con.LUKASIEWICZ, xs[2]) == 1.0

    def test_a_registered_tnorm_near_zero_folds_every_step(self):
        # within the axioms' 1e-9 of Lukasiewicz, but T(0, x) = 5e-14 x, not 0;
        # registered under the built-in's own name, it still folds every step
        def near(x, y):
            return np.maximum(x + y - 1.0, 0.0) + 1e-13 * (x + y) / 2

        built_in = con.tnorm_fn(con.LUKASIEWICZ)
        con.register_tnorm(con.LUKASIEWICZ, near)
        try:
            # every row is 0 after step 1, where the built-in fold would stop
            xs = np.array([[0.0, 0.0, 0.6, 0.9], [0.0, 0.0, 0.3, 1.0]])
            got = con.tnorm_accumulate(con.LUKASIEWICZ, xs)
            want = xs.copy()
            for i in range(1, 4):
                want[:, i] = near(want[:, i - 1], xs[:, i])
            assert got.tobytes() == want.tobytes()
            assert np.all(got[:, 1] == 0.0) and np.all(got[:, 2:] > 0.0)
        finally:
            con._TNORMS[con.LUKASIEWICZ] = built_in


class TestImplicatorEval:
    def test_boundary(self):
        assert con.implicator_eval(con.KLEENE_DIENES, 1.0, 0.0) == 0.0

    def test_kleene_dienes_formula(self):
        assert con.implicator_eval(con.KLEENE_DIENES, 0.3, 0.6) == 0.7

    def test_lukasiewicz_formula(self):
        assert abs(con.implicator_eval(con.LUKASIEWICZ, 0.8, 0.5) - 0.7) < TOL

    @pytest.mark.parametrize("kind", con.implicator_kinds())
    def test_corners_exact(self, kind):
        assert con.implicator_eval(kind, 0.0, 0.0) == 1.0
        assert con.implicator_eval(kind, 0.0, 1.0) == 1.0
        assert con.implicator_eval(kind, 1.0, 1.0) == 1.0
        assert con.implicator_eval(kind, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("kind", con.implicator_kinds())
    @given(x1=degrees, x2=degrees, y=degrees)
    def test_monotonicity(self, kind, x1, x2, y):
        lo, hi = min(x1, x2), max(x1, x2)
        assert con.implicator_eval(kind, lo, y) >= con.implicator_eval(kind, hi, y) - TOL
        assert con.implicator_eval(kind, y, lo) <= con.implicator_eval(kind, y, hi) + TOL


class TestNegator:
    @pytest.mark.parametrize("x,expected", [(0.0, 1.0), (1.0, 0.0), (0.3, 0.7)])
    def test_standard(self, x, expected):
        assert con.negator_eval(con.STANDARD, x) == expected


class TestInducedConjunctor:
    def test_kd_induces_minimum(self):
        assert con.induced_conjunctor(con.KLEENE_DIENES, con.STANDARD, 0.4, 0.9) == 0.4

    @given(x=degrees, y=degrees)
    def test_kd_is_minimum_everywhere(self, x, y):
        got = con.induced_conjunctor(con.KLEENE_DIENES, con.STANDARD, x, y)
        assert abs(got - min(x, y)) < TOL

    @pytest.mark.parametrize("kind", con.implicator_kinds())
    @given(y=degrees)
    def test_one_is_neutral(self, kind, y):
        assert abs(con.induced_conjunctor(kind, con.STANDARD, 1.0, y) - y) < TOL

    def test_lukasiewicz_induced(self):
        got = con.induced_conjunctor(con.LUKASIEWICZ, con.STANDARD, 0.8, 0.5)
        assert abs(got - 0.3) < TOL  # max(0.8 + 0.5 - 1, 0)


class TestFuzzySetOps:
    def test_complement_crisp(self):
        u = Universe.of_size(3)
        a = FuzzySet(u, [1.0, 0.0, 1.0])
        assert np.array_equal(con.complement(a).memberships, [0.0, 1.0, 0.0])

    @given(st.lists(degrees, min_size=1, max_size=8))
    def test_complement_involution(self, ms):
        u = Universe.of_size(len(ms))
        a = FuzzySet(u, ms)
        back = con.complement(con.complement(a))
        assert np.allclose(back.memberships, a.memberships, atol=TOL)

    def test_complement_value(self):
        u = Universe.of_size(1)
        assert con.complement(FuzzySet(u, [0.3])).memberships[0] == 0.7

    def test_intersect_min(self):
        u = Universe.of_size(2)
        a = FuzzySet(u, [0.5, 0.9])
        b = FuzzySet(u, [0.7, 0.2])
        assert np.array_equal(intersect_min(a, b).memberships, [0.5, 0.2])

    @given(st.lists(degrees, min_size=1, max_size=6))
    def test_intersect_idempotent_and_empty(self, ms):
        u = Universe.of_size(len(ms))
        a = FuzzySet(u, ms)
        empty = FuzzySet(u, np.zeros(len(ms)))
        assert np.array_equal(intersect_min(a, a).memberships, a.memberships)
        assert np.array_equal(intersect_min(a, empty).memberships, empty.memberships)

    def test_universe_mismatch_rejected(self):
        a = FuzzySet(Universe.of_size(2), [0.1, 0.2])
        b = FuzzySet(Universe(("a", "b")), [0.1, 0.2])
        with pytest.raises(DomainError):
            intersect_min(a, b)


class TestRegistration:
    def test_valid_tnorm_accepted(self):
        con.register_tnorm("drastic_test", drastic)
        assert con.tnorm_eval("drastic_test", (1.0, 0.4)) == 0.4
        del con._TNORMS["drastic_test"]

    def test_valid_implicator_accepted(self):
        con.register_implicator("goedel_test", lambda x, y: np.where(x <= y, 1.0, y))
        try:
            assert "goedel_test" in con.implicator_kinds()
            got = con.implicator_eval("goedel_test", np.array([0.2, 0.7]), np.array([0.5, 0.4]))
            assert np.array_equal(got, [1.0, 0.4])
        finally:
            del con._IMPLICATORS["goedel_test"]

    def test_valid_negator_accepted(self):
        con.register_negator("circle_test", lambda x: np.sqrt(1.0 - x * x))
        try:
            assert "circle_test" in con.negator_kinds()
            got = con.negator_eval("circle_test", np.array([0.0, 0.6, 1.0]))
            assert np.allclose(got, [1.0, 0.8, 0.0], rtol=0.0, atol=TOL)
            a = FuzzySet(Universe.of_size(2), [0.0, 1.0])
            assert np.array_equal(con.complement(a, "circle_test").memberships, [1.0, 0.0])
        finally:
            del con._NEGATORS["circle_test"]

    def test_invalid_tnorm_rejected(self):
        with pytest.raises(DomainError):
            con.register_tnorm("bogus", lambda x, y: x * y / 2.0)
        assert "bogus" not in con.tnorm_kinds()

    def test_invalid_implicator_rejected(self):
        with pytest.raises(DomainError):
            con.register_implicator("bogus", lambda x, y: x)
        assert "bogus" not in con.implicator_kinds()

    @pytest.mark.parametrize("register, fn", [
        (con.register_tnorm, lambda x, y: min(x, y) if max(x, y) == 1.0 else 0.0),
        (con.register_tnorm, lambda x, y: np.minimum(x, y).ravel()),
        (con.register_implicator, lambda x, y: max(1.0 - x, y)),
        (con.register_negator, lambda x: 1.0 - x if x < 1.0 else 0.0),
    ])
    def test_connective_not_elementwise_on_arrays_rejected(self, register, fn):
        kinds = (con.tnorm_kinds(), con.implicator_kinds(), con.negator_kinds())
        with pytest.raises(DomainError, match="elementwise"):
            register("scalar_only", fn)
        assert (con.tnorm_kinds(), con.implicator_kinds(), con.negator_kinds()) == kinds

    def test_registered_tnorm_works_in_approximation_and_stacked_removal(self):
        con.register_tnorm("drastic_test", drastic)
        try:
            rng = np.random.default_rng(5)
            u = Universe.of_size(6)
            m = rng.uniform(0, 1, (6, 6))
            m = (m + m.T) / 2
            m[[0, 2], [2, 0]] = 1.0
            np.fill_diagonal(m, 1.0)
            r = SimilarityRelation(u, m)
            a = FuzzySet(u, [0.3, 1.0, 0.6, 0.2, 1.0, 0.9])
            mu = symmetric_from_quantifier(QuadraticQuantifier(0.2, 1.0), 6)
            got = upper_approximation(r, a, mu, "drastic_test", 0)
            assert abs(got - choquet_by_definition(drastic(m[0], a.memberships), mu)) < TOL

            o = np.array([[1.0, 0.4, 1.0, 0.7, 1.0, 0.2], [0.9, 1.0, 1.0, 1.0, 0.5, 1.0]])
            f = rng.uniform(0, 1, (2, 6))
            got = choquet_integral(f, fuzzy_removal(o, "drastic_test"))
            for row in range(2):
                expected = choquet_by_definition(f[row], fuzzy_removal(o[row], "drastic_test"))
                assert abs(got[row] - expected) < TOL
        finally:
            del con._TNORMS["drastic_test"]
