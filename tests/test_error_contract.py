"""The error contract of the entries that the classifier's row-group scoring
reaches, checked generatively.

Hypothesis draws degree vectors and stacks, values and data sets with 0 or
1 elements, NaN, +-inf, +-1e308, subnormals, values outside [0, 1], and
string, complex, bool, object and ragged input. Each call must either return
finite values in its documented range or raise ``DomainError`` or
``DataFormatError``. Any other exception, and any warning, fails.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyrough.classifier import BASE_KINDS, AggregatorSpec, aggregate
from fuzzyrough.data import DataFormatError, DecisionSystem
from fuzzyrough.measures import FuzzyRemovalMeasure, OrderedTwoSymmetricMeasure, WowaMeasure
from fuzzyrough.outliers import per_class_scores, scored_with_labels
from fuzzyrough.quantifiers import AdditiveQuantifier, QuadraticQuantifier
from fuzzyrough.sets import DomainError

SUBNORMAL = 5e-324
ODD = [0.0, -0.0, 1.0, 0.5, np.nan, np.inf, -np.inf, 1e308, -1e308, SUBNORMAL, -SUBNORMAL,
       2.2250738585072014e-308, 1.0000000000000002, -0.5, 1.5, 7.0]
REALS = st.one_of(st.sampled_from(ODD), st.floats(0.0, 1.0), st.floats(width=64))
DEGREES = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


def _grid(draw, rows, cols, elements):
    return np.array(draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def arrays(draw, max_rows=3, max_cols=5):
    """A vector, a stack of rows or a scalar: mostly floats, some of them odd
    or mostly in [0, 1], and now and then a bool, string, complex, object or
    ragged input."""
    form = draw(st.sampled_from(("vector", "vector", "vector", "stack", "scalar", "bool",
                                 "strings", "complex", "object", "ragged")))
    cols = draw(st.integers(0, max_cols))
    elements = draw(st.sampled_from((REALS, DEGREES)))
    if form == "stack":
        return _grid(draw, draw(st.integers(0, max_rows)), cols, elements)
    if form == "scalar":
        return draw(elements)
    if form == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=cols, max_size=cols)), dtype=bool)
    if form == "strings":
        return ["a"] * max(cols, 1)
    if form == "complex":
        return np.array(draw(st.lists(DEGREES, min_size=cols, max_size=cols)), dtype=complex)
    if form == "object":
        return np.array([0.5, None][:max(cols, 1)], dtype=object)
    if form == "ragged":
        return [[0.5], [0.5, 0.25]]
    return _grid(draw, 1, cols, elements)[0]


def _contract(call, check):
    """``check(call())``, or nothing when the call raises DomainError or
    DataFormatError; every warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except (DomainError, DataFormatError):
            return
        check(result)


def _unit(values):
    values = np.asarray(values, dtype=float)
    assert np.isfinite(values).all() and (values >= 0.0).all() and (values <= 1.0).all()


def _measure_check(mu):
    """Every chain of a measure, or of each measure of a stack, is finite,
    starts at 1 and stays in [0, 1]."""
    rows = 1 if mu.rows is None else mu.rows
    order = np.argsort(np.random.default_rng(rows * 31 + mu.n).random((rows, mu.n)), axis=1)
    chain = mu.chain_values(order[0] if mu.rows is None else order)
    chain = np.atleast_2d(chain)
    assert chain.shape == (rows, mu.n)
    _unit(chain)
    assert (chain[:, 0] == 1.0).all()
    if mu.rows is None:
        _unit([mu.value(order[0][:i]) for i in range(mu.n + 1)])


QUANTIFIERS = st.sampled_from(("additive", "quadratic"))


def _quantifier(kind):
    return QuadraticQuantifier(0.3, 0.9) if kind == "quadratic" else AdditiveQuantifier(4)


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_fuzzy_removal_measure(o):
    for tnorm in ("minimum", "product", "lukasiewicz"):
        _contract(lambda: FuzzyRemovalMeasure(o, tnorm), _measure_check)


@settings(max_examples=300, deadline=None)
@given(arrays(), QUANTIFIERS)
def test_wowa_measure(o, quantifier):
    _contract(lambda: WowaMeasure(_quantifier(quantifier), o), _measure_check)


@settings(max_examples=300, deadline=None)
@given(arrays(), QUANTIFIERS, st.sampled_from((0.0, 0.3, 1.0)),
       st.sampled_from((0.0, 0.1, 0.5, 0.9)))
def test_ordered_two_symmetric_measure(o, quantifier, t, contamination):
    _contract(lambda: OrderedTwoSymmetricMeasure(_quantifier(quantifier), o, t,
                                                 contamination), _measure_check)


@settings(max_examples=300, deadline=None)
@given(arrays(max_cols=6), arrays(max_cols=6), st.one_of(st.none(), arrays(max_cols=6)),
       st.sampled_from(BASE_KINDS), QUANTIFIERS)
def test_aggregate_under_every_base_kind(values, o_sub, outliers, kind, quantifier):
    def check(result):
        assert isinstance(result, float)
        _unit([result])

    spec = AggregatorSpec(kind=kind, quantifier=quantifier)
    _contract(lambda: aggregate(values, o_sub, spec, outliers), check)


@st.composite
def decision_systems(draw):
    """A DecisionSystem of odd attribute cells, 1-12 instances of one to three
    classes, or of an odd input in place of the table; built when called."""
    if draw(st.booleans()):
        X = _grid(draw, draw(st.integers(1, 12)), draw(st.integers(0, 3)),
                  draw(st.sampled_from((REALS, DEGREES))))
    else:
        X = draw(arrays(max_rows=12, max_cols=3))
    rows, m = np.shape(X) if isinstance(X, np.ndarray) and X.ndim == 2 else (3, 1)
    y = np.array(draw(st.lists(st.sampled_from("abc"), min_size=rows, max_size=rows)),
                 dtype=object)
    return lambda: DecisionSystem(tuple(f"a{j}" for j in range(m)), X, y)


def _scores_check(ds_of, labelled):
    def check(scores):
        n = ds_of().n
        assert scores.raw.shape == scores.normalized.shape == (n,)
        assert np.isfinite(scores.raw).all()
        _unit(scores.normalized)
        if labelled is not None:
            assert scores.labels.dtype == bool and scores.labels.shape == (n,)
            assert scores.labels.sum() == math.ceil(labelled * n)
    return check


@settings(max_examples=200, deadline=None)
@given(decision_systems(), st.sampled_from((1, 2, 5, 20)))
def test_per_class_scores(ds_of, k):
    _contract(lambda: per_class_scores(ds_of(), k), _scores_check(ds_of, None))


@settings(max_examples=200, deadline=None)
@given(decision_systems(), st.sampled_from((1, 3, 20)), st.sampled_from((0.0, 0.1, 0.5, 0.9)))
def test_scored_with_labels(ds_of, k, contamination):
    _contract(lambda: scored_with_labels(ds_of(), k, contamination),
              _scores_check(ds_of, contamination))
