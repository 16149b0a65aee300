"""The Cephes ports of ``fuzzyrough._special`` give scipy's bits.

``erf`` and ``ndtr`` are compared with ``scipy.special`` by bit pattern on
seeded uniform draws over ranges that cover each region of the port (the
T/U, P/Q and R/S polynomials, the split at sqrt(1/2) and the underflow to
0), on signed zeros, infinities and NaN, and on any finite float.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyrough import _special

special = pytest.importorskip("scipy.special")

ERF_RANGES = [(-1.0, 1.0), (1.0, 8.0), (-8.0, -1.0), (8.0, 27.0), (-27.0, -8.0),
              (0.99, 1.01), (-40.0, 40.0)]
NDTR_RANGES = [(-1.0, 1.0), (-1.5, -1.3), (1.3, 1.5), (-12.0, -1.0), (1.0, 12.0),
               (-40.0, 40.0)]
EDGES = np.array([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 8.0, -8.0, math.sqrt(0.5),
                  -math.sqrt(0.5), math.sqrt(2.0), -math.sqrt(2.0),
                  math.sqrt(_special.MAXLOG), -math.sqrt(_special.MAXLOG), 5e-324, 1e300])


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _ndtr(x: np.ndarray) -> np.ndarray:
    return np.array([_special.ndtr(float(v)) for v in x])


@pytest.mark.parametrize("lo,hi", ERF_RANGES)
def test_erf_has_the_bits_of_scipy(lo, hi):
    x = np.random.default_rng(ERF_RANGES.index((lo, hi))).uniform(lo, hi, 100_000)
    assert np.array_equal(_bits(_special.erf(x)), _bits(special.erf(x)))


@pytest.mark.parametrize("lo,hi", NDTR_RANGES)
def test_ndtr_has_the_bits_of_scipy(lo, hi):
    x = np.random.default_rng(NDTR_RANGES.index((lo, hi))).uniform(lo, hi, 5_000)
    assert np.array_equal(_bits(_ndtr(x)), _bits(special.ndtr(x)))


def test_signed_zeros_infinities_and_edges():
    assert np.array_equal(_bits(_special.erf(EDGES)), _bits(special.erf(EDGES)))
    assert np.array_equal(_bits(_ndtr(EDGES)), _bits(special.ndtr(EDGES)))
    assert np.signbit(_special.erf(np.array([-0.0]))[0])


def test_nan_gives_nan():
    assert np.isnan(_special.erf(np.array([np.nan, 0.5]))).tolist() == [True, False]
    assert math.isnan(_special.ndtr(math.nan))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_any_finite_float(values):
    x = np.array(values)
    assert np.array_equal(_bits(_special.erf(x)), _bits(special.erf(x)))
    assert np.array_equal(_bits(_ndtr(x)), _bits(special.ndtr(x)))
