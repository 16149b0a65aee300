"""Proportional quantifiers ("most", "some", ...) and their OWA weight vectors.

A regular increasing monotone (RIM) quantifier is a nondecreasing map
Q: [0,1] -> [0,1] with Q(0) = 0 and Q(1) = 1. On a universe of size n it is
interchangeable with an OWA weight vector through w_i = Q(i/n) - Q((i-1)/n),
and both views are used downstream: weights drive the OWA operator, the
quantifier itself drives symmetric and distorted-additive measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sets import DomainError, FuzzySet, _reals, frozen_copy, unit_degrees

_VALIDATION_GRID = np.linspace(0.0, 1.0, 1001)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights summing to one."""

    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = frozen_copy(_reals(self.weights))
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weight vector must be a nonempty 1-d array")
        if np.any(w < 0.0):
            raise DomainError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


class RIMQuantifier:
    """Base class; subclasses implement a vectorized ``_eval``.

    Construction validates Q(0) = 0, Q(1) = 1 and monotonicity on a
    1001-point uniform grid, which is denser than any downstream use.
    """

    def __init__(self):
        v = self._eval(_VALIDATION_GRID)
        if abs(v[0]) > 1e-12 or abs(v[-1] - 1.0) > 1e-12:
            raise DomainError("quantifier must satisfy Q(0)=0 and Q(1)=1")
        if np.any(np.diff(v) < -1e-12):
            raise DomainError("quantifier must be nondecreasing on [0, 1]")
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
            raise DomainError("quantifier values must lie in [0, 1]")

    def _eval(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, p):
        arr = unit_degrees(p, "quantifier argument must lie in [0, 1]")
        out = self._eval(arr)
        return float(out) if arr.ndim == 0 else out


class UniversalQuantifier(RIMQuantifier):
    """Q(p) = 1 only at p = 1: "all"."""

    def _eval(self, p):
        return np.where(p >= 1.0, 1.0, 0.0)


class ExistentialQuantifier(RIMQuantifier):
    """Q(p) = 1 for any p > 0: "at least one"."""

    def _eval(self, p):
        return np.where(p > 0.0, 1.0, 0.0)


class QuadraticQuantifier(RIMQuantifier):
    """Smooth ramp between alpha and beta built from two parabolic arcs."""

    def __init__(self, alpha: float, beta: float):
        if not (0.0 <= alpha < beta <= 1.0):
            raise DomainError("quadratic quantifier requires 0 <= alpha < beta <= 1")
        self.alpha = float(alpha)
        self.beta = float(beta)
        super().__init__()

    def _eval(self, p):
        a, b = self.alpha, self.beta
        rising = p <= (a + b) / 2.0
        # up to the midpoint 2 (p - a)^2 / (b - a)^2, after it 1 - 2 (p - b)^2 / (b - a)^2
        arc = 2.0 * (p - np.where(rising, a, b)) ** 2 / (b - a) ** 2
        out = np.where(rising, arc, 1.0 - arc)
        out = np.where(p <= a, 0.0, out)
        return np.where(p >= b, 1.0, out)


class AdditiveQuantifier(RIMQuantifier):
    """Q(x) = x(xn+1)/(n+1); its weight vector on size n grows linearly."""

    def __init__(self, n: int):
        if n < 1:
            raise DomainError("additive quantifier requires n >= 1")
        self.n = int(n)
        super().__init__()

    def _eval(self, p):
        return p * (p * self.n + 1.0) / (self.n + 1.0)


class StepQuantifier(RIMQuantifier):
    """Right-continuous step interpolant of a weight vector's partial sums.

    Q(p) = sum of w_i over i <= p*n, jumping at the grid points i/n.
    """

    def __init__(self, weights: WeightVector):
        self.weights = weights
        self._cum = np.concatenate([[0.0], np.cumsum(weights.weights)])
        self._cum[-1] = 1.0
        super().__init__()

    def _eval(self, p):
        n = len(self.weights)
        # nudge guards against i/n * n rounding just below i
        idx = np.floor(p * n + 1e-9).astype(int)
        return self._cum[np.clip(idx, 0, n)]


class CallableQuantifier(RIMQuantifier):
    """Wrap an arbitrary function; the grid check rejects non-RIM maps."""

    def __init__(self, fn):
        self._fn = fn
        super().__init__()

    def _eval(self, p):
        return np.asarray(self._fn(p), dtype=float)


def eval_quantifier(q: RIMQuantifier, p: float) -> float:
    return float(q(p))


def weights_from_quantifier(q: RIMQuantifier, n: int) -> WeightVector:
    """w_i = Q(i/n) - Q((i-1)/n); nonnegative and summing to 1 by RIM-ness."""
    if n < 1:
        raise DomainError("weight vector length must be >= 1")
    grid = q(np.arange(n + 1) / n)
    w = np.maximum(np.diff(grid), 0.0)
    return WeightVector(w)


quantifier_from_weights = StepQuantifier


def orness(w: WeightVector) -> float:
    """How close the weights are to the maximum operator (1 = max, 0 = min)."""
    n = len(w)
    if n < 2:
        raise DomainError("orness is undefined for a single weight")
    i = np.arange(1, n + 1)
    return float(np.sum((n - i) * w.weights) / (n - 1))


def andness(w: WeightVector) -> float:
    return 1.0 - orness(w)


def zadeh_eval(q: RIMQuantifier, a: FuzzySet) -> float:
    """Truth of "Q elements are in A" from the relative sigma-count alone."""
    return float(q(a.cardinality() / a.universe.size))


def yager_eval(q: RIMQuantifier, a: FuzzySet) -> float:
    """OWA evaluation of "Q elements are in A" with quantifier-derived weights."""
    from .choquet import owa_values

    w = weights_from_quantifier(q, a.universe.size)
    return owa_values(a, w)
