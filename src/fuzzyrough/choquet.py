"""Choquet integration and the OWA operator.

The integral of f against a capacity mu is computed along the sorted chain:
sort f ascending, take suffix sets A*_i, and accumulate
mu(A*_i) * (f(x*_i) - f(x*_{i-1})) with f(x*_0) = 0. For additive measures
this is the weighted mean, for symmetric measures the OWA operator.

Both operators take a leading row axis: a 2-D array of values is integrated
row by row and gives one result per row, and a one-dimensional input is the
one-row case of the same code; input with three or more dimensions is
rejected. Each row's final product is its own ``np.dot``, so a row's result
is bit-identical to integrating it alone.

Every integral and OWA sorts its rows once with ``sort_rows`` (the stable
ascending argsort, ties broken by index) and reads them through one private
kernel per operator, ``_choquet_sorted`` and ``_owa_sorted``, which the
classifier's scoring calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import MonotoneMeasure
from .quantifiers import WeightVector
from .sets import DomainError, FuzzySet, Universe

FAST_SORT_VALUES = 4096  # sort_rows calls on fewer values keep numpy's stable sort


@dataclass(frozen=True)
class Valuation:
    """A real-valued function on a universe, stored as a vector."""

    universe: Universe
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.universe.size:
            raise DomainError("value vector length must match the universe size")
        if not np.all(np.isfinite(v)):
            raise DomainError("valuation values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _extract(f, mu: MonotoneMeasure | None = None) -> np.ndarray:
    if isinstance(f, Valuation):
        values, universe = f.values, f.universe
    elif isinstance(f, FuzzySet):
        values, universe = f.memberships, f.universe
    else:
        values = np.atleast_1d(np.asarray(f, dtype=float))
        if values.ndim > 2:
            raise DomainError("values must form a vector or a 2-D array of rows")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        universe = None
    if mu is not None:
        if values.shape[-1] != mu.n:
            raise DomainError("valuation and measure sizes differ")
        if mu.rows is not None and (values.ndim != 2 or values.shape[0] != mu.rows):
            raise DomainError("a stack of measures integrates one value row per measure")
        if universe is not None and mu.universe is not None and universe != mu.universe:
            raise DomainError("valuation and measure live on different universes")
    return values


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each row of a with b, or with the same row of a 2-D b.

    One call per row keeps each result bit-identical to the one-row product;
    a matrix product would sum in another order.
    """
    if b.ndim == 1:
        return np.array([np.dot(row, b) for row in a])
    return np.array([np.dot(x, y) for x, y in zip(a, b)])


def sort_rows(values) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stable ascending argsort, and the rows sorted by it.

    The order is ``np.argsort(values, axis=-1, kind="stable")``, ties broken
    by index. A call on at least FAST_SORT_VALUES values in all is sorted
    with numpy's unstable sort: a row whose sorted values strictly increase
    has only one ascending order, which is then the stable one, and only
    rows with an equal neighbour (0.0 and -0.0 count as equal) or a NaN are
    sorted again stably. Smaller calls, such as one library integral over a
    few hundred elements, keep the stable sort: the tie check's fixed cost
    per call outweighs what the faster sort saves on so few values.
    """
    values = np.asarray(values)
    if values.size < FAST_SORT_VALUES:
        order = np.argsort(values, axis=-1, kind="stable")
        return order, np.take_along_axis(values, order, axis=-1)
    order = np.argsort(values, axis=-1)
    asc = np.take_along_axis(values, order, axis=-1)
    tied = ~np.all(asc[..., 1:] > asc[..., :-1], axis=-1)
    if tied.any():
        order[tied] = np.argsort(values[tied], axis=-1, kind="stable")
        # equal values may differ in their bits (signed zeros), so gather again
        asc[tied] = np.take_along_axis(values[tied], order[tied], axis=-1)
    return order, asc


def _choquet_sorted(asc: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Choquet integrals of rows sorted ascending, given the chains of their order."""
    out = asc[:, 0] * chain[:, 0]
    if asc.shape[1] > 1:
        out += _dot_rows(asc[:, 1:] - asc[:, :-1], chain[:, 1:])
    return out


def _owa_sorted(asc: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """OWA of rows sorted ascending: each reversed row dotted with the weights."""
    return _dot_rows(np.ascontiguousarray(asc[:, ::-1]), weights)


def choquet_integral(f, mu: MonotoneMeasure):
    """Integrate f (Valuation, FuzzySet, vector, or 2-D array) against the capacity mu.

    A 2-D array integrates each row against mu, or against the matching
    measure of a stack, and returns one float per row; a Valuation, FuzzySet
    or vector gives a float. The rows are sorted by ``sort_rows``; input with
    three or more dimensions raises DomainError.
    """
    values = _extract(f, mu)
    order, asc = sort_rows(np.atleast_2d(values))
    out = _choquet_sorted(asc, mu.chain_values(order))
    return out if values.ndim == 2 else float(out[0])


def owa_values(values: np.ndarray, w: WeightVector):
    """OWA of a vector (a float), or of each row of a 2-D array (an array)."""
    values = np.asarray(values, dtype=float)
    if values.ndim > 2 or values.shape[-1] != len(w):
        raise DomainError("value and weight lengths differ")
    _, asc = sort_rows(np.atleast_2d(values))
    out = _owa_sorted(asc, w.weights)
    return out if values.ndim == 2 else float(out[0])


def owa(f, w: WeightVector) -> float:
    """Ordered weighted average: w_1 goes to the largest value."""
    return owa_values(_extract(f), w)
