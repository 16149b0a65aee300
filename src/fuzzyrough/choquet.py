"""Choquet integration and the OWA operator.

The integral of f against a capacity mu is computed along the sorted chain:
sort f ascending, take suffix sets A*_i, and accumulate
mu(A*_i) * (f(x*_i) - f(x*_{i-1})) with f(x*_0) = 0. For additive measures
this is the weighted mean, for symmetric measures the OWA operator.

Both operators take a leading row axis: a 2-D array of values is integrated
row by row and gives one result per row, and a one-dimensional input is the
one-row case of the same code; input with three or more dimensions is
rejected. The rows' final products are one stacked ``np.matmul`` of
contiguous operands, which numpy hands to the same BLAS dot product per row
as ``np.dot``, so a row's result is bit-identical to integrating it alone.

Every integral and OWA sorts its rows once with ``sort_rows`` (the stable
ascending argsort, ties broken by index) and reads them through one private
kernel per operator, ``_choquet_sorted`` and ``_owa_sorted``, which the
classifier's scoring calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import MonotoneMeasure
from .quantifiers import WeightVector
from .rows import over_row_ranges
from .sets import DomainError, FuzzySet, Universe, frozen_copy, value_rows

FAST_SORT_VALUES = 4096  # sort_rows calls on fewer values keep numpy's stable sort


@dataclass(frozen=True)
class Valuation:
    """A real-valued function on a universe, stored as a vector."""

    universe: Universe
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = frozen_copy(self.values)
        if v.ndim != 1 or v.size != self.universe.size:
            raise DomainError("value vector length must match the universe size")
        if not np.all(np.isfinite(v)):
            raise DomainError("valuation values must be finite")
        object.__setattr__(self, "values", v)


def _extract(f, mu: MonotoneMeasure | None = None) -> np.ndarray:
    if isinstance(f, Valuation):
        values, universe = f.values, f.universe
    elif isinstance(f, FuzzySet):
        values, universe = f.memberships, f.universe
    else:
        values = value_rows(f, "values")
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

    One stacked matmul of (1 x n) by (n x 1) products calls the BLAS dot
    product of ``np.dot`` once per row, so each result is bit-identical to
    the one-row product of rows whose elements are adjacent, as in every
    operand the package passes; a matrix product would sum in another order.
    On a non-contiguous operand (a reversed chain) matmul takes numpy's own
    loop, which sums differently, so both operands are made contiguous
    first; for length-1 rows matmul gives +0.0 where np.dot keeps -0.0, so
    those are plain products.
    """
    if a.shape[1] == 1:
        return a[:, 0] * (b if b.ndim == 1 else b[:, 0])
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def sort_rows(values) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stable ascending argsort, and the rows sorted by it.

    The order is ``np.argsort(values, axis=-1, kind="stable")``, ties broken
    by index. A call on at least FAST_SORT_VALUES values in all is sorted
    with numpy's unstable sort: a row whose sorted values strictly increase
    has only one ascending order, which is then the stable one, and only
    rows with an equal neighbour (0.0 and -0.0 count as equal) or a NaN are
    sorted again stably. Such calls go through ``rows.over_row_ranges``,
    which splits the large ones by rows across CPUs, each range sorting and
    checking its own rows. Smaller calls, such as one library integral over a few hundred
    elements, keep the stable sort: the tie check's fixed cost per call
    outweighs what the faster sort saves on so few values.
    """
    values = np.asarray(values)
    if values.size < FAST_SORT_VALUES:
        order = np.argsort(values, axis=-1, kind="stable")
        return order, np.take_along_axis(values, order, axis=-1)
    table = values.reshape(math.prod(values.shape[:-1]), values.shape[-1])
    order = np.empty(table.shape, dtype=np.intp)
    asc = np.empty(table.shape, dtype=values.dtype)

    def part(lo, hi):
        v, o, a = table[lo:hi], order[lo:hi], asc[lo:hi]
        o[...] = np.argsort(v, axis=-1)
        a[...] = np.take_along_axis(v, o, axis=-1)
        tied = ~np.all(a[..., 1:] > a[..., :-1], axis=-1)
        if tied.any():
            o[tied] = np.argsort(v[tied], axis=-1, kind="stable")
            # equal values may differ in their bits (signed zeros), so gather again
            a[tied] = np.take_along_axis(v[tied], o[tied], axis=-1)

    over_row_ranges(part, table.shape[0], values.size * table.shape[1].bit_length())
    return order.reshape(values.shape), asc.reshape(values.shape)


def _choquet_sorted(asc: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Choquet integrals of rows sorted ascending, given the chains of their order."""
    out = asc[:, 0] * chain[:, 0]
    if asc.shape[1] > 1:
        out += _dot_rows(asc[:, 1:] - asc[:, :-1], chain[:, 1:])
    return out


def _owa_sorted(asc: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """OWA of rows sorted ascending: each reversed row dotted with the weights."""
    return _dot_rows(asc[:, ::-1], weights)


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


def owa_values(f, w: WeightVector):
    """Ordered weighted average of f, read as by ``choquet_integral``: w_1 goes
    to the largest value, and a 2-D array gives one float per row."""
    values = _extract(f)
    if values.shape[-1] != len(w):
        raise DomainError("value and weight lengths differ")
    _, asc = sort_rows(np.atleast_2d(values))
    out = _owa_sorted(asc, w.weights)
    return out if values.ndim == 2 else float(out[0])


owa = owa_values
