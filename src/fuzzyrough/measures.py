"""Monotone measures (capacities) on finite universes.

Every measure here satisfies mu(empty) = 0, mu(X) = 1 and monotonicity under
inclusion, but is generally non-additive. Besides evaluation on arbitrary
subsets, each kind supports ``chain_values``: given the ascending ordering
produced while integrating a function, it returns the measures of the whole
descending chain X = A*_1 >= A*_2 >= ... >= A*_n in one pass, which is the
only access pattern Choquet integration needs. ``chain_values`` takes a
leading row axis: a 2-D array with one ordering per row gives one chain per
row.

Subsets may be given as boolean masks, one vector of distinct integer
indices, or crisp fuzzy sets. The fuzzy set ``o`` appearing in several
constructors carries one distrust/outlierness degree per element. The
degree-driven measures (fuzzy removal, WOWA, ordered two-block) also accept
a 2-D ``o`` with one degree vector per row: a stack of measures on equally
sized universes, which integrates one function per row. A stack has no
single ``value``. Crisp outlier labels are the 0/1 case of ``o``: the
partial universal measure is fuzzy removal under the minimum on those
degrees, and the partial existential measure is its dual.
"""

from __future__ import annotations

import math

import numpy as np

from . import connectives
from .quantifiers import RIMQuantifier, WeightVector
from .sets import (DomainError, FuzzySet, Universe, _booleans, frozen_copy, unit_degrees,
                   value_rows)


def _as_mask(subset, n: int) -> np.ndarray:
    if isinstance(subset, FuzzySet):
        m = subset.memberships
        if not np.all((m == 0.0) | (m == 1.0)):
            raise DomainError("measures are defined on crisp subsets only")
        return m.astype(bool)
    try:
        arr = np.asarray(subset)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DomainError("subset indices must form one vector") from None
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise DomainError("boolean mask length must match the universe size")
        return arr
    if arr.ndim != 1:
        raise DomainError("subset indices must form one vector")
    if arr.size and arr.dtype.kind not in "iu":
        raise DomainError("subset indices must be integers")
    idx = arr.astype(int)
    if idx.size != len(set(idx.tolist())):
        raise DomainError("subset indices must be distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DomainError("subset indices outside the universe")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def _degrees_of(o) -> tuple[np.ndarray, Universe | None]:
    if isinstance(o, FuzzySet):
        return o.memberships, o.universe
    # a read-only copy: row-contiguous, so each row of a stack sums as its own
    # measure's, and detached from the caller's array
    arr = frozen_copy(value_rows(o, "degrees"))
    return unit_degrees(arr, "degrees must lie in [0, 1]"), None


def _stack_rows(degrees: np.ndarray) -> int | None:
    return degrees.shape[0] if degrees.ndim == 2 else None


def _gather(params: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per-element parameters in chain order, one row per ordering; a stack
    gathers directly, as ``np.take_along_axis`` would at a higher cost."""
    if params.ndim == 1:
        return params[order]
    return params[np.arange(params.shape[0])[:, None], order]


class MonotoneMeasure:
    """Base capacity: subclasses fill in ``_value`` and ``chain_values``.

    ``rows`` is None for a single measure and the number of measures in a
    stack.
    """

    def __init__(self, n: int, universe: Universe | None = None, rows: int | None = None):
        if n < 1:
            raise DomainError("measures require a nonempty universe")
        if universe is not None and universe.size != n:
            raise DomainError("universe size mismatch")
        self.n = int(n)
        self.universe = universe
        self.rows = rows

    def value(self, subset) -> float:
        if self.rows is not None:
            raise DomainError("a stack of measures has no single value; build one per row")
        mask = _as_mask(subset, self.n)
        k = int(mask.sum())
        if k == 0:
            return 0.0
        if k == self.n:
            return 1.0
        return float(min(max(self._value(mask, k), 0.0), 1.0))

    def _value(self, mask: np.ndarray, k: int) -> float:
        raise NotImplementedError

    def chain_values(self, order: np.ndarray) -> np.ndarray:
        """Measures of the suffix sets {order[i], ..., order[n-1]} for all i.

        ``order`` is a permutation of the element indices, or a 2-D array
        with one permutation per row (one per measure of a stack); the chain
        has the same shape.
        """
        raise NotImplementedError

    def dual(self) -> "MonotoneMeasure":
        return DualMeasure(self)


class SymmetricMeasure(MonotoneMeasure):
    """mu(A) = Q(|A|/n): depends on cardinality only, so every ordering has
    the chain Q(n/n), ..., Q(1/n), built once as the read-only ``chain``."""

    def __init__(self, quantifier: RIMQuantifier, n: int, universe: Universe | None = None):
        super().__init__(n, universe)
        self.quantifier = quantifier
        self.chain = frozen_copy(quantifier(np.arange(self.n, 0, -1, dtype=float) / self.n))

    def _value(self, mask, k):
        return self.quantifier(k / self.n)

    def chain_values(self, order):
        out = np.empty(np.shape(order))
        out[...] = self.chain
        return out


class _DistortedAdditiveMeasure(MonotoneMeasure):
    """mu(A) = Q(sum of per-element base weights over A)."""

    def __init__(self, base_weights: np.ndarray, quantifier: RIMQuantifier | None,
                 universe: Universe | None = None):
        w = np.asarray(base_weights, dtype=float)
        super().__init__(w.shape[-1], universe, _stack_rows(w))
        if (w < 0.0).any():
            raise DomainError("base weights must be nonnegative")
        if (np.abs(w.sum(axis=-1) - 1.0) > 1e-9).any():
            raise DomainError("base weights must sum to 1")
        self.base_weights = w
        self.quantifier = quantifier

    def _distort(self, p, out=None):
        if self.quantifier is None:
            return p
        # the bits of p.clip(0.0, 1.0), a lone -0.0 and NaN included; in place with out=p
        return self.quantifier(np.minimum(np.maximum(0.0, p, out=out), 1.0, out=out))

    def _value(self, mask, k):
        return float(self._distort(self.base_weights[mask].sum()))

    def chain_values(self, order):
        suffix = _gather(self.base_weights, np.asarray(order))
        backward = suffix[..., ::-1]  # the suffix sums, written over the gathered weights
        backward.cumsum(axis=-1, out=backward)
        suffix[..., 0] = 1.0
        return np.asarray(self._distort(suffix, out=suffix), dtype=float)


class AdditiveMeasure(_DistortedAdditiveMeasure):
    """mu(A) = sum of p_i over A; the Choquet integral becomes a weighted mean."""

    def __init__(self, weights: WeightVector, universe: Universe | None = None):
        super().__init__(weights.weights, None, universe)
        self.weights = weights


class WowaMeasure(_DistortedAdditiveMeasure):
    """mu(A) = Q(sum of confidence weights over A).

    Confidence weights p_i = (1 - o_i) / (n - sum(o)) renormalize trust so
    that distrusted elements contribute less of the quantifier's progress.
    """

    def __init__(self, quantifier: RIMQuantifier, o, universe: Universe | None = None):
        degrees, uni = _degrees_of(o)
        n = degrees.shape[-1]
        denom = n - degrees.sum(axis=-1, keepdims=True)
        if (denom <= 0.0).any():
            raise DomainError("wowa measure needs some confidence mass: sum of o must be < n")
        super().__init__((1.0 - degrees) / denom, quantifier, universe or uni)
        self.o = degrees


class OrderedTwoSymmetricMeasure(_DistortedAdditiveMeasure):
    """Two-block weighting: low-o elements share most mass, the rest get t/n.

    Elements are ranked by ascending o (ties by index); the k lowest ranked,
    with k = ceil((1 - contamination) * n), receive weight (1-t)/k + t/n and
    the remaining ones t/n. With crisp o the measure depends only on the two
    intersection cardinalities, and t = 1 recovers the symmetric measure.
    """

    def __init__(self, quantifier: RIMQuantifier, o, t: float, contamination: float,
                 universe: Universe | None = None):
        if not 0.0 <= t <= 1.0:
            raise DomainError("outlier weight t must lie in [0, 1]")
        if not 0.0 <= contamination < 1.0:
            raise DomainError("contamination must lie in [0, 1)")
        degrees, uni = _degrees_of(o)
        n = degrees.shape[-1]
        k = math.ceil((1.0 - contamination) * n)
        if k < 1:
            raise DomainError("two-symmetric measure needs at least one trusted element")
        rank = degrees.argsort(axis=-1, kind="stable")
        w = np.empty(degrees.shape)
        w.fill(t / n)
        stack = () if w.ndim == 1 else (np.arange(w.shape[0])[:, None],)
        w[(*stack, rank[..., :k])] = t / n + (1.0 - t) / k
        super().__init__(w, quantifier, universe or uni)
        self.o = degrees
        self.t = float(t)
        self.k = k


class FuzzyRemovalMeasure(MonotoneMeasure):
    """mu(A) = t-norm of the distrust degrees of the elements excluded from A.

    A set is "large" exactly when everything outside it may be ignored, so a
    single fully trusted element (o = 0) left out drives the measure to 0.
    """

    def __init__(self, o, tnorm: str = connectives.MINIMUM, universe: Universe | None = None):
        degrees, uni = _degrees_of(o)
        super().__init__(degrees.shape[-1], universe or uni, _stack_rows(degrees))
        if tnorm not in connectives.tnorm_kinds():
            raise DomainError(f"unknown t-norm {tnorm!r}")
        self.o = degrees
        self.tnorm = tnorm

    def _value(self, mask, k):
        return connectives.tnorm_eval(self.tnorm, self.o[~mask])

    def chain_values(self, order):
        excluded = _gather(self.o, np.asarray(order))
        out = np.empty(excluded.shape)
        out[..., 0] = 1.0
        if self.n > 1:
            # the excluded prefix grows one element per chain step: one fold
            out[..., 1:] = connectives.tnorm_accumulate(self.tnorm, excluded[..., :-1])
        return out


class PartialUniversalMeasure(FuzzyRemovalMeasure):
    """mu(B) = 1 iff B contains every trusted element (those outside o).

    Fuzzy removal under the minimum on the 0/1 degrees of the crisp outlier
    set o: leaving out a trusted element (degree 0) drives the measure to 0.
    """

    def __init__(self, o, n: int | None = None, universe: Universe | None = None):
        if isinstance(o, FuzzySet):
            n, universe = o.universe.size, universe or o.universe
        elif n is None:
            o = _booleans(o, "pass n when giving outlier indices")
            n = o.size
        mask = _as_mask(o, n)
        super().__init__(mask.astype(float), connectives.MINIMUM, universe)
        if mask.all():
            raise DomainError("partial universal measure needs at least one trusted element")
        self.outliers = mask
        self.trusted = ~mask


class DualMeasure(MonotoneMeasure):
    """mu'(A) = 1 - mu(complement of A)."""

    def __init__(self, inner: MonotoneMeasure):
        super().__init__(inner.n, inner.universe, inner.rows)
        self.inner = inner

    def _value(self, mask, k):
        return 1.0 - self.inner.value(~mask)

    def chain_values(self, order):
        order = np.asarray(order)
        out = np.empty(order.shape)
        out[..., 0] = 1.0
        if self.n > 1:
            # complement of suffix i is the prefix order[:i], i.e. a suffix
            # of the reversed order; one inner chain pass covers them all
            rev = self.inner.chain_values(order[..., ::-1])
            out[..., 1:] = 1.0 - rev[..., :0:-1]
        return out

    def dual(self):
        return self.inner


class PartialExistentialMeasure(DualMeasure):
    """mu(B) = 0 iff B lies entirely inside the outlier set o.

    The dual of the partial universal measure on the same outliers: B misses
    every trusted element exactly when its complement contains them all.
    """

    def __init__(self, o, n: int | None = None, universe: Universe | None = None):
        super().__init__(PartialUniversalMeasure(o, n, universe))
        self.outliers = self.inner.outliers
        self.trusted = self.inner.trusted


def measure_eval(mu: MonotoneMeasure, subset) -> float:
    return mu.value(subset)


def dual_measure(mu: MonotoneMeasure) -> MonotoneMeasure:
    return mu.dual()
