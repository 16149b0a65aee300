"""Similarity relations and Choquet lower/upper approximations.

The lower approximation of a concept A at y integrates I(R(x, y), A(x))
against a capacity; the upper approximation integrates C(R(x, y), A(x)).
Universal/existential measures recover the classical min/max definitions,
symmetric measures the OWA-weighted ones, and general capacities allow
outlier-aware softening. Similarity blocks are computed with their rows
split across CPUs, each row with the operations and bits of one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import connectives
from .choquet import choquet_integral
from .data import DecisionSystem
from .measures import MonotoneMeasure
from .rows import over_row_ranges
from .sets import DomainError, FuzzySet, Universe, frozen_copy, unit_degrees


@dataclass(frozen=True)
class SimilarityRelation:
    """Symmetric pairwise similarity degrees with a unit diagonal."""

    universe: Universe
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = unit_degrees(frozen_copy(self.matrix), "similarities must lie in [0, 1]")
        n = self.universe.size
        if m.shape != (n, n):
            raise DomainError("similarity matrix shape must match the universe")
        if not np.allclose(np.diag(m), 1.0):
            raise DomainError("similarity of an element with itself must be 1")
        if not np.allclose(m, m.T):
            raise DomainError("similarity matrix must be symmetric")
        object.__setattr__(self, "matrix", m)


def attribute_scales(ds: DecisionSystem) -> np.ndarray:
    """Per-attribute sample standard deviations of the training data."""
    if ds.n < 2:
        raise DomainError("need at least two instances to estimate scales")
    return np.std(ds.X, axis=0, ddof=1)


def _similarity_block(rows: np.ndarray, X: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Mean over attributes of max(1 - |a(x) - a(y)| / sigma_a, 0), rows x X.

    One scratch block is reused for every attribute, so memory stays at two
    rows x X blocks. X is read attribute by attribute from a contiguous copy
    of X.T, one pass over X against the block's rows x X x attributes. The
    rows are split across CPUs by ``rows.over_row_ranges``; each range fills
    its own rows of the output and of the scratch block.
    """
    m = X.shape[1]
    if m == 0:
        raise DomainError("similarity needs at least one attribute")
    columns = np.ascontiguousarray(X.T)
    acc = np.zeros((rows.shape[0], X.shape[0]))
    diff = np.empty_like(acc)

    def part(lo, hi):
        out, scratch = acc[lo:hi], diff[lo:hi]
        for a in range(m):
            np.subtract(rows[lo:hi, a][:, None], columns[a][None, :], out=scratch)
            np.abs(scratch, out=scratch)
            if sigmas[a] == 0.0:
                # constant attribute: the formula's sigma -> 0 limit is an equality test
                out += scratch == 0.0
                continue
            scratch /= sigmas[a]
            np.subtract(1.0, scratch, out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            out += scratch
        out /= m

    over_row_ranges(part, acc.shape[0], acc.size * m)
    return acc


def similarity_matrix(X: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Pairwise similarities of the rows of X: the X-versus-X similarity block."""
    return _similarity_block(X, X, sigmas)


def build_similarity(ds: DecisionSystem) -> SimilarityRelation:
    """Mean over attributes of max(1 - |a(x) - a(y)| / sigma_a, 0)."""
    sigmas = attribute_scales(ds)
    return SimilarityRelation(Universe(ds.ids), similarity_matrix(ds.X, sigmas))


def similarity_to_test(X_train: np.ndarray, sigmas: np.ndarray,
                       test_rows: np.ndarray) -> np.ndarray:
    """Similarity of out-of-sample instances to every training instance.

    ``test_rows`` is one instance (giving a vector) or a 2-D block with one
    instance per row (giving a rows x train block). Uses the training-fold
    scales; test instances never contribute to sigma_a.
    """
    test_rows = np.asarray(test_rows, dtype=float)
    block = test_rows if test_rows.ndim == 2 else test_rows.reshape(1, -1)
    if block.shape[1] != X_train.shape[1]:
        raise DomainError("test instance is missing conditional attributes")
    if not np.all(np.isfinite(block)):
        raise DomainError("test instance values must be finite")
    sims = _similarity_block(block, X_train, sigmas)
    return sims if test_rows.ndim == 2 else sims[0]


def _element_index(r: SimilarityRelation, y) -> int:
    return y if isinstance(y, (int, np.integer)) else r.universe.index_of(y)


def lower_approximation(r: SimilarityRelation, a: FuzzySet, mu_l: MonotoneMeasure,
                        implicator: str, y) -> float:
    """Degree to which (mu_l-many) elements similar to y belong to a."""
    if a.universe != r.universe:
        raise DomainError("concept and relation live on different universes")
    if mu_l.n != r.universe.size:
        raise DomainError("measure size does not match the universe")
    row = r.matrix[_element_index(r, y)]
    g = connectives.implicator_eval(implicator, row, a.memberships)
    return choquet_integral(g, mu_l)


def upper_approximation(r: SimilarityRelation, a: FuzzySet, mu_u: MonotoneMeasure,
                        conjunctor, y) -> float:
    """Degree to which some (mu_u-weighted) element similar to y belongs to a.

    ``conjunctor`` is either a t-norm kind name or a binary callable (such as
    ``connectives.conjunctor_fn(implicator, negator)``).
    """
    if a.universe != r.universe:
        raise DomainError("concept and relation live on different universes")
    if mu_u.n != r.universe.size:
        raise DomainError("measure size does not match the universe")
    row = r.matrix[_element_index(r, y)]
    fn = conjunctor if callable(conjunctor) else connectives.tnorm_fn(conjunctor)
    g = fn(row, a.memberships)
    return choquet_integral(np.asarray(g, dtype=float), mu_u)
