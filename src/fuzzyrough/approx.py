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
from .sets import DomainError, FuzzySet, Universe, frozen_copy, unit_degrees, value_rows


@dataclass(frozen=True)
class SimilarityRelation:
    """Symmetric pairwise similarity degrees with a unit diagonal."""

    universe: Universe
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = frozen_copy(unit_degrees(self.matrix, "similarities must lie in [0, 1]"))
        n = self.universe.size
        if m.shape != (n, n):
            raise DomainError("similarity matrix shape must match the universe")
        if not np.allclose(np.diag(m), 1.0):
            raise DomainError("similarity of an element with itself must be 1")
        if not np.allclose(m, m.T):
            raise DomainError("similarity matrix must be symmetric")
        object.__setattr__(self, "matrix", m)


def attribute_scales(ds: DecisionSystem) -> np.ndarray:
    """Per-attribute sample standard deviations of the training data; one
    that overflows raises DomainError, as similarity would ignore it."""
    if ds.n < 2:
        raise DomainError("need at least two instances to estimate scales")
    with np.errstate(over="ignore", invalid="ignore"):
        sigmas = np.std(ds.X, axis=0, ddof=1)
    overflowed = np.flatnonzero(~np.isfinite(sigmas))
    if overflowed.size:
        raise DomainError(f"the scale of attribute {ds.attributes[overflowed[0]]!r} overflows "
                          "to infinity; rescale the attributes")
    return sigmas


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


def check_test_rows(block: np.ndarray, attributes: int) -> None:
    """Reject a 2-D block of test rows without one column per fitted
    attribute, then one holding a value that is not finite."""
    if block.shape[1] != attributes:
        raise DomainError(f"test instances have {block.shape[1]} attribute columns; "
                          f"the model was fitted on {attributes}")
    if not np.all(np.isfinite(block)):
        raise DomainError("test instance values must be finite")


def similarity_to_test(X_train: np.ndarray, sigmas: np.ndarray,
                       test_rows: np.ndarray) -> np.ndarray:
    """Similarity of out-of-sample instances to every training instance.

    ``test_rows`` is one instance (giving a vector) or a 2-D block with one
    instance per row (giving a rows x train block), checked by ``check_test_rows``.
    Uses the training-fold scales; test instances never contribute to sigma_a.
    """
    test_rows = value_rows(test_rows, "test instances")
    block = test_rows if test_rows.ndim == 2 else test_rows[None]
    check_test_rows(block, X_train.shape[1])
    sims = _similarity_block(block, X_train, sigmas)
    return sims if test_rows.ndim == 2 else sims[0]


def _similarity_row(r: SimilarityRelation, a: FuzzySet, mu: MonotoneMeasure, y) -> np.ndarray:
    """Similarities of y, an index or identifier, to every element, once the
    concept, the relation and the measure are known to share one universe."""
    if a.universe != r.universe:
        raise DomainError("concept and relation live on different universes")
    if mu.n != r.universe.size:
        raise DomainError("measure size does not match the universe")
    return r.matrix[y if isinstance(y, (int, np.integer)) else r.universe.index_of(y)]


def lower_approximation(r: SimilarityRelation, a: FuzzySet, mu_l: MonotoneMeasure,
                        implicator: str, y) -> float:
    """Degree to which (mu_l-many) elements similar to y belong to a. The
    relation and the concept checked their degrees when built, so the
    implicator is applied directly."""
    row = _similarity_row(r, a, mu_l, y)
    g = connectives.implicator_fn(implicator)(row, a.memberships)
    return choquet_integral(g, mu_l)


def upper_approximation(r: SimilarityRelation, a: FuzzySet, mu_u: MonotoneMeasure,
                        conjunctor, y) -> float:
    """Degree to which some (mu_u-weighted) element similar to y belongs to a.

    ``conjunctor`` is either a t-norm kind name or a binary callable (such as
    ``connectives.conjunctor_fn(implicator, negator)``).
    """
    row = _similarity_row(r, a, mu_u, y)
    fn = conjunctor if callable(conjunctor) else connectives.tnorm_fn(conjunctor)
    g = fn(row, a.memberships)
    return choquet_integral(g, mu_u)
