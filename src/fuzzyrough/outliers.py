"""Local outlier factor scoring, per class, with [0, 1] normalization.

Each instance is scored against the other members of its own class, then the
raw factors are squashed with Gaussian scaling so they can be read as degrees
of outlierness. A crisp label set is derived separately by flagging the
fraction of globally highest-scoring instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .data import DecisionSystem
from .sets import DomainError

DISTANCE_FLOOR = 1e-12  # keeps densities finite when points coincide


def lof_scores(points: np.ndarray, k: int) -> np.ndarray:
    """Raw local outlier factors with k nearest neighbors.

    LOF(x) is the mean ratio of each neighbor's local reachability density to
    x's own; values near 1 mean x sits in a region as dense as its neighbors'.
    Neighbor ties are broken by index; zero distances are floored so duplicate
    points score 1 rather than dividing by zero. The n x n distance matrix is
    filled in row blocks, so memory grows with n^2 and not with n^2 * m.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if k < 1:
        raise DomainError("k must be at least 1")
    if n < k + 1:
        raise DomainError(f"need at least k+1={k + 1} points, got {n}")

    # each block of rows holds about 2^20 difference elements (8 MB)
    dist = np.empty((n, n))
    step = max(1, (1 << 20) // max(1, n * points.shape[1]))
    for i0 in range(0, n, step):
        diff = points[i0:i0 + step, None, :] - points[None, :, :]
        dist[i0:i0 + step] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)

    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    k_dist = np.maximum(np.take_along_axis(dist, neighbors[:, -1:], axis=1)[:, 0],
                        DISTANCE_FLOOR)

    # reach(x, o) = max(k_dist(o), d(x, o)) over x's neighbors o
    reach = np.maximum(k_dist[neighbors],
                       np.maximum(np.take_along_axis(dist, neighbors, axis=1), DISTANCE_FLOOR))
    lrd = 1.0 / np.mean(reach, axis=1)
    return np.mean(lrd[neighbors], axis=1) / lrd


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Gaussian scaling of raw scores into [0, 1].

    normalized(s) = max(0, erf((s - mean) / (std * sqrt(2)))), so scores at or
    below the mean map to 0 and the transform preserves the score ordering.
    A constant score vector maps to all zeros.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    if raw.size == 0:
        raise DomainError("cannot normalize an empty score vector")
    std = raw.std()
    if std == 0.0:
        return np.zeros_like(raw)
    return np.maximum(erf((raw - raw.mean()) / (std * math.sqrt(2.0))), 0.0)


@dataclass(frozen=True)
class OutlierScores:
    """Raw and normalized per-instance scores, plus optional crisp labels."""

    raw: np.ndarray = field(repr=False)
    normalized: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=float)
        norm = np.asarray(self.normalized, dtype=float)
        if raw.shape != norm.shape or raw.ndim != 1:
            raise DomainError("raw and normalized score shapes must match")
        if np.any(norm < 0.0) or np.any(norm > 1.0):
            raise DomainError("normalized scores must lie in [0, 1]")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", norm)


def per_class_scores(ds: DecisionSystem, k: int) -> OutlierScores:
    """Fit one scorer per decision class and score each member in-sample.

    k is clamped to class size - 1 for small classes; a singleton class gets
    the neutral raw score 1.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    raw = np.empty(ds.n)
    norm = np.empty(ds.n)
    for label in ds.classes:
        idx = np.flatnonzero(ds.y == label)
        if idx.size == 1:
            raw[idx] = 1.0
            norm[idx] = 0.0
            continue
        k_class = min(k, idx.size - 1)
        r = lof_scores(ds.X[idx], k_class)
        raw[idx] = r
        norm[idx] = normalize_scores(r)
    return OutlierScores(raw, norm)


def top_fraction(degrees: np.ndarray, contamination: float) -> np.ndarray:
    """Boolean mask flagging the ceil(c*n) highest degrees, ties by index."""
    if not 0.0 <= contamination < 1.0:
        raise DomainError("contamination must lie in [0, 1)")
    degrees = np.asarray(degrees, dtype=float).ravel()
    n = degrees.size
    count = math.ceil(contamination * n)
    mask = np.zeros(n, dtype=bool)
    if count:
        # sort by (-degree, index): highest degrees first, index breaks ties
        order = np.lexsort((np.arange(n), -degrees))
        mask[order[:count]] = True
    return mask


def label_outliers(scores: OutlierScores, contamination: float) -> np.ndarray:
    """Boolean mask flagging the ceil(c*n) highest normalized scores.

    Ties are broken by instance index, so the mask is deterministic.
    """
    return top_fraction(scores.normalized, contamination)


def scored_with_labels(ds: DecisionSystem, k: int, contamination: float) -> OutlierScores:
    scores = per_class_scores(ds, k)
    labels = label_outliers(scores, contamination)
    return OutlierScores(scores.raw, scores.normalized, labels)
