"""Local outlier factor scoring, per class, with [0, 1] normalization.

Each instance is scored against the other members of its own class, then the
raw factors are squashed with Gaussian scaling so they can be read as degrees
of outlierness: the distrust degrees o that the outlier-aware measures read.
Crisp labels flag the fraction of globally highest-scoring instances; they
are the 0/1 case of those degrees, and the partial universal measure of a
label set is fuzzy removal on its 0/1 degrees. Scores and degrees are read
as one vector (``sets.one_vector``), and ``OutlierScores`` keeps read-only
copies, so a block of rows is rejected rather than flattened.

The classifier runs this module only for the strategies that read outlier
degrees or labels: mino, avgo, owao, fr, wowa, ts, and comb through its
candidates. min, avg and owa never call it, and ``scipy.special`` (for
``erf``) is imported by ``normalize_scores`` at first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DecisionSystem
from .rows import over_row_ranges
from .sets import DomainError, check_whole_number, frozen_copy, one_vector, unit_degrees

DISTANCE_FLOOR = 1e-12  # keeps densities finite when points coincide
FAST_KNN_DISTANCES = 8192  # _nearest calls on fewer distances keep the full stable sort


def lof_scores(points: np.ndarray, k: int) -> np.ndarray:
    """Raw local outlier factors with k nearest neighbors.

    LOF(x) is the mean ratio of each neighbor's local reachability density to
    x's own; values near 1 mean x sits in a region as dense as its neighbors'.
    Neighbor ties are broken by index; zero distances are floored so duplicate
    points score 1 rather than dividing by zero. Distances are computed for
    one block of rows at a time, and each block keeps only its rows' k
    nearest neighbors and their distances, so memory grows with
    block * n + n * k and no n x n matrix is built. The rows are split across
    CPUs by ``rows.over_row_ranges``: each range fills its rows of the
    neighbor arrays in blocks cut from its share of the one block buffer,
    allocated by the calling thread. In blocks of at least
    FAST_KNN_DISTANCES distances, ``_nearest`` selects the k nearest with a
    partial sort and sorts a whole row only where its k-th distance is tied;
    smaller blocks keep the full stable sort, which is faster there. Both
    give the neighbors of the stable sort, ties broken by index, so no
    block size or range split moves a bit.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    check_whole_number(k, "k")
    if k < 1:
        raise DomainError("k must be at least 1")
    if n < k + 1:
        raise DomainError(f"need at least k+1={k + 1} points, got {n}")

    m = points.shape[1]
    neighbors = np.empty((n, k), dtype=np.intp)
    near = np.empty((n, k))  # distance to each neighbor
    # blocks of rows hold about 2^20 difference elements (8 MB) in all, in one
    # buffer that the row ranges share out
    block_rows = min(n, max(1, (1 << 20) // max(1, n * m)))
    buffer = np.empty((block_rows, n, m))

    def part(lo, hi):
        # a range's blocks use its share of the buffer, or one row of their own
        start, stop = lo * block_rows // n, hi * block_rows // n
        blocks = buffer[start:stop] if stop > start else np.empty((1, n, m))
        step = blocks.shape[0]
        for i0 in range(lo, hi, step):
            i1 = min(i0 + step, hi)
            diff = np.subtract(points[i0:i1, None, :], points[None, :, :],
                               out=blocks[:i1 - i0])
            dist = np.einsum("ijk,ijk->ij", diff, diff)
            np.sqrt(dist, out=dist)
            own = np.arange(i1 - i0)
            dist[own, own + i0] = np.inf
            order = _nearest(dist, k)
            neighbors[i0:i1] = order
            near[i0:i1] = np.take_along_axis(dist, order, axis=1)

    over_row_ranges(part, n, n * n * m)
    k_dist = np.maximum(near[:, -1], DISTANCE_FLOOR)

    # reach(x, o) = max(k_dist(o), d(x, o)) over x's neighbors o
    reach = np.maximum(k_dist[neighbors], np.maximum(near, DISTANCE_FLOOR))
    lrd = 1.0 / np.mean(reach, axis=1)
    return np.mean(lrd[neighbors], axis=1) / lrd


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(dist, axis=1, kind="stable")[:, :k]``: each row's k
    smallest entries, nearest first, ties broken by index.

    For blocks of at least FAST_KNN_DISTANCES distances, ``np.argpartition``
    picks k entries no farther than any other, and only those are sorted by
    (distance, index). They are the stable k nearest unless the k-th
    distance also occurs outside them (or is NaN); only such rows are sorted
    in full. Smaller blocks keep the full stable sort: the selection and its
    tie check cost more per call than they save on so few distances.
    """
    if dist.size < FAST_KNN_DISTANCES:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    chosen = np.sort(np.argpartition(dist, k - 1, axis=1)[:, :k], axis=1)
    by_distance = np.argsort(np.take_along_axis(dist, chosen, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(chosen, by_distance, axis=1)
    kth = np.take_along_axis(dist, order[:, -1:], axis=1)
    redo = np.count_nonzero(dist <= kth, axis=1) != k
    if redo.any():
        order[redo] = np.argsort(dist[redo], axis=1, kind="stable")[:, :k]
    return order


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Gaussian scaling of raw scores into [0, 1].

    normalized(s) = max(0, erf((s - mean) / (std * sqrt(2)))), so scores at or
    below the mean map to 0 and the transform preserves the score ordering.
    A constant score vector maps to all zeros. ``scipy.special`` is imported
    here, at first use, so a process that normalizes no scores never loads it.
    """
    from scipy.special import erf

    raw = one_vector(raw, "raw scores must form one vector")
    if raw.size == 0:
        raise DomainError("cannot normalize an empty score vector")
    std = raw.std()
    if std == 0.0:
        return np.zeros_like(raw)
    return np.maximum(erf((raw - raw.mean()) / (std * math.sqrt(2.0))), 0.0)


@dataclass(frozen=True)
class OutlierScores:
    """Raw and normalized per-instance scores, plus optional crisp labels.

    Each array is kept as a read-only copy (``sets.frozen_copy``).
    """

    raw: np.ndarray = field(repr=False)
    normalized: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        raw = frozen_copy(self.raw)
        norm = unit_degrees(frozen_copy(self.normalized), "normalized scores must lie in [0, 1]")
        if raw.shape != norm.shape or raw.ndim != 1:
            raise DomainError("raw and normalized score shapes must match")
        if not np.all(np.isfinite(raw)):
            raise DomainError("raw scores must be finite")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", norm)
        if self.labels is not None:
            if np.asarray(self.labels).dtype != bool:
                raise DomainError("outlier labels must be booleans")
            labels = frozen_copy(self.labels, bool)
            if labels.shape != raw.shape:
                raise DomainError("outlier labels must align with the scores")
            object.__setattr__(self, "labels", labels)


def per_class_scores(ds: DecisionSystem, k: int) -> OutlierScores:
    """Fit one scorer per decision class and score each member in-sample.

    k is clamped to class size - 1 for small classes; a singleton class gets
    the neutral raw score 1.
    """
    check_whole_number(k, "k")
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
    degrees = one_vector(degrees, "top_fraction labels one vector of degrees")
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
