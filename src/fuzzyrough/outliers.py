"""Local outlier factor scoring, per class, with [0, 1] normalization.

Each instance is scored against the other members of its own class, then the
raw factors are squashed with Gaussian scaling so they can be read as degrees
of outlierness: the distrust degrees o that the outlier-aware measures read.
Crisp labels flag the fraction of globally highest-scoring instances; they
are the 0/1 case of those degrees, and the partial universal measure of a
label set is fuzzy removal on its 0/1 degrees. Scores and degrees are read
as one vector (``sets.one_vector``), and ``OutlierScores`` keeps read-only
copies, so a block of rows is rejected rather than flattened.

The neighbor search keeps the bits of the full distance matrix without
building it. Classes of fewer than 91 points (n * n below
FAST_KNN_DISTANCES) compute every distance in row blocks and sort each row
stably. Larger ones estimate all squared distances of a block of rows from
a BLAS Gram matrix of the mean-centred points, keep as candidates the
columns within a rounding margin of each row's k-th estimate, and compute
only the candidates' distances exactly; the margin bounds the rounding of
the centring, the Gram matrix and the exact sums, so the chosen neighbors,
their distances and every score are independent of the BLAS, its threads
and the row split. Each Gram product is cut into column chunks small enough
for OpenBLAS to run on the calling thread. Memory grows with block * n + n * k.

The classifier runs this module only for the strategies that read outlier
degrees or labels: mino, avgo, owao, fr, wowa, ts, and comb through its
candidates. min, avg and owa never call it. ``erf`` comes from
``_special``, a numpy port of the Cephes routine with scipy's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._special import erf
from .data import DecisionSystem
from .rows import over_row_ranges
from .sets import (DomainError, _booleans, _reals, check_whole_number, frozen_copy, one_vector,
                   unit_degrees)

DISTANCE_FLOOR = 1e-12  # keeps densities finite when points coincide
FAST_KNN_DISTANCES = 8192  # classes with n * n below this keep the exact blocked search
GRAM_BLOCK = 1 << 16  # Gram values per row block of the prefilter (512 KB)
GATHER_ELEMENTS = 1 << 20  # candidate difference elements per exact chunk (8 MB)
# multiply-adds per Gram product: OpenBLAS runs a GEMM of at most 65,536 x 4
# (SMP_THRESHOLD_MIN x GEMM_MULTITHREAD_THRESHOLD) on the calling thread
GEMM_WORK = 1 << 18


def lof_scores(points: np.ndarray, k: int) -> np.ndarray:
    """Raw local outlier factors with k nearest neighbors.

    LOF(x) is the mean ratio of each neighbor's local reachability density to
    x's own; values near 1 mean x sits in a region as dense as its neighbors'.
    Neighbor ties are broken by index; zero distances are floored so duplicate
    points score 1 rather than dividing by zero. The neighbors and their
    distances are those of the stable argsort of the full distance matrix,
    bit for bit (``_neighbors``), though no n x n matrix is built: memory
    grows with block * n + n * k. Classes of 91 or more points rule out far
    points by a BLAS Gram matrix first, within a margin that bounds its
    rounding (``_prefiltered``), and compute only the rest exactly, so the
    scores do not depend on the BLAS. A neighbor distance that overflows to
    infinity raises DomainError, since no density can be read from it.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if points.shape[1] == 0:
        raise DomainError("LOF needs at least one attribute")
    check_whole_number(k, "k")
    if k < 1:
        raise DomainError("k must be at least 1")
    if n < k + 1:
        raise DomainError(f"need at least k+1={k + 1} points, got {n}")

    neighbors, near = _neighbors(points, k)
    if not np.isfinite(near).all():
        raise DomainError("LOF neighbor distances overflow to infinity; "
                          "rescale the attributes")
    k_dist = np.maximum(near[:, -1], DISTANCE_FLOOR)

    # reach(x, o) = max(k_dist(o), d(x, o)) over x's neighbors o
    reach = np.maximum(k_dist[neighbors], np.maximum(near, DISTANCE_FLOOR))
    # each sum over k divided by k, as np.mean computes it
    lrd = 1.0 / (np.add.reduce(reach, axis=1) / k)
    return np.add.reduce(lrd[neighbors], axis=1) / k / lrd


def _neighbors(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest other points and their distances, nearest
    first, ties broken by index: the first k columns of the stable argsort
    of the Euclidean distance matrix, the point itself at distance inf.

    A distance is always the square root of the ``einsum`` sum of squared
    differences over the m attributes, so the result has the bits of that
    matrix whichever path finds it. Classes with n * n below
    FAST_KNN_DISTANCES compute every distance, a block of rows at a time in
    one buffer of about 2^20 difference elements, and sort each row stably.
    Larger classes compute exactly only the candidates that a BLAS Gram
    matrix of the centred points cannot rule out (``_prefiltered``). The
    rows are split across CPUs by ``rows.over_row_ranges``; each row goes
    through the same operations whatever its range, and the Gram values
    only choose candidates, so neither the split nor the BLAS moves a bit.
    """
    n, m = points.shape
    neighbors = np.empty((n, k), dtype=np.intp)
    near = np.empty((n, k))
    if n * n >= FAST_KNN_DISTANCES:
        part = _prefiltered(points, k, neighbors, near)
    else:
        part = _exact(points, k, neighbors, near)
    over_row_ranges(part, n, n * n * m)
    return neighbors, near


def _exact(points, k, neighbors, near):
    """``part(lo, hi)`` filling rows lo..hi-1 from every distance."""
    n, m = points.shape
    # blocks of rows hold about 2^20 difference elements in all, in one
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
            with np.errstate(over="ignore"):  # an infinite distance ranks last
                diff = np.subtract(points[i0:i1, None, :], points[None, :, :],
                                   out=blocks[:i1 - i0])
            dist = np.einsum("ijk,ijk->ij", diff, diff)
            np.sqrt(dist, out=dist)
            own = np.arange(i1 - i0)
            dist[own, own + i0] = np.inf
            order = dist.argsort(axis=1, kind="stable")[:, :k]
            neighbors[i0:i1] = order
            near[i0:i1] = dist[own[:, None], order]

    return part


def _prefiltered(points, k, neighbors, near):
    """``part(lo, hi)`` filling rows lo..hi-1 from the candidates of a Gram
    prefilter.

    For a block of rows i, G[i, j] = sq_i + sq_j - 2 c_i . c_j estimates the
    squared distance from the centred points c (sq = einsum squared norms of
    c, the dot products one GEMM). Every column j whose G[i, j] is at most
    row i's k-th smallest G plus a margin is a candidate; the candidates'
    exact distances are computed as the full matrix would, and each row
    keeps its first k by (distance, column).

    The margin. Let u = eps / 2, s = sq_i + sq_j and D[i, j] the computed
    einsum squared distance of the original points. Centring rounds each
    c_ik with relative error u, so the exact |c_i - c_j|^2 is within
    2u * d * (|c_i| + |c_j|) <= 4u * s of the exact squared distance d^2;
    the einsum D is within (m + 2)u * d^2 <= 2(m + 2)u * s of d^2; and G,
    whose norms and dot product each sum m products, is within
    2(m + 2)u * s of |c_i - c_j|^2. So |G - D| <= E = (4m + 12)u * s. The
    k true nearest have D at most the k-th smallest D, which is at most the
    k-th smallest G plus E, so their G is at most the k-th smallest G plus
    2E = 4(m + 3) eps * s <= 4(m + 3) eps * (sq_i + max sq). The margin
    8(m + 4) eps * (sq_i + max sq) is about twice that, which also covers
    distances whose square roots tie after rounding. Subnormal products
    carry an absolute error of up to 2^-1075 each, so the margin adds
    8(m + 4) of the smallest subnormal. Rows whose Gram values overflow get
    an infinite or NaN bound and keep every column, and ``~(G > bound)``
    keeps a NaN entry as a candidate.

    Gram blocks hold at most GRAM_BLOCK values and the gathered candidate
    differences at most GATHER_ELEMENTS, so an all-duplicates class, where
    every column is a candidate, stays bounded too. Each block is written by
    column chunks of at most GEMM_WORK multiply-adds (or one column, when one
    needs more), which OpenBLAS keeps on the calling row range's thread: a
    threaded product starts BLAS workers whose spinning takes CPU from the
    row ranges and the kernels that follow. Chunks only choose candidates.
    """
    n, m = points.shape
    finfo = np.finfo(float)
    with np.errstate(over="ignore", invalid="ignore"):
        centred = points - points.mean(axis=0)
        sq = np.einsum("ij,ij->i", centred, centred)
        slack = 8 * (m + 4) * (finfo.eps * (sq + sq.max()) + finfo.smallest_subnormal)
    block_rows = max(1, GRAM_BLOCK // n)
    chunk = max(1, GATHER_ELEMENTS // m)

    def part(lo, hi):
        for i0 in range(lo, hi, block_rows):
            i1 = min(i0 + block_rows, hi)
            own = np.arange(i1 - i0)
            gram = np.empty((i1 - i0, n))
            step = max(1, GEMM_WORK // ((i1 - i0) * m))
            with np.errstate(over="ignore", invalid="ignore"):
                for j0 in range(0, n, step):
                    np.matmul(centred[i0:i1], centred[j0:j0 + step].T, out=gram[:, j0:j0 + step])
                gram *= -2
                gram += sq[i0:i1, None]
                gram += sq[None, :]
                gram[own, own + i0] = np.inf
                kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
                candidates = ~(gram > (kth + slack[i0:i1])[:, None])
            rows, cols = np.nonzero(candidates)
            rows += i0
            dist = np.empty(rows.size)
            for s in range(0, rows.size, chunk):
                with np.errstate(over="ignore"):
                    diff = points[rows[s:s + chunk]] - points[cols[s:s + chunk]]
                np.einsum("ij,ij->i", diff, diff, out=dist[s:s + chunk])
            np.sqrt(dist, out=dist)
            dist[rows == cols] = np.inf
            # np.nonzero lists each row's columns in order and lexsort is
            # stable, so this orders by (row, distance, column); the rows stay
            # where np.nonzero put them, and each keeps its first k
            order = np.lexsort((dist, rows))
            counts = np.count_nonzero(candidates, axis=1)
            starts = np.cumsum(counts) - counts
            pick = order[starts[:, None] + np.arange(k)]
            neighbors[i0:i1] = cols[pick]
            near[i0:i1] = dist[pick]

    return part


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Gaussian scaling of raw scores into [0, 1].

    normalized(s) = max(0, erf((s - mean) / (std * sqrt(2)))), so scores at or
    below the mean map to 0 and the transform preserves the score ordering.
    A constant score vector maps to all zeros, a score that is not finite
    raises DomainError, and scores whose std overflows are first divided by
    their largest magnitude, which leaves the transform unchanged. ``erf`` is
    ``_special.erf``, which gives the bits of ``scipy.special.erf``.
    """
    raw = one_vector(raw, "raw scores must form one vector")
    if raw.size == 0:
        raise DomainError("cannot normalize an empty score vector")
    with np.errstate(over="ignore", invalid="ignore"):
        std = raw.std()
    if not np.isfinite(std):  # as it is whenever the mean overflows
        if not np.all(np.isfinite(raw)):
            raise DomainError("raw scores to normalize must be finite")
        raw = raw / np.abs(raw).max()
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
        raw = frozen_copy(_reals(self.raw))
        norm = frozen_copy(unit_degrees(self.normalized, "normalized scores must lie in [0, 1]"))
        if raw.shape != norm.shape or raw.ndim != 1:
            raise DomainError("raw and normalized score shapes must match")
        if not np.all(np.isfinite(raw)):
            raise DomainError("raw scores must be finite")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", norm)
        if self.labels is not None:
            labels = frozen_copy(_booleans(self.labels, "outlier labels must be booleans"), bool)
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
