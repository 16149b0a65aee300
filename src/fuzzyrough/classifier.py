"""Fuzzy-rough classification with configurable aggregation.

A test instance is assigned to the class whose lower approximation it belongs
to most. For a crisp class C the lower approximation reduces to aggregating
1 - R(x, y) over the training instances y outside C, and the choice of
aggregation operator is what distinguishes the strategies:

  min / avg / owa    plain minimum, mean, or quantifier-weighted OWA
  mino / avgo / owao the same after discarding crisply labeled outliers
  fr                 Choquet integral w.r.t. the fuzzy removal measure
  wowa               Choquet integral w.r.t. the confidence-weighted measure
  ts                 Choquet integral w.r.t. the two-block ordered measure
  comb               leave-one-out selection among the nine above

All outlier-aware strategies consume per-class normalized outlier scores, and
their measures live on the universe each row actually aggregates.

Scoring is batched and streamed. Rows are scored in blocks of about
``BLOCK_ELEMENTS`` similarities: each block's similarities to the training
fold are computed at once; for each class the values 1 - R of every row are
sorted once by ``choquet.sort_rows`` (equal values keep their training
order), and all strategies read the same sorted rows: min and avg (and their
outlier-free variants) directly, the OWAs and the Choquet integrals of fr,
wowa and ts through the kernels behind ``owa_values`` and
``choquet_integral``. Every row's result ignores the other rows, so the
block size never changes a bit of it, and no rows x train array is ever
whole. Comb's leave-one-out is the same computation on blocks of training
rows with each row's own element deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import connectives
from .approx import attribute_scales, similarity_to_test
from .choquet import _choquet_sorted, _owa_sorted, sort_rows
from .data import DecisionSystem
from .measures import FuzzyRemovalMeasure, OrderedTwoSymmetricMeasure, WowaMeasure
from .outliers import OutlierScores, scored_with_labels, top_fraction
from .quantifiers import (
    AdditiveQuantifier,
    QuadraticQuantifier,
    RIMQuantifier,
    weights_from_quantifier,
)
from .sets import DomainError

AGGREGATOR_KINDS = ("min", "mino", "fr", "avg", "avgo", "ts", "owa", "owao", "wowa", "comb")
BASE_KINDS = AGGREGATOR_KINDS[:-1]
QUANTIFIER_KINDS = ("additive", "quadratic")
DISPLAY_NAMES = {
    "min": "Min", "mino": "Mino", "fr": "FR", "avg": "Avg", "avgo": "Avgo",
    "ts": "TS", "owa": "OWA", "owao": "OWAo", "wowa": "WOWA", "comb": "COMB",
}
BLOCK_ELEMENTS = 1 << 18  # similarities per scored row block (2 MB)


@dataclass(frozen=True)
class AggregatorSpec:
    """Aggregation strategy plus every knob it may consume."""

    kind: str = "owa"
    quantifier: str = "additive"  # "additive" (length-matched) or "quadratic"
    alpha: float = 0.3
    beta: float = 0.9
    t: float = 0.3
    contamination: float = 0.1
    tnorm: str = connectives.MINIMUM
    lof_k: int = 20

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise DomainError(f"unknown aggregator {self.kind!r}; known: {AGGREGATOR_KINDS}")
        if self.quantifier not in QUANTIFIER_KINDS:
            raise DomainError("quantifier must be 'additive' or 'quadratic'")
        if self.quantifier == "quadratic" and not 0.0 <= self.alpha < self.beta <= 1.0:
            raise DomainError("quadratic quantifier requires 0 <= alpha < beta <= 1")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("t must lie in [0, 1]")
        if not 0.0 <= self.contamination < 1.0:
            raise DomainError("contamination must lie in [0, 1)")
        if self.lof_k < 1:
            raise DomainError("lof_k must be at least 1")

    @property
    def display_name(self) -> str:
        return DISPLAY_NAMES[self.kind]

    def quantifier_for(self, n: int) -> RIMQuantifier:
        if self.quantifier == "quadratic":
            return QuadraticQuantifier(self.alpha, self.beta)
        return AdditiveQuantifier(n)


def default_specs() -> list[AggregatorSpec]:
    """One spec per aggregation strategy at the evaluation-protocol defaults."""
    return [AggregatorSpec(kind=k) for k in AGGREGATOR_KINDS]


def _plain(kind: str, spec: AggregatorSpec, values: np.ndarray, asc: np.ndarray) -> np.ndarray:
    """min, avg or owa of each row; ``asc`` holds the same rows sorted ascending."""
    if kind == "min":
        return asc[:, 0]
    if kind == "avg":
        return values.mean(axis=1)
    n = asc.shape[1]
    return _owa_sorted(asc, weights_from_quantifier(spec.quantifier_for(n), n).weights)


def _without_outliers(spec: AggregatorSpec, values, order, asc, labels) -> np.ndarray:
    """mino, avgo and owao: the plain strategy over each row's unlabelled
    elements, or over all of them when every element is labelled."""
    kind = spec.kind[:-1]
    keep = ~np.broadcast_to(labels, values.shape)
    keep_sorted = np.take_along_axis(keep, order, axis=1)
    counts = keep.sum(axis=1)
    out = np.empty(values.shape[0])
    for k in np.unique(counts):
        rows = counts == k
        if k == 0:
            out[rows] = _plain(kind, spec, values[rows], asc[rows])
        else:
            out[rows] = _plain(kind, spec, values[rows][keep[rows]].reshape(-1, k),
                               asc[rows][keep_sorted[rows]].reshape(-1, k))
    return out


def _strategy(spec: AggregatorSpec, values, order, asc, o, labels) -> np.ndarray:
    kind = spec.kind
    n = values.shape[1]
    if kind in ("min", "avg", "owa"):
        return _plain(kind, spec, values, asc)
    if kind in ("mino", "avgo", "owao"):
        return _without_outliers(spec, values, order, asc, labels)
    if kind == "fr":
        mu = FuzzyRemovalMeasure(o, spec.tnorm)
    elif kind == "wowa":
        mu = WowaMeasure(spec.quantifier_for(n), o)
    elif kind == "ts":
        mu = OrderedTwoSymmetricMeasure(spec.quantifier_for(n), o, spec.t, spec.contamination)
    else:
        raise DomainError("comb must be resolved to a concrete strategy before aggregation")
    return _choquet_sorted(asc, mu.chain_values(order))


def _aggregate_rows(values: np.ndarray, o: np.ndarray, labels: np.ndarray,
                    specs: list[AggregatorSpec]) -> np.ndarray:
    """Every row of ``values`` aggregated under every spec: (len(specs), rows).

    ``o`` and ``labels`` hold the aggregated elements' outlier degrees and
    crisp outlier labels, either one vector shared by all rows or one row
    each. The rows are sorted once; every strategy reads that order.
    """
    # means run along contiguous rows, so each equals its one-row mean bit for bit
    values = np.ascontiguousarray(values)
    order, asc = sort_rows(values)
    return np.array([_strategy(spec, values, order, asc, o, labels) for spec in specs])


def aggregate(values, o_sub, spec: AggregatorSpec, outliers=None) -> float:
    """Aggregate a vector of degrees under one strategy.

    ``o_sub`` holds the outlier degrees of the aggregated elements; for the
    crisp-exclusion strategies ``outliers`` may pass precomputed labels,
    otherwise the contamination rule is applied to the subset itself. When
    exclusion would empty the subset the unrestricted variant is used. This
    is the one-row case of the batched scoring.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise DomainError("cannot aggregate an empty value vector")
    o_sub = np.asarray(o_sub, dtype=float).ravel()
    if o_sub.shape != values.shape:
        raise DomainError("outlier degrees must align with the values")
    if outliers is None:
        outliers = top_fraction(o_sub, spec.contamination)
    labels = np.asarray(outliers, dtype=bool).ravel()
    if labels.shape != values.shape:
        raise DomainError("outlier labels must align with the values")
    return float(_aggregate_rows(values[None], o_sub, labels, [spec])[0, 0])


def _row_groups(S: np.ndarray, cols: np.ndarray, scores: OutlierScores,
                loo_start: int | None):
    """The values 1 - R each row of S aggregates over the columns ``cols``.

    Yields (rows, values, degrees, labels) for groups of rows of one length;
    degrees and labels are shared vectors, or one row each where rows
    deleted different elements. With ``loo_start`` the rows of S are the
    training instances loo_start, loo_start + 1, ... and each one drops its
    own column; a row left with nothing to aggregate is not yielded.
    """
    o, labels = scores.normalized[cols], scores.labels[cols]
    rows = np.arange(S.shape[0])
    if loo_start is None:
        yield rows, 1.0 - S[:, cols], o, labels
        return
    member = np.isin(rows + loo_start, cols)
    outside, inside = rows[~member], rows[member]
    if outside.size:
        yield outside, 1.0 - S[np.ix_(outside, cols)], o, labels
    if inside.size and cols.size > 1:
        # rows inside the aggregated set delete their own element
        keep = np.ones((inside.size, cols.size), dtype=bool)
        keep[np.arange(inside.size), np.searchsorted(cols, inside + loo_start)] = False
        shape = (inside.size, cols.size - 1)
        yield (inside, (1.0 - S[np.ix_(inside, cols)])[keep].reshape(shape),
               np.broadcast_to(o, keep.shape)[keep].reshape(shape),
               np.broadcast_to(labels, keep.shape)[keep].reshape(shape))


def _block_memberships(model: "FittedModel", S: np.ndarray, specs: list[AggregatorSpec],
                       loo_start: int | None = None) -> np.ndarray:
    """Membership of each row of S in each class under each spec.

    S holds the rows' similarities to the training instances; the result has
    shape (len(specs), rows, classes). With ``loo_start`` S holds the rows of
    the training instances loo_start, loo_start + 1, ... and each row leaves
    itself out; an emptied class complement gives 0.
    """
    out = np.zeros((len(specs), S.shape[0], len(model.classes)))
    by_scores: dict = {}
    for si, spec in enumerate(specs):
        by_scores.setdefault((spec.lof_k, spec.contamination), []).append(si)
    for indices in by_scores.values():
        group = [specs[si] for si in indices]
        scores = model.scores_for(group[0])
        for ci, label in enumerate(model.classes):
            cols = np.flatnonzero(~model.class_masks[label])
            for rows, values, o, labels in _row_groups(S, cols, scores, loo_start):
                out[np.ix_(indices, rows, [ci])] = _aggregate_rows(values, o, labels,
                                                                   group)[..., None]
    return out


def _streamed_memberships(model: "FittedModel", X: np.ndarray, specs: list[AggregatorSpec],
                          loo: bool = False) -> np.ndarray:
    """``_block_memberships`` of the rows of X, one block of rows at a time.

    Each block holds about BLOCK_ELEMENTS similarities to the training fold
    and is scored before the next is built. With ``loo`` X is the training
    data itself and each row leaves itself out. Zero rows still form one
    (empty) block, so a bad column count is reported as for any other X.
    """
    out = np.empty((len(specs), X.shape[0], len(model.classes)))
    step = max(1, BLOCK_ELEMENTS // model.n)
    for start in range(0, max(X.shape[0], 1), step):
        S = similarity_to_test(model.train.X, model.sigmas, X[start:start + step])
        out[:, start:start + step] = _block_memberships(model, S, specs,
                                                        start if loo else None)
    return out


class FittedModel:
    """A training fold prepared for scoring, and the strategy fitted on it.

    Scales, class masks and the outlier scores of each (lof_k, contamination)
    setting are computed once and shared by every strategy scored on the
    fold. Similarities are not kept: scoring and comb's leave-one-out
    compute them block by block. ``spec`` is the requested strategy and
    ``resolved`` the one predictions use, with comb replaced by its choice.
    """

    def __init__(self, train: DecisionSystem, spec: AggregatorSpec = AggregatorSpec(),
                 seed: int = 0):
        if len(train.classes) < 2:
            raise DomainError("training data must contain at least two classes")
        if train.n < 2:
            raise DomainError("training data must contain at least two instances")
        self.train = train
        self.sigmas = attribute_scales(train)
        self.classes = train.classes
        self.class_masks = {c: train.y == c for c in self.classes}
        self._scores: dict = {}
        self.spec = spec
        self.resolved = self.resolve(spec, seed)

    @property
    def n(self) -> int:
        """Number of training instances."""
        return self.train.n

    def labels(self, memberships: np.ndarray) -> np.ndarray:
        """Class of the largest membership along the last axis; ties go to the
        smallest label in sorted order."""
        return np.array(self.classes, dtype=object)[memberships.argmax(axis=-1)]

    def scores_for(self, spec: AggregatorSpec) -> OutlierScores:
        key = (spec.lof_k, spec.contamination)
        if key not in self._scores:
            self._scores[key] = scored_with_labels(self.train, spec.lof_k, spec.contamination)
        return self._scores[key]

    def resolve(self, spec: AggregatorSpec, seed: int) -> AggregatorSpec:
        """``spec`` itself, or for comb the candidate its leave-one-out picks."""
        if spec.kind != "comb":
            return spec
        return comb_select(self, [replace(spec, kind=k) for k in BASE_KINDS], seed)


def comb_select(ds_train, candidate_specs: list[AggregatorSpec], seed: int) -> AggregatorSpec:
    """Pick the candidate with the best leave-one-out balanced accuracy.

    ``ds_train`` is the training fold, or a FittedModel built on it whose
    outlier scores are then reused. Each instance is predicted with itself
    removed from the aggregation universe (outlier scores and scales stay
    those of the full training fold); the training rows are scored in
    blocks, so the train x train similarity is never whole. Exact ties are
    broken uniformly at random by the seeded generator.
    """
    from .evaluation import balanced_accuracy

    if not candidate_specs:
        raise DomainError("need at least one candidate spec")
    model = ds_train if isinstance(ds_train, FittedModel) else FittedModel(ds_train)
    if min(int(m.sum()) for m in model.class_masks.values()) < 2:
        raise DomainError("leave-one-out selection needs at least two instances per class")

    memberships = _streamed_memberships(model, model.train.X, candidate_specs, loo=True)
    accs = np.array([balanced_accuracy(model.train.y, predicted)
                     for predicted in model.labels(memberships)])
    best = np.flatnonzero(accs >= accs.max() - 1e-12)
    if best.size == 1:
        return candidate_specs[int(best[0])]
    rng = np.random.default_rng(seed)
    return candidate_specs[int(rng.choice(best))]


def fit(ds_train: DecisionSystem, spec: AggregatorSpec, seed: int = 0) -> FittedModel:
    """Prepare the training fold (scales, class masks) and resolve comb."""
    return FittedModel(ds_train, spec, seed)


def membership_matrix(model: FittedModel, X_test,
                      specs: list[AggregatorSpec] | None = None) -> np.ndarray:
    """Per-class lower-approximation memberships of each row of X_test.

    rows x classes under the model's resolved strategy; with ``specs``
    (resolved strategies) specs x rows x classes. X_test is scored in row
    blocks of about BLOCK_ELEMENTS similarities, every spec from the same
    block, so memory does not grow with rows x train.
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2:
        raise DomainError("test instances must form a 2-D array, one instance per row")
    scored = _streamed_memberships(model, X_test, [model.resolved] if specs is None else specs)
    return scored[0] if specs is None else scored


def predict_batch(model: FittedModel, X_test, specs: list[AggregatorSpec] | None = None):
    """Labels of the rows of X_test, shaped like ``membership_matrix`` minus
    its class axis. Exact ties go to the smallest label in sorted order."""
    return model.labels(membership_matrix(model, X_test, specs))


def predict(model: FittedModel, instance) -> object:
    """Label of the class with the greatest lower-approximation membership.

    Exact ties go to the smallest label in sorted order.
    """
    return predict_batch(model, np.asarray(instance, dtype=float).reshape(1, -1))[0]


def class_memberships(model: FittedModel, instance) -> dict:
    """Per-class lower-approximation membership of one instance."""
    row = membership_matrix(model, np.asarray(instance, dtype=float).reshape(1, -1))[0]
    return dict(zip(model.classes, row.tolist()))
