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

The outlier-aware strategies (mino, avgo, owao, fr, wowa, ts, and comb, whose
candidates include them) consume per-class normalized outlier scores, and
their measures live on the universe each row actually aggregates. Only they
trigger per-class LOF: a fitted model computes the scores of a (lof_k,
contamination) setting the first time a strategy that reads them is scored,
so min, avg and owa alone never run LOF.

Every base strategy is the Choquet integral of a row against one measure on
its n aggregated elements, k of them without a crisp outlier label, so the
labels enter as 0/1 degrees o:

  min   universal measure (partial universal with no outliers)
  mino  partial universal measure of the labels
  avg   WOWA measure with Q(p) = p and o = 0 (the uniform additive measure)
  avgo  WOWA measure with Q(p) = p and the labels as o
  owa   symmetric measure of the quantifier for n
  owao  WOWA measure of the quantifier for k with the labels as o
  fr, wowa, ts  as listed above, on the outlier scores

When every element is labelled, mino, avgo and owao use the measure of min,
avg and owa. The six use their closed forms (the mean for avg differs from
its Choquet sum in the last bits), and a property test checks each against
its integral.

Scoring is batched and streamed. Rows are scored in blocks of about
``BLOCK_ELEMENTS`` similarities: each block's similarities to the training
fold are computed at once; for each class the values 1 - R of every row are
sorted once by ``choquet.sort_rows`` (equal values keep their training
order), and all strategies read the same sorted rows: min and avg directly,
the OWAs and the Choquet integrals of fr, wowa and ts through the kernels
behind ``owa_values`` and ``choquet_integral``; mino, avgo and owao share
one extraction of each row's unlabelled elements. A process builds one
quantifier per setting and one read-only OWA weight vector per setting and
length, which every model shares. Every row's result ignores the other rows,
so the block size never changes a bit of it, and no rows x train array is
ever whole. Comb's leave-one-out is the same computation on blocks of
training rows with each row's own element deleted.

Test rows are checked and scored by one entry, ``resolve_and_score``:
``membership_matrix``, ``predict_batch``, ``predict``,
``class_memberships``, the ``classify`` command and the evaluation protocol
all call it. It takes a 2-D block, one instance per row and one column per
attribute; ``predict`` and ``class_memberships`` take one instance as one
vector. Comb is chosen by one routine, whether a model is fitted,
``comb_select`` is called or a block is scored: the training rows, each
leaving itself out, are scored under every candidate in one pass, and the
candidate with the best balanced accuracy wins. When all nine candidates are
requested beside comb, as in the protocol, the held-out rows follow the
training rows in that pass, so comb's leave-one-out and every strategy's
held-out memberships come from one scoring; otherwise comb gets its
leave-one-out pass and the held-out rows one pass under the resolved
strategies. A strategy requested twice, or chosen by comb, is scored once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import connectives
from .approx import _similarity_block, attribute_scales, check_test_rows
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
from .sets import (DomainError, _booleans, _reals, check_seed, check_whole_number, one_vector,
                   unit_degrees)

AGGREGATOR_KINDS = ("min", "mino", "fr", "avg", "avgo", "ts", "owa", "owao", "wowa", "comb")
BASE_KINDS = AGGREGATOR_KINDS[:-1]
PLAIN_KINDS = ("min", "avg", "owa")  # the strategies that read no outlier degree or label
QUANTIFIER_KINDS = ("additive", "quadratic")
DISPLAY_NAMES = {
    "min": "Min", "mino": "Mino", "fr": "FR", "avg": "Avg", "avgo": "Avgo",
    "ts": "TS", "owa": "OWA", "owao": "OWAo", "wowa": "WOWA", "comb": "COMB",
}
BLOCK_ELEMENTS = 1 << 18  # similarities per scored row block (2 MB)
MEMO_SIZE = 256  # quantifiers, and weight vectors, kept per process; bounds their memory


@lru_cache(maxsize=MEMO_SIZE)
def _quantifier(setting: tuple) -> RIMQuantifier:
    """The quantifier of a setting from ``AggregatorSpec._setting``: its class
    and that class's arguments. Built, and so grid-checked, once per process."""
    kind, *args = setting
    return kind(*args)


@lru_cache(maxsize=MEMO_SIZE)
def _owa_weights(setting: tuple, n: int) -> np.ndarray:
    """The read-only OWA weights of the quantifier of ``setting`` for length n."""
    return weights_from_quantifier(_quantifier(setting), n).weights


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
        if self.quantifier == "quadratic":
            self.quantifier_for(1)  # the knots' quantifier; raises unless 0 <= a < b <= 1
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("t must lie in [0, 1]")
        if not 0.0 <= self.contamination < 1.0:
            raise DomainError("contamination must lie in [0, 1)")
        check_whole_number(self.lof_k, "lof_k")
        if self.lof_k < 1:
            raise DomainError("lof_k must be at least 1")

    @property
    def display_name(self) -> str:
        return DISPLAY_NAMES[self.kind]

    def _setting(self, n: int) -> tuple:
        """What the quantifier for n elements depends on: the knots of the
        quadratic one, the length of the additive one."""
        if self.quantifier == "quadratic":
            return (QuadraticQuantifier, self.alpha, self.beta)
        return (AdditiveQuantifier, n)

    def quantifier_for(self, n: int) -> RIMQuantifier:
        """The quantifier for n aggregated elements, built once per process."""
        return _quantifier(self._setting(n))


def default_specs() -> list[AggregatorSpec]:
    """One spec per aggregation strategy at the evaluation-protocol defaults."""
    return [AggregatorSpec(kind=k) for k in AGGREGATOR_KINDS]


def _plain(kind: str, spec: AggregatorSpec, values: np.ndarray, asc: np.ndarray) -> np.ndarray:
    """min, avg or owa of each row; ``asc`` holds the same rows sorted ascending."""
    if kind == "min":
        return asc[:, 0]
    if kind == "avg":
        return np.add.reduce(values, axis=1) / values.shape[1]  # mean's bits
    n = asc.shape[1]
    return _owa_sorted(asc, _owa_weights(spec._setting(n), n))


def _unlabelled(values, order, asc, labels) -> list:
    """Each row's unlabelled elements, for mino, avgo and owao alike.

    Rows are grouped by how many elements they keep: a list of (rows, kept
    values in their own order, the same sorted ascending), each a
    row-contiguous rows x kept array, so means sum as they do on one row. A
    row whose elements are all labelled keeps them all. Shared labels keep
    the same columns in every row, which makes one group.
    """
    keep = ~labels
    if labels.ndim == 1:
        k = int(keep.sum())
        if k == 0:
            return [(slice(None), values, asc)]
        return [(slice(None), np.ascontiguousarray(values[:, keep]),
                 asc[keep[order]].reshape(-1, k))]
    keep_sorted = keep[np.arange(keep.shape[0])[:, None], order]
    counts = keep.sum(axis=1)
    groups = []
    for k in np.unique(counts):
        rows = counts == k
        if k == 0:
            groups.append((rows, values[rows], asc[rows]))
        else:
            groups.append((rows, values[rows][keep[rows]].reshape(-1, k),
                           asc[rows][keep_sorted[rows]].reshape(-1, k)))
    return groups


def _measure(spec: AggregatorSpec, o: np.ndarray, n: int):
    """The measure of fr, wowa or ts on n elements with outlier degrees o."""
    if spec.kind == "fr":
        return FuzzyRemovalMeasure(o, spec.tnorm)
    if spec.kind == "wowa":
        return WowaMeasure(spec.quantifier_for(n), o)
    if spec.kind == "ts":
        return OrderedTwoSymmetricMeasure(spec.quantifier_for(n), o, spec.t, spec.contamination)
    raise DomainError("comb must be resolved to a concrete strategy before aggregation")


def _aggregate_rows(values: np.ndarray, o: np.ndarray | None, labels: np.ndarray | None,
                    specs: list[AggregatorSpec]) -> np.ndarray:
    """Every row of ``values`` aggregated under every spec: (len(specs), rows).

    ``o`` and ``labels`` hold the aggregated elements' outlier degrees and
    crisp outlier labels, either one vector shared by all rows or one row
    each; they may be None when every spec is min, avg or owa, which read
    neither. The rows are sorted once and every strategy reads that order;
    mino, avgo and owao share one extraction of the unlabelled elements.
    """
    # means run along contiguous rows, so each equals its one-row mean bit for bit
    values = np.ascontiguousarray(values)
    order, asc = sort_rows(values)
    out = np.empty((len(specs), values.shape[0]))
    unlabelled = None
    for i, spec in enumerate(specs):
        if spec.kind in PLAIN_KINDS:
            out[i] = _plain(spec.kind, spec, values, asc)
        elif spec.kind in ("mino", "avgo", "owao"):
            if unlabelled is None:
                unlabelled = _unlabelled(values, order, asc, labels)
            for rows, kept, kept_asc in unlabelled:
                out[i, rows] = _plain(spec.kind[:-1], spec, kept, kept_asc)
        else:
            mu = _measure(spec, o, values.shape[1])
            out[i] = _choquet_sorted(asc, mu.chain_values(order))
    return out


def aggregate(values, o_sub, spec: AggregatorSpec, outliers=None) -> float:
    """Aggregate a vector of degrees under one strategy.

    ``o_sub`` holds the outlier degrees of the aggregated elements; for the
    crisp-exclusion strategies ``outliers`` may pass precomputed labels,
    otherwise the contamination rule is applied to the subset itself. When
    exclusion would empty the subset the unrestricted variant is used. This
    is the one-row case of the batched scoring.
    """
    values = unit_degrees(one_vector(values, "aggregate takes one vector of values"),
                          "values to aggregate must lie in [0, 1]")
    if values.size == 0:
        raise DomainError("cannot aggregate an empty value vector")
    o_sub = np.atleast_1d(unit_degrees(o_sub, "outlier degrees must lie in [0, 1]"))
    if o_sub.shape != values.shape:
        raise DomainError("outlier degrees must align with the values")
    if outliers is None:
        outliers = top_fraction(o_sub, spec.contamination)
    labels = np.atleast_1d(_booleans(outliers, "outlier labels must be booleans"))
    if labels.shape != values.shape:
        raise DomainError("outlier labels must align with the values")
    return float(_aggregate_rows(values[None], o_sub, labels, [spec])[0, 0])


def _complement(v: np.ndarray) -> np.ndarray:
    """1 - v, written over v: a gathered copy no one else holds."""
    return np.subtract(1.0, v, out=v)


def _row_groups(S: np.ndarray, cols: np.ndarray, scores: OutlierScores | None,
                loo_start: int | None):
    """The values 1 - R each row of S aggregates over the columns ``cols``.

    Yields (rows, values, degrees, labels) for groups of rows of one length;
    degrees and labels are shared vectors, or one row each where rows
    deleted different elements, or None when ``scores`` is None. With
    ``loo_start`` the rows of S are the training instances loo_start,
    loo_start + 1, ... and each one drops its own column; a row left with
    nothing to aggregate is not yielded.
    """
    o, labels = (None, None) if scores is None else (scores.normalized[cols],
                                                     scores.labels[cols])
    rows = np.arange(S.shape[0])
    if loo_start is None:
        yield rows, _complement(S[:, cols]), o, labels
        return
    # where each row's own instance sits in cols, if it is there at all
    own = rows + loo_start
    pos = cols.searchsorted(own)
    member = cols.take(pos, mode="clip") == own
    outside, inside = rows[~member], rows[member]
    if outside.size:
        yield outside, _complement(S[outside[:, None], cols]), o, labels
    if inside.size and cols.size > 1:
        # rows inside the aggregated set delete their own element
        keep = np.arange(cols.size) != pos[member][:, None]
        shape = (inside.size, cols.size - 1)

        def drop(a):
            if a is None:
                return None
            return (np.broadcast_to(a, keep.shape) if a.ndim == 1 else a)[keep].reshape(shape)

        yield inside, drop(_complement(S[inside[:, None], cols])), drop(o), drop(labels)


def _block_memberships(model: "FittedModel", S: np.ndarray, specs: list[AggregatorSpec],
                       loo_start: int | None = None) -> np.ndarray:
    """Membership of each row of S in each class under each spec.

    S holds the rows' similarities to the training instances; the result has
    shape (len(specs), rows, classes). With ``loo_start`` S holds the rows of
    the training instances loo_start, loo_start + 1, ... and each row leaves
    itself out; an emptied class complement gives 0. The outlier scores of a
    (lof_k, contamination) group are fetched only if a strategy in it reads
    them.
    """
    out = np.zeros((len(specs), S.shape[0], len(model.classes)))
    by_scores: dict = {}
    for si, spec in enumerate(specs):
        by_scores.setdefault((spec.lof_k, spec.contamination), []).append(si)
    for indices in by_scores.values():
        group = [specs[si] for si in indices]
        scores = (None if all(spec.kind in PLAIN_KINDS for spec in group)
                  else model.scores_for(group[0]))
        at = np.array(indices)[:, None]
        for ci, label in enumerate(model.classes):
            cols = (~model.class_masks[label]).nonzero()[0]
            for rows, values, o, labels in _row_groups(S, cols, scores, loo_start):
                out[at, rows, ci] = _aggregate_rows(values, o, labels, group)
    return out


def _streamed_memberships(model: "FittedModel", X: np.ndarray, specs: list[AggregatorSpec],
                          loo: bool = False) -> np.ndarray:
    """``_block_memberships`` of the rows of X, one block of rows at a time.

    Each block holds about BLOCK_ELEMENTS similarities to the training fold
    and is scored before the next is built. With ``loo`` the first rows of X
    are the training data itself and each leaves itself out; rows beyond the
    training size delete nothing, so held-out rows may follow them in the
    same pass. The rows were checked once, by ``resolve_and_score`` or as the
    fold's DecisionSystem, so no block is checked again.

    Before the first block an array of four blocks is allocated and dropped
    at once. glibc serves it by mmap and, on its release, raises its mmap
    threshold to that size and its trim threshold to twice it (mallopt(3)).
    The six to eight block-sized temporaries of a block (wowa, ts and mino)
    then come from a heap that glibc keeps, up to eight blocks, rather than
    from fresh mappings whose pages fault in on every block. Scoring
    classify_large's 1500 rows against 3000 (2-vCPU x86-64 host, glibc)
    took 54,757-61,375 minor faults per repetition without the array,
    37,937-40,955 with two blocks, 0-233 with three and 0-268 with four; a
    ``classify --aggregator owa`` process on the same data, which runs no
    LOF, took 34,370 faults without it and 8,837 with it.
    """
    out = np.empty((len(specs), X.shape[0], len(model.classes)))
    step = max(1, BLOCK_ELEMENTS // model.n)
    np.empty((4 * min(step, X.shape[0]), model.n))  # dropped at once
    for start in range(0, X.shape[0], step):
        S = _similarity_block(X[start:start + step], model.train.X, model.sigmas)
        out[:, start:start + step] = _block_memberships(model, S, specs,
                                                        start if loo else None)
    return out


class FittedModel:
    """A training fold prepared for scoring, and the strategy fitted on it.

    Scales, class masks and the outlier scores of each (lof_k, contamination)
    setting are computed once and shared by every strategy scored on the
    fold; outlier scores are computed on first use by a strategy that reads
    them. Similarities are not kept: scoring and comb's leave-one-out compute
    them block by block. ``resolved`` is the strategy predictions use: the
    one requested, or for comb its choice. The seed, which only comb's
    tie-break reads, must be a whole number >= 0 whatever the strategy.
    """

    def __init__(self, train: DecisionSystem, spec: AggregatorSpec = AggregatorSpec(),
                 seed: int = 0):
        check_seed(seed)
        if len(train.classes) < 2:
            raise DomainError("training data must contain at least two classes")
        self.train = train
        self.sigmas = attribute_scales(train)
        self.classes = train.classes
        self.class_masks = {c: train.y == c for c in self.classes}
        self._scores: dict = {}
        self.resolved = spec
        if spec.kind == "comb":
            (self.resolved,), _ = _choose(self, [_candidates(spec)], seed)

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


@lru_cache(maxsize=MEMO_SIZE)
def _candidates(spec: AggregatorSpec) -> tuple[AggregatorSpec, ...]:
    """Comb's candidates: the nine base strategies with the knobs of ``spec``,
    built once per process."""
    return tuple(replace(spec, kind=k) for k in BASE_KINDS)


def _choose(model: FittedModel, groups: list[list[AggregatorSpec]], seed: int,
            X_test: np.ndarray | None = None) -> tuple[list, dict]:
    """Comb's choice in each group of candidates: the candidate whose
    leave-one-out memberships give the best balanced accuracy, exact ties
    broken uniformly at random by the seeded generator.

    One pass scores every distinct candidate on the training rows, each
    leaving itself out, followed by the rows of X_test, which leave nothing
    out. Returns (the choice of each group, {candidate: memberships of the
    rows of X_test}); the dict is empty without X_test.
    """
    from .evaluation import balanced_accuracies

    check_seed(seed)
    if not groups:
        return [], {}
    if min(int(m.sum()) for m in model.class_masks.values()) < 2:
        raise DomainError("leave-one-out selection needs at least two instances per class")
    specs = list(dict.fromkeys(c for group in groups for c in group))
    X = model.train.X if X_test is None else np.vstack([model.train.X, X_test])
    scored = _streamed_memberships(model, X, specs, loo=True)
    position = {spec: i for i, spec in enumerate(specs)}
    picks = []
    for group in groups:
        loo = scored[[position[c] for c in group], :model.n]
        accs = balanced_accuracies(model.train.y, model.classes, loo.argmax(axis=-1))
        best = np.flatnonzero(accs >= accs.max() - 1e-12)
        pick = best[0] if best.size == 1 else np.random.default_rng(seed).choice(best)
        picks.append(group[int(pick)])
    return picks, ({} if X_test is None else dict(zip(specs, scored[:, model.n:])))


def comb_select(ds_train, candidate_specs: list[AggregatorSpec], seed: int) -> AggregatorSpec:
    """Pick the candidate with the best leave-one-out balanced accuracy.

    ``ds_train`` is the training fold, or a FittedModel built on it whose
    outlier scores are then reused. Each instance is predicted with itself
    removed from the aggregation universe (outlier scores and scales stay
    those of the full training fold); the training rows are scored in
    blocks, so the train x train similarity is never whole. Exact ties are
    broken uniformly at random by the seeded generator.
    """
    if not candidate_specs:
        raise DomainError("need at least one candidate spec")
    model = ds_train if isinstance(ds_train, FittedModel) else FittedModel(ds_train)
    return _choose(model, [candidate_specs], seed)[0][0]


def resolve_and_score(model: FittedModel, specs: list[AggregatorSpec], X_test,
                      seed: int) -> tuple[list, np.ndarray]:
    """Each spec resolved on the model's training fold, and the memberships
    of the rows of X_test under it: (resolved specs, specs x rows x classes).

    This is the one entry that scores test rows. X_test is a 2-D array with
    one instance per row, checked by ``check_test_rows`` before any pass. Equal
    specs, and a comb choice equal to another spec, are scored once. When
    every candidate of comb is requested beside it, as in the paper's
    protocol, the held-out rows are needed under all candidates anyway, so
    they join comb's leave-one-out rows in one pass. Otherwise fusing would
    score the held-out rows under candidates nobody asked for: comb's
    leave-one-out runs alone, and the held-out rows get one pass under the
    resolved specs not yet scored. Comb resolves as ``comb_select`` does.
    """
    X_test = _reals(X_test)
    if X_test.ndim != 2:
        raise DomainError("test instances must form a 2-D array, one instance per row")
    check_test_rows(X_test, model.train.X.shape[1])
    groups = {spec: _candidates(spec) for spec in specs if spec.kind == "comb"}
    fuse = {c for group in groups.values() for c in group} <= set(specs)
    picks, scored = _choose(model, list(groups.values()), seed, X_test if fuse else None)
    chosen = dict(zip(groups, picks))
    resolved = [chosen.get(spec, spec) for spec in specs]
    rest = [spec for spec in dict.fromkeys(resolved) if spec not in scored]
    if rest:
        scored.update(zip(rest, _streamed_memberships(model, X_test, rest)))
    out = np.empty((len(specs), X_test.shape[0], len(model.classes)))
    for i, spec in enumerate(resolved):
        out[i] = scored[spec]
    return resolved, out


def fit(ds_train: DecisionSystem, spec: AggregatorSpec, seed: int = 0) -> FittedModel:
    """Prepare the training fold (scales, class masks) and resolve comb."""
    return FittedModel(ds_train, spec, seed)


def membership_matrix(model: FittedModel, X_test) -> np.ndarray:
    """Per-class lower-approximation memberships of each row of X_test under
    the model's resolved strategy: rows x classes, scored by
    ``resolve_and_score``."""
    return resolve_and_score(model, [model.resolved], X_test, 0)[1][0]


def predict_batch(model: FittedModel, X_test) -> np.ndarray:
    """Labels of the rows of X_test. Exact ties go to the smallest label in
    sorted order."""
    return model.labels(membership_matrix(model, X_test))


def predict(model: FittedModel, instance) -> object:
    """Label of the class with the greatest lower-approximation membership.

    Exact ties go to the smallest label in sorted order.
    """
    row = one_vector(instance, "an instance is one vector of attribute values")
    return predict_batch(model, row[None])[0]


def class_memberships(model: FittedModel, instance) -> dict:
    """Per-class lower-approximation membership of one instance."""
    row = one_vector(instance, "an instance is one vector of attribute values")
    row = membership_matrix(model, row[None])[0]
    return dict(zip(model.classes, row.tolist()))
