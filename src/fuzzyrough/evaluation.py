"""Cross-validation, balanced accuracy, Wilcoxon signed ranks, benchmark reports."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .classifier import BASE_KINDS, DISPLAY_NAMES, AggregatorSpec, FittedModel, resolve_and_score
from .data import DataFormatError, DecisionSystem
from .sets import DomainError, check_whole_number, one_vector

EXACT_WILCOXON_LIMIT = 25  # exact null distribution up to here, normal beyond


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment, reproducible from (labels, k, seed)."""

    k: int
    assignments: np.ndarray = field(repr=False)

    def train_test(self, fold: int):
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test


def _check_fold_count(k: int) -> None:
    """Raise DomainError unless k is a whole number of folds that leaves every
    fold a training part."""
    check_whole_number(k, "k")
    if k < 2:
        raise DomainError(f"cross-validation needs at least 2 folds, got {k}")


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Shuffle each class with the seeded generator, then deal round-robin.

    Every class is dealt from fold 0, so fold f holds instances only if some
    class has more than f: with k above the largest class size the last
    folds are empty, which the protocol rejects (``_check_folds``).
    """
    _check_fold_count(k)
    labels = _label_vector(labels)
    n = labels.size
    if k > n:
        raise DomainError(f"cannot split {n} instances into {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=int)
    for label in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == label)
        rng.shuffle(members)
        assignments[members] = np.arange(members.size) % k
    return FoldPlan(k, assignments)


def _label_vector(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=object)
    if labels.ndim != 1:
        raise DomainError("labels must form one vector")
    return labels


def balanced_accuracies(y_true, labels, predicted) -> np.ndarray:
    """Balanced accuracy of each row of ``predicted`` against ``y_true``.

    ``predicted`` holds one row of indices into ``labels`` per classifier.
    Each score is the unweighted mean of the per-class recalls over the
    classes present in y_true, in sorted order; a class that no label names
    (say one absent from the training fold) is never predicted, so its
    recall is 0.
    """
    y_true = _label_vector(y_true)
    predicted = np.asarray(predicted)
    if y_true.size == 0 or predicted.shape[1:] != y_true.shape:
        raise DomainError("labels must be nonempty and of equal length")
    present = {label: i for i, label in enumerate(sorted(set(y_true.tolist())))}
    truth = np.array([present[label] for label in y_true.tolist()])
    as_present = np.array([present.get(label, -1) for label in labels], dtype=np.intp)
    members = truth[:, None] == np.arange(len(present))
    hits = (as_present[predicted] == truth).astype(np.intp)
    # correct / class size, then the mean along each contiguous row: the
    # same operations as one np.mean per class and one over the recalls
    recalls = (hits @ members) / members.sum(axis=0)
    return recalls.mean(axis=1)


def balanced_accuracy(y_true, y_pred) -> float:
    """Unweighted mean of per-class recalls over the classes present in y_true."""
    y_pred = _label_vector(y_pred)
    if np.shape(y_true) != y_pred.shape:
        raise DomainError("labels must be nonempty and of equal length")
    labels = {label: i for i, label in enumerate(dict.fromkeys(y_pred.tolist()))}
    predicted = [[labels[label] for label in y_pred.tolist()]]
    return float(balanced_accuracies(y_true, tuple(labels), predicted)[0])


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # min(W+, W-)
    p_value: float
    n_nonzero: int
    reliable: bool
    rank_sum_positive: float
    rank_sum_negative: float
    method: str  # "exact", "normal", or "degenerate"


def _exact_p_value(double_ranks: np.ndarray, w2: int) -> float:
    """Two-sided exact p-value of 2*W+ = w2 over the 2^m equally likely sign patterns.

    counts[s] is the number of sign patterns whose 2*W+ equals s; each rank
    joins by adding the counts shifted by it, O(m * sum of double ranks).
    """
    counts = np.zeros(int(double_ranks.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in double_ranks.tolist():
        counts[r:] += counts[:-r]  # numpy buffers the overlapping operands
    n_le = int(counts[:w2 + 1].sum())
    n_ge = int(counts[w2:].sum())
    return min(1.0, 2.0 * min(n_le, n_ge) / (1 << double_ranks.size))


def _mid_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, each tie group given its mean rank.

    A group filling sorted positions start..end-1 holds ranks start+1..end,
    whose mean (start + end + 1) / 2 is a multiple of 1/2, so every rank is
    exact.
    """
    order = np.argsort(x, kind="stable")
    ascending = x[order]
    starts = np.flatnonzero(np.r_[True, ascending[1:] != ascending[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _normal_p_value(ranks: np.ndarray, w_pos: float) -> float:
    """Normal approximation with tie correction and continuity correction.

    ``scipy.special`` is imported here, at first use: only a test with more
    than 25 nonzero differences loads it.
    """
    from scipy.special import ndtr

    m = ranks.size
    mean = m * (m + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts)) / 48.0
    var = m * (m + 1) * (2 * m + 1) / 24.0 - tie_term
    z = max(abs(w_pos - mean) - 0.5, 0.0) / math.sqrt(var)
    return min(1.0, 2.0 * float(ndtr(-z)))  # ndtr(-z) is the upper normal tail


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are dropped and tied absolute differences mid-ranked.
    Up to m = 25 nonzero differences the p-value is exact (the 2^m sign
    patterns counted by their rank sums); beyond that a normal approximation
    with tie correction is used. Results with fewer than 5 nonzero
    differences are flagged unreliable. A NaN difference raises DomainError.
    """
    a = one_vector(a, "paired samples must each form one vector")
    b = one_vector(b, "paired samples must each form one vector")
    if a.size != b.size or a.size == 0:
        raise DomainError("paired samples must be nonempty and of equal length")
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN, rejected below
        d = a - b
    if np.isnan(d).any():
        raise DomainError("paired differences must not be NaN")
    d = d[d != 0.0]
    m = d.size
    if m == 0:
        return WilcoxonResult(0.0, 1.0, 0, False, 0.0, 0.0, "degenerate")

    ranks = _mid_ranks(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    stat = min(w_pos, w_neg)
    # mid-ranks are multiples of 1/2; doubling keeps everything integral
    double_ranks = np.rint(2.0 * ranks).astype(np.int32)

    if m <= EXACT_WILCOXON_LIMIT:
        p = _exact_p_value(double_ranks, int(round(2.0 * w_pos)))
        method = "exact"
    else:
        p = _normal_p_value(ranks, w_pos)
        method = "normal"
    return WilcoxonResult(stat, p, m, m >= 5, w_pos, w_neg, method)


@dataclass(frozen=True)
class EvaluationReport:
    """Mean balanced accuracies over the folds, comb's choices, the pairwise
    Wilcoxon tests and the failed datasets: what the report files write."""

    dataset_names: tuple
    spec_names: tuple
    accuracies: np.ndarray = field(repr=False)  # datasets x specs, mean over folds
    usage_counts: dict = field(repr=False)  # dataset -> {base kind: folds used}
    p_values: np.ndarray = field(repr=False)  # specs x specs
    rank_sums: np.ndarray = field(repr=False)  # specs x specs, W+ of row vs col
    unreliable_pairs: tuple = ()
    failures: dict = field(default_factory=dict)


def _evaluate_fold(ds: DecisionSystem, plan: FoldPlan, fold: int, specs: list,
                   seed: int) -> tuple[list, list]:
    """Balanced accuracy and resolved strategy of every spec on one fold.

    One model holds the training fold. ``resolve_and_score`` resolves every
    spec on it and scores each distinct strategy once, comb's leave-one-out
    rows and the held-out rows in one pass; the similarities are computed
    one row block at a time. All specs' accuracies come from one call.
    """
    train_idx, test_idx = plan.train_test(fold)
    train, test = ds.subset(train_idx), ds.subset(test_idx)
    model = FittedModel(train)
    resolved, memberships = resolve_and_score(model, specs, test.X, seed)
    accs = balanced_accuracies(test.y, model.classes, memberships.argmax(axis=-1))
    return accs.tolist(), [spec.kind for spec in resolved]


def _check_folds(ds: DecisionSystem, specs: list, k: int) -> None:
    """Raise DomainError when some test fold would be empty, or when comb is
    requested and some training fold would keep fewer than two members of a
    class.

    Round-robin dealing puts ceil(c/k) of a class's c members in fold 0, so
    its smallest training fold keeps c - ceil(c/k) of them, and comb's
    leave-one-out needs two. Every class is dealt from fold 0, so fold f is
    empty unless some class has more than f members.
    """
    sizes = {label: int(np.sum(ds.y == label)) for label in ds.classes}
    if any(spec.kind == "comb" for spec in specs):
        for label, c in sizes.items():
            kept = c - math.ceil(c / k)
            if kept < 2:
                raise DomainError(
                    f"comb needs at least two instances of each class in every training "
                    f"fold; class {label!r} has {c} instances, so with k={k} folds one "
                    f"training fold keeps {kept}")
    largest = max(sizes.values())
    if k > largest:
        raise DomainError(f"cannot split into {k} folds: the largest class has {largest} "
                          f"instances, so fold {largest} would be empty")


def _fold_scores(ds: DecisionSystem, specs: list, k: int, seed: int, dataset_index: int):
    """Split ``ds`` and check its folds at the call, then evaluate each fold
    as the returned iterator is advanced; fold f is seeded from (seed,
    dataset_index, f)."""
    plan = stratified_kfold(ds.y, k, seed)
    _check_folds(ds, specs, k)
    return (_evaluate_fold(ds, plan, fold, specs, _fold_seed(seed, dataset_index, fold))
            for fold in range(k))


def crossval_accuracies(ds: DecisionSystem, spec: AggregatorSpec, k: int,
                        seed: int) -> tuple[list, list]:
    """Per-fold balanced accuracies plus the resolved strategy per fold: the
    folds of dataset 0 of ``run_benchmark`` with the same k and seed."""
    folds = list(_fold_scores(ds, [spec], k, seed, 0))
    return [accs[0] for accs, _ in folds], [kinds[0] for _, kinds in folds]


def _fold_seed(seed: int, dataset_index: int, fold: int) -> int:
    ss = np.random.SeedSequence([seed, dataset_index, fold])
    return int(ss.generate_state(1)[0])


def _reject_repeats(names, what: str) -> None:
    """Raise DomainError naming the first repeated name and all its positions."""
    for name in dict.fromkeys(names):
        positions = [i for i, other in enumerate(names) if other == name]
        if len(positions) > 1:
            raise DomainError(f"{what} {name!r} is repeated at positions {positions}")


def run_benchmark(datasets, specs: list[AggregatorSpec], k: int = 5,
                  seed: int = 0) -> EvaluationReport:
    """Full evaluation protocol over several datasets and strategies.

    For each dataset: stratified k-fold split, one model per fold shared by
    every spec, balanced accuracy on the held-out fold. The pairwise Wilcoxon
    matrices compare strategies across the per-dataset mean accuracies; each
    pair is tested once, and its mirror fills the transposed entry. A
    dataset the computation is not defined on (DomainError, DataFormatError)
    is recorded as a failure naming the fold instead of aborting the run (a
    k that would leave a fold empty, or a class too small for comb's
    leave-one-out, fails before the first fold);
    any other exception is a bug and propagates. Dataset names key the
    reports, so a repeated name raises DomainError, and so does k < 2, which
    no dataset could be split by.
    """
    dataset_names = tuple(name for name, _ in datasets)
    _reject_repeats(dataset_names, "dataset name")
    _check_fold_count(k)
    spec_names = tuple(s.display_name for s in specs)
    acc = np.full((len(datasets), len(specs)), np.nan)
    usage_counts: dict = {}
    failures: dict = {}

    for di, (name, ds) in enumerate(datasets):
        per_spec = [[] for _ in specs]
        counts: dict = {}
        where = ""
        try:
            folds = _fold_scores(ds, specs, k, seed, di)
            for fold in range(k):
                where = f"fold {fold}: "
                accs, kinds = next(folds)
                for si, spec in enumerate(specs):
                    per_spec[si].append(accs[si])
                    if spec.kind == "comb":
                        counts[kinds[si]] = counts.get(kinds[si], 0) + 1
        except (DomainError, DataFormatError) as exc:
            failures[name] = f"{where}{type(exc).__name__}: {exc}"
            continue
        for si in range(len(specs)):
            acc[di, si] = float(np.mean(per_spec[si]))
        if counts:
            usage_counts[name] = counts

    ok = ~np.isnan(acc).any(axis=1)
    n_specs = len(specs)
    p_values = np.full((n_specs, n_specs), np.nan)
    rank_sums = np.full((n_specs, n_specs), np.nan)
    unreliable = np.zeros((n_specs, n_specs), dtype=bool)
    if ok.any():
        cols = acc[ok]
        # b - a is -(a - b) bit for bit and the null distribution is
        # symmetric, so the test of (j, i) is the test of (i, j) mirrored
        for i in range(n_specs):
            for j in range(i + 1, n_specs):
                res = wilcoxon_signed_rank(cols[:, i], cols[:, j])
                p_values[i, j] = p_values[j, i] = res.p_value
                rank_sums[i, j], rank_sums[j, i] = res.rank_sum_positive, res.rank_sum_negative
                unreliable[i, j] = unreliable[j, i] = not res.reliable

    return EvaluationReport(
        dataset_names=dataset_names,
        spec_names=spec_names,
        accuracies=acc,
        usage_counts=usage_counts,
        p_values=p_values,
        rank_sums=rank_sums,
        unreliable_pairs=tuple((spec_names[i], spec_names[j])
                               for i, j in np.argwhere(unreliable)),
        failures=failures,
    )


# Report serialization: UTF-8, LF endings, 17 significant digits.

def _fmt(x: float) -> str:
    if x != x:  # nan
        return ""
    return format(float(x), ".17g")


def write_csv_rows(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_report_csvs(report: EvaluationReport, out_dir: str) -> list:
    """Emit results, usage-count, p-value and rank-sum CSVs; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    results = os.path.join(out_dir, "results.csv")
    rows = [["dataset", *report.spec_names]]
    for di, name in enumerate(report.dataset_names):
        rows.append([name, *(_fmt(v) for v in report.accuracies[di])])
    valid = report.accuracies[~np.isnan(report.accuracies).any(axis=1)]
    if valid.size:
        rows.append(["mean", *(_fmt(v) for v in valid.mean(axis=0))])
        rows.append(["median", *(_fmt(v) for v in np.median(valid, axis=0))])
    write_csv_rows(results, rows)
    paths.append(results)

    usage = os.path.join(out_dir, "usage_counts.csv")
    rows = [["dataset", *(DISPLAY_NAMES[k] for k in BASE_KINDS)]]
    for name in report.dataset_names:
        counts = report.usage_counts.get(name, {})
        rows.append([name, *(str(counts.get(k, 0)) for k in BASE_KINDS)])
    write_csv_rows(usage, rows)
    paths.append(usage)

    for fname, matrix in (("wilcoxon_pvalues.csv", report.p_values),
                          ("wilcoxon_ranksums.csv", report.rank_sums)):
        path = os.path.join(out_dir, fname)
        rows = [["", *report.spec_names]]
        for i, name in enumerate(report.spec_names):
            rows.append([name, *(_fmt(v) for v in matrix[i])])
        write_csv_rows(path, rows)
        paths.append(path)
    return paths


def write_summary_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")
