"""Pinned classifier outputs on three fixed synthetic datasets.

The goldens under ``tests/golden/`` hold, for every fold, strategy and
held-out row of a 5-fold protocol, the predicted label and the per-class
lower-approximation memberships, plus the ``results.csv`` and
``usage_counts.csv`` reports of the same protocol. Predictions, reports and
the memberships' ``.17g`` text must match exactly: no BLAS kernel or thread
count sets a bit of an integral, so the memberships are pinned bit for bit.

The datasets are built to contain the awkward cases rather than avoid them:
duplicated rows (within and across classes), a constant attribute, values
rounded onto a coarse grid so that similarities tie, and three classes.
Rows whose two largest memberships lie within TOL are flagged in the
``tie`` column; their label comes from the tie-break rule (smallest
label), which the test checks separately.

Regenerate with ``PYTHONPATH=src python -m tests.test_golden`` only when a
change is meant to alter what the classifier computes.
"""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest

from fuzzyrough.classifier import AGGREGATOR_KINDS, AggregatorSpec, fit, membership_matrix
from fuzzyrough.data import DecisionSystem
from fuzzyrough.evaluation import _fold_seed, run_benchmark, stratified_kfold, write_report_csvs

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FOLDS = 5
SEED = 3
TOL = 1e-12  # two memberships this close count as a tie
REPORT_FILES = ("results.csv", "usage_counts.csv")
# the protocol defaults for every strategy, and one non-default configuration
# (quadratic quantifier, product t-norm) on the duplicate-row dataset
CONFIGS = {
    "default": {},
    "quadratic_product": {"quantifier": "quadratic", "alpha": 0.2, "beta": 0.8,
                          "tnorm": "product", "t": 0.5, "contamination": 0.15},
}
RUNS = (("duplicates", "default"), ("constant", "default"), ("three_class", "default"),
        ("duplicates", "quadratic_product"))


def _gaussian(rng, counts, m, labels):
    shapes = ((0.0, 1.0), (0.7, 1.3), (-0.6, 0.8))
    X = np.vstack([rng.normal(mu, sd, size=(c, m)) for (mu, sd), c in zip(shapes, counts)])
    y = np.repeat(np.array(labels, dtype=object), counts)
    perm = rng.permutation(y.size)
    return X[perm], y[perm]


def golden_datasets() -> dict:
    """The three pinned datasets, from one fixed generator."""
    rng = np.random.default_rng(20240517)
    out = {}

    X, y = _gaussian(rng, (90, 60), 4, ("neg", "pos"))
    # a tenth of each class copied from other members, plus three rows copied
    # across classes so identical points carry different labels
    for label in ("neg", "pos"):
        members = rng.permutation(np.flatnonzero(y == label))
        r = members.size // 10
        X[members[:r]] = X[members[r:2 * r]]
    neg, pos = np.flatnonzero(y == "neg"), np.flatnonzero(y == "pos")
    X[pos[-3:]] = X[neg[-3:]]
    out["duplicates"] = DecisionSystem(("a0", "a1", "a2", "a3"), X, y)

    X, y = _gaussian(rng, (80, 70), 5, ("a", "b"))
    X[:, 0] = 1.0
    X = np.round(X, 1)  # coarse grid: many equal similarities
    out["constant"] = DecisionSystem(("k", "b1", "b2", "b3", "b4"), X, y)

    X, y = _gaussian(rng, (60, 50, 40), 3, ("x", "y", "z"))
    out["three_class"] = DecisionSystem(("c0", "c1", "c2"), X, y)
    return out


def _specs(config: str) -> list:
    return [AggregatorSpec(kind=k, **CONFIGS[config]) for k in AGGREGATOR_KINDS]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def protocol_rows(ds: DecisionSystem, config: str) -> list:
    """One row per (fold, strategy, held-out instance), fold seeds as in
    ``run_benchmark`` so comb resolves the same way."""
    plan = stratified_kfold(ds.y, FOLDS, SEED)
    dataset_index = 0
    rows = []
    for fold in range(FOLDS):
        train_idx, test_idx = plan.train_test(fold)
        train = ds.subset(train_idx)
        for spec in _specs(config):
            model = fit(train, spec, seed=_fold_seed(SEED, dataset_index, fold))
            block = membership_matrix(model, ds.X[test_idx])
            for i, values in zip(test_idx, block):
                top = np.sort(values)[::-1]
                tie = top.size > 1 and top[0] - top[1] <= TOL
                label = model.classes[int(np.argmax(values))]
                rows.append([str(fold), spec.kind, model.resolved.kind, str(int(i)), str(label),
                             "1" if tie else "0", *(_fmt(v) for v in values)])
    return rows


def _header(ds: DecisionSystem) -> list:
    return ["fold", "spec", "resolved", "row", "prediction", "tie",
            *(f"score_{c}" for c in ds.classes)]


def _golden_path(dataset: str, config: str) -> str:
    return os.path.join(GOLDEN_DIR, f"memberships_{dataset}_{config}.csv")


def _report(tmp_dir: str) -> list:
    datasets = golden_datasets()
    report = run_benchmark([(name, datasets[name]) for name in sorted(datasets)],
                           _specs("default"), k=FOLDS, seed=SEED)
    assert not report.failures
    write_report_csvs(report, tmp_dir)
    return [os.path.join(tmp_dir, name) for name in REPORT_FILES]


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("dataset,config", RUNS)
def test_predictions_and_memberships(dataset, config):
    ds = golden_datasets()[dataset]
    header, *want = _read_csv(_golden_path(dataset, config))
    assert header == _header(ds)
    got = protocol_rows(ds, config)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g, w)


@pytest.mark.parametrize("dataset,config", RUNS)
def test_recorded_ties_follow_the_smallest_label_rule(dataset, config):
    ds = golden_datasets()[dataset]
    _, *rows = _read_csv(_golden_path(dataset, config))
    for row in rows:
        if row[5] == "1":
            values = np.array(row[6:], dtype=float)
            tied = [c for c, v in zip(ds.classes, values) if v >= values.max() - TOL]
            assert row[4] == min(tied)


def test_golden_data_contains_the_awkward_cases():
    datasets = golden_datasets()
    X = datasets["duplicates"].X
    assert len({tuple(r) for r in X.tolist()}) < X.shape[0]
    assert np.ptp(datasets["constant"].X[:, 0]) == 0.0
    assert len(datasets["three_class"].classes) == 3
    ties = sum(row[5] == "1" for dataset, config in RUNS
               for row in _read_csv(_golden_path(dataset, config))[1:])
    assert ties > 0


def test_report_csvs_byte_identical(tmp_path):
    for path in _report(str(tmp_path)):
        with open(path, "rb") as fh, open(os.path.join(GOLDEN_DIR, os.path.basename(path)),
                                          "rb") as gh:
            assert fh.read() == gh.read(), os.path.basename(path)


def record() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    datasets = golden_datasets()
    for dataset, config in RUNS:
        ds = datasets[dataset]
        with open(_golden_path(dataset, config), "w", encoding="utf-8", newline="\n") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [_header(ds), *protocol_rows(ds, config)])
    _report(GOLDEN_DIR)
    for name in ("wilcoxon_pvalues.csv", "wilcoxon_ranksums.csv"):
        os.remove(os.path.join(GOLDEN_DIR, name))


if __name__ == "__main__":
    record()
