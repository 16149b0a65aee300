"""The four benchmark workloads: seeded inputs, timed bodies and output checks.

Each workload has three parts that run in different processes:

* ``generate(seed, dir)`` writes the inputs (CSVs or arrays) into ``dir``;
  it runs in the orchestrating process and its time counts towards
  ``setup_s``.
* ``body(manifest, out_dir)`` runs in a fresh worker process after
  ``import fuzzyrough``, which repeats it; the median repetition's wall time
  is ``run_s``.
* ``check(manifest, out_dir, first_dir, reference)`` runs back in the
  orchestrator and returns how many of the ``manifest["operations"]``
  operations produced a wrong output.

Shapes (row counts, attribute counts, class counts, variants) are fixed per
workload; the seed only draws the values, so the amount of work per run does
not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

# Per-class (mean, standard deviation) of every attribute. The first two are
# the wdbc-like shape N(0, 1) / N(0.7, 1.3); the third class is only used by
# the three-class variants of protocol_many.
CLASS_SHAPES = ((0.0, 1.0), (0.7, 1.3), (-0.7, 0.8))
LABELS = ("c0", "c1", "c2")
FOLDS = 5
STRATEGIES = 10  # every aggregator kind the classifier offers
PROTOCOL_FILES = ("results.csv", "usage_counts.csv", "wilcoxon_pvalues.csv",
                  "wilcoxon_ranksums.csv")
MANY_DATASETS = 25  # the largest count that keeps every Wilcoxon test exact
APPROX_ELEMENTS = 80
APPROX_ATTRIBUTES = 6
APPROX_FAMILIES = 10  # measure families swept by approx_library
DUALITY_TOLERANCE = 1e-9

WHY = {
    "protocol_wdbc": (
        "The paper's protocol (ten strategies, 5-fold CV, Wilcoxon) on its reference "
        "569x30 shape: comb's leave-one-out pass and predict_batch dominate, Wilcoxon "
        "does nothing."),
    "protocol_many": (
        "The same protocol on 25 small datasets, the most that keeps the exact Wilcoxon "
        "path: 90 tests with up to 2^25-entry sign tables plus per-call classifier "
        "overhead on short vectors."),
    "classify_large": (
        "The practitioner's fit-and-predict path (classify --aggregator wowa, 3000 "
        "training and 1500 test rows): full similarity matrix, per-class LOF tensors and "
        "two scorings per row; no comb, no Wilcoxon."),
    "approx_library": (
        "The library's one-measure-many-integrals use: lower (Kleene-Dienes) and upper "
        "(minimum) approximations of one class at every element under every measure "
        "family, including the cubic fuzzy-removal chain under product and Lukasiewicz."),
}

# Which end-to-end metric each layer metric should move, on which workload,
# and where it should stay idle. Later changes cite these rows by layer.
LAYER_TABLE = (
    {"layer": "classifier.comb_select.self_s, classifier.aggregate.*, "
              "measures.construct.*, quantifiers.*",
     "moves": "run_s", "on": "protocol_wdbc, protocol_many",
     "idle_on": "classify_large (small); quantifiers.RIMQuantifier.call also runs "
                "inside the symmetric, WOWA and two-block chain_values of approx_library"},
    {"layer": "approx.similarity_to_test.calls_per_test_row",
     "moves": "run_s", "on": "protocol_wdbc", "idle_on": "approx_library"},
    {"layer": "approx.similarity_matrix.self_s",
     "moves": "run_s, peak_rss_mb", "on": "classify_large", "idle_on": "approx_library"},
    {"layer": "outliers.lof_scores.self_s, outliers.lof_scores.tensor_bytes",
     "moves": "peak_rss_mb, run_s", "on": "classify_large", "idle_on": "approx_library"},
    {"layer": "evaluation.wilcoxon_signed_rank.*",
     "moves": "run_s, peak_rss_mb", "on": "protocol_many",
     "idle_on": "protocol_wdbc, classify_large"},
    {"layer": "measures.FuzzyRemovalMeasure.chain_values.*, connectives.tnorm_eval.*",
     "moves": "run_s", "on": "approx_library",
     "idle_on": "protocol_wdbc, protocol_many, classify_large (minimum t-norm)"},
    {"layer": "choquet.choquet_integral.*, other measures.*.chain_values.*, "
              "approx.lower_approximation.*, approx.upper_approximation.*",
     "moves": "run_s", "on": "approx_library, protocol_wdbc",
     "idle_on": "classify_large (small: one WOWA integral per row and class)"},
    {"layer": "data.*, cli.main.self_s, classifier.class_memberships.*",
     "moves": "run_s", "on": "classify_large", "idle_on": "approx_library"},
    {"layer": "import time", "moves": "setup_s", "on": "all", "idle_on": "none"},
)


# ---------------------------------------------------------------- generation

def _gaussian_classes(rng, counts, m):
    X = np.vstack([rng.normal(mu, sd, size=(c, m))
                   for (mu, sd), c in zip(CLASS_SHAPES, counts)])
    y = np.repeat(np.array(LABELS[:len(counts)]), counts)
    perm = rng.permutation(y.size)
    return X[perm], y[perm]


def _write_csv(path, X, y):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"a{j}" for j in range(X.shape[1])] + ["class"]) + "\n")
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def _many_shape(i):
    """Fixed shape of protocol_many dataset ``i``: the seed never changes it."""
    n = 60 + (i * 23) % 61
    m = 4 + i % 3
    if i % 4 == 3:
        first, second = round(0.45 * n), round(0.35 * n)
        counts = (first, second, n - first - second)
    else:
        counts = (round(0.6 * n), n - round(0.6 * n))
    return counts, m, i % 5 == 1, i % 6 == 2


def _many_dataset(rng, i):
    counts, m, duplicates, constant = _many_shape(i)
    X, y = _gaussian_classes(rng, counts, m)
    if duplicates:
        # overwrite a tenth of each class with copies of other members
        for label in LABELS[:len(counts)]:
            members = rng.permutation(np.flatnonzero(y == label))
            r = max(1, members.size // 10)
            X[members[:r]] = X[members[r:2 * r]]
    if constant:
        X[:, 0] = 1.0
    return X, y


def generate(workload, seed, directory):
    """Write the inputs of ``workload`` for ``seed``; return the manifest."""
    rng = np.random.default_rng(seed)
    manifest = {"workload": workload, "seed": seed}
    if workload == "protocol_wdbc":
        X, y = _gaussian_classes(rng, (357, 212), 30)
        path = os.path.join(directory, "wdbc_like.csv")
        _write_csv(path, X, y)
        manifest["datasets"] = [path]
        manifest["rows"] = [int(y.size)]
        manifest["operations"] = STRATEGIES * FOLDS
    elif workload == "protocol_many":
        manifest["datasets"], manifest["rows"] = [], []
        for i in range(MANY_DATASETS):
            X, y = _many_dataset(rng, i)
            path = os.path.join(directory, f"many_{i:02d}.csv")
            _write_csv(path, X, y)
            manifest["datasets"].append(path)
            manifest["rows"].append(int(y.size))
        manifest["operations"] = MANY_DATASETS * STRATEGIES * FOLDS
    elif workload == "classify_large":
        X, y = _gaussian_classes(rng, (1500, 1500), 30)
        Xt, yt = _gaussian_classes(rng, (750, 750), 30)
        manifest["train"] = os.path.join(directory, "train.csv")
        manifest["test"] = os.path.join(directory, "test.csv")
        _write_csv(manifest["train"], X, y)
        _write_csv(manifest["test"], Xt, yt)
        manifest["test_rows"] = manifest["operations"] = int(yt.size)
    elif workload == "approx_library":
        half = APPROX_ELEMENTS // 2
        X, y = _gaussian_classes(rng, (half, APPROX_ELEMENTS - half), APPROX_ATTRIBUTES)
        # distrust degrees: mostly small, a few large, as outlier scores tend to be
        o = rng.beta(0.5, 4.0, size=APPROX_ELEMENTS)
        manifest["arrays"] = os.path.join(directory, "approx.npz")
        np.savez(manifest["arrays"], X=X, y=(y == LABELS[1]).astype(np.int64), o=o)
        manifest["operations"] = (2 * APPROX_FAMILIES + 1) * APPROX_ELEMENTS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


# ------------------------------------------------------------------- bodies

def _cli(argv):
    import fuzzyrough.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return fuzzyrough.cli.main(argv)


def _protocol_body(manifest, out_dir):
    argv = ["benchmark"]
    for path in manifest["datasets"]:
        argv += ["--dataset", path]
    argv += ["--folds", str(FOLDS), "--seed", str(manifest["seed"]), "--out-dir", out_dir]
    return {"exit_code": _cli(argv), "test_rows": sum(manifest["rows"])}


def _classify_body(manifest, out_dir):
    argv = ["classify", "--dataset", manifest["train"], "--test", manifest["test"],
            "--aggregator", "wowa", "--seed", str(manifest["seed"]), "--out-dir", out_dir]
    return {"exit_code": _cli(argv), "test_rows": manifest["test_rows"]}


def _approx_families(fr, o, outliers, n):
    q = fr.QuadraticQuantifier(0.3, 0.9)
    symmetric = fr.symmetric_from_quantifier(q, n)
    confidence = (1.0 - o) / (1.0 - o).sum()
    return (
        ("symmetric", symmetric),
        ("additive", fr.additive_from_weights(fr.WeightVector(confidence))),
        ("dual", fr.dual_measure(symmetric)),
        ("wowa", fr.wowa_measure(q, o)),
        ("ordered_two_block", fr.ordered_two_symmetric(q, o, 0.3, 0.1)),
        ("partial_universal", fr.partial_universal(outliers)),
        ("partial_existential", fr.partial_existential(outliers)),
        ("fuzzy_removal_minimum", fr.fuzzy_removal(o, "minimum")),
        ("fuzzy_removal_product", fr.fuzzy_removal(o, "product")),
        ("fuzzy_removal_lukasiewicz", fr.fuzzy_removal(o, "lukasiewicz")),
    )


def _approx_body(manifest, out_dir):
    """Rows 2f and 2f+1 hold family f's lower and upper approximations; the
    last row is the dual-symmetric upper approximation of the complement."""
    import fuzzyrough as fr
    from fuzzyrough import approx

    arrays = np.load(manifest["arrays"])
    X, labels, o = arrays["X"], arrays["y"], arrays["o"]
    n = labels.size
    ds = fr.DecisionSystem(tuple(f"a{j}" for j in range(X.shape[1])), X, labels)
    relation = fr.build_similarity(ds)
    concept = fr.FuzzySet(relation.universe, (labels == 1).astype(float))
    co_concept = fr.complement(concept)
    outliers = o >= np.sort(o)[-math.ceil(0.1 * n)]
    families = _approx_families(fr, o, outliers, n)
    values = np.empty((2 * len(families) + 1, n))
    for f, (_, mu) in enumerate(families):
        for y in range(n):
            values[2 * f, y] = approx.lower_approximation(
                relation, concept, mu, "kleene_dienes", y)
            values[2 * f + 1, y] = approx.upper_approximation(
                relation, concept, mu, "minimum", y)
    dual_symmetric = families[2][1]
    for y in range(n):
        values[-1, y] = approx.upper_approximation(
            relation, co_concept, dual_symmetric, "minimum", y)
    np.save(os.path.join(out_dir, "values.npy"), values)
    return {"exit_code": 0, "test_rows": 0}


BODIES = {
    "protocol_wdbc": _protocol_body,
    "protocol_many": _protocol_body,
    "classify_large": _classify_body,
    "approx_library": _approx_body,
}


# ------------------------------------------------------------------- checks

def line_hashes(path):
    with open(path, "rb") as fh:
        return [hashlib.sha256(line).hexdigest()[:16] for line in fh.read().splitlines()]


def protocol_hashes(out_dir):
    return {name: line_hashes(os.path.join(out_dir, name)) for name in PROTOCOL_FILES}


def _in_unit(cell):
    try:
        return 0.0 <= float(cell) <= 1.0
    except ValueError:
        return False


def _protocol_faults(out_dir, datasets):
    """Datasets whose rows break an invariant of the report, or None when a
    report-wide one breaks: accuracies and p-values lie in [0, 1], comb's
    usage counts add up to the fold count, p-values are symmetric."""
    tables = {}
    for name in PROTOCOL_FILES:
        with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
            tables[name] = list(csv.reader(fh))
    results, usage, pvalues, _ = (tables[name] for name in PROTOCOL_FILES)
    if (len(results) != datasets + 3 or len(usage) != datasets + 1
            or len(pvalues) != STRATEGIES + 1):
        return None
    bad = set()
    for d in range(datasets):
        if not all(_in_unit(v) for v in results[1 + d][1:]):
            bad.add(d)
        if sum(int(c) for c in usage[1 + d][1:]) != FOLDS:
            bad.add(d)
    p = [row[1:] for row in pvalues[1:]]
    for i in range(STRATEGIES):
        for j in range(STRATEGIES):
            if i != j and (not _in_unit(p[i][j]) or p[i][j] != p[j][i]):
                return None
    return bad


def _check_protocol(manifest, out_dir, first_dir, reference):
    """Checks the report's invariants, then compares it line by line with the
    first run's and with the recorded reference. A bad dataset row of
    results.csv or usage_counts.csv fails that dataset's cells; any other bad
    line (header, mean, median, Wilcoxon) aggregates every cell, so it fails
    them all."""
    datasets = len(manifest["datasets"])
    everything = manifest["operations"]
    bad_datasets = _protocol_faults(out_dir, datasets)
    if bad_datasets is None:
        return everything
    got = protocol_hashes(out_dir)
    expected = [protocol_hashes(first_dir)] if first_dir else []
    if reference is not None:
        expected.append(reference)
    for want in expected:
        for name in PROTOCOL_FILES:
            a, b = got[name], want[name]
            if len(a) != len(b):
                return everything
            for line, (x, z) in enumerate(zip(a, b)):
                if x == z:
                    continue
                if name in PROTOCOL_FILES[:2] and 1 <= line <= datasets:
                    bad_datasets.add(line - 1)
                else:
                    return everything
    return len(bad_datasets) * STRATEGIES * FOLDS


def _check_classify(manifest, out_dir, first_dir, reference):
    """Every row's label is the argmax of its own scores, ties to the smallest
    label, and the file matches the first run's byte for byte."""
    rows_expected = manifest["operations"]
    path = os.path.join(out_dir, "predictions.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = csv.reader(fh)
    labels = [h[len("score_"):] for h in header[2:]]
    failed = abs(rows_expected - len(body))
    for row in body[:rows_expected]:
        scores = [float(s) for s in row[2:]]
        top = max(scores)
        if row[1] != min(lab for lab, s in zip(labels, scores) if s == top):
            failed += 1
    if first_dir:
        mine = line_hashes(path)[1:]
        first = line_hashes(os.path.join(first_dir, "predictions.csv"))[1:]
        failed += sum(a != b for a, b in zip(mine, first)) + abs(len(mine) - len(first))
    return min(failed, rows_expected)


def _check_approx(manifest, out_dir, first_dir, reference):
    """Values lie in [0, 1]; lower_sym(A)(y) = 1 - upper_dual(co A)(y) within
    1e-9; values equal the first run's exactly."""
    values = np.load(os.path.join(out_dir, "values.npy"))
    if values.size != manifest["operations"]:
        return manifest["operations"]
    bad = (values < 0.0) | (values > 1.0) | ~np.isfinite(values)
    duality = np.abs(values[0] - (1.0 - values[-1])) > DUALITY_TOLERANCE
    bad[0] |= duality
    bad[-1] |= duality
    if first_dir:
        bad |= np.load(os.path.join(first_dir, "values.npy")) != values
    return int(bad.sum())


# Each check returns the number of the run's operations whose output is wrong;
# run.py counts a missing or unreadable output as every operation failed.
CHECKS = {
    "protocol_wdbc": _check_protocol,
    "protocol_many": _check_protocol,
    "classify_large": _check_classify,
    "approx_library": _check_approx,
}
