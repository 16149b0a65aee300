#!/usr/bin/env python3
"""Desk-scale benchmark: all ten strategies, several seeds, reference check.

Runs stratified 5-fold cross-validation for every aggregation strategy on
the four small benchmark datasets (if fetched into data/) and/or on the
bundled wdbc dataset from scikit-learn, averages over seeds, and prints the
per-cell deviation from the published mean balanced accuracies.

  python scripts/run_benchmark.py --wdbc
  python scripts/run_benchmark.py --data-dir data --seeds 0 1 2 --out-dir runs/desk
"""

import argparse
import os
import sys

import numpy as np

from fuzzyrough.classifier import AGGREGATOR_KINDS, default_specs
from fuzzyrough.data import DecisionSystem, ingest_csv
from fuzzyrough.evaluation import run_benchmark, write_report_csvs

# published mean balanced accuracies, same strategy order as AGGREGATOR_KINDS
REFERENCE_ROWS = {
    "appendicitis": (0.739, 0.704, 0.773, 0.768, 0.768, 0.793, 0.768, 0.774, 0.774, 0.754),
    "haberman": (0.540, 0.581, 0.583, 0.625, 0.628, 0.602, 0.622, 0.634, 0.629, 0.634),
    "somerville": (0.566, 0.567, 0.573, 0.623, 0.640, 0.612, 0.624, 0.655, 0.613, 0.583),
    "wisconsin": (0.963, 0.958, 0.958, 0.894, 0.892, 0.922, 0.926, 0.926, 0.926, 0.967),
    "wdbc": (0.942, 0.943, 0.943, 0.911, 0.910, 0.915, 0.923, 0.927, 0.930, 0.943),
}

NAMED = ("appendicitis", "haberman", "somerville", "wisconsin")


def load_datasets(data_dir: str, include_wdbc: bool):
    datasets = []
    for name in NAMED:
        path = os.path.join(data_dir, f"{name}.csv")
        if os.path.exists(path):
            datasets.append((name, ingest_csv(path)))
        else:
            print(f"note: {path} not found, skipping {name}")
    if include_wdbc:
        try:
            from sklearn.datasets import load_breast_cancer
        except ImportError:
            print("note: scikit-learn not installed, cannot load wdbc")
        else:
            raw = load_breast_cancer()
            ds = DecisionSystem(tuple(raw.feature_names), raw.data,
                                np.array([str(v) for v in raw.target], dtype=object))
            datasets.append(("wdbc", ds))
    return datasets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default="data")
    parser.add_argument("--wdbc", action="store_true",
                        help="include the wdbc dataset bundled with scikit-learn")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--out-dir", default=None,
                        help="also write the report CSVs of the last seed here")
    args = parser.parse_args(argv)

    datasets = load_datasets(args.data_dir, args.wdbc)
    if not datasets:
        print("no datasets available; fetch with scripts/fetch_datasets.py or pass --wdbc",
              file=sys.stderr)
        return 1

    specs = default_specs()
    total = None
    for seed in args.seeds:
        report = run_benchmark(datasets, specs, k=args.folds, seed=seed)
        if report.failures:
            print(f"failures at seed {seed}: {report.failures}", file=sys.stderr)
            return 1
        total = report.accuracies if total is None else total + report.accuracies
        print(f"seed {seed} done")
    mean_acc = total / len(args.seeds)
    if args.out_dir:
        write_report_csvs(report, args.out_dir)
        print(f"report CSVs (seed {args.seeds[-1]}) written to {args.out_dir}")

    header = "dataset      " + "".join(f"{s:>8}" for s in AGGREGATOR_KINDS)
    print("\nmean balanced accuracy over seeds", args.seeds)
    print(header)
    worst = 0.0
    for di, (name, _) in enumerate(datasets):
        print(f"{name:13s}" + "".join(f"{mean_acc[di, si]:8.3f}" for si in range(len(specs))))
        if name in REFERENCE_ROWS:
            ref = REFERENCE_ROWS[name]
            diffs = mean_acc[di] - np.array(ref)
            worst = max(worst, float(np.abs(diffs).max()))
            print(f"{'  vs published':13s}" + "".join(f"{d:+8.3f}" for d in diffs))
    print(f"\nlargest deviation from published cells: {worst:.3f} (tolerance 0.05)")
    return 0 if worst <= 0.05 else 1


if __name__ == "__main__":
    sys.exit(main())
