"""Command-line driver: lof-scores, classify, crossval, and benchmark workflows.

All defaults mirror the evaluation protocol the library reproduces: additive
quantifier, t = 0.3, contamination = 0.1, 20 LOF neighbors, minimum t-norm,
5 folds. Outputs are UTF-8 CSV/JSON with LF endings and floats printed at 17
significant digits, so identical configurations yield byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import connectives
from .classifier import AGGREGATOR_KINDS, AggregatorSpec, fit, membership_matrix
from .data import DataFormatError, ingest_csv, load_features
from .evaluation import (
    crossval_accuracies,
    run_benchmark,
    write_csv_rows,
    write_report_csvs,
    write_summary_json,
)
from .outliers import scored_with_labels
from .sets import DomainError


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _add_common(p: argparse.ArgumentParser, multi_dataset: bool = False) -> None:
    if multi_dataset:
        p.add_argument("--dataset", action="append", required=True, metavar="CSV",
                       help="dataset CSV path; repeat the flag for several datasets")
        p.add_argument("--aggregator", choices=AGGREGATOR_KINDS, action="append",
                       default=None, help="strategy to include; repeatable (default: all)")
    else:
        p.add_argument("--dataset", required=True, metavar="CSV", help="dataset CSV path")
        p.add_argument("--aggregator", choices=AGGREGATOR_KINDS, default="owa",
                       help="aggregation strategy (default: owa)")
    p.add_argument("--decision-col", default=None,
                   help="decision column name (default: last column)")
    p.add_argument("--alpha", type=float, default=0.3,
                   help="quadratic quantifier lower knot, used with --quantifier quadratic "
                        "(default: 0.3)")
    p.add_argument("--beta", type=float, default=0.9,
                   help="quadratic quantifier upper knot (default: 0.9)")
    p.add_argument("--quantifier", choices=("additive", "quadratic"), default="additive",
                   help="quantifier family (default: additive, the protocol default)")
    p.add_argument("--t", type=float, default=0.3,
                   help="outlier weight of the two-block measure (protocol default: 0.3)")
    p.add_argument("--contamination", type=float, default=0.1,
                   help="fraction labeled as outliers (protocol default: 0.1)")
    p.add_argument("--lof-k", type=int, default=20,
                   help="LOF neighbor count (protocol default: 20)")
    p.add_argument("--tnorm", choices=connectives.tnorm_kinds(), default=connectives.MINIMUM,
                   help="t-norm for the fuzzy removal measure (protocol default: minimum)")
    p.add_argument("--implicator", choices=connectives.implicator_kinds(),
                   default=connectives.KLEENE_DIENES,
                   help="implicator; the three supported ones coincide on crisp classes")
    p.add_argument("--folds", type=int, default=5,
                   help="cross-validation folds (protocol default: 5)")
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="random seed recorded in all outputs (default: 0)")
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _spec_from(args, kind: str) -> AggregatorSpec:
    return AggregatorSpec(
        kind=kind,
        quantifier=args.quantifier,
        alpha=args.alpha,
        beta=args.beta,
        t=args.t,
        contamination=args.contamination,
        tnorm=args.tnorm,
        lof_k=args.lof_k,
    )


def _config_echo(args) -> dict:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    return echo


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def cmd_lof_scores(args) -> int:
    ds = ingest_csv(args.dataset, args.decision_col)
    scores = scored_with_labels(ds, args.lof_k, args.contamination)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "lof_scores.csv")
    rows = [["instance_id", "class", "raw_lof", "normalized", "label"]]
    for i in range(ds.n):
        rows.append([str(ds.ids[i]), str(ds.y[i]),
                     _fmt(scores.raw[i]), _fmt(scores.normalized[i]),
                     "1" if scores.labels[i] else "0"])
    write_csv_rows(path, rows)
    write_summary_json(os.path.join(args.out_dir, "summary.json"),
                       {"command": "lof-scores", "config": _config_echo(args),
                        "outputs": [path]})
    print(f"wrote {path}")
    return 0


def cmd_classify(args) -> int:
    decision = args.decision_col or _last_column(args.dataset)
    train = ingest_csv(args.dataset, decision)
    spec = _spec_from(args, args.aggregator)
    model = fit(train, spec, seed=args.seed)
    X_test, y_test = load_features(args.test, train.attributes, decision)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "predictions.csv")
    classes = model.classes
    memberships = membership_matrix(model, X_test)
    # ties go to the smallest label: argmax keeps the first of equal maxima
    predictions = np.array(classes, dtype=object)[memberships.argmax(axis=1)]
    rows = [["instance_id", "prediction", *(f"score_{c}" for c in classes)]]
    for i, (label, scores) in enumerate(zip(predictions, memberships)):
        rows.append([str(i), str(label), *(_fmt(v) for v in scores)])
    write_csv_rows(path, rows)
    payload = {"command": "classify", "config": _config_echo(args),
               "decision_column": decision, "resolved_aggregator": model.resolved.kind,
               "outputs": [path]}
    if y_test is not None:
        from .evaluation import balanced_accuracy

        payload["balanced_accuracy"] = balanced_accuracy(y_test, predictions)
    write_summary_json(os.path.join(args.out_dir, "summary.json"), payload)
    print(f"wrote {path}")
    return 0


def _last_column(path: str) -> str:
    import csv as _csv

    with open(path, newline="", encoding="utf-8") as fh:
        header = next(_csv.reader(fh), None)
    if not header:
        raise DataFormatError(f"{path}: file is empty")
    return header[-1].strip()


def cmd_crossval(args) -> int:
    ds = ingest_csv(args.dataset, args.decision_col)
    spec = _spec_from(args, args.aggregator)
    accs, resolved = crossval_accuracies(ds, spec, args.folds, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "crossval.json")
    write_summary_json(path, {
        "command": "crossval",
        "config": _config_echo(args),
        "fold_balanced_accuracies": accs,
        "mean_balanced_accuracy": float(np.mean(accs)),
        "resolved_per_fold": resolved,
    })
    print(f"wrote {path}")
    return 0


def cmd_benchmark(args) -> int:
    datasets = []
    for p in args.dataset:
        name = os.path.splitext(os.path.basename(p))[0]
        datasets.append((name, ingest_csv(p, args.decision_col)))
    kinds = args.aggregator if args.aggregator else list(AGGREGATOR_KINDS)
    specs = [_spec_from(args, k) for k in kinds]
    report = run_benchmark(datasets, specs, k=args.folds, seed=args.seed)
    paths = write_report_csvs(report, args.out_dir)
    summary = os.path.join(args.out_dir, "summary.json")
    write_summary_json(summary, {
        "command": "benchmark",
        "config": _config_echo(args),
        "outputs": paths,
        "failures": report.failures,
        "unreliable_wilcoxon_pairs": [list(p) for p in report.unreliable_pairs],
    })
    for p in paths + [summary]:
        print(f"wrote {p}")
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyrough",
        description="Fuzzy-rough classification and evaluation with Choquet aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lof-scores", help="per-instance LOF scores, normalized, with labels")
    _add_common(p)
    p.set_defaults(func=cmd_lof_scores)

    p = sub.add_parser("classify", help="fit on a training CSV and predict a test CSV")
    _add_common(p)
    p.add_argument("--test", required=True, metavar="CSV", help="test CSV path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("crossval", help="stratified k-fold balanced accuracy for one strategy")
    _add_common(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("benchmark", help="full protocol over several datasets and strategies")
    _add_common(p, multi_dataset=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error during ingestion: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error during computation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error during output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
