"""Command-line driver: lof-scores, classify, crossval, and benchmark workflows.

The strategy knobs default to the fields of ``AggregatorSpec``, the
evaluation protocol the library reproduces; cross-validation uses 5 folds.
Outputs are UTF-8 CSV/JSON with LF endings and floats printed at 17
significant digits, so identical configurations yield byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import connectives
from .classifier import (AGGREGATOR_KINDS, QUANTIFIER_KINDS, AggregatorSpec, FittedModel,
                         resolve_and_score)
from .data import DataFormatError, ingest_csv, load_features
from .evaluation import (
    _fmt,
    _reject_repeats,
    balanced_accuracy,
    crossval_accuracies,
    run_benchmark,
    write_csv_rows,
    write_report_csvs,
    write_summary_json,
)
from .outliers import scored_with_labels
from .sets import DomainError

_DEFAULTS = AggregatorSpec()


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _add_data_flags(p: argparse.ArgumentParser, multi_dataset: bool = False) -> None:
    """The flags every command reads: input, decision column, outlier labelling, output."""
    if multi_dataset:
        p.add_argument("--dataset", action="append", required=True, metavar="CSV",
                       help="dataset CSV path; repeat the flag for several datasets")
    else:
        p.add_argument("--dataset", required=True, metavar="CSV", help="dataset CSV path")
    p.add_argument("--decision-col", default=None,
                   help="decision column name (default: last column)")
    p.add_argument("--contamination", type=float, default=_DEFAULTS.contamination,
                   help="fraction labeled as outliers (protocol default: %(default)s)")
    p.add_argument("--lof-k", type=int, default=_DEFAULTS.lof_k,
                   help="LOF neighbor count (protocol default: %(default)s)")
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _add_strategy_flags(p: argparse.ArgumentParser, multi_dataset: bool = False) -> None:
    """The flags of the commands that classify: strategy, its knobs and the seed."""
    if multi_dataset:
        p.add_argument("--aggregator", choices=AGGREGATOR_KINDS, action="append",
                       default=None, help="strategy to include; repeatable (default: all)")
    else:
        p.add_argument("--aggregator", choices=AGGREGATOR_KINDS, default=_DEFAULTS.kind,
                       help="aggregation strategy (default: %(default)s)")
    p.add_argument("--alpha", type=float, default=_DEFAULTS.alpha,
                   help="quadratic quantifier lower knot, used with --quantifier quadratic "
                        "(default: %(default)s)")
    p.add_argument("--beta", type=float, default=_DEFAULTS.beta,
                   help="quadratic quantifier upper knot (default: %(default)s)")
    p.add_argument("--quantifier", choices=QUANTIFIER_KINDS, default=_DEFAULTS.quantifier,
                   help="quantifier family (default: %(default)s, the protocol default)")
    p.add_argument("--t", type=float, default=_DEFAULTS.t,
                   help="outlier weight of the two-block measure (protocol default: %(default)s)")
    p.add_argument("--tnorm", choices=connectives.tnorm_kinds(), default=_DEFAULTS.tnorm,
                   help="t-norm for the fuzzy removal measure (protocol default: %(default)s)")
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="seed for comb's tie-break and any fold split (default: 0)")


def _spec_from(args, kind: str) -> AggregatorSpec:
    """The spec of one strategy; every other field comes from the flag of its name."""
    knobs = {f.name: getattr(args, f.name) for f in fields(AggregatorSpec) if f.name != "kind"}
    return AggregatorSpec(kind=kind, **knobs)


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


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
    train = ingest_csv(args.dataset, args.decision_col)
    spec = _spec_from(args, args.aggregator)
    model = FittedModel(train)
    X_test, y_test = load_features(args.test, train.attributes, train.decision)
    (resolved,), (memberships,) = resolve_and_score(model, [spec], X_test, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "predictions.csv")
    predictions = model.labels(memberships)
    rows = [["instance_id", "prediction", *(f"score_{c}" for c in model.classes)]]
    for i, (label, scores) in enumerate(zip(predictions, memberships)):
        rows.append([str(i), str(label), *(_fmt(v) for v in scores)])
    write_csv_rows(path, rows)
    payload = {"command": "classify", "config": _config_echo(args),
               "decision_column": train.decision, "resolved_aggregator": resolved.kind,
               "outputs": [path]}
    if y_test is not None:
        payload["balanced_accuracy"] = balanced_accuracy(y_test, predictions)
    write_summary_json(os.path.join(args.out_dir, "summary.json"), payload)
    print(f"wrote {path}")
    return 0


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
    kinds = args.aggregator if args.aggregator else list(AGGREGATOR_KINDS)
    # run_benchmark accepts repeated specs; here a repeated flag would only duplicate columns
    _reject_repeats(kinds, "aggregator")
    datasets = []
    for p in args.dataset:
        name = os.path.splitext(os.path.basename(p))[0]
        datasets.append((name, ingest_csv(p, args.decision_col)))
    specs = [_spec_from(args, k) for k in kinds]
    report = run_benchmark(datasets, specs, k=args.folds, seed=args.seed)
    paths = write_report_csvs(report, args.out_dir)
    summary = os.path.join(args.out_dir, "summary.json")
    # the config records what ran: every strategy and each dataset's decision column
    config = {**_config_echo(args), "aggregator": kinds,
              "decision_col": {name: ds.decision for name, ds in datasets}}
    write_summary_json(summary, {
        "command": "benchmark",
        "config": config,
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
    _add_data_flags(p)
    p.set_defaults(func=cmd_lof_scores)

    p = sub.add_parser("classify", help="fit on a training CSV and predict a test CSV")
    _add_data_flags(p)
    _add_strategy_flags(p)
    p.add_argument("--test", required=True, metavar="CSV", help="test CSV path")
    p.set_defaults(func=cmd_classify)

    for name, func, multi_dataset, summary in (
            ("crossval", cmd_crossval, False,
             "stratified k-fold balanced accuracy for one strategy"),
            ("benchmark", cmd_benchmark, True,
             "full protocol over several datasets and strategies")):
        p = sub.add_parser(name, help=summary)
        _add_data_flags(p, multi_dataset)
        _add_strategy_flags(p, multi_dataset)
        p.add_argument("--folds", type=int, default=5,
                       help="cross-validation folds (protocol default: 5)")
        p.set_defaults(func=func)
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
