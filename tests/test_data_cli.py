import dataclasses
import json

import numpy as np
import pytest

from fuzzyrough.classifier import AGGREGATOR_KINDS, AggregatorSpec
from fuzzyrough.cli import _spec_from, build_parser, main
from fuzzyrough.data import DataFormatError, ingest_csv, load_features


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


TOY_TRAIN = """f0,f1,label
0.0,0.1,a
0.2,0.0,a
0.1,0.2,a
5.0,5.1,b
5.2,5.0,b
5.1,5.2,b
"""

TOY_TEST = """f0,f1,label
0.05,0.05,a
5.05,5.05,b
"""


class TestIngestCsv:
    def test_basic_shape(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y,cls\n1,2,a\n3,4,b\n5,6,a\n")
        ds = ingest_csv(p)
        assert ds.n == 3
        assert ds.attributes == ("x", "y")
        assert ds.classes == ("a", "b")

    def test_named_decision_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "cls,x\na,1\nb,2\n")
        ds = ingest_csv(p, "cls")
        assert ds.attributes == ("x",)
        assert list(ds.y) == ["a", "b"]

    def test_header_only_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y,cls\n")
        with pytest.raises(DataFormatError):
            ingest_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "")
        with pytest.raises(DataFormatError):
            ingest_csv(p)

    def test_missing_decision_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\n1,2\n")
        with pytest.raises(DataFormatError):
            ingest_csv(p, "cls")

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y,cls\n1,2,a\n1,oops,b\n")
        with pytest.raises(DataFormatError, match=r":3:.*'y'"):
            ingest_csv(p)


def read_with(reader, path):
    """Attributes, features and labels of a file whose decision column is
    ``cls``, read as training data or as test data."""
    if reader == "ingest_csv":
        ds = ingest_csv(path)
        return ds.attributes, ds.X, list(ds.y)
    X, y = load_features(path, ("x", "y"), "cls")
    return ("x", "y"), X, list(y)


@pytest.mark.parametrize("reader", ["ingest_csv", "load_features"])
class TestBothReaders:
    def test_crlf_line_endings(self, tmp_path, reader):
        p = tmp_path / "t.csv"
        p.write_bytes(b"x,y,cls\r\n1,2,a\r\n3,4,b\r\n")
        attributes, X, y = read_with(reader, str(p))
        assert attributes == ("x", "y")
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y == ["a", "b"]

    def test_quoted_numbers(self, tmp_path, reader):
        p = write(tmp_path / "t.csv", 'x,y,cls\n"1.5","2",a\n3,"-4e1",b\n')
        _, X, y = read_with(reader, p)
        assert X.tolist() == [[1.5, 2.0], [3.0, -40.0]]
        assert y == ["a", "b"]

    def test_whitespace_around_names_numbers_and_labels(self, tmp_path, reader):
        p = write(tmp_path / "t.csv", " x , y ,cls \n 1 ,2,  a \n3, 4 ,b\t\n")
        attributes, X, y = read_with(reader, p)
        assert attributes == ("x", "y")
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y == ["a", "b"]

    def test_blank_lines_skipped(self, tmp_path, reader):
        p = write(tmp_path / "t.csv", "x,y,cls\n\n1,2,a\n , , \n3,4,b\n\n")
        _, X, y = read_with(reader, p)
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y == ["a", "b"]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, reader):
        p = tmp_path / "t.csv"
        p.write_bytes("x,y,cls\n1,2,a\n3,4,b\n".encode("utf-8-sig"))
        attributes, X, y = read_with(reader, str(p))
        assert attributes == ("x", "y")
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_repeated_column_name_rejected(self, tmp_path, reader):
        p = write(tmp_path / "t.csv", "x,y,x,cls\n1,2,3,a\n")
        with pytest.raises(DataFormatError, match=r"repeated column names \['x'\]"):
            read_with(reader, p)

    @pytest.mark.parametrize("cell", ["oops", "inf", "-inf", "nan", ""])
    def test_bad_cell_names_line_and_column(self, tmp_path, reader, cell):
        p = write(tmp_path / "t.csv", f"x,y,cls\n1,2,a\n1,{cell},b\n")
        with pytest.raises(DataFormatError, match=r":3:.*'y'"):
            read_with(reader, p)

    def test_bad_cell_after_a_multiline_quoted_label_names_its_line(self, tmp_path, reader):
        p = write(tmp_path / "t.csv", 'x,y,cls\n1,2,"a\nb"\n1,oops,b\n')
        with pytest.raises(DataFormatError, match=r":4:.*'y'"):
            read_with(reader, p)

    def test_wrong_cell_count_names_line(self, tmp_path, reader):
        p = write(tmp_path / "t.csv", "x,y,cls\n1,2,a\n3,4\n")
        with pytest.raises(DataFormatError, match=r":3: expected 3 cells, got 2"):
            read_with(reader, p)


class TestLoadFeatures:
    ATTRIBUTES = ("x", "y")

    def test_columns_matched_by_name(self, tmp_path):
        p = write(tmp_path / "t.csv", "cls,y,x\na,2,1\nb,4,3\n")
        X, y = load_features(p, self.ATTRIBUTES, "cls")
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y.tolist() == ["a", "b"]

    def test_decision_column_optional(self, tmp_path):
        p = write(tmp_path / "t.csv", "y,x\n2,1\n4,3\n")
        X, y = load_features(p, self.ATTRIBUTES, "cls")
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y is None

    def test_missing_attribute_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,cls\n1,a\n")
        with pytest.raises(DataFormatError, match=r"missing attribute columns \['y'\]"):
            load_features(p, self.ATTRIBUTES, "cls")

    def test_extra_column_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y,z,cls\n1,2,3,a\n")
        with pytest.raises(DataFormatError, match=r"unexpected columns \['z'\]"):
            load_features(p, self.ATTRIBUTES, "cls")

    def test_header_only_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "x,y\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_features(p, self.ATTRIBUTES, "cls")


class TestCliDefaults:
    KNOBS = ["--quantifier", "quadratic", "--alpha", "0.2", "--beta", "0.8", "--t", "0.4",
             "--contamination", "0.2", "--lof-k", "7", "--tnorm", "product"]

    @pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
    def test_no_flags_give_the_spec_defaults(self, kind):
        for argv in (["classify", "--test", "t.csv"], ["crossval"], ["benchmark"]):
            args = build_parser().parse_args([*argv, "--dataset", "d.csv"])
            assert _spec_from(args, kind) == AggregatorSpec(kind=kind)

    def test_lof_scores_defaults_are_the_spec_defaults(self):
        args = build_parser().parse_args(["lof-scores", "--dataset", "d.csv"])
        defaults = AggregatorSpec()
        assert (args.lof_k, args.contamination) == (defaults.lof_k, defaults.contamination)

    def test_every_knob_reaches_the_spec(self):
        args = build_parser().parse_args(["crossval", "--dataset", "d.csv", *self.KNOBS])
        spec = _spec_from(args, "ts")
        assert spec == AggregatorSpec(kind="ts", quantifier="quadratic", alpha=0.2, beta=0.8,
                                      t=0.4, contamination=0.2, lof_k=7, tnorm="product")
        defaults = AggregatorSpec(kind="ts")
        for f in dataclasses.fields(AggregatorSpec):
            if f.name != "kind":
                assert getattr(spec, f.name) != getattr(defaults, f.name), f.name

    def test_default_single_strategy_is_the_spec_default(self):
        args = build_parser().parse_args(["classify", "--dataset", "d.csv", "--test", "t.csv"])
        assert args.aggregator == AggregatorSpec().kind


FLAG_VALUES = {"--dataset": "d.csv", "--decision-col": "cls", "--contamination": "0.2",
               "--lof-k": "7", "--out-dir": "out", "--aggregator": "min", "--alpha": "0.2",
               "--beta": "0.8", "--quantifier": "quadratic", "--t": "0.4",
               "--tnorm": "product", "--seed": "3", "--folds": "3", "--test": "t.csv"}
LOF_FLAGS = ("--dataset", "--decision-col", "--contamination", "--lof-k", "--out-dir")
STRATEGY_FLAGS = ("--aggregator", "--alpha", "--beta", "--quantifier", "--t", "--tnorm",
                  "--seed")
COMMAND_FLAGS = {
    "lof-scores": LOF_FLAGS,
    "classify": (*LOF_FLAGS, *STRATEGY_FLAGS, "--test"),
    "crossval": (*LOF_FLAGS, *STRATEGY_FLAGS, "--folds"),
    "benchmark": (*LOF_FLAGS, *STRATEGY_FLAGS, "--folds"),
}
DROPPED_FLAGS = {"lof-scores": (*STRATEGY_FLAGS, "--folds"), "classify": ("--folds",)}


class TestCliFlags:
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_each_command_takes_exactly_the_flags_it_reads(self, command):
        flags = COMMAND_FLAGS[command]
        argv = [command, *(x for flag in flags for x in (flag, FLAG_VALUES[flag]))]
        args = build_parser().parse_args(argv)
        dests = set(vars(args)) - {"command", "func"}
        assert dests == {flag[2:].replace("-", "_") for flag in flags}

    @pytest.mark.parametrize("command", DROPPED_FLAGS)
    def test_dropped_flags_are_usage_errors(self, command, capsys):
        required = ["--test", "t.csv"] if command == "classify" else []
        argv = [command, "--dataset", "d.csv", *required]
        for flag in DROPPED_FLAGS[command]:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, flag, FLAG_VALUES[flag]])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestCliCommands:
    def test_lof_scores_csv(self, tmp_path):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        out = tmp_path / "out"
        assert main(["lof-scores", "--dataset", train, "--lof-k", "2",
                     "--out-dir", str(out)]) == 0
        lines = (out / "lof_scores.csv").read_text().strip().splitlines()
        assert lines[0] == "instance_id,class,raw_lof,normalized,label"
        assert len(lines) == 7
        labels = [line.split(",")[-1] for line in lines[1:]]
        assert labels.count("1") == 1  # ceil(0.1 * 6)

    def test_classify_writes_predictions(self, tmp_path):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        test = write(tmp_path / "test.csv", TOY_TEST)
        out = tmp_path / "out"
        assert main(["classify", "--dataset", train, "--test", test,
                     "--aggregator", "min", "--out-dir", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0].startswith("instance_id,prediction,score_a,score_b")
        assert lines[1].split(",")[1] == "a"
        assert lines[2].split(",")[1] == "b"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["balanced_accuracy"] == 1.0

    def test_classify_accepts_unlabeled_test_file(self, tmp_path):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        test = write(tmp_path / "test.csv", "f0,f1\n0.05,0.05\n5.05,5.05\n")
        out = tmp_path / "out"
        assert main(["classify", "--dataset", train, "--test", test,
                     "--out-dir", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert [l.split(",")[1] for l in lines[1:]] == ["a", "b"]
        assert "balanced_accuracy" not in json.loads((out / "summary.json").read_text())

    def test_classify_reads_the_decision_column_from_the_training_file(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_bytes(TOY_TRAIN.encode("utf-8-sig"))
        test = tmp_path / "test.csv"
        test.write_bytes("label,f1,f0\na,0.05,0.05\nb,5.05,5.05\n".encode("utf-8-sig"))
        out = tmp_path / "out"
        assert main(["classify", "--dataset", str(train), "--test", str(test),
                     "--out-dir", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert [l.split(",")[1] for l in lines[1:]] == ["a", "b"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decision_column"] == "label"
        assert summary["balanced_accuracy"] == 1.0

    def test_crossval_separable_is_perfect(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["f0,label"]
        rows += [f"{v:.3f},a" for v in rng.normal(0, 0.1, 6)]
        rows += [f"{v:.3f},b" for v in rng.normal(9, 0.1, 6)]
        train = write(tmp_path / "sep.csv", "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["crossval", "--dataset", train, "--aggregator", "min",
                     "--folds", "3", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "crossval.json").read_text())
        assert payload["mean_balanced_accuracy"] == 1.0
        assert len(payload["fold_balanced_accuracies"]) == 3

    def test_benchmark_single_cell(self, tmp_path):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        out = tmp_path / "out"
        assert main(["benchmark", "--dataset", train, "--aggregator", "min",
                     "--folds", "2", "--out-dir", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "dataset,Min"
        assert lines[1].startswith("train,")

    def test_benchmark_summary_records_what_ran(self, tmp_path):
        first = write(tmp_path / "first.csv", TOY_TRAIN)
        second = write(tmp_path / "second.csv", TOY_TRAIN.replace("label", "cls"))
        out = tmp_path / "out"
        assert main(["benchmark", "--dataset", first, "--dataset", second,
                     "--folds", "3", "--out-dir", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["aggregator"] == list(AGGREGATOR_KINDS)
        assert config["decision_col"] == {"first": "label", "second": "cls"}
        assert main(["benchmark", "--dataset", first, "--decision-col", "label",
                     "--aggregator", "owa", "--aggregator", "min", "--folds", "3",
                     "--out-dir", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["aggregator"] == ["owa", "min"]
        assert config["decision_col"] == {"first": "label"}

    def test_benchmark_deterministic_bytes(self, tmp_path):
        # identical config (same out dir) and seed: every file byte-identical
        rng = np.random.default_rng(4)
        rows = ["f0,f1,label"]
        rows += [f"{a:.4f},{b:.4f},x" for a, b in rng.normal(0, 1, (8, 2))]
        rows += [f"{a:.4f},{b:.4f},y" for a, b in rng.normal(6, 1, (8, 2))]
        train = write(tmp_path / "train.csv", "\n".join(rows) + "\n")
        out = tmp_path / "out"
        files = ("results.csv", "usage_counts.csv", "wilcoxon_pvalues.csv",
                 "wilcoxon_ranksums.csv", "summary.json")
        snapshots = []
        for _ in range(2):
            assert main(["benchmark", "--dataset", train, "--folds", "2",
                         "--seed", "11", "--out-dir", str(out)]) == 0
            snapshots.append({f: (out / f).read_bytes() for f in files})
        assert snapshots[0] == snapshots[1]

    def test_benchmark_repeated_basename_rejected(self, tmp_path, capsys):
        # both files are named "x" in the reports, which key rows by name
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write(tmp_path / "a" / "x.csv", TOY_TRAIN)
        second = write(tmp_path / "b" / "x.csv", TOY_TRAIN.replace("5.2,5.0", "4.8,5.3"))
        out = tmp_path / "out"
        assert main(["benchmark", "--dataset", first, "--dataset", second,
                     "--aggregator", "comb", "--folds", "2", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "computation" in err
        assert "dataset name 'x' is repeated at positions [0, 1]" in err
        assert not out.exists()

    def test_benchmark_repeated_aggregator_rejected(self, tmp_path, capsys):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        out = tmp_path / "out"
        assert main(["benchmark", "--dataset", train, "--aggregator", "min",
                     "--aggregator", "owa", "--aggregator", "min", "--folds", "2",
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "computation" in err
        assert "aggregator 'min' is repeated at positions [0, 2]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ("crossval", "benchmark"))
    def test_one_fold_rejected(self, tmp_path, capsys, command):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        out = tmp_path / "out"
        assert main([command, "--dataset", train, "--aggregator", "min", "--folds", "1",
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "computation" in err
        assert "cross-validation needs at least 2 folds, got 1" in err
        assert "at least one instance" not in err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path):
        train = write(tmp_path / "train.csv", TOY_TRAIN)
        with pytest.raises(SystemExit):
            main(["crossval", "--dataset", train, "--seed", "-3"])

    def test_ingestion_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "x,y\noops,1\nfine,2\n")
        assert main(["crossval", "--dataset", bad]) == 1
        assert "ingestion" in capsys.readouterr().err

    def test_computation_error_exit_code(self, tmp_path, capsys):
        single = write(tmp_path / "single.csv", "x,label\n1,a\n2,a\n")
        assert main(["crossval", "--dataset", single, "--folds", "2"]) == 1
        assert "computation" in capsys.readouterr().err
