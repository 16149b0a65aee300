"""One scoring pass per fold, bit for bit.

The protocol scores a fold once for all strategies: comb's leave-one-out
rows and the held-out rows in one ``_streamed_memberships`` pass (when all
nine candidates are requested beside comb, as the protocol does), each
distinct strategy once, one quantifier per setting and length in a process,
the sums of products of all rows in one reduction and every strategy's
balanced accuracy from one call. Each piece is checked here against the
per-call code it replaced, by bit pattern where it computes floats.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyrough import classifier
from fuzzyrough.choquet import FAST_SORT_VALUES, _choquet_sorted, _dot_rows, _owa_sorted, sort_rows
from fuzzyrough.classifier import (
    AGGREGATOR_KINDS,
    BASE_KINDS,
    AggregatorSpec,
    FittedModel,
    _streamed_memberships,
    comb_select,
    default_specs,
    fit,
    membership_matrix,
    predict_batch,
    resolve_and_score,
)
from fuzzyrough.cli import main
from fuzzyrough.data import DecisionSystem, ingest_csv
from fuzzyrough.evaluation import (
    _evaluate_fold,
    balanced_accuracies,
    balanced_accuracy,
    run_benchmark,
    stratified_kfold,
)
from fuzzyrough.quantifiers import QuadraticQuantifier, RIMQuantifier, weights_from_quantifier
from fuzzyrough.sets import DomainError
from tests.scalar_reference import dot
from tests.test_batched import _test_rows, decision_systems, specs


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _loop_dot_rows(a, b):
    """One sum of products per row, each row on its own."""
    if b.ndim == 1:
        return np.array([dot(row, b) for row in a])
    return np.array([dot(x, y) for x, y in zip(a, b)])


# values drawn from a tie grid with both zeros, or from a continuous law
TIE_GRID = np.array([0.0, -0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, -1.0 / 7.0])


def _operand(rng, shape, ties):
    if ties:
        return rng.choice(TIE_GRID, size=shape)
    return rng.normal(size=shape)


class TestDotRows:
    """Operands are laid out as the package passes them: contiguous,
    reversed (negative stride) or a column slice such as ``chain[:, 1:]``
    (not contiguous as a whole), and also with gaps between a row's elements
    or in column-major order, as a user-defined measure may return its chain."""

    @given(st.integers(1, 40), st.integers(1, 300), st.booleans(),
           st.sampled_from(("contiguous", "reversed", "column slice", "gapped", "column-major")),
           st.sampled_from(("1-D", "2-D", "2-D reversed", "2-D column slice")),
           st.integers(0, 2**32 - 1))
    def test_equals_one_dot_per_row(self, rows, n, ties, a_kind, b_kind, seed):
        rng = np.random.default_rng(seed)
        a = _operand(rng, (rows, 2 * n + 1), ties)
        a = {"contiguous": a[:, :n].copy(), "reversed": a[:, n:0:-1], "column slice": a[:, 1:n + 1],
             "gapped": a[:, :2 * n:2], "column-major": np.asfortranarray(a[:, :n])}[a_kind]
        if b_kind == "1-D":
            b = _operand(rng, n, ties)
        elif b_kind == "2-D":
            b = _operand(rng, (rows, n), ties)
        elif b_kind == "2-D reversed":
            b = np.cumsum(rng.random((rows, n)), axis=1)[:, ::-1]  # a distorted chain
        else:
            b = _operand(rng, (rows, n + 1), ties)[:, 1:]
        assert np.array_equal(_bits(_dot_rows(a, b)), _bits(_loop_dot_rows(a, b)))

    def test_length_one_rows_keep_negative_zero(self):
        a = np.array([[-0.0], [0.5], [-2.0]])
        for b in (np.array([1.0]), np.array([[1.0], [0.0], [0.0]])):
            got, want = _dot_rows(a, b), _loop_dot_rows(a, b)
            assert np.array_equal(_bits(got), _bits(want))
        assert np.signbit(_dot_rows(a, np.array([1.0]))[0])

    def test_reversed_chain_operand(self):
        # the strided chain of a distorted additive measure
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 300))
        b = np.cumsum(rng.random((40, 300)), axis=1)[:, ::-1]
        assert np.array_equal(_bits(_dot_rows(a, b)), _bits(_loop_dot_rows(a, b)))

    @pytest.mark.parametrize("rows,n", [(3, 1), (5, 2), (7, 40), (20, FAST_SORT_VALUES // 8)])
    @pytest.mark.parametrize("ties", [True, False])
    def test_both_sorted_kernels_equal_their_per_row_products(self, rows, n, ties):
        # the last shape reaches the fast sort of sort_rows
        rng = np.random.default_rng(rows * n)
        values = _operand(rng, (rows, n), ties)
        order, asc = sort_rows(values)
        chain = np.cumsum(rng.random((rows, n)), axis=1)[:, ::-1]
        weights = rng.random(n)
        choquet = []
        for i in range(rows):
            value = asc[i, 0] * chain[i, 0]
            if n > 1:
                value += dot(asc[i, 1:] - asc[i, :-1], chain[i, 1:])
            choquet.append(value)
        owa = [dot(asc[i, ::-1], weights) for i in range(rows)]
        assert np.array_equal(_bits(_choquet_sorted(asc, chain)), _bits(choquet))
        assert np.array_equal(_bits(_owa_sorted(asc, weights)), _bits(owa))


def _reference_balanced_accuracy(y_true, y_pred) -> float:
    """The per-class loop on object arrays that the batched routine replaced."""
    y_true = np.asarray(y_true, dtype=object)
    y_pred = np.asarray(y_pred, dtype=object)
    recalls = []
    for label in sorted(set(y_true.tolist())):
        mask = y_true == label
        recalls.append(float(np.mean(y_pred[mask] == label)))
    return float(np.mean(recalls))


CLASS_NAMES = ("a", "b", "c")


class TestBalancedAccuracies:
    @given(st.integers(2, 3), st.data())
    def test_rows_equal_the_per_class_loop(self, n_classes, data):
        names = CLASS_NAMES[:n_classes]
        y_true = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=30))
        # the labels a model can predict: the training fold's classes, which
        # may lack a class of y_true or hold one y_true lacks
        labels = tuple(sorted(data.draw(st.sets(st.sampled_from(names), min_size=1))))
        rows = data.draw(st.integers(1, 4))
        predicted = np.array(data.draw(st.lists(
            st.lists(st.integers(0, len(labels) - 1), min_size=len(y_true),
                     max_size=len(y_true)), min_size=rows, max_size=rows)))
        got = balanced_accuracies(np.array(y_true, dtype=object), labels, predicted)
        want = [_reference_balanced_accuracy(y_true, [labels[i] for i in row])
                for row in predicted]
        assert np.array_equal(_bits(got), _bits(want))
        for row, value in zip(predicted, want):
            one = balanced_accuracy(y_true, [labels[i] for i in row])
            assert _bits(one) == _bits(value)

    def test_class_absent_from_the_training_fold_scores_zero_recall(self):
        y_true = np.array(["a", "b", "c", "a"], dtype=object)
        got = balanced_accuracies(y_true, ("a", "b"), [[0, 1, 1, 0]])
        assert got.tolist() == [2.0 / 3.0]

    def test_empty_or_misaligned_labels_are_rejected(self):
        with pytest.raises(DomainError, match="nonempty and of equal length"):
            balanced_accuracies(np.array([], dtype=object), ("a",), np.zeros((1, 0), int))
        with pytest.raises(DomainError, match="nonempty and of equal length"):
            balanced_accuracy(["a", "b"], ["a"])


def _singleton_class_dataset():
    """41 rows: 20 of "a", 20 of "b" and one "c", so the fold holding "c"
    tests a class its training fold lacks, and every other training fold has
    a singleton class."""
    rng = np.random.default_rng(41)
    X = np.round(rng.normal(0.0, 1.0, (41, 3)), 1)
    X[20:40] += 0.8
    y = np.array(["a"] * 20 + ["b"] * 20 + ["c"], dtype=object)
    return DecisionSystem(("f0", "f1", "f2"), X, y)


class TestSingletonClassRegression:
    # the fold accuracies the per-spec scoring gave, as hex floats
    WANT = {
        "Min": ("0x1.aaaaaaaaaaaabp-2", "0x1.4p-1", "0x1.4p-1", "0x1.8p-2", "0x1p-1"),
        "OWA": ("0x1p-1", "0x1.4p-1", "0x1p-1", "0x1.4p-1", "0x1.4p-1"),
        "WOWA": ("0x1.5555555555555p-3", "0x1.4p-1", "0x1p-1", "0x1p-1", "0x1.4p-1"),
    }
    MEANS = ("0x1.0444444444445p-1", "0x1.2666666666666p-1", "0x1.eeeeeeeeeeeeep-2")

    def test_accuracies_unchanged(self, fold_accuracies):
        specs_ = [AggregatorSpec(kind=k) for k in ("min", "owa", "wowa")]
        report = run_benchmark([("single", _singleton_class_dataset())], specs_, k=5, seed=0)
        assert report.failures == {}
        for si, (name, want) in enumerate(self.WANT.items()):
            assert report.spec_names[si] == name
            got = [accs[si] for accs in fold_accuracies]
            assert got == [float.fromhex(h) for h in want]
        assert report.accuracies[0].tolist() == [float.fromhex(h) for h in self.MEANS]


def _comb_datasets():
    """decision_systems whose every class keeps two members, as comb's
    leave-one-out needs."""
    return decision_systems().filter(lambda ds: min(Counter(ds.y.tolist()).values()) >= 2)


def _comb_select_or_itself(model, spec, seed):
    if spec.kind != "comb":
        return spec
    return comb_select(model, [replace(spec, kind=k) for k in BASE_KINDS], seed)


class TestFusedFold:
    @given(_comb_datasets(), st.lists(specs(kinds=AGGREGATOR_KINDS), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_equals_comb_select_then_per_spec_scoring(self, ds, spec_list, seed, all_kinds,
                                                      data):
        # with every candidate requested the held-out rows join the leave-one-out pass
        spec_list += default_specs() if all_kinds else [AggregatorSpec(kind="comb")]
        model = FittedModel(ds)
        X_test = _test_rows(data, ds)
        resolved, got = resolve_and_score(model, spec_list, X_test, seed)
        want_resolved = [_comb_select_or_itself(model, spec, seed) for spec in spec_list]
        assert resolved == want_resolved
        want = [_streamed_memberships(model, X_test, [spec])[0] for spec in want_resolved]
        assert np.array_equal(_bits(got), _bits(want))

    @given(_comb_datasets(), st.integers(2, 3), st.integers(0, 2**16))
    def test_fold_accuracies_equal_the_per_spec_path(self, ds, k, seed):
        plan = stratified_kfold(ds.y, k, seed)
        for fold in range(k):
            train_idx, test_idx = plan.train_test(fold)
            if test_idx.size == 0:
                continue
            train, test = ds.subset(train_idx), ds.subset(test_idx)
            counts = Counter(train.y.tolist())
            if len(counts) < 2 or min(counts.values()) < 2:
                continue  # comb's leave-one-out is undefined on this fold
            accs, kinds = _evaluate_fold(ds, plan, fold, default_specs(), seed)
            models = [fit(train, spec, seed) for spec in default_specs()]
            want = [_reference_balanced_accuracy(test.y, predict_batch(model, test.X))
                    for model in models]
            assert np.array_equal(_bits(accs), _bits(want))
            assert kinds == [model.resolved.kind for model in models]


def _protocol_fold():
    ds = _singleton_class_dataset()
    ds = ds.subset(np.flatnonzero(ds.y != "c"))
    return ds, stratified_kfold(ds.y, 5, 0)


class TestOnePassPerFold:
    def _recorded_passes(self, monkeypatch, spec_list):
        passes = []
        original = classifier._streamed_memberships

        def recording(model, X, specs_, loo=False):
            passes.append((list(specs_), loo, X.shape[0]))
            return original(model, X, specs_, loo)

        monkeypatch.setattr(classifier, "_streamed_memberships", recording)
        ds, plan = _protocol_fold()
        _evaluate_fold(ds, plan, 0, spec_list, 7)
        return passes, plan

    def test_comb_and_held_out_rows_share_one_pass(self, monkeypatch):
        passes, plan = self._recorded_passes(monkeypatch, default_specs())
        train_idx, test_idx = plan.train_test(0)
        assert len(passes) == 1
        scored, loo, rows = passes[0]
        assert loo and rows == train_idx.size + test_idx.size
        assert len(set(scored)) == len(scored) == len(AGGREGATOR_KINDS) - 1

    def test_specs_outside_comb_are_scored_once_on_held_out_rows(self, monkeypatch):
        other = AggregatorSpec(kind="owa", quantifier="quadratic")
        spec_list = default_specs() + [other, AggregatorSpec(kind="min"), other]
        passes, plan = self._recorded_passes(monkeypatch, spec_list)
        assert [loo for _, loo, _ in passes] == [True, False]
        assert passes[1][0] == [other] and passes[1][2] == plan.train_test(0)[1].size
        scored = [spec for group, _, _ in passes for spec in group]
        assert len(set(scored)) == len(scored)

    @pytest.mark.parametrize("extra", [[], ["min"], ["min", "owa", "wowa"]])
    def test_comb_without_all_candidates_scores_held_out_rows_once(self, monkeypatch, extra):
        """Fusing would score the held-out rows under candidates nobody asked
        for, so comb's leave-one-out covers the training rows alone and the
        held-out rows get one pass under the resolved specs."""
        spec_list = [AggregatorSpec(kind="comb")] + [AggregatorSpec(kind=k) for k in extra]
        passes, plan = self._recorded_passes(monkeypatch, spec_list)
        train_idx, test_idx = plan.train_test(0)
        assert [(loo, rows) for _, loo, rows in passes] == [(True, train_idx.size),
                                                            (False, test_idx.size)]
        choice = passes[1][0][0]
        assert choice.kind in BASE_KINDS
        assert passes[1][0] == list(dict.fromkeys([choice] + spec_list[1:]))

    def test_one_quantifier_per_setting_and_length(self, monkeypatch):
        """Quantifiers and OWA weights are built once per process: over two
        folds of additive and quadratic specs each setting's quantifier, and
        its weights for each length, are built once, and the shared weights
        are read-only."""
        built, weighed, arrays = Counter(), Counter(), []
        validate = RIMQuantifier.__init__

        def knots_or_length(q):
            return (q.alpha, q.beta) if isinstance(q, QuadraticQuantifier) else q.n

        def counting_init(q):
            validate(q)
            built[knots_or_length(q)] += 1

        def counting_weights(q, n):
            weighed[(knots_or_length(q), n)] += 1
            w = weights_from_quantifier(q, n)
            arrays.append(w.weights)
            return w

        classifier._quantifier.cache_clear()
        classifier._owa_weights.cache_clear()
        monkeypatch.setattr(RIMQuantifier, "__init__", counting_init)
        monkeypatch.setattr(classifier, "weights_from_quantifier", counting_weights)
        ds, plan = _protocol_fold()
        spec_list = default_specs() + [replace(spec, quantifier="quadratic")
                                       for spec in default_specs()]
        needed, setting = [], AggregatorSpec._setting

        def recording(spec, n):
            needed[-1].add(setting(spec, n))
            return setting(spec, n)

        monkeypatch.setattr(AggregatorSpec, "_setting", recording)
        for fold in (0, 1):
            needed.append(set())
            _evaluate_fold(ds, plan, fold, spec_list, 7)
        assert needed[0] & needed[1]  # settings both folds use
        assert built[(0.3, 0.9)] == 1 and max(built.values()) == 1
        assert len(built) == classifier._quantifier.cache_info().misses
        assert weighed and max(weighed.values()) == 1
        assert len(weighed) == classifier._owa_weights.cache_info().misses
        assert arrays and not any(w.flags.writeable for w in arrays)


def _gaussian_fold(seed):
    """40 training rows of two overlapping classes, and 10 test rows."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (20, 3)), rng.normal(0.7, 1.3, (20, 3))])
    y = np.array(["a"] * 20 + ["b"] * 20, dtype=object)
    return DecisionSystem(("f0", "f1", "f2"), X, y), rng.normal(0.3, 1.2, (10, 3))


def _write_csv(path, X, y=None):
    header = [f"f{j}" for j in range(X.shape[1])] + ([] if y is None else ["class"])
    lines = [",".join(header)]
    for i, row in enumerate(X.tolist()):
        lines.append(",".join([*map(repr, row), *([] if y is None else [str(y[i])])]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _best_candidates(model) -> int:
    """How many of comb's candidates share the best leave-one-out accuracy."""
    loo = _streamed_memberships(model, model.train.X, default_specs()[:-1], loo=True)
    accs = balanced_accuracies(model.train.y, model.classes, loo.argmax(axis=-1))
    return int(np.sum(accs >= accs.max() - 1e-12))


class TestOneChoice:
    """Comb is chosen by one routine, whichever entry asks."""

    @pytest.mark.parametrize("data_seed,seeds,tied", [(1, (0, 1), True), (0, (0, 1), False)])
    def test_classify_comb_equals_fit_then_membership_matrix(self, tmp_path, data_seed, seeds,
                                                             tied):
        train, X_test = _gaussian_fold(data_seed)
        assert (_best_candidates(FittedModel(train)) > 1) == tied
        train_csv = _write_csv(tmp_path / "train.csv", train.X, train.y)
        test_csv = _write_csv(tmp_path / "test.csv", X_test)
        picked = set()
        for seed in seeds:
            out = tmp_path / f"out{seed}"
            assert main(["classify", "--dataset", train_csv, "--test", test_csv,
                         "--aggregator", "comb", "--seed", str(seed),
                         "--out-dir", str(out)]) == 0
            model = fit(ingest_csv(train_csv), AggregatorSpec(kind="comb"), seed)
            want = membership_matrix(model, X_test)
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            assert summary["resolved_aggregator"] == model.resolved.kind
            text = (out / "predictions.csv").read_text(encoding="utf-8")
            rows = list(csv.reader(text.splitlines()))[1:]
            assert [row[1] for row in rows] == model.labels(want).tolist()
            got = np.array([[float(v) for v in row[2:]] for row in rows])
            assert np.array_equal(_bits(got), _bits(want))
            picked.add(model.resolved.kind)
        # the tie is broken by the seed; without one the seed changes nothing
        assert (len(picked) > 1) == tied

    def test_every_entry_reaches_the_one_routine_once(self, monkeypatch, tmp_path):
        groups = []
        original = classifier._choose

        def recording(model, groups_, seed, X_test=None):
            groups.append(len(groups_))
            return original(model, groups_, seed, X_test)

        monkeypatch.setattr(classifier, "_choose", recording)
        train, X_test = _gaussian_fold(1)
        comb = AggregatorSpec(kind="comb")
        quadratic = replace(comb, quantifier="quadratic")
        model = FittedModel(train)
        calls = {
            "fit": lambda: fit(train, comb, 3),
            "fit without comb": lambda: fit(train, AggregatorSpec(kind="min"), 3),
            "comb_select": lambda: comb_select(train, default_specs()[:-1], 3),
            "resolve_and_score": lambda: resolve_and_score(
                model, [comb, quadratic, comb, AggregatorSpec(kind="min")], X_test, 3),
            "resolve_and_score, fused": lambda: resolve_and_score(
                model, default_specs(), X_test, 3),
            "classify": lambda: main([
                "classify", "--dataset", _write_csv(tmp_path / "train.csv", train.X, train.y),
                "--test", _write_csv(tmp_path / "test.csv", X_test), "--aggregator", "comb",
                "--out-dir", str(tmp_path / "out")]),
        }
        want = {"fit": [1], "fit without comb": [], "comb_select": [1],
                "resolve_and_score": [2], "resolve_and_score, fused": [1], "classify": [1]}
        for name, call in calls.items():
            groups.clear()
            call()
            assert groups == want[name], name
