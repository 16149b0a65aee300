"""Each input check of the package raises DomainError with its own message.

One row per check that no other test reaches: a call whose input breaks
exactly that check, and the message the check gives. The t-norm, implicator
and negator rows each pass every axiom checked before the one they break,
and the quantifier rows satisfy Q(0) = 0 and Q(1) = 1. The two weight checks
of ``measures._DistortedAdditiveMeasure`` have no row: every subclass builds
nonnegative weights that sum to 1, so no input reaches them.
"""

import re

import numpy as np
import pytest

import fuzzyrough as fr
from fuzzyrough import (approx, classifier, connectives, evaluation, measures, outliers,
                        quantifiers)

U = fr.Universe.of_size(3)
Q = fr.QuadraticQuantifier(0.3, 0.9)
OK = np.array([0.2, 0.6, 0.5])
ELSEWHERE = fr.Universe(("x", "y", "z"))
DS = fr.DecisionSystem(("a0", "a1"), np.array([[0, 1], [1, 1], [4, 5], [5, 4]], float),
                       np.array(["a", "a", "b", "b"], dtype=object))

FAR = np.random.default_rng(0).normal(size=(40, 3))
FAR[4, 1] = 1e160
FAR_DS = fr.DecisionSystem(("a0", "a1", "a2"), FAR, np.array(["a", "b"] * 20, dtype=object))
OVERFLOW = "LOF neighbor distances overflow to infinity; rescale the attributes"
SCALE_OVERFLOW = "the scale of attribute 'a1' overflows to infinity; rescale the attributes"


def _asymmetric():
    m = np.eye(3)
    m[0, 1] = 0.5
    return m


def _swap(v):
    # exchanges [0.31, 0.47) with [0.47, 0.63): a bijection of [0, 1] that is
    # not monotone, so conjugating the product by it keeps every axiom of a
    # t-norm but monotonicity
    v = np.asarray(v, dtype=float)
    return np.where((v >= 0.31) & (v < 0.47), v + 0.16,
                    np.where((v >= 0.47) & (v < 0.63), v - 0.16, v))


def _wave(v):
    # 0 at 0, 1 at 1, in [0, 1], and not monotone in between
    return np.abs(np.sin(2.5 * np.pi * np.asarray(v, dtype=float)))


def _register(register, fn):
    return lambda: register("axiom_check_test", fn)


def _upper(conjunctor):
    return fr.upper_approximation(fr.SimilarityRelation(U, np.eye(3)), fr.FuzzySet(U, OK),
                                  fr.symmetric_from_quantifier(Q, 3, U), conjunctor, 0)


# name -> (a call breaking exactly one check, the check's message)
CHECKS = {
    "AggregatorSpec kind": (lambda: fr.AggregatorSpec(kind="median"),
                            f"unknown aggregator 'median'; known: {classifier.AGGREGATOR_KINDS}"),
    "AggregatorSpec quantifier": (lambda: fr.AggregatorSpec(quantifier="cubic"),
                                  "quantifier must be 'additive' or 'quadratic'"),
    "AggregatorSpec t": (lambda: fr.AggregatorSpec(t=1.5), "t must lie in [0, 1]"),
    "AggregatorSpec contamination": (lambda: fr.AggregatorSpec(contamination=1.0),
                                     "contamination must lie in [0, 1)"),
    "AggregatorSpec lof_k": (lambda: fr.AggregatorSpec(lof_k=0), "lof_k must be at least 1"),
    "comb_select no candidates": (lambda: fr.comb_select(DS, [], 0),
                                  "need at least one candidate spec"),
    # a seed is a whole number >= 0 at every entry that takes one
    "comb_select seed": (
        lambda: fr.comb_select(DS, [fr.AggregatorSpec(kind="min"), fr.AggregatorSpec()], True),
        "seed must be a whole number, got True"),
    "resolve_and_score seed": (
        lambda: classifier.resolve_and_score(fr.FittedModel(DS), [fr.AggregatorSpec(kind="comb")],
                                             DS.X, -1),
        "seed must be nonnegative, got -1"),
    "fit seed": (lambda: classifier.fit(DS, fr.AggregatorSpec(kind="min"), -1),
                 "seed must be nonnegative, got -1"),
    "FittedModel seed": (lambda: fr.FittedModel(DS, fr.AggregatorSpec(kind="avg"), 2.5),
                         "seed must be a whole number, got 2.5"),
    "crossval_accuracies seed": (
        lambda: evaluation.crossval_accuracies(DS, fr.AggregatorSpec(kind="min"), 2, 2.5),
        "seed must be a whole number, got 2.5"),
    "run_benchmark seed": (
        lambda: fr.run_benchmark([("d", DS)], [fr.AggregatorSpec(kind="min")], 2, -1),
        "seed must be nonnegative, got -1"),
    "stratified_kfold seed": (lambda: fr.stratified_kfold(DS.y, 2, np.int64(-3)),
                              "seed must be nonnegative, got -3"),
    "SimilarityRelation shape": (lambda: fr.SimilarityRelation(U, np.eye(2)),
                                 "similarity matrix shape must match the universe"),
    "SimilarityRelation diagonal": (lambda: fr.SimilarityRelation(U, np.full((3, 3), 0.5)),
                                    "similarity of an element with itself must be 1"),
    "SimilarityRelation symmetry": (lambda: fr.SimilarityRelation(U, _asymmetric()),
                                    "similarity matrix must be symmetric"),
    "attribute_scales one row": (lambda: approx.attribute_scales(DS.subset([0])),
                                 "need at least two instances to estimate scales"),
    "similarity_matrix no attribute": (
        lambda: approx.similarity_matrix(np.zeros((3, 0)), np.zeros(0)),
        "similarity needs at least one attribute"),
    "Valuation length": (lambda: fr.Valuation(U, [0.1, 0.2]),
                         "value vector length must match the universe size"),
    "Valuation infinite": (lambda: fr.Valuation(U, [0.1, np.inf, 0.2]),
                           "valuation values must be finite"),
    "choquet_integral stack": (
        lambda: fr.choquet_integral(OK, fr.fuzzy_removal(np.zeros((2, 3)))),
        "a stack of measures integrates one value row per measure"),
    "choquet_integral universes": (
        lambda: fr.choquet_integral(fr.FuzzySet(ELSEWHERE, OK),
                                    fr.symmetric_from_quantifier(Q, 3, U)),
        "valuation and measure live on different universes"),
    "DecisionSystem one row of values": (lambda: fr.DecisionSystem(("a",), np.zeros(3), ["x"]),
                                         "feature matrix must be two-dimensional"),
    "DecisionSystem no instance": (lambda: fr.DecisionSystem(("a",), np.zeros((0, 1)), []),
                                   "decision system needs at least one instance"),
    "DecisionSystem attribute names": (
        lambda: fr.DecisionSystem(("a", "b"), np.zeros((2, 1)), ["x", "y"]),
        "attribute names must match the feature columns"),
    "DecisionSystem NaN": (lambda: fr.DecisionSystem(("a",), [[0.0], [np.nan]], ["x", "y"]),
                           "all conditional values must be finite numerics"),
    "DecisionSystem labels": (lambda: fr.DecisionSystem(("a",), np.zeros((2, 1)), ["x"]),
                              "decision column length must match the instances"),
    "DecisionSystem ids": (lambda: fr.DecisionSystem(("a",), np.zeros((2, 1)), ["x", "y"],
                                                     ids=(7,)),
                           "instance id count must match the instances"),
    "unknown t-norm kind": (lambda: fr.tnorm_eval("drastic", OK),
                            "unknown t-norm 'drastic'; known: ['lukasiewicz', 'minimum', "
                            "'product']"),
    "t-norm not commutative": (
        _register(connectives.register_tnorm,
                  lambda x, y: x * y * (1 + 0.5 * (x - y) * (1 - x) * (1 - y))),
        "t-norm axiom violated: not commutative"),
    "t-norm range": (
        _register(connectives.register_tnorm, lambda x, y: x * y - 8 * x * (1 - x) * y * (1 - y)),
        "t-norm axiom violated: range outside [0, 1]"),
    "t-norm not associative": (
        _register(connectives.register_tnorm, lambda x, y: x * y * (1 - 0.5 * (1 - x) * (1 - y))),
        "t-norm axiom violated: not associative"),
    "t-norm not increasing": (
        _register(connectives.register_tnorm, lambda x, y: _swap(_swap(x) * _swap(y))),
        "t-norm axiom violated: not increasing"),
    "implicator first argument": (
        _register(connectives.register_implicator, lambda x, y: 1 - _wave(x) + _wave(x) * y),
        "implicator axiom violated: not decreasing in first argument"),
    "implicator second argument": (
        _register(connectives.register_implicator, lambda x, y: 1 - x + x * _wave(y)),
        "implicator axiom violated: not increasing in second argument"),
    "negator boundary": (_register(connectives.register_negator, lambda x: x),
                         "negator axiom violated: boundary values"),
    "negator not non-increasing": (_register(connectives.register_negator, lambda x: 1 - _wave(x)),
                                   "negator axiom violated: not non-increasing"),
    "measure mask length": (
        lambda: fr.symmetric_from_quantifier(Q, 3).value(np.array([True, False])),
        "boolean mask length must match the universe size"),
    # ragged subsets and labels, which numpy cannot make one array of
    "measure ragged subset": (lambda: fr.symmetric_from_quantifier(Q, 3).value([[0], [1, 2]]),
                              "subset indices must form one vector"),
    "partial_universal ragged labels": (lambda: fr.partial_universal([[True], [False, True]]),
                                        "pass n when giving outlier indices"),
    "partial_universal ragged indices": (lambda: fr.partial_universal([[0], [1, 2]], 3),
                                         "subset indices must form one vector"),
    "partial_existential ragged labels": (lambda: fr.partial_existential([[True], [True, False]]),
                                          "pass n when giving outlier indices"),
    "measure empty universe": (lambda: fr.symmetric_from_quantifier(Q, 0),
                               "measures require a nonempty universe"),
    "measure universe size": (lambda: fr.symmetric_from_quantifier(Q, 4, U),
                              "universe size mismatch"),
    "ordered_two_symmetric t": (lambda: fr.ordered_two_symmetric(Q, OK, 1.5, 0.1),
                                "outlier weight t must lie in [0, 1]"),
    "ordered_two_symmetric contamination": (lambda: fr.ordered_two_symmetric(Q, OK, 0.3, 1.0),
                                            "contamination must lie in [0, 1)"),
    "ordered_two_symmetric no degrees": (
        lambda: fr.ordered_two_symmetric(Q, [], 0.3, 0.1),
        "two-symmetric measure needs at least one trusted element"),
    "fuzzy_removal t-norm": (lambda: fr.fuzzy_removal(OK, "drastic"),
                             "unknown t-norm 'drastic'"),
    "normalize_scores empty": (lambda: fr.normalize_scores([]),
                               "cannot normalize an empty score vector"),
    "normalize_scores infinite": (lambda: fr.normalize_scores([1.0, np.inf]),
                                  "raw scores to normalize must be finite"),
    "OutlierScores shapes": (lambda: fr.OutlierScores(np.ones(3), np.zeros(2)),
                             "raw and normalized score shapes must match"),
    "per_class_scores k": (lambda: fr.per_class_scores(DS, 0), "k must be at least 1"),
    # a distance of 1e160 squares to inf: its LOF would be NaN
    "lof_scores overflow": (lambda: fr.lof_scores(FAR, 5), OVERFLOW),
    # both sides of the class size where the neighbor search changes path
    "lof_scores no attribute, exact search": (lambda: fr.lof_scores(np.zeros((90, 0)), 5),
                                              "LOF needs at least one attribute"),
    "lof_scores no attribute, prefiltered search": (
        lambda: fr.lof_scores(np.zeros((100, 0)), 5), "LOF needs at least one attribute"),
    "scored_with_labels overflow": (lambda: outliers.scored_with_labels(FAR_DS, 5, 0.1),
                                    OVERFLOW),
    # the difference of 1e308 and -1e308 overflows before any square does
    "lof_scores difference overflow, exact search": (
        lambda: fr.lof_scores(np.array([[1e308], [-1e308], [0.0]]), 2), OVERFLOW),
    "lof_scores difference overflow, prefiltered search": (
        lambda: fr.lof_scores(np.r_[[1e308, -1e308], np.arange(98.0)][:, None], 2), OVERFLOW),
    # 1e160 squares to inf in the standard deviation: a1 would be ignored
    "attribute_scales overflow": (lambda: approx.attribute_scales(FAR_DS), SCALE_OVERFLOW),
    "fit scale overflow": (lambda: classifier.fit(FAR_DS, fr.AggregatorSpec(kind="owa"), 0),
                           SCALE_OVERFLOW),
    "top_fraction contamination": (lambda: outliers.top_fraction(OK, 1.0),
                                   "contamination must lie in [0, 1)"),
    "WeightVector empty": (lambda: fr.WeightVector(np.zeros(0)),
                           "weight vector must be a nonempty 1-d array"),
    "WeightVector negative": (lambda: fr.WeightVector([-0.5, 1.5]),
                              "weights must be nonnegative"),
    "WeightVector sum": (lambda: fr.WeightVector([0.25, 0.25]),
                         f"weights must sum to 1, got {np.float64(0.5)!r}"),
    "CallableQuantifier decreasing": (lambda: quantifiers.CallableQuantifier(_wave),
                                      "quantifier must be nondecreasing on [0, 1]"),
    "CallableQuantifier below 0": (
        # each step down is within the monotonicity tolerance of 1e-12, the
        # value reached is not within the range's
        lambda: quantifiers.CallableQuantifier(
            lambda p: np.where(p < 0.5, -0.9e-12 * np.minimum(np.rint(p * 1000), 2), 1.0)),
        "quantifier values must lie in [0, 1]"),
    "AdditiveQuantifier n": (lambda: fr.AdditiveQuantifier(0),
                             "additive quantifier requires n >= 1"),
    "weights_from_quantifier n": (lambda: fr.weights_from_quantifier(Q, 0),
                                  "weight vector length must be >= 1"),
    "Universe empty": (lambda: fr.Universe(()), "universe must contain at least one element"),
    "Universe repeated": (lambda: fr.Universe(("a", "a")), "universe identifiers must be unique"),
    "FuzzySet length": (lambda: fr.FuzzySet(U, [0.1, 0.2]),
                        "membership vector length must match the universe size"),
    "wilcoxon_signed_rank lengths": (lambda: fr.wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0]),
                                     "paired samples must be nonempty and of equal length"),
    # sets._reals, reached through value_rows, one_vector and unit_degrees
    "value_rows strings": (lambda: fr.choquet_integral(["a", "b", "c"],
                                                       fr.symmetric_from_quantifier(Q, 3)),
                           "expected real numbers, got <U1 values"),
    "one_vector complex": (lambda: fr.wilcoxon_signed_rank([1.0 + 1.0j, 2.0], [0.0, 0.0]),
                           "expected real numbers, got complex128 values"),
    "unit_degrees objects": (lambda: fr.negator_eval("standard", np.array([0.5], dtype=object)),
                             "expected real numbers, got object values"),
    "_reals ragged": (lambda: fr.choquet_integral([[0.1, 0.2, 0.3], [0.4]],
                                                  fr.symmetric_from_quantifier(Q, 3)),
                      "expected real numbers in a rectangular array, got ragged sequences"),
    # the entries that keep a read-only copy apply the same rule before copying
    "FuzzySet strings": (lambda: fr.FuzzySet(U, ["a", "b", "c"]),
                         "expected real numbers, got <U1 values"),
    "SimilarityRelation complex": (lambda: fr.SimilarityRelation(U, np.eye(3) + 0j),
                                   "expected real numbers, got complex128 values"),
    "OutlierScores strings": (lambda: fr.OutlierScores(["a", "b"], [0.1, 0.2]),
                              "expected real numbers, got <U1 values"),
    "OutlierScores ragged labels": (
        lambda: fr.OutlierScores([1.0, 1.0], [0.0, 0.0], [[True], [False, True]]),
        "outlier labels must be booleans"),
    # aggregate's values are degrees, as its outlier degrees are
    "aggregate values outside [0, 1]": (
        lambda: fr.aggregate([0.5, 1.5], [0.0, 0.0], fr.AggregatorSpec(kind="min")),
        "values to aggregate must lie in [0, 1]"),
    "aggregate NaN values": (
        lambda: fr.aggregate([np.nan, 0.2], [0.0, 0.0], fr.AggregatorSpec(kind="avg")),
        "values to aggregate must lie in [0, 1]"),
    "aggregate ragged labels": (
        lambda: fr.aggregate([0.5, 0.5], [0.0, 0.0], fr.AggregatorSpec(kind="mino"),
                             [[True], [False, True]]),
        "outlier labels must be booleans"),
    "Valuation strings": (lambda: fr.Valuation(U, ["a", "b", "c"]),
                          "expected real numbers, got <U1 values"),
    "WeightVector complex": (lambda: fr.WeightVector([0.5 + 0j, 0.5]),
                             "expected real numbers, got complex128 values"),
    "resolve_and_score strings": (
        lambda: classifier.resolve_and_score(fr.FittedModel(DS), [fr.AggregatorSpec(kind="min")],
                                             [["a", "b"]], 0),
        "expected real numbers, got <U1 values"),
    "DecisionSystem strings": (lambda: fr.DecisionSystem(("a",), [["x"], ["y"]], ["p", "q"]),
                               "expected real numbers, got <U1 values"),
    "DecisionSystem complex": (lambda: fr.DecisionSystem(("a",), [[1 + 1j], [2]], ["p", "q"]),
                               "expected real numbers, got complex128 values"),
    "DecisionSystem ragged": (
        lambda: fr.DecisionSystem(("a",), [[1.0], [2.0, 3.0]], ["p", "q"]),
        "expected real numbers in a rectangular array, got ragged sequences"),
    # what a conjunctor callable returns reaches the integral unconverted
    "upper_approximation complex conjunctor": (
        lambda: _upper(lambda x, y: x * y + 0j), "expected real numbers, got complex128 values"),
    "upper_approximation string conjunctor": (
        lambda: _upper(lambda x, y: np.full(x.shape, "a")), "expected real numbers, got <U1 values"),
    "upper_approximation ragged conjunctor": (
        lambda: _upper(lambda x, y: [[0.1], [0.2, 0.3]]),
        "expected real numbers in a rectangular array, got ragged sequences"),
}

BIG = 1e308
# name -> (a call whose arithmetic overflows, a call on ordinary numbers with
# the same answer); the suite turns an overflow warning into a failure
EXTREMES = {
    "normalize_scores std overflow": (lambda: fr.normalize_scores([BIG, -BIG, 0.0]),
                                      lambda: fr.normalize_scores([1.0, -1.0, 0.0])),
    "normalize_scores mean overflow": (lambda: fr.normalize_scores([BIG, BIG, BIG / 2]),
                                       lambda: fr.normalize_scores([1.0, 1.0, 0.5])),
    # a difference of 1e308 and -1e308 overflows to inf, which ranks last
    "lof_scores difference overflow": (
        lambda: fr.lof_scores(np.array([[1e308], [1e308], [-1e308], [-1e308]]), 1),
        lambda: fr.lof_scores(np.array([[1.0], [1.0], [-1.0], [-1.0]]), 1)),
    # the difference overflows to inf, which still ranks largest
    "wilcoxon_signed_rank difference overflow": (
        lambda: fr.wilcoxon_signed_rank([BIG, 1.0, 2.0], [-BIG, 0.0, 0.5]),
        lambda: fr.wilcoxon_signed_rank([3.0, 1.0, 2.0], [0.0, 0.0, 0.5])),
}


@pytest.mark.parametrize("entry", sorted(CHECKS))
def test_each_check_raises_its_own_message(entry):
    call, message = CHECKS[entry]
    with pytest.raises(fr.DomainError, match=f"^{re.escape(message)}$"):
        call()
    for table in (connectives._TNORMS, connectives._IMPLICATORS, connectives._NEGATORS):
        assert "axiom_check_test" not in table


@pytest.mark.parametrize("entry", sorted(EXTREMES))
def test_overflowing_input_gives_the_answer_of_ordinary_input(entry):
    extreme, ordinary = EXTREMES[entry]
    got, want = extreme(), ordinary()
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


def test_a_fuzzy_set_of_degrees_gives_the_measure_its_universe():
    mu = fr.fuzzy_removal(fr.FuzzySet(ELSEWHERE, OK))
    assert mu.universe == ELSEWHERE
    assert np.array_equal(mu.o, OK)
    assert mu.chain_values(np.arange(3)).tolist() == fr.fuzzy_removal(OK).chain_values(
        np.arange(3)).tolist()
    with pytest.raises(fr.DomainError, match="^universe size mismatch$"):
        measures.FuzzyRemovalMeasure(fr.FuzzySet(U, OK), universe=fr.Universe.of_size(4))


def test_a_vector_of_points_is_one_attribute():
    points = np.array([0.0, 0.5, 1.0, 4.0, 1.5])
    column = outliers.lof_scores(points[:, None], 2)
    assert outliers.lof_scores(points, 2).tobytes() == column.tobytes()
