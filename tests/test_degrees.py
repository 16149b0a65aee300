"""Every entry point that takes degrees rejects NaN, infinities and values
outside [0, 1] with DomainError, each with its own message; the steps from
outlier scores to a measure, and the Wilcoxon test, reject input they would
otherwise reshape or reinterpret, and so do balanced accuracy and fold
assignment on label rows, the classifier's scoring entries on test rows of
the wrong shape, the approximations on a concept, relation or measure of
another universe, and every count (folds, LOF neighbours) that is not a
whole number."""

import re

import numpy as np
import pytest

import fuzzyrough as fr
from fuzzyrough import classifier, evaluation, outliers

U = fr.Universe.of_size(3)
Q = fr.QuadraticQuantifier(0.3, 0.9)
OK = np.array([0.2, 0.6, 0.5])


def _similarities(bad):
    m = np.eye(3)
    m[0, 1] = m[1, 0] = bad
    return m


# name -> (call on a degree vector holding one bad entry, the site's message)
ENTRY_POINTS = {
    "FuzzySet": (lambda v: fr.FuzzySet(U, v), "memberships must lie in [0, 1]"),
    "implicator_eval x": (lambda v: fr.implicator_eval("lukasiewicz", v, OK),
                          "degrees must lie in [0, 1]"),
    "implicator_eval y": (lambda v: fr.implicator_eval("lukasiewicz", OK, v),
                          "degrees must lie in [0, 1]"),
    "negator_eval": (lambda v: fr.negator_eval("standard", v), "degrees must lie in [0, 1]"),
    "induced_conjunctor x": (lambda v: fr.induced_conjunctor("kleene_dienes", "standard", v, OK),
                             "degrees must lie in [0, 1]"),
    "induced_conjunctor y": (lambda v: fr.induced_conjunctor("kleene_dienes", "standard", OK, v),
                             "degrees must lie in [0, 1]"),
    "tnorm_eval": (lambda v: fr.tnorm_eval("product", v), "degrees must lie in [0, 1]"),
    "quantifier": (lambda v: Q(v), "quantifier argument must lie in [0, 1]"),
    "fuzzy_removal": (lambda v: fr.fuzzy_removal(v), "degrees must lie in [0, 1]"),
    "wowa_measure": (lambda v: fr.wowa_measure(Q, v), "degrees must lie in [0, 1]"),
    "ordered_two_symmetric": (lambda v: fr.ordered_two_symmetric(Q, v, 0.3, 0.1),
                              "degrees must lie in [0, 1]"),
    "SimilarityRelation": (lambda v: fr.SimilarityRelation(U, _similarities(v[1])),
                           "similarities must lie in [0, 1]"),
    "OutlierScores": (lambda v: fr.OutlierScores(np.ones(3), v),
                      "normalized scores must lie in [0, 1]"),
    "aggregate mino": (lambda v: fr.aggregate(OK, v, fr.AggregatorSpec(kind="mino")),
                       "outlier degrees must lie in [0, 1]"),
    "aggregate owao": (lambda v: fr.aggregate(OK, v, fr.AggregatorSpec(kind="owao")),
                       "outlier degrees must lie in [0, 1]"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_degree_rejected_with_the_sites_message(entry, bad):
    call, message = ENTRY_POINTS[entry]
    call(OK)  # the same call with good degrees is accepted
    degrees = OK.copy()
    degrees[1] = bad
    with pytest.raises(fr.DomainError, match=f"^{re.escape(message)}$"):
        call(degrees)


@pytest.mark.parametrize("kind,o_sub", [("mino", [np.nan, 0.0, 0.0]), ("owao", [5.0, -3.0, 0.0])])
def test_aggregate_checks_outlier_degrees(kind, o_sub):
    # these gave 0.2 and 0.3667 when o_sub went unchecked
    with pytest.raises(fr.DomainError, match=r"^outlier degrees must lie in \[0, 1\]$"):
        fr.aggregate([0.4, 0.7, 0.2], o_sub, fr.AggregatorSpec(kind=kind))


MU = fr.partial_universal(np.array([False, True, False]))
BLOCK = np.array([[0.1, 0.9], [0.5, 0.2]])
LABELS = np.array([False, True, False])
# a model of four attributes whose classes each keep three members, as comb needs
MODEL = fr.fit(fr.DecisionSystem(("a0", "a1", "a2", "a3"),
                                 np.array([[0, 1, 2, 3], [1, 1, 2, 2], [0, 2, 1, 3],
                                           [4, 5, 4, 6], [5, 4, 5, 5], [4, 4, 6, 5]], float),
                                 np.array(["a"] * 3 + ["b"] * 3, dtype=object)),
               fr.AggregatorSpec())
ALL = classifier.default_specs()
COMB = [fr.AggregatorSpec(kind="comb")]
MIN = [fr.AggregatorSpec(kind="min")]
R = fr.SimilarityRelation(U, np.eye(3))
A = fr.FuzzySet(U, OK)
ELSEWHERE = fr.FuzzySet(fr.Universe(("x", "y", "z")), OK)
MU3, MU4 = fr.symmetric_from_quantifier(Q, 3), fr.symmetric_from_quantifier(Q, 4)

# name -> (an accepted call, the same entry point on input of the wrong shape
# or type, the site's message); each bad call was read silently, or failed
# with an unrelated error (unhashable label rows), before
REJECTED = {
    "subset indices in rows": (lambda: MU.value([0, 2]), lambda: MU.value([[0], [2]]),
                               "subset indices must form one vector"),
    "subset indices not integers": (lambda: MU.value([0]), lambda: MU.value([0.7]),
                                    "subset indices must be integers"),
    "normalize_scores block": (lambda: fr.normalize_scores(BLOCK[0]),
                               lambda: fr.normalize_scores(BLOCK),
                               "raw scores must form one vector"),
    "top_fraction block": (lambda: outliers.top_fraction(BLOCK[0], 0.25),
                           lambda: outliers.top_fraction(BLOCK, 0.25),
                           "top_fraction labels one vector of degrees"),
    "OutlierScores NaN raw": (lambda: fr.OutlierScores(np.ones(3), OK),
                              lambda: fr.OutlierScores(np.array([np.nan, 1, 1]), OK),
                              "raw scores must be finite"),
    "OutlierScores infinite raw": (lambda: fr.OutlierScores(np.ones(3), OK),
                                   lambda: fr.OutlierScores(np.array([1, np.inf, 1]), OK),
                                   "raw scores must be finite"),
    "OutlierScores 0/1 labels": (lambda: fr.OutlierScores(np.ones(3), OK, LABELS),
                                 lambda: fr.OutlierScores(np.ones(3), OK, LABELS.astype(int)),
                                 "outlier labels must be booleans"),
    "OutlierScores short labels": (lambda: fr.OutlierScores(np.ones(3), OK, LABELS),
                                   lambda: fr.OutlierScores(np.ones(3), OK, LABELS[:2]),
                                   "outlier labels must align with the scores"),
    "OutlierScores label rows": (lambda: fr.OutlierScores(np.ones(3), OK, LABELS),
                                 lambda: fr.OutlierScores(np.ones(3), OK, LABELS[None]),
                                 "outlier labels must align with the scores"),
    "aggregate 0/1 labels": (lambda: fr.aggregate([0.4, 0.7, 0.2], np.zeros(3),
                                                  fr.AggregatorSpec(kind="mino"),
                                                  outliers=[False, False, True]),
                             lambda: fr.aggregate([0.4, 0.7, 0.2], np.zeros(3),
                                                  fr.AggregatorSpec(kind="mino"),
                                                  outliers=[0, 0, 0.3]),
                             "outlier labels must be booleans"),
    "wilcoxon_signed_rank blocks": (lambda: fr.wilcoxon_signed_rank([1, 2], [3, 4]),
                                    lambda: fr.wilcoxon_signed_rank([[1, 2], [3, 4]],
                                                                    np.zeros((2, 2))),
                                    "paired samples must each form one vector"),
    "wilcoxon_signed_rank one block": (lambda: fr.wilcoxon_signed_rank([1, 2, 3, 4],
                                                                       np.zeros(4)),
                                       lambda: fr.wilcoxon_signed_rank([1, 2, 3, 4],
                                                                       np.zeros((2, 2))),
                                       "paired samples must each form one vector"),
    "balanced_accuracy label rows": (lambda: fr.balanced_accuracy(["a", "b"], ["a", "b"]),
                                     lambda: fr.balanced_accuracy([["a"], ["b"]],
                                                                  [["a"], ["b"]]),
                                     "labels must form one vector"),
    "balanced_accuracies label rows": (
        lambda: evaluation.balanced_accuracies(["a", "b"], ("a", "b"), [[0, 1]]),
        lambda: evaluation.balanced_accuracies([["a"], ["b"]], ("a", "b"), [[[0], [1]]]),
        "labels must form one vector"),
    "predict block": (lambda: fr.predict(MODEL, np.zeros(4)),
                      lambda: fr.predict(MODEL, np.zeros((2, 2))),
                      "an instance is one vector of attribute values"),
    "class_memberships block": (lambda: classifier.class_memberships(MODEL, [.1, .2, .3, .4]),
                                lambda: classifier.class_memberships(MODEL, [[.1, .2], [.3, .4]]),
                                "an instance is one vector of attribute values"),
    "similarity_to_test 3-D block": (
        lambda: fr.similarity_to_test(MODEL.train.X, MODEL.sigmas, np.zeros((1, 4))),
        lambda: fr.similarity_to_test(MODEL.train.X, MODEL.sigmas, np.zeros((1, 2, 2))),
        "test instances must form a vector or a 2-D array of rows"),
    "resolve_and_score vector, fused": (
        lambda: classifier.resolve_and_score(MODEL, ALL, np.zeros((1, 4)), 0),
        lambda: classifier.resolve_and_score(MODEL, ALL, np.zeros(4), 0),
        "test instances must form a 2-D array, one instance per row"),
    "resolve_and_score vector, unfused": (
        lambda: classifier.resolve_and_score(MODEL, COMB, np.zeros((1, 4)), 0),
        lambda: classifier.resolve_and_score(MODEL, COMB, np.zeros(4), 0),
        "test instances must form a 2-D array, one instance per row"),
    "resolve_and_score columns, fused": (
        lambda: classifier.resolve_and_score(MODEL, ALL, np.zeros((2, 4)), 0),
        lambda: classifier.resolve_and_score(MODEL, ALL, np.zeros((2, 3)), 0),
        "test instances have 3 attribute columns; the model was fitted on 4"),
    "resolve_and_score columns, unfused": (
        lambda: classifier.resolve_and_score(MODEL, COMB, np.zeros((2, 4)), 0),
        lambda: classifier.resolve_and_score(MODEL, COMB, np.zeros((2, 5)), 0),
        "test instances have 5 attribute columns; the model was fitted on 4"),
    "similarity_to_test columns": (
        lambda: fr.similarity_to_test(MODEL.train.X, MODEL.sigmas, np.zeros(4)),
        lambda: fr.similarity_to_test(MODEL.train.X, MODEL.sigmas, np.zeros(5)),
        "test instances have 5 attribute columns; the model was fitted on 4"),
    "stratified_kfold label column": (
        lambda: fr.stratified_kfold(["a", "b", "a", "b"], 2, 0),
        lambda: fr.stratified_kfold([["a"], ["b"], ["a"], ["b"]], 2, 0),
        "labels must form one vector"),
    "lower_approximation universes": (
        lambda: fr.lower_approximation(R, A, MU3, "lukasiewicz", 0),
        lambda: fr.lower_approximation(R, ELSEWHERE, MU3, "lukasiewicz", 0),
        "concept and relation live on different universes"),
    "lower_approximation measure size": (
        lambda: fr.lower_approximation(R, A, MU3, "lukasiewicz", 0),
        lambda: fr.lower_approximation(R, A, MU4, "lukasiewicz", 0),
        "measure size does not match the universe"),
    "lower_approximation universes first": (
        lambda: fr.lower_approximation(R, A, MU3, "lukasiewicz", 0),
        lambda: fr.lower_approximation(R, ELSEWHERE, MU4, "lukasiewicz", 0),
        "concept and relation live on different universes"),
    "upper_approximation universes": (
        lambda: fr.upper_approximation(R, A, MU3, "minimum", 0),
        lambda: fr.upper_approximation(R, ELSEWHERE, MU3, "minimum", 0),
        "concept and relation live on different universes"),
    "upper_approximation measure size": (
        lambda: fr.upper_approximation(R, A, MU3, "minimum", 0),
        lambda: fr.upper_approximation(R, A, MU4, "minimum", 0),
        "measure size does not match the universe"),
    "upper_approximation universes first": (
        lambda: fr.upper_approximation(R, A, MU3, "minimum", 0),
        lambda: fr.upper_approximation(R, ELSEWHERE, MU4, "minimum", 0),
        "concept and relation live on different universes"),
    # counts must be whole numbers; a numpy integer is one, a bool is not
    "stratified_kfold fractional k": (
        lambda: fr.stratified_kfold(["a", "b", "a", "b"], np.int64(2), 0),
        lambda: fr.stratified_kfold(["a", "b", "a", "b"], 2.5, 0),
        "k must be a whole number, got 2.5"),
    "run_benchmark fractional k": (
        lambda: fr.run_benchmark([("d", MODEL.train)], MIN, k=np.int64(2)),
        lambda: fr.run_benchmark([("d", MODEL.train)], MIN, k=2.5),
        "k must be a whole number, got 2.5"),
    "crossval_accuracies fractional k": (
        lambda: evaluation.crossval_accuracies(MODEL.train, MIN[0], 2, 0),
        lambda: evaluation.crossval_accuracies(MODEL.train, MIN[0], 2.5, 0),
        "k must be a whole number, got 2.5"),
    "lof_scores fractional k": (lambda: fr.lof_scores(MODEL.train.X, np.int32(2)),
                                lambda: fr.lof_scores(MODEL.train.X, 2.5),
                                "k must be a whole number, got 2.5"),
    "per_class_scores fractional k": (lambda: fr.per_class_scores(MODEL.train, 2),
                                      lambda: fr.per_class_scores(MODEL.train, 2.5),
                                      "k must be a whole number, got 2.5"),
    "AggregatorSpec fractional lof_k": (lambda: fr.AggregatorSpec(lof_k=np.int64(3)),
                                        lambda: fr.AggregatorSpec(lof_k=2.5),
                                        "lof_k must be a whole number, got 2.5"),
    "AggregatorSpec boolean lof_k": (lambda: fr.AggregatorSpec(lof_k=1),
                                     lambda: fr.AggregatorSpec(lof_k=True),
                                     "lof_k must be a whole number, got True"),
}


@pytest.mark.parametrize("entry", sorted(REJECTED))
def test_wrong_shape_or_type_rejected_with_the_sites_message(entry):
    good, bad, message = REJECTED[entry]
    good()
    with pytest.raises(fr.DomainError, match=f"^{re.escape(message)}$"):
        bad()
