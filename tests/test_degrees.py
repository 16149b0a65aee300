"""Every entry point that takes degrees rejects NaN, infinities and values
outside [0, 1] with DomainError, each with its own message; the steps from
outlier scores to a measure, and the Wilcoxon test, reject input they would
otherwise reshape or reinterpret, and so does balanced accuracy on label
rows."""

import re

import numpy as np
import pytest

import fuzzyrough as fr
from fuzzyrough import evaluation, outliers

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
}


@pytest.mark.parametrize("entry", sorted(REJECTED))
def test_wrong_shape_or_type_rejected_with_the_sites_message(entry):
    good, bad, message = REJECTED[entry]
    good()
    with pytest.raises(fr.DomainError, match=f"^{re.escape(message)}$"):
        bad()
