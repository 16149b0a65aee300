"""Every entry point that takes degrees rejects NaN, infinities and values
outside [0, 1] with DomainError, each with its own message."""

import re

import numpy as np
import pytest

import fuzzyrough as fr

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
