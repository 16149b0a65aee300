"""Value classes, and the measures built on outlier degrees, keep a read-only
copy of the caller's array and leave the caller's own array writable."""

import numpy as np
import pytest

import fuzzyrough as fr

U = fr.Universe.of_size(3)
LABELS = np.array(["p", "q", "p"], dtype=object)
Q = fr.QuadraticQuantifier(0.3, 0.9)

# name -> (the caller's array, build the object from it, the attribute storing it)
CLASSES = {
    "FuzzySet": (lambda: np.full(3, 0.5), lambda a: fr.FuzzySet(U, a), "memberships"),
    "Valuation": (lambda: np.full(3, 0.5), lambda a: fr.Valuation(U, a), "values"),
    "SimilarityRelation": (lambda: np.eye(3), lambda a: fr.SimilarityRelation(U, a), "matrix"),
    "DecisionSystem X": (lambda: np.zeros((3, 1)),
                         lambda a: fr.DecisionSystem(("f0",), a, LABELS), "X"),
    "DecisionSystem y": (LABELS.copy,
                         lambda a: fr.DecisionSystem(("f0",), np.zeros((3, 1)), a), "y"),
    "WeightVector": (lambda: np.full(4, 0.25), fr.WeightVector, "weights"),
    "OutlierScores raw": (lambda: np.ones(3), lambda a: fr.OutlierScores(a, np.zeros(3)), "raw"),
    "OutlierScores normalized": (lambda: np.full(3, 0.5),
                                 lambda a: fr.OutlierScores(np.ones(3), a), "normalized"),
    "OutlierScores labels": (lambda: np.array([True, False, False]),
                             lambda a: fr.OutlierScores(np.ones(3), np.zeros(3), a), "labels"),
    "FuzzyRemovalMeasure": (lambda: np.array([0.0, 0.5, 0.9]), fr.fuzzy_removal, "o"),
    "FuzzyRemovalMeasure stack": (lambda: np.array([[0.0, 0.5], [0.9, 0.2]]),
                                  fr.fuzzy_removal, "o"),
    "WowaMeasure": (lambda: np.array([0.0, 0.5, 0.9]), lambda a: fr.wowa_measure(Q, a), "o"),
    "OrderedTwoSymmetricMeasure": (lambda: np.array([0.0, 0.5, 0.9]),
                                   lambda a: fr.ordered_two_symmetric(Q, a, 0.3, 0.1), "o"),
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_callers_array_stays_writable_and_detached(name):
    make, build, attr = CLASSES[name]
    caller = make()
    stored = getattr(build(caller), attr)
    before = stored.copy()
    caller.flat[0] = caller.flat[1]  # raised "assignment destination is read-only"
    assert np.array_equal(stored, before)
    assert not stored.flags.writeable


def test_fuzzy_removal_value_ignores_later_writes():
    # a later write to the caller's degrees turned this value from 0.0 into 0.7
    o = np.array([0.0, 0.5, 0.9])
    mu = fr.fuzzy_removal(o)
    o[0] = 0.7
    assert mu.value([1, 2]) == 0.0
    assert mu.o is not o
