"""Value classes keep a read-only copy of the caller's array and leave the
caller's own array writable."""

import numpy as np
import pytest

import fuzzyrough as fr

U = fr.Universe.of_size(3)
LABELS = np.array(["p", "q", "p"], dtype=object)

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
