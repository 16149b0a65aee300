"""Universes and the lookups of fuzzy sets by element identifier."""

import numpy as np
import pytest

from fuzzyrough.sets import DomainError, FuzzySet, Universe

U = Universe(("ann", "bob", "cy"))


def test_index_of_follows_the_universe_order():
    assert [U.index_of(e) for e in ("cy", "ann", "bob")] == [2, 0, 1]


def test_index_of_a_foreign_element():
    with pytest.raises(DomainError, match="^'dee' is not in the universe$"):
        U.index_of("dee")


def test_crisp_is_the_indicator_of_its_members():
    a = FuzzySet.crisp(U, ["cy", "ann"])
    assert np.array_equal(a.memberships, [1.0, 0.0, 1.0])
    assert FuzzySet.crisp(U, []).cardinality() == 0.0


def test_crisp_rejects_a_foreign_member():
    with pytest.raises(DomainError, match="^'dee' is not in the universe$"):
        FuzzySet.crisp(U, ["ann", "dee"])


def test_call_reads_the_membership_of_an_element():
    a = FuzzySet(U, [0.25, 1.0, 0.5])
    assert (a("ann"), a("bob"), a("cy")) == (0.25, 1.0, 0.5)
    assert type(a("cy")) is float
    with pytest.raises(DomainError, match="^'dee' is not in the universe$"):
        a("dee")
