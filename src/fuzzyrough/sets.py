"""Finite universes and fuzzy sets over them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """An argument falls outside the domain an operation is defined on."""


def frozen_copy(a, dtype=float) -> np.ndarray:
    """A read-only, row-contiguous copy of ``a`` as a ``dtype`` array; the
    caller's array stays writable."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def unit_degrees(a, message: str) -> np.ndarray:
    """``a`` as a float array; DomainError(message) unless each entry is in [0, 1] (NaN is not)."""
    a = np.asarray(a, dtype=float)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise DomainError(message)
    return a


def one_vector(a, message: str) -> np.ndarray:
    """``a`` as a float vector, a scalar as a one-element vector; DomainError(message) otherwise."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1:
        raise DomainError(message)
    return a


def check_whole_number(value, name: str) -> None:
    """DomainError naming ``name`` unless ``value`` is an int or a numpy
    integer; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be a whole number, got {value!r}")


def value_rows(a, what: str) -> np.ndarray:
    """``a`` as a float vector or 2-D array of rows; a scalar is a one-element vector."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim > 2:
        raise DomainError(f"{what} must form a vector or a 2-D array of rows")
    return a


@dataclass(frozen=True)
class Universe:
    """Ordered, index-stable collection of element identifiers."""

    elements: tuple

    def __post_init__(self):
        if len(self.elements) < 1:
            raise DomainError("universe must contain at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("universe identifiers must be unique")

    @classmethod
    def of_size(cls, n: int) -> "Universe":
        return cls(tuple(range(n)))

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, element) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise DomainError(f"{element!r} is not in the universe") from None


@dataclass(frozen=True)
class FuzzySet:
    """Membership degrees in [0, 1], one per universe element."""

    universe: Universe
    memberships: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = unit_degrees(frozen_copy(self.memberships), "memberships must lie in [0, 1]")
        if m.ndim != 1 or len(m) != self.universe.size:
            raise DomainError("membership vector length must match the universe size")
        object.__setattr__(self, "memberships", m)

    @classmethod
    def crisp(cls, universe: Universe, members) -> "FuzzySet":
        """Indicator set of the given member identifiers."""
        idx = [universe.index_of(e) for e in members]
        m = np.zeros(universe.size)
        m[idx] = 1.0
        return cls(universe, m)

    def __call__(self, element) -> float:
        return float(self.memberships[self.universe.index_of(element)])

    def cardinality(self) -> float:
        """Sigma-count: the sum of all membership degrees."""
        return float(self.memberships.sum())


def _check_same_universe(a: FuzzySet, b: FuzzySet) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise DomainError("fuzzy sets live on different universes")


def intersect_min(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    """Pointwise-minimum intersection of two fuzzy sets."""
    _check_same_universe(a, b)
    return FuzzySet(a.universe, np.minimum(a.memberships, b.memberships))
