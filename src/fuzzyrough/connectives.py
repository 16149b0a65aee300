"""Fuzzy logical connectives: t-norms, implicators, negators, induced conjunctors.

All binary connectives are numpy ufunc-compatible, so they apply elementwise
to arrays as well as scalars. User-supplied connectives can be registered and
are checked against the defining axioms on a sampled grid before being
accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sets import DomainError, FuzzySet

MINIMUM = "minimum"
PRODUCT = "product"
LUKASIEWICZ = "lukasiewicz"
KLEENE_DIENES = "kleene_dienes"
REICHENBACH = "reichenbach"
STANDARD = "standard"

_TNORMS = {
    MINIMUM: np.minimum,
    PRODUCT: np.multiply,
    LUKASIEWICZ: lambda x, y: np.maximum(x + y - 1.0, 0.0),
}

_IMPLICATORS = {
    KLEENE_DIENES: lambda x, y: np.maximum(1.0 - x, y),
    REICHENBACH: lambda x, y: 1.0 - x + x * y,
    LUKASIEWICZ: lambda x, y: np.minimum(1.0 - x + y, 1.0),
}

_NEGATORS = {
    STANDARD: lambda x: 1.0 - x,
}


def tnorm_kinds() -> tuple:
    return tuple(_TNORMS)


def implicator_kinds() -> tuple:
    return tuple(_IMPLICATORS)


def negator_kinds() -> tuple:
    return tuple(_NEGATORS)


def _lookup(table: dict, kind: str, what: str):
    try:
        return table[kind]
    except KeyError:
        raise DomainError(f"unknown {what} {kind!r}; known: {sorted(table)}") from None


def _check_degrees(*xs) -> None:
    for x in xs:
        a = np.asarray(x, dtype=float)
        if np.any(a < 0.0) or np.any(a > 1.0) or not np.all(np.isfinite(a)):
            raise DomainError("degrees must lie in [0, 1]")


def tnorm_eval(kind: str, xs) -> float:
    """n-ary fold of a binary t-norm (valid by associativity)."""
    values = np.asarray(xs, dtype=float).ravel()
    if values.size == 0:
        raise DomainError("t-norm of an empty list is undefined")
    return float(tnorm_accumulate(kind, values)[-1])


def tnorm_accumulate(kind: str, xs) -> np.ndarray:
    """Running fold of a t-norm along the last axis: out[..., i] = T(xs[..., :i+1]).

    Each step folds one more element into the previous result, so the whole
    chain costs one t-norm evaluation per element and every entry equals the
    n-ary ``tnorm_eval`` of its prefix exactly.
    """
    values = np.asarray(xs, dtype=float)
    _check_degrees(values)
    t = _lookup(_TNORMS, kind, "t-norm")
    if isinstance(t, np.ufunc):
        return t.accumulate(values, axis=-1)
    out = np.empty(values.shape)
    acc = values[..., 0]
    out[..., 0] = acc
    for i in range(1, values.shape[-1]):
        acc = t(acc, values[..., i])
        out[..., i] = acc
    return out


def implicator_eval(kind: str, x, y):
    _check_degrees(x, y)
    return _lookup(_IMPLICATORS, kind, "implicator")(np.asarray(x, float), np.asarray(y, float))


def negator_eval(kind: str, x):
    _check_degrees(x)
    return _lookup(_NEGATORS, kind, "negator")(np.asarray(x, float))


def induced_conjunctor(implicator: str, negator: str, x, y):
    """Conjunctor obtained from an implicator by double negation: N(I(x, N(y)))."""
    _check_degrees(x, y)
    i = _lookup(_IMPLICATORS, implicator, "implicator")
    n = _lookup(_NEGATORS, negator, "negator")
    return n(i(np.asarray(x, float), n(np.asarray(y, float))))


def conjunctor_fn(implicator: str = KLEENE_DIENES, negator: str = STANDARD):
    """Binary callable for the induced conjunctor of the given pair."""
    i = _lookup(_IMPLICATORS, implicator, "implicator")
    n = _lookup(_NEGATORS, negator, "negator")
    return lambda x, y: n(i(x, n(y)))


def tnorm_fn(kind: str):
    """The raw binary (and elementwise-vectorized) t-norm."""
    return _lookup(_TNORMS, kind, "t-norm")


def complement(a: FuzzySet, negator: str = STANDARD) -> FuzzySet:
    """Pointwise negation on the same universe."""
    n = _lookup(_NEGATORS, negator, "negator")
    return FuzzySet(a.universe, n(a.memberships))


@dataclass(frozen=True)
class ConnectiveSuite:
    """A coherent choice of connectives used throughout the approximations."""

    tnorm: str = MINIMUM
    implicator: str = KLEENE_DIENES
    negator: str = STANDARD

    def __post_init__(self):
        _lookup(_TNORMS, self.tnorm, "t-norm")
        _lookup(_IMPLICATORS, self.implicator, "implicator")
        _lookup(_NEGATORS, self.negator, "negator")


# Registration of user-supplied connectives. Axioms are sampled on a fixed
# grid; violations fail fast so downstream identities can rely on them.

_AXIOM_GRID = np.linspace(0.0, 1.0, 21)


def register_tnorm(kind: str, fn) -> None:
    g = _AXIOM_GRID
    for x in g:
        if abs(fn(1.0, x) - x) > 1e-9 or abs(fn(x, 1.0) - x) > 1e-9:
            raise DomainError("t-norm axiom violated: 1 is not neutral")
        for y in g:
            if abs(fn(x, y) - fn(y, x)) > 1e-9:
                raise DomainError("t-norm axiom violated: not commutative")
            if fn(x, y) < -1e-12 or fn(x, y) > 1 + 1e-12:
                raise DomainError("t-norm axiom violated: range outside [0, 1]")
    for x in g[::4]:
        for y in g[::4]:
            for z in g[::4]:
                if abs(fn(fn(x, y), z) - fn(x, fn(y, z))) > 1e-9:
                    raise DomainError("t-norm axiom violated: not associative")
                if y <= z and fn(x, y) > fn(x, z) + 1e-12:
                    raise DomainError("t-norm axiom violated: not increasing")
    _TNORMS[kind] = fn


def register_implicator(kind: str, fn) -> None:
    g = _AXIOM_GRID
    corners = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 0)]
    for x, y, expect in corners:
        if abs(fn(float(x), float(y)) - expect) > 1e-9:
            raise DomainError("implicator axiom violated: boundary values")
    for x1 in g[::2]:
        for x2 in g[::2]:
            for y in g[::2]:
                if x1 <= x2 and fn(x1, y) < fn(x2, y) - 1e-12:
                    raise DomainError("implicator axiom violated: not decreasing in first argument")
                if x1 <= x2 and fn(y, x1) > fn(y, x2) + 1e-12:
                    raise DomainError("implicator axiom violated: not increasing in second argument")
    _IMPLICATORS[kind] = fn


def register_negator(kind: str, fn) -> None:
    g = _AXIOM_GRID
    if abs(fn(0.0) - 1.0) > 1e-9 or abs(fn(1.0) - 0.0) > 1e-9:
        raise DomainError("negator axiom violated: boundary values")
    for x1 in g:
        for x2 in g:
            if x1 <= x2 and fn(x1) < fn(x2) - 1e-12:
                raise DomainError("negator axiom violated: not non-increasing")
    _NEGATORS[kind] = fn
