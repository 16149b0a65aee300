"""Fuzzy logical connectives: t-norms, implicators, negators, induced conjunctors.

All binary connectives are numpy ufunc-compatible, so they apply elementwise
to arrays as well as scalars. User-supplied connectives can be registered:
they must work elementwise on arrays too, and are checked against the
defining axioms on a sampled grid before being accepted.
"""

from __future__ import annotations

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
    out = values.copy()
    for i in range(1, values.shape[-1]):
        out[..., i] = t(out[..., i - 1], values[..., i])
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
    return conjunctor_fn(implicator, negator)(np.asarray(x, float), np.asarray(y, float))


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


# Registration of user-supplied connectives. Each axiom is checked once on
# arrays built from a fixed grid, which also rejects a callable that does not
# work elementwise; violations fail fast so downstream identities can rely on
# them.

_AXIOM_GRID = np.linspace(0.0, 1.0, 21)


def _checked(fn):
    """fn for the axiom checks: called on equally shaped arrays, it must give that shape back."""
    def call(*args):
        try:
            out = np.asarray(fn(*args), dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"connectives must work elementwise on arrays: {exc}") from None
        if out.shape != args[0].shape:
            raise DomainError(f"connectives must work elementwise on arrays: inputs of shape "
                              f"{args[0].shape} gave shape {out.shape}")
        return out
    return call


def register_tnorm(kind: str, fn) -> None:
    t = _checked(fn)
    g = _AXIOM_GRID
    one = np.ones_like(g)
    if np.any(np.abs(t(one, g) - g) > 1e-9) or np.any(np.abs(t(g, one) - g) > 1e-9):
        raise DomainError("t-norm axiom violated: 1 is not neutral")
    x, y = np.meshgrid(g, g, indexing="ij")
    xy = t(x, y)
    if np.any(np.abs(xy - t(y, x)) > 1e-9):
        raise DomainError("t-norm axiom violated: not commutative")
    if np.any(xy < -1e-12) or np.any(xy > 1 + 1e-12):
        raise DomainError("t-norm axiom violated: range outside [0, 1]")
    x, y, z = np.meshgrid(g[::4], g[::4], g[::4], indexing="ij")
    if np.any(np.abs(t(t(x, y), z) - t(x, t(y, z))) > 1e-9):
        raise DomainError("t-norm axiom violated: not associative")
    if np.any((y <= z) & (t(x, y) > t(x, z) + 1e-12)):
        raise DomainError("t-norm axiom violated: not increasing")
    _TNORMS[kind] = fn


def register_implicator(kind: str, fn) -> None:
    i = _checked(fn)
    x, y, expect = np.array([(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 0)], dtype=float).T
    if np.any(np.abs(i(x, y) - expect) > 1e-9):
        raise DomainError("implicator axiom violated: boundary values")
    g = _AXIOM_GRID[::2]
    x1, x2, y = np.meshgrid(g, g, g, indexing="ij")
    if np.any((x1 <= x2) & (i(x1, y) < i(x2, y) - 1e-12)):
        raise DomainError("implicator axiom violated: not decreasing in first argument")
    if np.any((x1 <= x2) & (i(y, x1) > i(y, x2) + 1e-12)):
        raise DomainError("implicator axiom violated: not increasing in second argument")
    _IMPLICATORS[kind] = fn


def register_negator(kind: str, fn) -> None:
    n = _checked(fn)
    if np.any(np.abs(n(np.array([0.0, 1.0])) - [1.0, 0.0]) > 1e-9):
        raise DomainError("negator axiom violated: boundary values")
    x1, x2 = np.meshgrid(_AXIOM_GRID, _AXIOM_GRID, indexing="ij")
    if np.any((x1 <= x2) & (n(x1) < n(x2) - 1e-12)):
        raise DomainError("negator axiom violated: not non-increasing")
    _NEGATORS[kind] = fn
