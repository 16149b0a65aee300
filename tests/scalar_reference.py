"""The per-row, per-class, per-strategy classifier, kept as a test oracle.

This is the scoring the batched engine replaced: every (row, class,
strategy) triple masks the class complement, builds its own measure and
sorts its own values. The chains are written out here with the same
floating-point operations the measures use, so the batched path must agree
with this module exactly, not merely within a tolerance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from fuzzyrough import connectives
from fuzzyrough.classifier import AggregatorSpec
from fuzzyrough.outliers import top_fraction
from fuzzyrough.quantifiers import weights_from_quantifier


def dot(x, y) -> float:
    """The sum of products of two vectors as the package forms it: numpy's
    pairwise sum of the products, or the plain product at length 1, which
    keeps a lone -0.0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size == 1:
        return x[0] * y[0]
    return np.add.reduce(x * y)


def owa(values, spec: AggregatorSpec) -> float:
    n = values.size
    w = weights_from_quantifier(spec.quantifier_for(n), n)
    desc = values[np.argsort(-values, kind="stable")]
    return float(dot(desc, w.weights))


def _choquet(values, chain_of) -> float:
    order = np.argsort(values, kind="stable")
    fs = values[order]
    chain = chain_of(order)
    if len(fs) == 1:
        return float(fs[0] * chain[0])
    return float(fs[0] * chain[0] + dot(fs[1:] - fs[:-1], chain[1:]))


def _fuzzy_removal_chain(o, tnorm):
    t = connectives.tnorm_fn(tnorm)

    def fold(xs):
        acc = xs[0]
        for v in xs[1:]:
            acc = t(acc, v)
        return float(acc)

    def chain_of(order):
        excluded = o[order]
        out = np.empty(o.size)
        out[0] = 1.0
        for i in range(1, o.size):
            out[i] = fold(excluded[:i])
        return out
    return chain_of


def quadratic(alpha: float, beta: float, p: float) -> float:
    """QuadraticQuantifier(alpha, beta) at one p, piece by piece: 0 up to
    alpha, one parabolic arc up to the midpoint, the other up to beta, then
    1. Each square is a product, as numpy squares an array."""
    if p >= beta:
        return 1.0
    if p <= alpha:
        return 0.0
    span2 = (beta - alpha) ** 2
    if p <= (alpha + beta) / 2.0:
        return 2.0 * ((p - alpha) * (p - alpha)) / span2
    return 1.0 - 2.0 * ((p - beta) * (p - beta)) / span2


def symmetric_chain(quantifier, n):
    """The chain of the symmetric measure Q(|A|/n): Q((n - i)/n) at step i,
    whatever the order."""
    def chain_of(order):
        return np.array([quantifier((n - i) / n) for i in range(n)])
    return chain_of


def dual_chain(chain_of):
    """The chain of the dual measure 1 - mu(complement): 1 at step 0, and at
    step i one minus the inner measure of the first i elements of the order,
    which is step n - i of the inner chain of the reversed order."""
    def dual_of(order):
        n = len(order)
        rev = chain_of(order[::-1])
        return np.array([1.0] + [1.0 - rev[n - i] for i in range(1, n)])
    return dual_of


def _distorted_chain(weights, quantifier):
    def chain_of(order):
        suffix = np.cumsum(weights[order][::-1])[::-1]
        suffix[0] = 1.0
        return np.asarray(quantifier(np.clip(suffix, 0.0, 1.0)), dtype=float)
    return chain_of


def _wowa_weights(o):
    return (1.0 - o) / (o.size - o.sum())


def _two_block_weights(o, t, contamination):
    n = o.size
    k = int(np.ceil((1.0 - contamination) * n))
    rank = np.argsort(o, kind="stable")
    w = np.full(n, t / n)
    w[rank[:k]] += (1.0 - t) / k
    return w


def aggregate(values, o_sub, spec: AggregatorSpec, outliers=None) -> float:
    values = np.asarray(values, dtype=float).ravel()
    o_sub = np.asarray(o_sub, dtype=float).ravel()
    kind = spec.kind
    n = values.size
    if kind == "min":
        return float(values.min())
    if kind == "avg":
        return float(values.mean())
    if kind == "owa":
        return owa(values, spec)
    if kind in ("mino", "avgo", "owao"):
        if outliers is None:
            outliers = top_fraction(o_sub, spec.contamination)
        keep = ~np.asarray(outliers, dtype=bool)
        if not keep.any():
            return aggregate(values, o_sub, replace(spec, kind=kind[:-1]))
        kept = values[keep]
        if kind == "mino":
            return float(kept.min())
        if kind == "avgo":
            return float(kept.mean())
        return owa(kept, spec)
    if kind == "fr":
        return _choquet(values, _fuzzy_removal_chain(o_sub, spec.tnorm))
    q = spec.quantifier_for(n)
    if kind == "wowa":
        return _choquet(values, _distorted_chain(_wowa_weights(o_sub), q))
    if kind == "ts":
        w = _two_block_weights(o_sub, spec.t, spec.contamination)
        return _choquet(values, _distorted_chain(w, q))
    raise AssertionError(f"no reference for {kind!r}")


def class_membership(model, sims, spec, label, exclude=None) -> float:
    """Membership of one row (its similarities ``sims`` to the training fold)
    in one class, optionally leaving training instance ``exclude`` out."""
    scores = model.scores_for(spec)
    mask = ~model.class_masks[label]
    if exclude is not None:
        mask = mask.copy()
        mask[exclude] = False
    if not mask.any():
        return 0.0
    return aggregate(1.0 - sims[mask], scores.normalized[mask], spec, scores.labels[mask])


def memberships(model, S, spec, loo=False) -> np.ndarray:
    """rows x classes memberships of the rows of S; with ``loo`` S is the
    training block and row i leaves instance i out."""
    return np.array([[class_membership(model, S[i], spec, label, i if loo else None)
                      for label in model.classes] for i in range(S.shape[0])])


def predict_index(row_memberships) -> int:
    best_idx, best = 0, -np.inf
    for ci, m in enumerate(row_memberships):
        if m > best:
            best_idx, best = ci, m
    return best_idx
