"""Deterministic bit-for-bit cases for the classifier's row-group scoring.

The Hypothesis properties of ``tests/test_batched.py`` draw small grids.
These cases pin the layouts those draws rarely reach: shared and per-row
labels with every element labelled or one element kept, unlabelled rows
long enough for numpy's pairwise sums, leave-one-out rows that delete the
first or the last aggregated column next to held-out rows, and two-block
weights with ties at zero. Every value is compared with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from fuzzyrough import classifier
from fuzzyrough.choquet import sort_rows
from fuzzyrough.classifier import AggregatorSpec, _aggregate_rows, _row_groups, _unlabelled
from fuzzyrough.measures import OrderedTwoSymmetricMeasure, WowaMeasure
from fuzzyrough.outliers import OutlierScores
from fuzzyrough.quantifiers import AdditiveQuantifier, QuadraticQuantifier
from tests import scalar_reference

UNLABELLED_KINDS = ("mino", "avgo", "owao")


def _spread_rows(rows, n, seed=5):
    """Values in [0, 1] whose magnitudes span twelve decades, so a row's
    pairwise sum and its sequential sum differ in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.random((rows, n)) ** rng.uniform(1.0, 12.0, (rows, n))


def _check_unlabelled(values, labels):
    """mino, avgo and owao of every row equal the scalar reference, and every
    kept block is row-contiguous."""
    order, asc = sort_rows(values)
    for rows, kept, kept_asc in _unlabelled(values, order, asc, labels):
        assert kept.flags.c_contiguous and kept_asc.flags.c_contiguous
        assert np.array_equal(kept_asc, np.sort(kept, axis=1))
    specs = [AggregatorSpec(kind=k, quantifier=q) for k in UNLABELLED_KINDS
             for q in ("additive", "quadratic")]
    got = _aggregate_rows(values, np.zeros(values.shape), labels, specs)
    row_labels = np.broadcast_to(labels, values.shape)
    for i, spec in enumerate(specs):
        want = [scalar_reference.aggregate(row, np.zeros(row.size), spec, outliers=lab)
                for row, lab in zip(values, row_labels)]
        assert got[i].tolist() == want, spec


@pytest.mark.parametrize("labelled", [(), (3,), tuple(range(1, 24)), tuple(range(24)),
                                      (0, 5, 6, 7, 19, 23)])
def test_shared_labels_keep_the_same_columns_in_every_row(labelled):
    values = _spread_rows(7, 24)
    labels = np.zeros(24, dtype=bool)
    labels[list(labelled)] = True
    _check_unlabelled(values, labels)


def test_per_row_labels_group_rows_by_how_many_they_keep():
    values = _spread_rows(6, 20, seed=8)
    labels = np.zeros((6, 20), dtype=bool)
    labels[1] = True  # every element labelled: the row keeps them all
    labels[2, 1:] = True  # one element kept
    labels[3, :19] = True  # one element kept, another one
    labels[4, ::3] = True
    labels[5, 2] = True
    _check_unlabelled(values, labels)


def test_a_column_block_taken_as_is_moves_the_bits():
    # what the contiguity copy guards: numpy sums the rows of the bare
    # column selection in another order
    values = _spread_rows(7, 24)
    keep = np.ones(24, dtype=bool)
    keep[3] = False
    bare = values[:, keep]
    assert not bare.flags.c_contiguous
    copied = np.ascontiguousarray(bare)
    assert not np.array_equal(bare.mean(axis=1), copied.mean(axis=1))
    assert copied.mean(axis=1).tolist() == [row[keep].mean() for row in values]


def _expected_groups(S, cols, o, labels, loo_start):
    """{row: (values, degrees, labels)} as a row deleting its own column sees them."""
    out = {}
    for r in range(S.shape[0]):
        keep = cols != r + loo_start
        if keep.any():
            out[r] = (1.0 - S[r, cols[keep]], o[keep], labels[keep])
    return out


@pytest.mark.parametrize("cols,loo_start", [
    ([0, 2, 3, 6], 0),  # the first column deleted by row 0
    ([1, 2, 4, 7], 0),  # the last column deleted by row 7
    ([0, 3, 7], 0),  # both ends
    ([2, 5], 2),  # a later block whose first row deletes the first column
    ([9], 9),  # a lone column deleted: nothing left for that row
])
def test_leave_one_out_rows_delete_their_own_column(cols, loo_start):
    # 8 training instances; S's rows are instances loo_start, loo_start + 1,
    # ... and then held-out rows, whose instance numbers fall past every column
    rng = np.random.default_rng(13)
    cols = np.array(cols)
    S = rng.random((10 - loo_start + 3, 10))
    degrees = rng.random(10)
    scores = OutlierScores(degrees, degrees, degrees > 0.5)
    want = _expected_groups(S, cols, degrees[cols], scores.labels[cols], loo_start)
    seen = set()
    for rows, values, o, labels in _row_groups(S, cols, scores, loo_start):
        assert rows.size and not seen & set(rows.tolist())
        seen |= set(rows.tolist())
        for i, r in enumerate(rows):
            expected = want[int(r)]
            assert values[i].tolist() == expected[0].tolist()
            for got, exp in ((o, expected[1]), (labels, expected[2])):
                assert np.array_equal(got if got.ndim == 1 else got[i], exp)
    assert seen == set(want)
    held_out = set(range(10 - loo_start, S.shape[0]))
    assert held_out <= seen


@pytest.mark.parametrize("o", [
    np.array([0.0, 0.0, 0.0, 0.4, 0.0, 1.0, 0.0]),
    np.zeros(5),
    np.array([[0.0, 0.0, 0.3, 0.0, 0.0, 1.0],
              [0.2, 0.0, 0.0, 0.0, 0.7, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [1.0, 1.0, 0.0, 1.0, 0.0, 0.5]]),
])
@pytest.mark.parametrize("t,contamination", [(0.3, 0.4), (0.0, 0.1), (1.0, 0.9), (0.7, 0.0)])
def test_two_block_weights_equal_the_scalar_reference(o, t, contamination):
    mu = OrderedTwoSymmetricMeasure(AdditiveQuantifier(o.shape[-1]), o, t, contamination)
    want = [scalar_reference._two_block_weights(row, t, contamination) for row in np.atleast_2d(o)]
    assert mu.base_weights.shape == o.shape
    assert np.atleast_2d(mu.base_weights).tolist() == [w.tolist() for w in want]


def test_distortion_clamps_with_the_bits_of_clip():
    # the clamp to [0, 1] before the quantifier keeps a lone -0.0 and NaN
    # where the clip method does; the quantifier itself rejects NaN
    mu = WowaMeasure(QuadraticQuantifier(0.0, 1.0), np.zeros(3))
    mu.quantifier = lambda clamped: clamped
    for p in (np.array([-0.0, 0.0, np.nan, -1e-300, 1.0 + 1e-15, 0.5, -np.inf, np.inf]),
              np.full((3, 17), -0.0), np.float64(-0.0), np.float64(np.nan)):
        assert np.asarray(mu._distort(p)).tobytes() == np.asarray(p.clip(0.0, 1.0)).tobytes()


def test_comb_candidates_are_built_once_per_spec():
    spec = AggregatorSpec(kind="comb", t=0.7, lof_k=5)
    first = classifier._candidates(spec)
    assert first is classifier._candidates(AggregatorSpec(kind="comb", t=0.7, lof_k=5))
    assert [c.kind for c in first] == list(classifier.BASE_KINDS)
    assert all(c.t == 0.7 and c.lof_k == 5 for c in first)
    assert classifier._candidates.cache_info().maxsize == classifier.MEMO_SIZE
