"""The paper's robustness claim, checked offline: a pre-registered label-noise study.

The abstract says the Choquet form "enables the seamless integration of
outlier detection algorithms, to enhance the robustness". Training labels
are flipped at random, the noisy-label protocol of Frenay & Verleysen (IEEE
TNNLS 2014), and the outlier-aware ``wowa`` is compared with the plain
``min``. The design was fixed before the first run:

- two Gaussian classes, N(0, 1) and N(0.7, 1.3), 150 rows each with 5
  attributes, drawn by the generator of the seed;
- the protocol's defaults, stratified 5 folds, seeds 0 to 9;
- training labels flipped at rates 0, 0.1 and 0.2: one Bernoulli draw per
  training row per fold, from a generator seeded by (seed, rate index);
  held-out labels stay clean;
- a seed's score is its mean balanced accuracy over the folds.

Asserted: (a) ``wowa`` scores at least ``min`` on every seed at every rate,
and (b) ``min``'s mean drop from rate 0 to rate 0.2 exceeds ``wowa``'s.

Mean balanced accuracy over the 10 seeds, with ``fr`` and ``owa`` scored
on the same folds:

| rate | min | wowa | fr | owa |
|---|---|---|---|---|
| 0 | 0.665 | 0.715 | 0.675 | 0.712 |
| 0.1 | 0.639 | 0.716 | 0.645 | 0.710 |
| 0.2 | 0.597 | 0.705 | 0.611 | 0.697 |

So (a) holds on 10 of 10 seeds at each rate, and for (b) ``min`` drops
0.068 and ``wowa`` 0.010. Two weaker results are recorded, not asserted:

- ``fr`` beats ``min`` on only 9, 8 and 9 of the 10 seeds.
- Plain ``owa`` is nearly as robust as ``wowa``: ``wowa`` beats it on 5, 7
  and 7 of the 10 seeds, by 0.003, 0.006 and 0.008 in the mean. The gain
  from outlier scores over OWA grows with noise but is not steady per seed.

If a change breaks (a) or (b), that is a finding to report; the seeds,
rates and shapes stay as they are.
"""

import numpy as np
import pytest

from fuzzyrough.classifier import AggregatorSpec, FittedModel, resolve_and_score
from fuzzyrough.data import DecisionSystem
from fuzzyrough.evaluation import balanced_accuracies, stratified_kfold

SEEDS = range(10)
RATES = (0.0, 0.1, 0.2)
ROWS, ATTRIBUTES, FOLDS = 150, 5, 5


def mean_accuracies(seed: int, rate_index: int, kinds) -> np.ndarray:
    """Each strategy's balanced accuracy on clean held-out labels, trained on
    labels flipped at ``RATES[rate_index]``, averaged over the folds."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, size=(ROWS, ATTRIBUTES)),
                   rng.normal(0.7, 1.3, size=(ROWS, ATTRIBUTES))])
    y = np.array(["a"] * ROWS + ["b"] * ROWS, dtype=object)
    plan = stratified_kfold(y, FOLDS, seed)
    flips = np.random.default_rng([seed, rate_index])
    specs = [AggregatorSpec(kind=k) for k in kinds]
    attributes = tuple(f"x{j}" for j in range(ATTRIBUTES))
    accs = []
    for fold in range(FOLDS):
        train, test = plan.train_test(fold)
        flipped = flips.random(train.size) < RATES[rate_index]
        noisy = np.where(flipped, np.where(y[train] == "a", "b", "a"), y[train]).astype(object)
        model = FittedModel(DecisionSystem(attributes, X[train], noisy))
        _, memberships = resolve_and_score(model, specs, X[test], seed)
        accs.append(balanced_accuracies(y[test], model.classes, memberships.argmax(axis=-1)))
    return np.mean(accs, axis=0)


@pytest.fixture(scope="module")
def scores():
    """{rate index: seeds x (min, wowa)} mean balanced accuracies."""
    return {r: np.array([mean_accuracies(s, r, ("min", "wowa")) for s in SEEDS])
            for r in range(len(RATES))}


@pytest.mark.parametrize("rate_index", range(len(RATES)))
def test_wowa_at_least_min_on_every_seed(scores, rate_index):
    by_seed = scores[rate_index]
    assert np.all(by_seed[:, 1] >= by_seed[:, 0]), by_seed


def test_min_drops_more_than_wowa_under_noise(scores):
    drop = scores[0].mean(axis=0) - scores[len(RATES) - 1].mean(axis=0)
    assert drop[0] > drop[1], drop
