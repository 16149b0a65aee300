"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 runs against the four small benchmark CSVs when they are present
under data/ (see scripts/fetch_datasets.py); without them it is skipped and
an offline reproduction on the bundled wdbc dataset stands in, exercising the
identical protocol end to end against published reference accuracies.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import fuzzyrough as fr
from fuzzyrough import connectives as con
from fuzzyrough.classifier import AGGREGATOR_KINDS, AggregatorSpec
from fuzzyrough.data import DecisionSystem, ingest_csv
from fuzzyrough.evaluation import (
    _exact_p_value,
    run_benchmark,
    write_report_csvs,
)
from fuzzyrough import (
    dual_measure,
    partial_existential,
    partial_universal,
    symmetric_from_quantifier,
    wowa_measure,
)
from fuzzyrough.quantifiers import (
    AdditiveQuantifier,
    QuadraticQuantifier,
    weights_from_quantifier,
)
from fuzzyrough.sets import FuzzySet, Universe
from tests.test_approx import partition_relation, random_relation
from tests.test_evaluation import recurrence_p_value
from tests.test_measures import random_measure
from tests.test_outliers import brute_force_lof

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# Published mean balanced accuracies the desk-scale reproduction must hit
# within +/- 0.05 (strategy order: Min Mino FR Avg Avgo TS OWA OWAo WOWA COMB).
REFERENCE_ROWS = {
    "appendicitis": (0.739, 0.704, 0.773, 0.768, 0.768, 0.793, 0.768, 0.774, 0.774, 0.754),
    "haberman": (0.540, 0.581, 0.583, 0.625, 0.628, 0.602, 0.622, 0.634, 0.629, 0.634),
    "somerville": (0.566, 0.567, 0.573, 0.623, 0.640, 0.612, 0.624, 0.655, 0.613, 0.583),
    "wisconsin": (0.963, 0.958, 0.958, 0.894, 0.892, 0.922, 0.926, 0.926, 0.926, 0.967),
    "wdbc": (0.942, 0.943, 0.943, 0.911, 0.910, 0.915, 0.923, 0.927, 0.930, 0.943),
}
SPEC_ORDER = ("min", "mino", "fr", "avg", "avgo", "ts", "owa", "owao", "wowa", "comb")


@contextlib.contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_worked_example_goldens():
    with criterion(1, "worked-example golden tests"):
        start = time.perf_counter()
        u = Universe.of_size(4)
        tall = FuzzySet(u, [0.5, 0.5, 1.0, 1.0])
        most = QuadraticQuantifier(0.3, 0.9)

        assert abs(fr.yager_eval(most, tall) - 0.6111111111111111) < 1e-3
        assert abs(fr.zadeh_eval(most, tall) - 0.875) < 1e-12

        party_o = np.array([0.0, 0.0, 0.0, 0.3, 0.3])
        removal = fr.fuzzy_removal(party_o, con.MINIMUM)
        assert removal.value(np.array([0, 1, 2])) == 0.3

        assert abs(most(0.6) - 0.5) < 1e-12

        # confidence-weighted evaluation: Q(3 / 4.4) by the quadratic formula
        wowa = wowa_measure(most, party_o)
        assert abs(wowa.value(np.array([0, 1, 2])) - 0.7355371900826445) < 1e-9

        assert time.perf_counter() - start < 1.0


def test_criterion_2_theorem_suite():
    with criterion(2, "theorem suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)

        # Choquet w.r.t. symmetric measures == OWA: exhaustive small + bulk
        for n in range(1, 7):
            for _ in range(300):
                a = float(rng.uniform(0.0, 0.6))
                b = float(rng.uniform(a + 0.05, 1.0))
                q = QuadraticQuantifier(a, b)
                f = rng.uniform(-2, 2, n)
                lhs = fr.choquet_integral(f, symmetric_from_quantifier(q, n))
                rhs = fr.owa(f, weights_from_quantifier(q, n))
                assert abs(lhs - rhs) < 1e-12
        for _ in range(10_000):
            n = int(rng.integers(1, 10))
            q = AdditiveQuantifier(n)
            f = rng.uniform(0, 1, n)
            lhs = fr.choquet_integral(f, symmetric_from_quantifier(q, n))
            rhs = fr.owa(f, weights_from_quantifier(q, n))
            assert abs(lhs - rhs) < 1e-12

        # Choquet w.r.t. additive measures == weighted mean
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            w = rng.uniform(0.01, 1, n)
            p = fr.WeightVector(w / w.sum())
            f = rng.uniform(-3, 3, n)
            assert abs(fr.choquet_integral(f, fr.additive_from_weights(p))
                       - float(np.dot(p.weights, f))) < 1e-12

        # translation and duality identities for every measure kind
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            mu = random_measure(rng, n)
            f = rng.uniform(-3, 3, n)
            c = float(rng.uniform(-4, 4))
            assert abs(fr.choquet_integral(c + f, mu) - (c + fr.choquet_integral(f, mu))) < 1e-11
            dual = dual_measure(mu)
            assert abs(fr.choquet_integral(f, dual) + fr.choquet_integral(-f, mu)) < 1e-11

        # partial minimum / maximum reductions
        for _ in range(500):
            n = int(rng.integers(2, 9))
            outliers = rng.random(n) < 0.5
            if outliers.all():
                outliers[0] = False
            f = rng.uniform(-2, 2, n)
            assert abs(fr.choquet_integral(f, partial_universal(outliers))
                       - f[~outliers].min()) < 1e-12
            assert abs(fr.choquet_integral(f, partial_existential(outliers))
                       - f[~outliers].max()) < 1e-12

        # dual symmetric measure == OWA with reversed weights
        for _ in range(500):
            n = int(rng.integers(2, 9))
            q = QuadraticQuantifier(0.2, 0.8)
            w_rev = fr.WeightVector(weights_from_quantifier(q, n).weights[::-1].copy())
            f = rng.uniform(-2, 2, n)
            lhs = fr.choquet_integral(f, dual_measure(symmetric_from_quantifier(q, n)))
            assert abs(lhs - fr.owa(f, w_rev)) < 1e-12

        # relation and set monotonicity plus approximation duality, n <= 8
        kd_conj = con.conjunctor_fn(con.KLEENE_DIENES, con.STANDARD)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            u = Universe.of_size(n)
            big = random_relation(rng, u)
            shrink = rng.uniform(0, 1, (n, n))
            small_m = big.matrix * np.minimum(shrink, shrink.T)
            np.fill_diagonal(small_m, 1.0)
            small = fr.SimilarityRelation(u, small_m)
            lo = rng.uniform(0, 1, n)
            a1 = FuzzySet(u, lo)
            a2 = FuzzySet(u, np.minimum(lo + rng.uniform(0, 0.5, n), 1.0))
            mu = random_measure(rng, n)
            for y in range(n):
                assert (fr.lower_approximation(small, a1, mu, con.KLEENE_DIENES, y)
                        >= fr.lower_approximation(big, a1, mu, con.KLEENE_DIENES, y) - 1e-12)
                assert (fr.upper_approximation(small, a1, mu, kd_conj, y)
                        <= fr.upper_approximation(big, a1, mu, kd_conj, y) + 1e-12)
                assert (fr.lower_approximation(big, a1, mu, con.KLEENE_DIENES, y)
                        <= fr.lower_approximation(big, a2, mu, con.KLEENE_DIENES, y) + 1e-12)
                low = fr.lower_approximation(big, a1, mu, con.KLEENE_DIENES, y)
                co_a = FuzzySet(u, 1.0 - a1.memberships)
                up = fr.upper_approximation(big, co_a, dual_measure(mu), kd_conj, y)
                assert abs(low - (1.0 - up)) < 1e-11

        # inclusion counterexample witness for the additive-quantifier measure
        n = 5
        u = Universe.of_size(n)
        mu = symmetric_from_quantifier(AdditiveQuantifier(n), n, u)
        r = partition_relation(u, np.array([0, 1]))
        concept = FuzzySet(u, np.ones(n))
        low = fr.lower_approximation(r, concept, mu, con.KLEENE_DIENES, 0)
        up = fr.upper_approximation(r, concept, mu, kd_conj, 0)
        assert low > up

        assert time.perf_counter() - start < 60.0


def test_criterion_3_lof_oracle_equivalence():
    with criterion(3, "LOF oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(6, 31))
            d = int(rng.integers(1, 5))
            pts = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, d))
            if rng.random() < 0.3:
                pts[rng.integers(0, n)] *= 20.0  # plant an outlier
            for k in (1, 3, 5):
                got = fr.lof_scores(pts, k)
                oracle = brute_force_lof(pts, k)
                assert np.allclose(got, oracle, atol=1e-9)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_wilcoxon_exactness():
    with criterion(4, "Wilcoxon exactness"):
        rng = np.random.default_rng(404)
        for m in range(1, 13):
            for _ in range(30):
                d = rng.integers(-5, 6, m).astype(float)
                d[d == 0.0] = 2.0
                ranks = rankdata(np.abs(d))
                double_ranks = np.rint(2 * ranks).astype(int)
                w2 = int(round(2 * float(ranks[d > 0].sum())))
                assert _exact_p_value(double_ranks, w2) == recurrence_p_value(double_ranks, w2)

        res = fr.wilcoxon_signed_rank(np.array([1.0, 2, 3, 4, 5]), np.zeros(5))
        assert res.p_value == 0.0625


def _desk_scale_mean_accuracies(datasets, seeds=(0, 1, 2), k=5):
    specs = [AggregatorSpec(kind=kind) for kind in SPEC_ORDER]
    total = None
    for seed in seeds:
        report = run_benchmark(datasets, specs, k=k, seed=seed)
        assert not report.failures, report.failures
        total = report.accuracies if total is None else total + report.accuracies
    return total / len(seeds)


def _check_rows(names, mean_acc, tolerance=0.05):
    for di, name in enumerate(names):
        expected = REFERENCE_ROWS[name]
        for si, kind in enumerate(SPEC_ORDER):
            got = mean_acc[di, si]
            assert abs(got - expected[si]) <= tolerance, (
                f"{name}/{kind}: got {got:.3f}, published {expected[si]:.3f}"
            )


def test_criterion_5_desk_scale_benchmark():
    names = ("appendicitis", "haberman", "somerville", "wisconsin")
    paths = {n: os.path.join(DATA_DIR, f"{n}.csv") for n in names}
    missing = [n for n, p in paths.items() if not os.path.exists(p)]
    if missing:
        pytest.skip(
            "benchmark datasets not present (no network in the build environment); "
            f"missing {missing} under data/ - run scripts/fetch_datasets.py, then rerun"
        )
    with criterion(5, "desk-scale benchmark reproduction"):
        start = time.perf_counter()
        datasets = [(n, ingest_csv(paths[n])) for n in names]
        expected_shapes = {"appendicitis": (106, 7), "haberman": (306, 3),
                           "somerville": (143, 6), "wisconsin": (683, 9)}
        for name, ds in datasets:
            assert (ds.n, len(ds.attributes)) == expected_shapes[name]
        mean_acc = _desk_scale_mean_accuracies(datasets)
        _check_rows(names, mean_acc)
        # single-run sanity window for the strongest published cell
        specs = [AggregatorSpec(kind="min")]
        rep = run_benchmark([("wisconsin", dict(datasets)["wisconsin"])], specs, k=5, seed=3)
        assert 0.91 <= rep.accuracies[0, 0] <= 1.0
        assert time.perf_counter() - start < 600.0


def test_criterion_5_offline_reproduction_wdbc():
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    with criterion(5, "offline benchmark reproduction (wdbc)"):
        start = time.perf_counter()
        raw = sklearn_datasets.load_breast_cancer()
        ds = DecisionSystem(tuple(raw.feature_names), raw.data,
                            np.array([str(v) for v in raw.target], dtype=object))
        mean_acc = _desk_scale_mean_accuracies([("wdbc", ds)])
        _check_rows(("wdbc",), mean_acc)
        assert time.perf_counter() - start < 600.0


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "benchmark determinism"):
        rng = np.random.default_rng(606)
        frames = []
        for i in range(3):
            X = np.vstack([rng.normal(0, 1, (9, 3)), rng.normal(4, 1, (9, 3))])
            y = np.array(["p"] * 9 + ["q"] * 9, dtype=object)
            frames.append((f"synth{i}", DecisionSystem(("a", "b", "c"), X, y)))
        specs = [AggregatorSpec(kind=k) for k in AGGREGATOR_KINDS]
        contents = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            report = run_benchmark(frames, specs, k=3, seed=99)
            paths = write_report_csvs(report, str(out))
            contents.append(tuple(Path(p).read_bytes() for p in paths))
        assert contents[0] == contents[1]
