"""Outlier machinery is run only on demand, no step loads scipy, and nothing starts a thread.

scipy is no dependency of the package: ``erf`` (normalised outlier degrees)
and ``ndtr`` (the Wilcoxon normal approximation) come from
``fuzzyrough._special``, a numpy port of Cephes with scipy's bits. So
``import fuzzyrough``, its CLI module, a library approximation,
``classify --aggregator owa`` and ``lof-scores``, which normalises outlier
degrees, load no scipy module: ``scipy.special`` would be most of a
process's start-up time and memory. min, avg and owa read no outlier degree
and so run no LOF: with ``outliers.lof_scores`` made to raise, they still
score every row as before. A thread started at import, or by a small library
call, would cost every process its start-up time and memory. The checks of
what is loaded run in a fresh interpreter, since this test process holds
scipy already (tests use it as an oracle) and runs other threads.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fuzzyrough
from fuzzyrough import classifier, outliers
from fuzzyrough.data import DecisionSystem

# Imports the package and its CLI, then runs one step: "import" (nothing
# more), "approx" (one lower approximation at approx_library's shape: 80
# elements, 6 attributes), "classify" (classify --aggregator owa) or
# "lof-scores", the last two on the CSVs in the directory given. Prints the
# scipy modules loaded and, for each, the innermost frame outside the import
# machinery whose import statement pulled it in, and the thread counts.
PROBE = r"""
import json
import os
import sys
import threading
import traceback

pulled = {}


class Watch:
    def find_spec(self, name, path=None, target=None):
        if (name == "scipy" or name.startswith("scipy.")) and name not in pulled:
            frames = [f for f in traceback.extract_stack()[:-1]
                      if not f.filename.startswith("<frozen importlib")]
            pulled[name] = f"{frames[-1].filename}:{frames[-1].lineno}"
        return None


sys.meta_path.insert(0, Watch())
import numpy as np

import fuzzyrough as fr
import fuzzyrough.cli

step, directory = sys.argv[1:]
threads = {"after_import": threading.active_count()}
if step == "approx":
    rng = np.random.default_rng(0)
    X, labels = rng.normal(size=(80, 6)), np.arange(80) % 2
    relation = fr.build_similarity(fr.DecisionSystem(tuple("abcdef"), X, labels))
    concept = fr.FuzzySet(relation.universe, labels.astype(float))
    mu = fr.fuzzy_removal(rng.beta(0.5, 4.0, size=80), "product")
    fr.lower_approximation(relation, concept, mu, "kleene_dienes", 0)
elif step != "import":
    argv = [step, "--dataset", os.path.join(directory, "train.csv"), "--out-dir", directory]
    if step == "classify":
        argv += ["--test", os.path.join(directory, "test.csv"), "--aggregator", "owa"]
    assert fuzzyrough.cli.main(argv) == 0
threads["after_call"] = threading.active_count()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"loaded": loaded, "pulled": pulled, "threads": threads}))
"""


def _probe(step, directory="."):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyrough.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, "-c", PROBE, step, str(directory)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def _write_csvs(directory):
    rng = np.random.default_rng(3)
    for name, n in (("train.csv", 40), ("test.csv", 10)):
        X = np.vstack([rng.normal(0.0, 1.0, size=(n // 2, 3)),
                       rng.normal(1.0, 1.0, size=(n - n // 2, 3))])
        y = ["a"] * (n // 2) + ["b"] * (n - n // 2)
        lines = ["x0,x1,x2,cls"] + [",".join([*(repr(v) for v in row), c])
                                    for row, c in zip(X.tolist(), y)]
        (directory / name).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("step", ["import", "approx", "classify", "lof-scores"])
def test_loads_no_scipy(step, tmp_path):
    _write_csvs(tmp_path)
    found = _probe(step, tmp_path)
    first = min(found["pulled"], key=len, default=None)
    assert found["loaded"] == [], (
        f"{step} loaded {len(found['loaded'])} scipy modules; "
        f"{first} was imported at {found['pulled'].get(first)}")


def test_import_and_a_library_call_start_no_thread():
    # the row-range pool is built only by a call large enough to split
    assert _probe("approx")["threads"] == {"after_import": 1, "after_call": 1}


def test_min_avg_and_owa_run_no_lof(monkeypatch):
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0.0, 1.0, size=(30, 4)), rng.normal(0.7, 1.3, size=(30, 4))])
    train = DecisionSystem(("a0", "a1", "a2", "a3"), X,
                           np.array(["a"] * 30 + ["b"] * 30, dtype=object))
    X_test = rng.normal(0.3, 1.2, size=(25, 4))
    aware = classifier.AggregatorSpec(kind="wowa")  # a strategy that reads outlier degrees
    specs = [classifier.AggregatorSpec(kind=k) for k in ("min", "avg", "owa")]
    unpatched = [classifier.membership_matrix(classifier.fit(train, s), X_test) for s in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("lof_scores ran")

    monkeypatch.setattr(outliers, "lof_scores", refuse)
    with pytest.raises(AssertionError, match="lof_scores ran"):
        classifier.membership_matrix(classifier.fit(train, aware), X_test)
    for spec, expected in zip(specs, unpatched):
        got = classifier.membership_matrix(classifier.fit(train, spec), X_test)
        assert np.array_equal(got, expected), spec.kind
