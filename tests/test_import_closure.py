"""``import fuzzyrough`` and its CLI module load no ``scipy.stats`` and start no thread.

scipy.stats roughly doubles the import's time and peak memory, and the
package needs only ``scipy.special``. A thread started at import, or by a
small library call, would cost every process its start-up time and memory.
The checks run in a fresh interpreter, since this test process may hold
scipy.stats already (tests use it as an oracle) and runs other threads.
"""

import json
import os
import subprocess
import sys

import fuzzyrough

# Records, for each scipy.stats module imported, the innermost frame outside
# the import machinery: the file and line whose import statement pulled it in.
PROBE = r"""
import json
import sys
import traceback

pulled = {}


class Watch:
    def find_spec(self, name, path=None, target=None):
        if (name == "scipy.stats" or name.startswith("scipy.stats.")) and name not in pulled:
            frames = [f for f in traceback.extract_stack()[:-1]
                      if not f.filename.startswith("<frozen importlib")]
            pulled[name] = f"{frames[-1].filename}:{frames[-1].lineno}"
        return None


sys.meta_path.insert(0, Watch())
import fuzzyrough
import fuzzyrough.cli

loaded = sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats."))
print(json.dumps({"loaded": loaded, "pulled": pulled}))
"""


def test_import_loads_no_scipy_stats():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyrough.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    found = json.loads(done.stdout)
    first = min(found["pulled"], key=len, default=None)
    assert found["loaded"] == [], (
        f"import fuzzyrough, fuzzyrough.cli loaded {len(found['loaded'])} scipy.stats "
        f"modules; {first} was imported at {found['pulled'].get(first)}")


# The import and one library approximation at approx_library's shape (80
# elements, 6 attributes) must stay on the main thread: the row-range pool is
# built only by a call large enough to split.
THREADS_PROBE = r"""
import json
import threading

import numpy as np

import fuzzyrough as fr
import fuzzyrough.cli

after_import = threading.active_count()
rng = np.random.default_rng(0)
X, labels = rng.normal(size=(80, 6)), np.arange(80) % 2
relation = fr.build_similarity(fr.DecisionSystem(tuple("abcdef"), X, labels))
concept = fr.FuzzySet(relation.universe, labels.astype(float))
mu = fr.fuzzy_removal(rng.beta(0.5, 4.0, size=80), "product")
fr.lower_approximation(relation, concept, mu, "kleene_dienes", 0)
print(json.dumps({"after_import": after_import, "after_call": threading.active_count()}))
"""


def test_import_and_a_library_call_start_no_thread():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyrough.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == {"after_import": 1, "after_call": 1}
