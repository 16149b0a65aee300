"""Scoring in row blocks takes no page faults per block.

Each block of similarities is scored through six to eight temporaries of
its own size. glibc maps an allocation above its mmap threshold afresh and
unmaps it when freed, so unless the threshold has been lifted above the
block's size, every temporary of every block faults its pages in anew
(``_streamed_memberships`` lifts it before the first block). The count
depends on the allocator's state, so it is taken in a fresh interpreter:
exactly one child, which fits ``owa`` (which runs no LOF) and ``wowa`` on a
seeded two-class set, scores 600 rows in five blocks of 2.1 MB twice, and
counts the minor faults of a third scoring.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

import fuzzyrough

resource = pytest.importorskip("resource")

CHILD = r"""
import json
import resource

import numpy as np

import fuzzyrough as fr
from fuzzyrough import classifier

rng = np.random.default_rng(0)
n, m = 2000, 5
X = rng.normal(size=(n, m))
X[n // 2:] += 1.0
train = fr.DecisionSystem(tuple(f"a{j}" for j in range(m)), X,
                          np.repeat(np.array(["a", "b"], dtype=object), n // 2))
test = rng.normal(size=(600, m))
assert classifier.BLOCK_ELEMENTS // n * n * 8 >= 1 << 20  # blocks of at least 1 MB
faults = {}
for kind in ("owa", "wowa"):
    model = classifier.fit(train, fr.AggregatorSpec(kind=kind))
    classifier.predict_batch(model, test)
    classifier.predict_batch(model, test)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    classifier.predict_batch(model, test)
    faults[kind] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""

# Without the allocation before the first block, the third owa scoring took
# 7,843-7,844 minor faults on a 2-vCPU x86-64 glibc host, and wowa, whose LOF
# then lifted the threshold with a buffer of 8 MB, 0-32; with it, owa took
# 2-4 and wowa 0-1.
MAX_FAULTS = 500


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_scoring_blocks_reuse_the_heap():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyrough.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    faults = json.loads(out)
    assert faults["owa"] < MAX_FAULTS and faults["wowa"] < MAX_FAULTS, faults
