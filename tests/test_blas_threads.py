"""Long rows sum in one order whatever the number of BLAS threads.

numpy's bundled OpenBLAS splits a dot product of more than 10,000 elements
across the threads it started, one per CPU the process may use, so such a
dot product may change its last bits with the CPU count. ``_dot_rows`` cuts
a row longer than DOT_CHUNK into chunks, dots each and adds the chunk
results left to right; rows up to one chunk keep the one dot product of
``np.dot``. ``lof_scores`` on a large class picks candidates from a BLAS
Gram matrix, whose bits follow the BLAS, but computes every distance it
keeps without the BLAS, so its scores must not.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fuzzyrough
from fuzzyrough.choquet import DOT_CHUNK, _dot_rows


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _operands(rows, n, two_d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, n)), rng.normal(size=(rows, n) if two_d else n)


def _pairs(a, b):
    return zip(a, b if b.ndim == 2 else [b] * a.shape[0])


@given(st.integers(1, 3), st.integers(1, DOT_CHUNK), st.booleans(), st.integers(0, 2**32 - 1))
def test_rows_up_to_one_chunk_equal_np_dot(rows, n, two_d, seed):
    a, b = _operands(rows, n, two_d, seed)
    want = [np.dot(x, y) for x, y in _pairs(a, b)]
    assert np.array_equal(_bits(_dot_rows(a, b)), _bits(want))


@given(st.integers(1, 3), st.integers(DOT_CHUNK + 1, 3 * DOT_CHUNK + 1), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_longer_rows_add_their_chunks_left_to_right(rows, n, two_d, seed):
    a, b = _operands(rows, n, two_d, seed)
    want = []
    for x, y in _pairs(a, b):
        total = np.dot(x[:DOT_CHUNK], y[:DOT_CHUNK])
        for start in range(DOT_CHUNK, n, DOT_CHUNK):
            total += np.dot(x[start:start + DOT_CHUNK], y[start:start + DOT_CHUNK])
        want.append(total)
    assert np.array_equal(_bits(_dot_rows(a, b)), _bits(want))


# Pins itself to one CPU before numpy loads when asked, so that OpenBLAS
# starts one thread and the package splits no rows, then prints the bits of
# a 20,000-element integral under a symmetric measure and of an OWA block of
# 12,000 elements per row, and the sha256 of the LOF scores of a 1,500 x 30
# class.
PROBE = r"""
import hashlib
import json
import os
import sys

if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np

import fuzzyrough as fr

rng = np.random.default_rng(3)
q = fr.QuadraticQuantifier(0.3, 0.9)
values = rng.random(20_000)
integral = fr.choquet_integral(values, fr.symmetric_from_quantifier(q, values.size))
block = rng.random((4, 12_000))
owa = fr.owa(block, fr.weights_from_quantifier(q, block.shape[1]))
lof = fr.lof_scores(rng.normal(size=(1500, 30)), 20)
print(json.dumps([float(integral).hex(), [float(v).hex() for v in owa],
                  hashlib.sha256(lof.tobytes()).hexdigest()]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least two CPUs to pin one")
def test_a_process_pinned_to_one_cpu_gets_the_same_bits():
    # before rows were chunked, the integral read 0x1.98fa5b9ee50e2p-2 pinned
    # and 0x1.98fa5b9ee50e4p-2 unpinned on a 2-CPU host, and the OWA rows
    # differed too
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyrough.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    env.pop("OPENBLAS_NUM_THREADS", None)
    pinned, free = (
        json.loads(subprocess.run([sys.executable, "-c", PROBE, mode], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout)
        for mode in ("pinned", "free"))
    assert pinned == free
