"""The bits of every output are independent of the BLAS: its threads and the
CPU kernel it picks.

The integrals and OWAs sum each row's products with numpy's pairwise
reduction (``_dot_rows``), so a row of any length sums as it would alone and
no BLAS routine runs. ``lof_scores`` on a large class picks candidates from
a BLAS Gram matrix, whose bits follow the BLAS, but computes every distance
it keeps without the BLAS, so its scores must not. Both are checked in
subprocesses: pinned to one CPU against free to use all, and under several
of the CPU kernels that numpy's bundled OpenBLAS can be told to run
(``OPENBLAS_CORETYPE``).
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fuzzyrough
from fuzzyrough.choquet import _dot_rows
from tests.scalar_reference import dot


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


# Each row of _dot_rows must equal the one-row pairwise sum of its products,
# whatever its length. Rows are checked in two bands around numpy's
# 8,192-element iterator buffer, which an einsum reduction would cut rows
# into. The test names date from when rows longer than 8,192 elements were
# dotted by BLAS in chunks of that size, added left to right.
BUFFER = 8_192


def _check_rows(rows, n, two_d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, n))
    b = rng.normal(size=(rows, n) if two_d else n)
    want = [dot(x, y) for x, y in zip(a, b if two_d else [b] * rows)]
    assert np.array_equal(_bits(_dot_rows(a, b)), _bits(want))


@given(st.integers(1, 4), st.one_of(st.integers(1, 300), st.integers(BUFFER - 192, BUFFER)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_rows_up_to_one_chunk_equal_np_dot(rows, n, two_d, seed):
    _check_rows(rows, n, two_d, seed)


@given(st.integers(1, 4), st.integers(BUFFER + 1, 3 * BUFFER + 1), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_longer_rows_add_their_chunks_left_to_right(rows, n, two_d, seed):
    _check_rows(rows, n, two_d, seed)


# Pins itself to one CPU before numpy loads when asked, so that OpenBLAS
# starts one thread, then prints the bits of a 20,000-element integral under
# a symmetric measure, of an OWA block of 12,000 elements per row and of a
# wowa classifier's memberships, and the sha256 of the LOF scores of a
# 1,500 x 30 class.
PROBE = r"""
import hashlib
import json
import os
import sys

if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np

import fuzzyrough as fr
from fuzzyrough.classifier import membership_matrix

rng = np.random.default_rng(3)
q = fr.QuadraticQuantifier(0.3, 0.9)
values = rng.random(20_000)
integral = fr.choquet_integral(values, fr.symmetric_from_quantifier(q, values.size))
block = rng.random((4, 12_000))
owa = fr.owa(block, fr.weights_from_quantifier(q, block.shape[1]))
lof = fr.lof_scores(rng.normal(size=(1500, 30)), 20)
X = rng.normal(size=(300, 5))
ds = fr.DecisionSystem(tuple("abcde"), X, np.where(X[:, 0] > 0, "p", "n").astype(object))
model = fr.fit(ds, fr.AggregatorSpec(kind="wowa"))
memberships = membership_matrix(model, rng.normal(size=(40, 5)))
print(json.dumps([float(integral).hex(), [float(v).hex() for v in owa],
                  hashlib.sha256(lof.tobytes()).hexdigest(),
                  hashlib.sha256(memberships.tobytes()).hexdigest()]))
"""


def _probe(mode: str, **env_vars) -> subprocess.CompletedProcess:
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fuzzyrough.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root, **env_vars)
    env.pop("OPENBLAS_NUM_THREADS", None)
    return subprocess.run([sys.executable, "-c", PROBE, mode], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least two CPUs to pin one")
def test_a_process_pinned_to_one_cpu_gets_the_same_bits():
    # before rows were chunked, the integral read 0x1.98fa5b9ee50e2p-2 pinned
    # and 0x1.98fa5b9ee50e4p-2 unpinned on a 2-CPU host, and the OWA rows
    # differed too
    pinned, free = (json.loads(_probe(mode).stdout) for mode in ("pinned", "free"))
    assert pinned == free


# x86-64 kernels from SSE4.2 to AVX2; the default is the host's own
CORE_TYPES = ("Haswell", "Sandybridge", "Nehalem")


def test_every_blas_cpu_kernel_gets_the_same_bits():
    # with BLAS dot products, the memberships took four different hashes
    # under the default (SkylakeX) and these three kernels on a 2-vCPU Xeon
    # host, and the integral and the OWA rows three each; the LOF scores one
    outputs = {}
    for core in ("",) + CORE_TYPES:
        run = _probe("free", OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
        if run.returncode < 0:
            continue  # a kernel this CPU cannot run dies by a signal
        assert run.returncode == 0, run.stderr
        chosen = re.findall(r"^Core: (\S+)", run.stderr, re.MULTILINE)
        if chosen:
            outputs[chosen[-1]] = json.loads(run.stdout)
    if len(outputs) < 3:
        pytest.skip(f"OPENBLAS_CORETYPE selects fewer than three cores here: {sorted(outputs)}")
    assert len({json.dumps(v) for v in outputs.values()}) == 1, outputs
