"""The error function and the standard normal CDF, ported from Cephes.

``erf`` and ``ndtr`` follow the Cephes routines that ``scipy.special`` runs
for real arguments, operation for operation, so they give the same bits:
Horner polynomials in Cephes' order, exp(-x^2) from ``math.exp`` (the C
library's exp; ``np.exp`` rounds some points differently), and underflow to
0 where x^2 exceeds MAXLOG. Each region is masked before it is evaluated, so
no argument, infinite or NaN included, raises a floating-point warning.
"""

from __future__ import annotations

import math

import numpy as np

MAXLOG = 7.09782712893383996843e2  # exp(-x^2) underflows to 0 beyond x^2 = MAXLOG
SQRT_HALF = math.sqrt(0.5)

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4)
U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) from 8 on
P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2)
R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: the polynomial by Horner's rule, highest power first."""
    out = coef[0] * x + coef[1]
    for c in coef[2:]:
        out = out * x + c
    return out


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient of 1."""
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _erfc_tail(a: np.ndarray) -> np.ndarray:
    """Cephes erfc of a 1-D array of values >= 1."""
    out = np.zeros_like(a)
    live = np.square(np.minimum(a, 27.0)) <= MAXLOG  # 27^2 > MAXLOG, and no overflow
    a = a[live]
    z = np.fromiter(map(math.exp, (-(a * a)).tolist()), float, a.size)
    p, q = _polevl(a, P), _p1evl(a, Q)
    far = a >= 8.0
    if far.any():  # rare: erf is 1.0 there, and only ndtr's far tail reads R/S
        p[far], q[far] = _polevl(a[far], R), _p1evl(a[far], S)
    out[live] = z * p / q
    return out


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of each element of a 1-D float array: computed on
    |x| and given the sign of x, as Cephes' ``erf(x) = -erf(-x)`` does."""
    a = np.abs(x)
    out = a.copy()  # NaN stays NaN
    small, big = a <= 1.0, a > 1.0
    b = a[small]
    z = b * b
    out[small] = b * _polevl(z, T) / _p1evl(z, U)
    out[big] = 1.0 - _erfc_tail(a[big])
    return np.copysign(out, x)


def ndtr(a: float) -> float:
    """The standard normal CDF at a: 0.5 + 0.5 erf(a/sqrt(2)) near 0, and the
    complementary tail 0.5 erfc(|a|/sqrt(2)) beyond |a|/sqrt(2) = sqrt(1/2)."""
    x = a * SQRT_HALF
    z = abs(x)
    if z < SQRT_HALF:
        return 0.5 + 0.5 * float(erf(np.array([x]))[0])
    if math.isnan(z):
        return math.nan
    tail = 1.0 - erf(np.array([z]))[0] if z < 1.0 else _erfc_tail(np.array([z]))[0]
    y = 0.5 * float(tail)
    return 1.0 - y if x > 0 else y
