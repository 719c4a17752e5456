"""Airy and Laguerre evaluation on arrays, self-contained.

airy_ai_scaled is the one Airy evaluator: the ascending power series on
|x| <= 6 and Poincare-type asymptotic expansions outside. Fixed term counts
keep every branch within ~1e-9 absolute of the true value, which is far
below the quadrature noise of any field built on top. It returns
exp((2/3) x^{3/2}) Ai(x) for x >= 0 so callers can fold the decay into
their own exponents and never underflow mid-product; for x < 0 the scale
factor is 1 by convention. airy_ai applies the decay back.

The series and Horner loops update their arrays in place, with the same
floating-point operations in the same order as the out-of-place form, so
the values are bit-identical to it. Every evaluation is pointwise: the cubic
phase fields call it once per distinct |q| row, one block of those rows at a
time (so its temporaries stay in cache), and copy the other rows; their
samples are bit-identical to one call on the whole grid.
"""

from __future__ import annotations

import numpy as np

# Ai(0) = 3^(-2/3)/Gamma(2/3), -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_C1 = 0.3550280538878172
_C2 = 0.2588194037928068

_SERIES_TERMS = 30
_ASYM_TERMS = 18
_SPLIT = 6.0


def _u_coefficients(count: int) -> np.ndarray:
    u = np.empty(count)
    u[0] = 1.0
    for k in range(1, count):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
    return u


_U = _u_coefficients(_ASYM_TERMS + 2)


def _series(x: np.ndarray) -> np.ndarray:
    # Ai = c1 * f - c2 * g with f, g the standard ascending series in x^3.
    t = x**3
    f = np.ones_like(x)
    g = x.copy()
    term_f = np.ones_like(x)
    term_g = x.copy()
    for k in range(1, _SERIES_TERMS + 1):
        term_f *= t
        term_f /= (3 * k) * (3 * k - 1)
        term_g *= t
        term_g /= (3 * k) * (3 * k + 1)
        f += term_f
        g += term_g
    f *= _C1
    g *= _C2
    f -= g
    return f


def _asym_right(x: np.ndarray) -> np.ndarray:
    # exp((2/3) x^{3/2}) Ai(x)
    zeta = (2.0 / 3.0) * x**1.5
    # the first step, 0 / zeta + _U[_ASYM_TERMS] (an even k), is exact
    s = np.full_like(x, _U[_ASYM_TERMS])
    for k in range(_ASYM_TERMS - 1, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        s /= zeta
        s += sign * _U[k]
    pref = 1.0 / (2.0 * np.sqrt(np.pi) * x**0.25)
    return pref * s


def _asym_left(x: np.ndarray) -> np.ndarray:
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    inv2 = 1.0 / zeta**2
    even = np.zeros_like(z)
    odd = np.zeros_like(z)
    for k in range((_ASYM_TERMS // 2) - 1, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        even *= inv2
        even += sign * _U[2 * k]
        odd *= inv2
        odd += sign * _U[2 * k + 1]
    phase = zeta - np.pi / 4.0
    pref = 1.0 / (np.sqrt(np.pi) * z**0.25)
    return pref * (np.cos(phase) * even + np.sin(phase) * (odd / zeta))


def airy_ai(x) -> np.ndarray:
    """Ai(x) for real array input, vectorized."""
    arr = np.asarray(x, dtype=float)
    return airy_ai_scaled(arr) * np.exp(-(2.0 / 3.0) * np.maximum(arr, 0.0) ** 1.5)


def airy_ai_scaled(x) -> np.ndarray:
    """exp((2/3) x^(3/2)) Ai(x) for x >= 0; plain Ai(x) for x < 0."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)

    left = arr < -_SPLIT
    mid_pos = (arr > 0) & (arr <= _SPLIT)
    right = arr > _SPLIT
    mid_neg = ~(left | mid_pos | right)  # NaN lands here and stays NaN
    if np.any(left):
        out[left] = _asym_left(arr[left])
    if np.any(mid_neg):
        out[mid_neg] = _series(arr[mid_neg])
    if np.any(mid_pos):
        sub = arr[mid_pos]
        out[mid_pos] = _series(sub) * np.exp((2.0 / 3.0) * sub**1.5)
    if np.any(right):
        out[right] = _asym_right(arr[right])
    return out[0] if scalar else out


def laguerre(n: int, x, alpha: int = 0) -> np.ndarray:
    """Generalized Laguerre polynomial L_n^(alpha)(x) by upward recurrence."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    arr = np.asarray(x, dtype=float)
    prev = np.ones_like(arr)
    if n == 0:
        return prev
    cur = 1.0 + alpha - arr
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - arr) * cur - (k - 1 + alpha) * prev) / k
    return cur
