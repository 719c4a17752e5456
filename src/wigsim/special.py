"""Airy and Laguerre evaluation on arrays, self-contained.

airy_ai_scaled is the one Airy evaluator: the ascending power series on
|x| <= 6 and Poincare-type asymptotic expansions outside. It returns
exp((2/3) x^{3/2}) Ai(x) for x >= 0 so callers can fold the decay into
their own exponents and never underflow mid-product; for x < 0 the scale
factor is 1 by convention.

Fixed term counts keep Ai itself within 1e-9 absolute on every branch, far
below the quadrature noise of any field built on top. Measured on the Airy
arguments of the protocol grid, [-50, 170]: at most 4e-11 absolute in the
scaled value outside [-6, 6] and 1e-13 on [-6, 0]. On (0, 6] the series'
1.5e-12 error in Ai is scaled by up to exp((2/3) 6^{3/2}) = 1.8e4, so the
scaled value is off by up to 3e-8 absolute (2e-7 relative) near x = 6.

The series is Horner's rule in t = x^3 over the tables c1 a_k and c2 b_k,
built once at import, and the right expansion Horner's rule in 1/zeta: two
in-place operations per term, with no division and no fractional power
(x^{3/2} is x sqrt(x)). Every evaluation is pointwise: the cubic phase
fields call it once per distinct |q| row, one block of those rows at a
time (so its temporaries stay in cache), and copy the other rows; their
samples are bit-identical to one call on the whole grid.
"""

from __future__ import annotations

import numpy as np

# Ai(0) = 3^(-2/3)/Gamma(2/3), -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_C1 = 0.3550280538878172
_C2 = 0.2588194037928068

# the fewest terms (powers t^0 .. t^23) that keep each half of [-6, 6] at
# least as accurate as the 30-term forward sum did
_SERIES_TERMS = 23
_ASYM_TERMS = 18
_SPLIT = 6.0


def _series_coefficients(count: int) -> tuple:
    """c1 a_k and c2 b_k for k <= count, each rounded once from its exact value.

    f = sum a_k t^k and g = x sum b_k t^k with a_k = 1 / prod_{j<=k} 3j (3j-1)
    and b_k = 1 / prod_{j<=k} 3j (3j+1); int / int rounds the exact ratio.
    """
    (n1, d1), (n2, d2) = _C1.as_integer_ratio(), _C2.as_integer_ratio()
    f, g = [_C1], [_C2]
    pf = pg = 1
    for k in range(1, count + 1):
        pf *= (3 * k) * (3 * k - 1)
        pg *= (3 * k) * (3 * k + 1)
        f.append(n1 / (d1 * pf))
        g.append(n2 / (d2 * pg))
    return np.array(f), np.array(g)


_F, _G = _series_coefficients(_SERIES_TERMS)


def _u_coefficients(count: int) -> np.ndarray:
    u = np.empty(count)
    u[0] = 1.0
    for k in range(1, count):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
    return u


_U = _u_coefficients(_ASYM_TERMS + 2)


def _series(x: np.ndarray) -> np.ndarray:
    # Ai = c1 f - c2 g, f and g the ascending series in t = x^3, by Horner's
    # rule over _F = c1 a_k and _G = c2 b_k; x**3 would take pow's slow path
    # for negative x, about 100x the cost of two products
    t = x * x
    t *= x
    f = np.full_like(x, _F[-1])
    g = np.full_like(x, _G[-1])
    for k in range(_SERIES_TERMS - 1, -1, -1):
        f *= t
        f += _F[k]
        g *= t
        g += _G[k]
    g *= x
    f -= g
    return f


def _asym_right(x: np.ndarray) -> np.ndarray:
    # exp((2/3) x^{3/2}) Ai(x), by Horner's rule in r = 1/zeta
    r = 1.5 / (x * np.sqrt(x))
    s = np.full_like(x, _U[_ASYM_TERMS])
    for k in range(_ASYM_TERMS - 1, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        s *= r
        s += sign * _U[k]
    pref = 1.0 / (2.0 * np.sqrt(np.pi) * np.sqrt(np.sqrt(x)))
    return pref * s


def _asym_left(x: np.ndarray) -> np.ndarray:
    z = -x
    zeta = (2.0 / 3.0) * z * np.sqrt(z)
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
    pref = 1.0 / (np.sqrt(np.pi) * np.sqrt(np.sqrt(z)))
    return pref * (np.cos(phase) * even + np.sin(phase) * (odd / zeta))


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
        out[mid_pos] = _series(sub) * np.exp((2.0 / 3.0) * sub * np.sqrt(sub))
    if np.any(right):
        out[right] = _asym_right(arr[right])
    return out[0] if scalar else out


def laguerre(n: int, x) -> np.ndarray:
    """Laguerre polynomial L_n(x) by upward recurrence."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    arr = np.asarray(x, dtype=float)
    prev = np.ones_like(arr)
    if n == 0:
        return prev
    cur = 1.0 - arr
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 - arr) * cur - (k - 1) * prev) / k
    return cur
