import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from wigsim.special import airy_ai_scaled, laguerre


def airy_ai(x):
    """Ai(x): airy_ai_scaled with the decay exp(-(2/3) x^(3/2)) applied back."""
    arr = np.asarray(x, dtype=float)
    pos = np.maximum(arr, 0.0)
    return airy_ai_scaled(arr) * np.exp(-(2.0 / 3.0) * pos * np.sqrt(pos))


def test_airy_against_scipy_lattice():
    x = np.linspace(-30.0, 20.0, 4001)
    ref = scipy.special.airy(x)[0]
    assert np.max(np.abs(airy_ai(x) - ref)) < 1e-9


def test_airy_scaled_matches_unscaled_in_range():
    x = np.linspace(0.0, 30.0, 301)
    scale = np.exp((2.0 / 3.0) * x ** 1.5)
    assert np.max(np.abs(airy_ai_scaled(x) - scale * airy_ai(x))) < 1e-9


def test_airy_scaled_far_right_no_underflow():
    # bare Ai underflows near x ~ 700^(2/3); the scaled variant stays finite
    x = np.array([200.0, 500.0, 2000.0])
    v = airy_ai_scaled(x)
    assert np.all(np.isfinite(v)) and np.all(v > 0)
    ref = scipy.special.airye(x)[0]
    assert np.max(np.abs(v - ref) / ref) < 1e-9


def test_airy_propagates_nan():
    x = np.array([np.nan, -8.0, -1.0, 1.0, 8.0])
    for airy in (airy_ai, airy_ai_scaled):
        v = airy(x)
        assert np.isnan(v[0]) and np.all(np.isfinite(v[1:]))


# the lattice covers the Airy arguments of the 1025 x 2049 protocol grid;
# each bound is the 30-term forward-sum evaluator's error there, rounded up
# (measured 3.55e-11, 1.06e-13, 2.84e-08, 2.62e-11), so no branch may lose
# accuracy. scipy's airye is nan for real x < 0, where the scaled form is Ai.
_BRANCHES = {
    "left": (lambda x: x < -6.0, 3.6e-11),
    "mid_neg": (lambda x: (x >= -6.0) & (x <= 0.0), 1.1e-13),
    "mid_pos": (lambda x: (x > 0.0) & (x <= 6.0), 2.9e-8),
    "right": (lambda x: x > 6.0, 2.7e-11),
}


@pytest.fixture(scope="module")
def scaled_airy_error():
    x = np.linspace(-50.0, 170.0, 220_001)
    ref = np.where(x > 0, scipy.special.airye(x)[0], scipy.special.airy(x)[0])
    return x, np.abs(airy_ai_scaled(x) - ref)


@pytest.mark.parametrize("branch", sorted(_BRANCHES))
def test_airy_scaled_branch_accuracy(scaled_airy_error, branch):
    x, err = scaled_airy_error
    inside, bound = _BRANCHES[branch]
    assert np.count_nonzero(inside(x)) > 1000
    assert np.max(err[inside(x)]) < bound


# the out-of-place form of the in-place Horner loops of wigsim.special,
# kept as the reference for bit-identity; its tables are rounded from
# exact fractions by a route of their own
_C1 = 0.3550280538878172
_C2 = 0.2588194037928068
_U = np.empty(20)
_U[0] = 1.0
for _k in range(1, 20):
    _U[_k] = _U[_k - 1] * (6 * _k - 5) * (6 * _k - 1) / (72.0 * _k)


def _exact_table(c, offset):
    # c / prod_{j<=k} 3j (3j + offset), rounded once, for k = 0 .. 23
    return [
        float(Fraction(c) / math.prod((3 * j) * (3 * j + offset) for j in range(1, k + 1)))
        for k in range(24)
    ]


_F = _exact_table(_C1, -1)
_G = _exact_table(_C2, 1)


def _series_reference(x):
    t = x * x * x
    f = np.zeros_like(x)
    g = np.zeros_like(x)
    for k in range(23, -1, -1):
        f = f * t + _F[k]
        g = g * t + _G[k]
    return f - x * g


def _asym_right_reference(x):
    r = 1.5 / (x * np.sqrt(x))
    s = np.zeros_like(x)
    for k in range(18, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        s = s * r + sign * _U[k]
    pref = 1.0 / (2.0 * np.sqrt(np.pi) * np.sqrt(np.sqrt(x)))
    return pref * s


def _asym_left_reference(x):
    z = -x
    zeta = (2.0 / 3.0) * z * np.sqrt(z)
    inv2 = 1.0 / zeta**2
    even = np.zeros_like(z)
    odd = np.zeros_like(z)
    for k in range(8, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        even = even * inv2 + sign * _U[2 * k]
        odd = odd * inv2 + sign * _U[2 * k + 1]
    phase = zeta - np.pi / 4.0
    pref = 1.0 / (np.sqrt(np.pi) * np.sqrt(np.sqrt(z)))
    return pref * (np.cos(phase) * even + np.sin(phase) * (odd / zeta))


def airy_ai_scaled_reference(x):
    """airy_ai_scaled with every series and Horner step out of place."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    left = arr < -6.0
    mid_pos = (arr > 0) & (arr <= 6.0)
    right = arr > 6.0
    mid_neg = ~(left | mid_pos | right)
    out[left] = _asym_left_reference(arr[left])
    out[mid_neg] = _series_reference(arr[mid_neg])
    sub = arr[mid_pos]
    out[mid_pos] = _series_reference(sub) * np.exp((2.0 / 3.0) * sub * np.sqrt(sub))
    out[right] = _asym_right_reference(arr[right])
    return out


def test_in_place_airy_bit_identical_to_reference():
    # every branch and both split points, with NaN among the values
    x = np.concatenate(
        [np.linspace(-40.0, 200.0, 480_001), [-6.0, 6.0, 0.0, np.nan, -0.0]]
    )
    ref = airy_ai_scaled_reference(x)
    assert np.array_equal(airy_ai_scaled(x), ref, equal_nan=True)
    pos = np.maximum(x, 0.0)
    decay = np.exp(-(2.0 / 3.0) * pos * np.sqrt(pos))
    assert np.array_equal(airy_ai(x), ref * decay, equal_nan=True)


@given(st.floats(min_value=-25.0, max_value=15.0))
def test_airy_pointwise_vs_scipy(x):
    assert abs(airy_ai(x) - scipy.special.airy(x)[0]) < 1e-9


@pytest.mark.parametrize("n", [5, 12, 40, 80])
def test_laguerre_against_scipy(n):
    x = np.linspace(0.0, 60.0, 601)
    ref = scipy.special.eval_laguerre(n, x)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(laguerre(n, x) - ref) / scale) < 1e-9


@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_laguerre_recurrence_consistency(n, x):
    # (n+1) L_{n+1} = (2n + 1 - x) L_n - n L_{n-1}
    lhs = (n + 1) * laguerre(n + 1, x)
    rhs = (2 * n + 1 - x) * laguerre(n, x) - n * laguerre(n - 1, x)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-10
