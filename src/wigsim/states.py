"""Analytic Wigner-function generators for the resource-state family.

Every generator works in the hbar = 2 convention of the rest of the package
(vacuum variances <q^2> = <p^2> = 1, number operator (q^2 + p^2)/4 - 1/2).
States are selected by small frozen parameter records; resource_wigner
dispatches a record to its generator, and each generator builds its record
from its arguments, so a parameter the record refuses is refused before any
row is filled.

The finite-squeezing cubic phase state |gamma, P, s> is the state with
position wavefunction

    psi(q) = (2 pi e^{2s})^{-1/4} exp(i gamma q^3 - q^2/(4 e^{2s}) + i P q / 2)

Its Wigner function reduces to a damped Airy profile: with sigma = e^s,
b = 3 gamma q^2 - (p - P)/2, kappa = 1/(12 gamma sigma^2) and
c0 = 1/(432 gamma^2 sigma^6),

    W(q, p) = (8 pi^3 e^{2s})^{-1/2} e^{-q^2/(2 e^{2s})}
              * 2 pi (6 gamma)^{-1/3} e^{2 b kappa + c0}
              * Ai((6 gamma)^{-1/3} (2 b + 1/(24 gamma sigma^4)))

obtained by completing the cube in the y-integral (shift y -> y + i kappa).
The combined exponent is <= -1/(864 gamma^2 sigma^6) < 0 wherever the Airy
argument is positive once the Airy decay is folded in, so the evaluation
below never overflows. gamma < 0 follows from W(-gamma) via b -> -b, and
gamma = 0 is an exact squeezed Gaussian.

q enters W only through q^2, so the field is evaluated once per distinct |q|
row and each mirror row copied from its twin, both in row blocks: half the
Airy work on a symmetric grid, bit-identical to evaluating every row.

A sample with |W| < 2^-1022 is stored as 0 inside the closed form, so the
field holds no subnormal double, whose products (in the distillation blur)
would take the processor's slow path; every other sample keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .errors import GridMismatchError, UndefinedStateError, UnnormalizedFieldError
from .grids import (PhaseSpaceGrid, WignerField, field_from_samples, fill_by_rows,
                    integrate_samples, row_blocks)
from .special import airy_ai_scaled, laguerre
from .symplectic import omega


def _require_finite(*values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class Number:
    """Fock state |n>."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError("n must be a nonnegative integer")


@dataclass(frozen=True)
class ON:
    """Superposition (|0> + a |N>) / sqrt(1 + |a|^2)."""

    N: int
    a: complex

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "a", complex(self.a))
        _require_finite(self.a)


@dataclass(frozen=True)
class CubicPhase:
    """Finite-squeezing cubic phase state |gamma, P, s>."""

    gamma: float
    P: float
    s: float

    def __post_init__(self):
        _require_finite(self.gamma, self.P, self.s)
        if self.s < 0:
            raise ValueError("s must be >= 0")


@dataclass(frozen=True)
class PhotonMod:
    """Photon-added (+1) or photon-subtracted (-1) rotated squeezed vacuum."""

    sign: int
    s: float
    theta: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _require_finite(self.s, self.theta)


@dataclass(frozen=True)
class GaussianStateParams:
    """Mean vector and covariance of a Gaussian state, (q1,p1,...) order."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must have even positive length")
        n2 = mean.size
        if cov.shape != (n2, n2):
            raise ValueError("covariance shape must match mean length")
        _require_finite(*mean, *cov.flat)
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("covariance must be symmetric")
        # uncertainty relation: cov + i Omega >= 0 (symplectic eigenvalues >= 1)
        herm = cov + 1j * omega(n2 // 2)
        if np.min(np.linalg.eigvalsh(herm)) < -1e-8:
            raise ValueError("covariance violates the uncertainty relation")
        mean, cov = mean.copy(), cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def mode_count(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class Gaussian:
    """Gaussian state specified by its first and second moments."""

    params: GaussianStateParams

    def __post_init__(self):
        if not isinstance(self.params, GaussianStateParams):
            raise ValueError("params must be GaussianStateParams")


ResourceStateSpec = Union[Number, ON, CubicPhase, PhotonMod, Gaussian]


def rotated_squeezed_cov(s: float, theta: float) -> np.ndarray:
    """Covariance of R(theta) S(s) |0>, with S(s) contracting q.

    <q^2> = e^{-2s} at theta = 0; use s < 0 for q-antisqueezing.
    """
    c, sn = np.cos(theta), np.sin(theta)
    rot = np.array([[c, sn], [-sn, c]])
    return rot @ np.diag([np.exp(-2.0 * s), np.exp(2.0 * s)]) @ rot.T


def gaussian_wigner(params: GaussianStateParams, grid: PhaseSpaceGrid) -> WignerField:
    """W(x) = exp(-(x - xbar)^T Lambda^{-1} (x - xbar) / 2) / ((2 pi)^N sqrt(det))."""
    if grid.mode_count != params.mode_count:
        raise GridMismatchError("grid and params mode counts differ")
    samples = fill_by_rows(grid, lambda *x: _gaussian_samples(params, x))
    return field_from_samples(grid, samples)


def _gaussian_samples(params: GaussianStateParams, mesh) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(params.cov)
    if sign <= 0:
        raise ValueError("covariance must be positive definite")
    inv = np.linalg.inv(params.cov)
    centered = [m - params.mean[i] for i, m in enumerate(mesh)]
    n2 = len(mesh)
    quad = 0.0
    for i in range(n2):
        quad = quad + inv[i, i] * centered[i] * centered[i]
        for j in range(i + 1, n2):
            quad = quad + (2.0 * inv[i, j]) * centered[i] * centered[j]
    norm = (2.0 * np.pi) ** params.mode_count * np.exp(0.5 * logdet)
    return np.exp(-0.5 * quad) / norm


def vacuum_wigner(grid: PhaseSpaceGrid) -> WignerField:
    params = GaussianStateParams(
        mean=np.zeros(2 * grid.mode_count), cov=np.eye(2 * grid.mode_count)
    )
    return gaussian_wigner(params, grid)


def number_state_wigner(n: int, grid: PhaseSpaceGrid) -> WignerField:
    """W(q,p) = (1/2pi) (-1)^n L_n(q^2 + p^2) e^{-(q^2+p^2)/2}."""
    Number(n)
    grid.require_single_mode("number_state_wigner")
    return field_from_samples(grid, fill_by_rows(grid, partial(_number_samples, n)))


def _number_samples(n: int, q, p) -> np.ndarray:
    u = q * q + p * p
    return ((-1.0) ** n / (2.0 * np.pi)) * laguerre(n, u) * np.exp(-u / 2.0)


def on_state_wigner(N: int, a: complex, grid: PhaseSpaceGrid) -> WignerField:
    """Vacuum + |N> mixture terms plus the (q - ip)^N interference term.

    W = [W_vac + |a|^2 W_N] / (1 + |a|^2)
        + (2 / (2 pi (1 + |a|^2) sqrt(N!))) e^{-(q^2+p^2)/2} Re[a (q - ip)^N]
    """
    a = ON(N, a).a
    grid.require_single_mode("on_state_wigner")
    return field_from_samples(grid, fill_by_rows(grid, partial(_on_samples, N, a)))


def _on_samples(N: int, a: complex, q, p) -> np.ndarray:
    u = q * q + p * p
    env = np.exp(-u / 2.0)
    w_vac = env / (2.0 * np.pi)
    w_num = ((-1.0) ** N / (2.0 * np.pi)) * laguerre(N, u) * env
    cross = (
        2.0
        / (2.0 * np.pi * math.sqrt(math.factorial(N)))
        * env
        * (a * (q - 1j * p) ** N).real
    )
    denom = 1.0 + abs(a) ** 2
    return (w_vac + abs(a) ** 2 * w_num + cross) / denom


def cubic_phase_wavefunction(gamma: float, P: float, s: float):
    """Position wavefunction of |gamma, P, s> as a callable on arrays."""
    pref = (2.0 * np.pi * np.exp(2.0 * s)) ** -0.25
    width = 4.0 * np.exp(2.0 * s)

    def psi(q):
        q = np.asarray(q, dtype=float)
        return pref * np.exp(1j * gamma * (q * q * q) - q * q / width + 0.5j * P * q)

    return psi


_TINY = np.finfo(float).tiny  # 2^-1022, the smallest normal double

# the evaluator's stated accuracy (module docstring of wigsim.special)
_AIRY_TOL = 1e-9


def _cubic_scales(gamma: float, s: float) -> tuple:
    """sigma^2, kappa and c0 of the closed form, for gamma != 0."""
    sig2 = np.exp(2.0 * s)
    g = abs(gamma)
    return sig2, 1.0 / (12.0 * g * sig2), 1.0 / (432.0 * g * g * sig2**3)


def _cubic_airy_samples(gamma: float, P: float, s: float, q, p) -> np.ndarray:
    """Closed-form cubic-phase Wigner samples at broadcastable (q, p).

    q enters only through q * q and 3 gamma q q, which have the same bits at
    q and -q, so rows at bitwise-equal |q| are bitwise equal.
    """
    sig2, kappa, c0 = _cubic_scales(gamma, s)
    g = abs(gamma)
    b = 3.0 * gamma * q * q - (p - P) / 2.0
    if gamma < 0:
        b = -b
    cbrt = (6.0 * g) ** (1.0 / 3.0)
    arg = (2.0 * b + 1.0 / (24.0 * g * sig2 * sig2)) / cbrt
    expo = 2.0 * b * kappa + c0 - q * q / (2.0 * sig2)

    # fold the Airy decay exp(-(2/3) arg^{3/2}) into the exponent; b is
    # spent, so max(arg, 0) takes its buffer rather than a block of its own
    pos = np.maximum(arg, 0.0, out=b)
    expo -= (2.0 / 3.0) * pos * np.sqrt(pos)
    amp = 2.0 * np.pi / (cbrt * np.sqrt(8.0 * np.pi**3 * sig2))
    # |Ai| and the scaled Ai stay below 1, so where amp e^expo < 2^-1022 the
    # sample is below it too: exp gets -inf there, not its slow subnormal path
    expo[expo < np.log(_TINY / amp)] = -np.inf
    out = amp * (np.exp(expo) * airy_ai_scaled(arg))
    out[np.abs(out) < _TINY] = 0.0
    return out


def cubic_phase_wigner(
    gamma: float, P: float, s: float, grid: PhaseSpaceGrid
) -> WignerField:
    """Wigner field of |gamma, P, s> from the closed form in the module docstring.

    gamma = 0 gives the exact squeezed Gaussian. Near 0 the closed form's
    exponent cancels terms of size c0 = 1/(432 gamma^2 sigma^6), so its error
    grows like c0 * 2^-52; a gamma for which that exceeds the Airy evaluator's
    1e-9 is refused before any row is filled. The
    independent numerical route to the same field is
    wigner_from_wavefunction(cubic_phase_wavefunction(gamma, P, s), grid).

    Like every generator, the field is flagged by field_from_samples: on a
    grid too small for the state (or for a strongly squeezed fidelity
    target) it comes back flagged unnormalized, and consumers that need a
    state refuse it.
    """
    CubicPhase(gamma, P, s)
    grid.require_single_mode("cubic_phase_wigner")
    if gamma == 0.0:
        params = GaussianStateParams(
            mean=np.array([0.0, P]),
            cov=np.diag([np.exp(2.0 * s), np.exp(-2.0 * s)]),
        )
        return gaussian_wigner(params, grid)
    with np.errstate(over="ignore", divide="ignore"):
        # the exponent's terms of size c0 cancel to about c0 * 2^-52
        cancel = _cubic_scales(gamma, s)[2] * np.finfo(float).eps
    if not cancel <= _AIRY_TOL:
        raise ValueError(
            f"gamma={gamma!r} is too close to 0: the closed form's exponent cancels "
            f"to an error of about {cancel:.1e}, above the Airy evaluator's {_AIRY_TOL:.0e}"
        )
    return field_from_samples(grid, _mirrored_cubic_fill(gamma, P, s, grid))


def _mirrored_cubic_fill(gamma: float, P: float, s: float, grid: PhaseSpaceGrid):
    """_cubic_airy_samples on the open mesh, evaluated once per distinct |q|.

    The other rows are copied from the first row of their |q|, a row block at
    a time: a gather of every mirror row at once would hold half a field.
    """
    q, p = grid.open_mesh()
    _, first, inverse = np.unique(np.abs(q[:, 0]), return_index=True, return_inverse=True)
    out = np.empty(grid.shape)
    for block in row_blocks((first.size,) + grid.shape[1:]):
        rows = first[block]
        out[rows] = _cubic_airy_samples(gamma, P, s, q[rows], p)
    source = first[inverse]
    mirrors = np.flatnonzero(source != np.arange(source.size))
    for block in row_blocks((mirrors.size,) + grid.shape[1:]):
        rows = mirrors[block]
        out[rows] = out[source[rows]]
    out.setflags(write=False)
    return out


def photon_mod_wigner(
    sign: int, s: float, theta: float, grid: PhaseSpaceGrid
) -> WignerField:
    """Photon-added/subtracted rotated squeezed vacuum.

    W_pm = (1/2)[x V^{-1} A_pm V^{-1} x^T - Tr(V^{-1} A_pm) + 2] W_V(x) with
    A_pm = 2 (V pm I)^2 / Tr(V pm I) and V the covariance of R(theta)S(s)|0>.
    """
    PhotonMod(sign, s, theta)
    grid.require_single_mode("photon_mod_wigner")
    samples = fill_by_rows(grid, _photon_mod_kernel(sign, s, theta))
    return field_from_samples(grid, samples)


def _photon_mod_kernel(sign: int, s: float, theta: float):
    """The pointwise (q, p) -> W_pm of photon_mod_wigner."""
    cov = rotated_squeezed_cov(s, theta)
    shifted = cov + sign * np.eye(2)
    tr = np.trace(shifted)
    if abs(tr) < 1e-12:
        raise UndefinedStateError(
            "photon subtraction from the vacuum leaves no state"
        )
    a_mat = 2.0 * (shifted @ shifted) / tr
    inv = np.linalg.inv(cov)
    m_mat = inv @ a_mat @ inv
    const = np.trace(inv @ a_mat)
    params = GaussianStateParams(mean=np.zeros(2), cov=cov)

    def kernel(q, p):
        quad = m_mat[0, 0] * q * q + 2.0 * m_mat[0, 1] * q * p + m_mat[1, 1] * p * p
        return 0.5 * (quad - const + 2.0) * _gaussian_samples(params, (q, p))

    return kernel


def mean_photon_analytic(spec: ResourceStateSpec) -> float:
    """Closed-form mean photon number for Number, ON, and CubicPhase."""
    if isinstance(spec, Number):
        return float(spec.n)
    if isinstance(spec, ON):
        w = abs(spec.a) ** 2
        return w * spec.N / (1.0 + w)
    if isinstance(spec, CubicPhase):
        e2s = np.exp(2.0 * spec.s)
        return float(
            0.5 * (np.cosh(2.0 * spec.s) - 1.0)
            + 18.0 * spec.gamma**2 * e2s**2
            + 0.25 * (spec.P + 6.0 * spec.gamma * e2s) ** 2
        )
    raise ValueError(f"no analytic mean photon number for {type(spec).__name__}")


def mean_photon_numeric(field: WignerField) -> float:
    """<(q^2 + p^2)/4 - 1/2> by quadrature on a normalized single-mode field."""
    field.grid.require_single_mode("mean_photon_numeric")
    if not field.normalized:
        raise UnnormalizedFieldError("field must be normalized")
    total = integrate_samples(
        field.grid.open_mesh() + (field.samples,), field.grid.axes,
        pointwise=lambda q, p, w: w * ((q * q + p * p) / 4.0),
    )
    return total - 0.5


def resource_wigner(spec: ResourceStateSpec, grid: PhaseSpaceGrid) -> WignerField:
    """Build the Wigner field selected by a parameter record."""
    if isinstance(spec, Number):
        return number_state_wigner(spec.n, grid)
    if isinstance(spec, ON):
        return on_state_wigner(spec.N, spec.a, grid)
    if isinstance(spec, CubicPhase):
        return cubic_phase_wigner(spec.gamma, spec.P, spec.s, grid)
    if isinstance(spec, PhotonMod):
        return photon_mod_wigner(spec.sign, spec.s, spec.theta, grid)
    if isinstance(spec, Gaussian):
        return gaussian_wigner(spec.params, grid)
    raise ValueError(f"unknown resource spec {type(spec).__name__}")
