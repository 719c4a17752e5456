"""Truncated Fock-basis route to Wigner fields, used as an independent check.

A density matrix in the number basis maps to phase space through the kernel
of |m><n| (hbar = 2, u = q^2 + p^2, m >= n):

    W_mn(q, p) = (1/2pi) (-1)^n sqrt(n!/m!) (q - ip)^{m-n}
                 L_n^{(m-n)}(u) e^{-u/2}

with W_nm the complex conjugate. The n = 0, m = 0 kernel is the vacuum
Gaussian, which pins the hbar = 2 normalization and the (q - ip)
orientation; both are also exercised against first-moment identities in the
test suite. This route shares no code with the analytic generators (its
Laguerre recurrence is its own), so agreement between the two is a real check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError, UndefinedStateError
from .grids import PhaseSpaceGrid, WignerField, field_from_samples
from .states import ON, Gaussian, GaussianStateParams, Number, PhotonMod, ResourceStateSpec

_TAIL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FockDensity:
    """Density matrix on the photon-number basis, truncated at `cutoff`."""

    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.cutoff, self.cutoff):
            raise ValueError("matrix shape must be (cutoff, cutoff)")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("matrix must be Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"trace is {tr:.8f}, expected 1")
        if np.min(np.linalg.eigvalsh(mat)) < -1e-8:
            raise ValueError("matrix must be positive semidefinite")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def _pure_density(vec: np.ndarray, cutoff: int) -> FockDensity:
    return FockDensity(cutoff=cutoff, matrix=np.outer(vec, vec.conj()))


def _squeezed_vacuum_vector(s: float, cutoff: int) -> np.ndarray:
    """Amplitudes of S(s)|0>: even support, c_0 = sech(s)^{1/2}.

    The vector annihilated by cosh(s) a + sinh(s) a^dagger, i.e.
    c_{2m+2} = -tanh(s) sqrt((2m+1)/(2m+2)) c_{2m}.
    """
    c = np.zeros(cutoff)
    c[0] = 1.0 / np.sqrt(np.cosh(s))
    th = np.tanh(s)
    for m in range(0, (cutoff - 3) // 2 + 1):
        n = 2 * m
        c[n + 2] = -th * np.sqrt((n + 1.0) / (n + 2.0)) * c[n]
    return c


def _check_tail(tail: float, cutoff: int, label: str) -> None:
    if tail >= _TAIL_TOL:
        raise TruncationError(
            f"cutoff {cutoff} leaves {label} tail population {tail:.2e}"
        )


def _gaussian_to_fock(params: GaussianStateParams, cutoff: int) -> np.ndarray:
    """Fock vector of a zero-mean pure single-mode Gaussian state."""
    if params.mode_count != 1:
        raise ValueError("only single-mode Gaussian states are supported")
    if np.max(np.abs(params.mean)) > 1e-12:
        raise ValueError("only zero-mean Gaussian states are supported")
    cov = params.cov
    if abs(np.linalg.det(cov) - 1.0) > 1e-8:
        raise ValueError("only pure Gaussian states are supported")
    evals, evecs = np.linalg.eigh(cov)
    s = 0.5 * np.log(evals[1])
    # eigenvector of the contracted axis is R(theta) (1, 0)^T = (cos, -sin)
    v = evecs[:, 0]
    theta = math.atan2(-v[1], v[0])
    c = _squeezed_vacuum_vector(s, cutoff)
    _check_tail(1.0 - float(c @ c), cutoff, "squeezed-vacuum")
    n = np.arange(cutoff)
    return c * np.exp(-1j * theta * n)


def _photon_mod_to_fock(spec: PhotonMod, cutoff: int) -> np.ndarray:
    c = _squeezed_vacuum_vector(spec.s, cutoff)
    n = np.arange(cutoff)
    base = c * np.exp(-1j * spec.theta * n)
    if spec.sign == 1:
        # a^dagger |psi>: v_{n+1} = sqrt(n+1) c_n, squared norm cosh^2(s)
        v = np.zeros(cutoff, dtype=complex)
        v[1:] = np.sqrt(n[1:]) * base[:-1]
        v /= np.cosh(spec.s)
    else:
        if spec.s == 0:
            raise UndefinedStateError("cannot subtract a photon from the vacuum")
        # a |psi>: v_{n-1} = sqrt(n) c_n, squared norm sinh^2(s)
        v = np.sqrt(n[1:]) * base[1:]
        v = np.append(v, 0.0) / abs(np.sinh(spec.s))
    _check_tail(1.0 - float(np.vdot(v, v).real), cutoff, "photon-mod")
    return v


def fock_density(spec: ResourceStateSpec, cutoff: int) -> FockDensity:
    """Number-basis density matrix of a supported resource state.

    Supported: Number, ON, PhotonMod, and pure zero-mean Gaussian states.
    Cubic-phase states converge too slowly in this basis and are cross
    checked through their wavefunction instead.
    """
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    if isinstance(spec, Number):
        if spec.n >= cutoff:
            raise TruncationError(f"cutoff {cutoff} cannot hold |{spec.n}>")
        v = np.zeros(cutoff, dtype=complex)
        v[spec.n] = 1.0
        return _pure_density(v, cutoff)
    if isinstance(spec, ON):
        if spec.N >= cutoff:
            raise TruncationError(f"cutoff {cutoff} cannot hold |{spec.N}>")
        v = np.zeros(cutoff, dtype=complex)
        v[0] = 1.0
        v[spec.N] = spec.a
        return _pure_density(v / np.sqrt(1.0 + abs(spec.a) ** 2), cutoff)
    if isinstance(spec, PhotonMod):
        return _pure_density(_photon_mod_to_fock(spec, cutoff), cutoff)
    if isinstance(spec, Gaussian):
        return _pure_density(_gaussian_to_fock(spec.params, cutoff), cutoff)
    raise ValueError(f"no Fock expansion for {type(spec).__name__}")


def wigner_from_fock(rho: FockDensity, grid: PhaseSpaceGrid) -> WignerField:
    """Sum the Moyal kernels of every density-matrix element on the grid.

    The radial factors depend on u = q^2 + p^2 only, so each k = m - n
    diagonal is accumulated once over the unique u values of the lattice
    (a symmetric grid has ~8x fewer of those than nodes) with the Laguerre
    recurrence run in n at fixed alpha = k, then scattered back and attached
    to the angular factor. The k! and z^k pieces are folded together with
    the Gaussian envelope into A_k = z^k e^{-u/2} / sqrt(k!), which stays
    bounded by 1 pointwise for every k, so large cutoffs cannot overflow
    the way separate factorial and power terms would; the n-recurrence
    likewise carries sqrt(n! k! / (n+k)!) <= 1 instead of bare factorials.

    Elements with |rho| <= 1e-18 max|rho| are negligible: each diagonal's
    recurrence stops at its last element above that, and the k loop after
    the last diagonal holding one, so padding the cutoff with negligible
    elements leaves the field bit-identical.
    """
    grid.require_single_mode("wigner_from_fock")
    mat = rho.matrix
    q, p = grid.open_mesh()
    u = (q * q + p * p).ravel()
    uu, inv = np.unique(u, return_inverse=True)

    scale = max(np.max(np.abs(mat)), 1e-300)
    big = np.abs(mat) > 1e-18 * scale
    rows, cols = np.nonzero(big)
    total = np.zeros(u.size)
    z = (q - 1j * p).astype(complex).ravel()
    ang = np.exp(-u / 2.0).astype(complex)
    z_step = np.empty_like(z)
    lag_next = np.empty(uu.size)

    for k in range(int(np.max(rows - cols)) + 1):
        # rho[n + k, n] multiplies W(|n+k><n|)
        diag = np.diagonal(mat, offset=-k)
        if k > 0:
            ang *= np.divide(z, math.sqrt(k), out=z_step)
        kept = np.flatnonzero(np.diagonal(big, offset=-k))
        if kept.size == 0:
            continue
        # L_n^(k)(uu) from L_{-1} = 0 and L_0 = 1, updated in place
        coef = 1.0
        lag_prev, lag_cur = np.zeros(uu.size), np.ones(uu.size)
        acc = diag[0] * lag_cur
        for n in range(1, kept[-1] + 1):
            # lag_next = ((2n - 1 + k - uu) lag_cur - (n - 1 + k) lag_prev) / n
            np.subtract(2 * n - 1 + k, uu, out=lag_next)
            lag_next *= lag_cur
            lag_prev *= n - 1 + k
            lag_next -= lag_prev
            lag_next /= n
            lag_prev, lag_cur, lag_next = lag_cur, lag_next, lag_prev
            coef *= -math.sqrt(n / (n + k))
            acc += diag[n] * coef * lag_cur
        total += (1.0 if k == 0 else 2.0) * (ang * acc[inv]).real

    w = total.reshape(grid.shape) / (2.0 * np.pi)
    return field_from_samples(grid, w)
