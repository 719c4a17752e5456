"""Truncated Fock-basis route to Wigner fields, used as an independent check.

A pure state with number-basis amplitudes v_n is the wavefunction
psi(x) = sum_n v_n phi_n(x), whose Hermite functions (hbar = 2) follow
from phi_0 = (2 pi)^(-1/4) e^{-x^2/4} by the stable recurrence

    phi_{n+1}(x) = (x phi_n(x) - sqrt(n) phi_{n-1}(x)) / sqrt(n + 1),

and grids.wigner_from_wavefunction takes psi to phase space. phi_0 pins the
hbar = 2 normalization and x = a + a^dagger the orientation, which the ON
states with imaginary coherence and the rotated squeezed states of the
oracle tests exercise. The amplitudes and the recurrence share no code with
the analytic generators, so agreement between the two is a real check; the
transform itself is checked against the Airy closed form of the cubic phase
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError, UndefinedStateError
from .grids import PhaseSpaceGrid, WignerField, wigner_from_wavefunction
from .states import ON, Gaussian, GaussianStateParams, Number, PhotonMod, ResourceStateSpec

_TAIL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FockState:
    """Pure state by its photon-number amplitudes, truncated at `cutoff`."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex)
        if vec.shape != (self.cutoff,):
            raise ValueError("amplitudes shape must be (cutoff,)")
        if not np.all(np.isfinite(vec)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.vdot(vec, vec).real)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"squared norm is {norm:.8f}, expected 1")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)


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


def fock_density(spec: ResourceStateSpec, cutoff: int) -> FockState:
    """Number-basis amplitudes of a supported resource state.

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
        return FockState(cutoff, v)
    if isinstance(spec, ON):
        if spec.N >= cutoff:
            raise TruncationError(f"cutoff {cutoff} cannot hold |{spec.N}>")
        v = np.zeros(cutoff, dtype=complex)
        v[0] = 1.0
        v[spec.N] = spec.a
        return FockState(cutoff, v / np.sqrt(1.0 + abs(spec.a) ** 2))
    if isinstance(spec, PhotonMod):
        return FockState(cutoff, _photon_mod_to_fock(spec, cutoff))
    if isinstance(spec, Gaussian):
        return FockState(cutoff, _gaussian_to_fock(spec.params, cutoff))
    raise ValueError(f"no Fock expansion for {type(spec).__name__}")


def wigner_from_fock(state: FockState, grid: PhaseSpaceGrid) -> WignerField:
    """Wigner field of the state's Hermite-function wavefunction.

    Trailing amplitudes at or below 1e-18 of the largest are dropped before
    the sum, so padding the cutoff with negligible amplitudes leaves the
    field bit-identical.
    """
    grid.require_single_mode("wigner_from_fock")
    mag = np.abs(state.amplitudes)
    v = state.amplitudes[: np.flatnonzero(mag > 1e-18 * mag.max())[-1] + 1]

    def psi(x):
        prev, cur = np.zeros_like(x), np.exp(-x * x / 4.0) / (2.0 * np.pi) ** 0.25
        out = v[0] * cur
        for n in range(1, v.size):
            prev, cur = cur, (x * cur - math.sqrt(n - 1) * prev) / math.sqrt(n)
            out += v[n] * cur
        return out

    return wigner_from_wavefunction(psi, grid)
