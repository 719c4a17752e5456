"""Negativity monotone and fidelity measures on Wigner fields.

The central quantity is the logarithmic negativity of the Wigner function,
N_L = ln of the integral of |W| over phase space. It is zero exactly on
states with nonnegative Wigner functions, additive over tensor products,
invariant under Gaussian unitaries, and non-increasing under partial trace
and homodyne postselection, which is what makes it usable as a yardstick
for the distillation protocol.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import UnnormalizedFieldError
from .grids import TOL_NORM, WignerField, integrate_samples, overlap_trace


def log_negativity(field: WignerField) -> float:
    """N_L = ln integral |W| of a normalized field, |W| taken in row blocks."""
    if not field.normalized:
        raise UnnormalizedFieldError("log_negativity needs a normalized field")
    total = integrate_samples(field.samples, field.grid.axes, pointwise=np.abs)
    return log_negativity_of_l1(total)


def log_negativity_of_l1(total: float) -> float:
    """N_L = ln total, for total the integral of |W| of a normalized field.

    total >= integral W, so N_L cannot truly fall below ln(1 - TOL_NORM);
    tiny negative results are quadrature noise, clamped to 0 with a warning.
    """
    if not 0.0 < total < np.inf:  # nan fails this too
        raise ArithmeticError(f"negativity integral {total} is not positive and finite")
    value = float(np.log(total))
    if value < 0.0:
        if value < -2.0 * TOL_NORM:
            raise ArithmeticError(
                f"negativity integral {total:.6f} below normalization floor"
            )
        warnings.warn(
            f"clamping log-negativity {value:.2e} to 0 (quadrature noise)",
            stacklevel=3,
        )
        return 0.0
    return value


def fidelity_to_pure(field: WignerField, target: WignerField) -> float:
    """F = Tr(rho sigma) = 4 pi * integral W_field W_target, single mode.

    Valid when the target is pure. The target's raw on-grid samples are
    used as-is: a target whose support extends past the grid contributes
    nothing where the field vanishes anyway, so no renormalization is
    applied. The result is clamped by fidelity_of_overlap.
    """
    field.grid.require_single_mode("fidelity_to_pure")
    return fidelity_of_overlap(overlap_trace(field, target))


def fidelity_of_overlap(value: float) -> float:
    """F from its overlap 4 pi integral W_field W_target, clamped into [0, 1 + TOL_NORM]."""
    return float(np.clip(value, 0.0, 1.0 + TOL_NORM))


def fidelity_initial_analytic(s_ini: float, s_targ: float) -> float:
    """Overlap of cubic-phase states sharing gamma and P: 1/cosh(s_ini - s_targ).

    The cubic phases cancel inside the wavefunction overlap, leaving the
    Gaussian squeezed-state fidelity.
    """
    return float(1.0 / np.cosh(s_ini - s_targ))
