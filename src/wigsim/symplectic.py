"""Gaussian unitaries as affine phase-space maps, and homodyne statistics.

A Gaussian unitary acts on the quadrature vector as U' x U = S x + d with S
symplectic (S Omega S^T = Omega). On Wigner functions this is a coordinate
substitution, W(x) -> W(S^-1 (x - d)), which apply_symplectic realizes by
multilinear resampling of the input lattice.

The resampling runs one block of coordinates at a time. Two coordinates
share a block when S couples them through a nonzero entry (the blocks are
the connected components of S's nonzero pattern), so S^-1 is
block-diagonal over the same blocks and each block's source coordinates
depend on that block's output coordinates alone. The 2^d corner weights
and the inside-the-grid mask of the multilinear rule then factor into one
product per block, and successive passes over the blocks give the single
d-dimensional pass up to rounding. This is exact whenever the zero
pattern is exact: a beam splitter on (q1, p1, q2, p2) is two 2-D passes
over (q1, q2) and (p1, p2), a squeeze or a displacement is two 1-D
passes, and an op mixing q with p, such as a rotation, is one block.

Homodyne measurement of one quadrature marginalizes the rest; conditioning
slices the field at the measured value and integrates out the conjugate
axis of the measured mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DegenerateConditioningError,
    GridMismatchError,
    OutOfDomainError,
)
from .grids import (
    TOL_NORM,
    PhaseSpaceGrid,
    QuadratureDistribution,
    WignerField,
    field_from_samples,
    integrate_full,
    integrate_samples,
    trapezoid_weights,
)

EPS_COND = 1e-10

_SYMPLECTIC_TOL = 1e-10


def omega(modes: int) -> np.ndarray:
    """Symplectic form, block-diagonal [[0, 1], [-1, 0]] per mode."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * modes, 2 * modes))
    for m in range(modes):
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = block
    return out


@dataclass(frozen=True, eq=False)
class SymplecticOp:
    """Affine map x -> S x + d with S symplectic."""

    S: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
            raise ValueError("S must be square with even dimension")
        if d.shape != (S.shape[0],):
            raise ValueError("d length must match S dimension")
        if not (np.all(np.isfinite(S)) and np.all(np.isfinite(d))):
            raise ValueError("S and d must be finite")
        om = omega(S.shape[0] // 2)
        if np.max(np.abs(S @ om @ S.T - om)) > _SYMPLECTIC_TOL:
            raise ValueError("S does not preserve the symplectic form")
        if abs(abs(np.linalg.det(S)) - 1.0) > _SYMPLECTIC_TOL:
            raise ValueError("S must have unit determinant magnitude")
        S = S.copy()
        d = d.copy()
        S.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "d", d)

    @property
    def mode_count(self) -> int:
        return self.S.shape[0] // 2


def sym_squeeze(s: float) -> SymplecticOp:
    """Single-mode squeezer: q scaled by e^-s, p by e^s."""
    return SymplecticOp(S=np.diag([np.exp(-s), np.exp(s)]), d=np.zeros(2))


def sym_rotate(theta: float) -> SymplecticOp:
    """Single-mode phase rotation by theta."""
    c, sn = np.cos(theta), np.sin(theta)
    return SymplecticOp(S=np.array([[c, sn], [-sn, c]]), d=np.zeros(2))


def sym_displace(dq: float, dp: float) -> SymplecticOp:
    return SymplecticOp(S=np.eye(2), d=np.array([dq, dp], dtype=float))


def sym_beamsplitter(t: float) -> SymplecticOp:
    """Two-mode beam splitter of transmittance t on (q, p, q_v, p_v).

    q -> sqrt(t) q + sqrt(1-t) q_v and q_v -> sqrt(t) q_v - sqrt(1-t) q,
    identically for p.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("transmittance must lie in (0, 1]")
    a, b = np.sqrt(t), np.sqrt(1.0 - t)
    S = np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [-b, 0.0, a, 0.0],
            [0.0, -b, 0.0, a],
        ]
    )
    return SymplecticOp(S=S, d=np.zeros(4))


def compose(f: SymplecticOp, g: SymplecticOp) -> SymplecticOp:
    """The map applying g first, then f."""
    if f.S.shape != g.S.shape:
        raise ValueError("mode counts differ")
    return SymplecticOp(S=f.S @ g.S, d=f.S @ g.d + f.d)


def _blocks(S: np.ndarray) -> list:
    """Coordinate blocks: the connected components of S's nonzero pattern."""
    n = S.shape[0]
    link = ((S != 0) | (S.T != 0)).astype(float) + np.eye(n)
    reach = np.linalg.matrix_power(link, n) > 0
    return sorted({tuple(np.flatnonzero(row)) for row in reach})


def _resample_block(
    samples: np.ndarray, axes: tuple, block: tuple, s_inv: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Multilinear resampling over the axes in `block` (0 outside the grid).

    The block's output coordinates x map to sources s_inv (x - d); the other
    axes ride along as contiguous rows. Source coordinates within 1e-9
    spacings of a node snap to it, so identity maps reproduce node values
    exactly.
    """
    block_axes = [axes[j] for j in block]
    mesh = np.meshgrid(*block_axes, indexing="ij")
    src = (np.stack([m.ravel() for m in mesh], axis=1) - d) @ s_inv.T
    m = src.shape[0]
    idx, frac = [], []
    inside = np.ones(m, dtype=bool)
    for j, ax in enumerate(block_axes):
        step = (ax[-1] - ax[0]) / (ax.size - 1)
        f = (src[:, j] - ax[0]) / step
        near = np.rint(f)
        f = np.where(np.abs(f - near) < 1e-9, near, f)
        inside &= (f >= 0.0) & (f <= ax.size - 1)
        i0 = np.clip(np.floor(f).astype(np.int64), 0, ax.size - 2)
        idx.append(i0)
        frac.append(f - i0)

    lead = tuple(range(len(block)))
    moved = np.moveaxis(samples, block, lead)
    rows = moved.reshape(m, -1)
    out = np.zeros(rows.shape)
    for corner in product((0, 1), repeat=len(block)):
        w = inside.astype(float)
        for j, bit in enumerate(corner):
            w *= frac[j] if bit else 1.0 - frac[j]
        corner_idx = [i + bit for i, bit in zip(idx, corner)]
        gathered = rows[np.ravel_multi_index(corner_idx, moved.shape[: len(block)])]
        gathered *= w[:, None]
        out += gathered
    return np.moveaxis(out.reshape(moved.shape), lead, block)


def apply_symplectic(field: WignerField, op: SymplecticOp) -> WignerField:
    """Resample a field under a Gaussian unitary: W_out(x) = W(S^-1 (x - d)).

    The field is resampled one block of S at a time. Unit Jacobian means the
    integral is preserved; a normalization drop beyond 10 * TOL_NORM signals
    support pushed off the grid and raises.
    """
    if op.mode_count != field.mode_count:
        raise GridMismatchError("operator and field mode counts differ")
    grid = field.grid
    s_inv = np.linalg.inv(op.S)
    vals = field.samples
    for block in _blocks(op.S):
        sub = np.ix_(block, block)
        vals = _resample_block(vals, grid.axes, block, s_inv[sub], op.d[list(block)])
    vals = np.ascontiguousarray(vals)

    before = integrate_full(field)
    after = integrate_samples(vals, grid.axes)
    if abs(after - before) > 10.0 * TOL_NORM:
        raise OutOfDomainError(
            f"transformed support leaves the grid: integral {before:.6f} -> {after:.6f}"
        )
    normalized = abs(after - 1.0) <= TOL_NORM
    return WignerField(grid=grid, samples=vals, normalized=normalized)


def homodyne_pdf(field: WignerField, mode: int, quadrature: str) -> QuadratureDistribution:
    """Marginal density of one quadrature of one mode."""
    if not field.normalized:
        raise ValueError("homodyne_pdf needs a normalized field")
    if quadrature not in ("q", "p"):
        raise ValueError("quadrature must be 'q' or 'p'")
    keep = 2 * mode + (0 if quadrature == "q" else 1)
    if not 0 <= mode < field.mode_count:
        raise ValueError("mode index out of range")
    out = field.samples
    for ax_idx in reversed(range(len(field.grid.axes))):
        if ax_idx == keep:
            continue
        w = trapezoid_weights(field.grid.axes[ax_idx])
        out = np.tensordot(out, w, axes=([ax_idx], [0]))
    if np.min(out) < -1e-9:
        raise ValueError("marginal density has a significant negative value")
    return QuadratureDistribution(values=field.grid.axes[keep], densities=np.maximum(out, 0.0))


def condition_on_homodyne(
    field: WignerField, mode: int, quadrature: str, value: float
) -> tuple:
    """Post-measurement field after reading `value` on one quadrature.

    Slices the field at the measured value (linear interpolation between the
    two adjacent lattice rows), integrates out the conjugate quadrature of
    the measured mode, and renormalizes by the outcome density, which is
    returned alongside.
    """
    if not field.normalized:
        raise ValueError("condition_on_homodyne needs a normalized field")
    if quadrature not in ("q", "p"):
        raise ValueError("quadrature must be 'q' or 'p'")
    if not 0 <= mode < field.mode_count:
        raise ValueError("mode index out of range")
    if field.mode_count < 2:
        raise ValueError("conditioning needs at least one unmeasured mode")

    meas_axis = 2 * mode + (0 if quadrature == "q" else 1)
    conj_axis = 2 * mode + (1 if quadrature == "q" else 0)
    ax = field.grid.axes[meas_axis]
    if not ax[0] <= value <= ax[-1]:
        raise OutOfDomainError("measured value lies outside the grid")

    step = (ax[-1] - ax[0]) / (ax.size - 1)
    f = (value - ax[0]) / step
    i0 = min(int(np.floor(f)), ax.size - 2)
    w1 = f - i0
    lo = np.take(field.samples, i0, axis=meas_axis)
    hi = np.take(field.samples, i0 + 1, axis=meas_axis)
    sliced = (1.0 - w1) * lo + w1 * hi

    conj_after = conj_axis if conj_axis < meas_axis else conj_axis - 1
    w = trapezoid_weights(field.grid.axes[conj_axis])
    reduced = np.tensordot(sliced, w, axes=([conj_after], [0]))

    kept = tuple(
        a
        for i, a in enumerate(field.grid.axes)
        if i not in (meas_axis, conj_axis)
    )
    out_grid = PhaseSpaceGrid(axes=kept)
    density = integrate_samples(reduced, out_grid.axes)
    if density < EPS_COND:
        raise DegenerateConditioningError(
            f"outcome density {density:.3e} below {EPS_COND:.0e}"
        )
    return field_from_samples(out_grid, reduced / density), float(density)
