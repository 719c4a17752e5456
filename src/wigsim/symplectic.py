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
Each pass first brings its block's axes to the front with one transposing
copy (none when they already lead, as for a rotation), so every block
point owns one contiguous row of the samples. Each chunk of output points
computes its own sources, corner rows and fractions; each cache-sized
slice of its output then adds every corner's weighted gather of whole rows
in turn. A beam splitter on 41^4 peaks at 2.03 fields above its input, a
rotation on 1025^2 at 1.51 (tracemalloc).

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
    UnnormalizedFieldError,
)
from .grids import (
    TOL_NORM,
    PhaseSpaceGrid,
    QuadratureDistribution,
    WignerField,
    integrate_samples,
    row_blocks,
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
    samples: np.ndarray, block_axes: list, s_inv: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Multilinear resampling over the leading axes of samples (0 outside the grid).

    samples is C-contiguous and its leading len(block_axes) axes are the
    block, so it is viewed as one row per block point, the other axes riding
    along in the row. The block's output coordinates x map to sources
    s_inv (x - d), summed elementwise in coordinate order rather than by a
    matrix product, whose rounding can depend on the chunk's length (BLAS
    takes a one-point chunk through gemv), so a point's source does not
    depend on its chunk. Each row_blocks chunk of output points builds its
    own sources, lower-corner rows and fractions; each row block of its output
    then adds every corner in turn, a weighted gather of whole rows with
    take, while it is in cache. Sources within 1e-9 spacings of a node snap
    to it, so identity maps reproduce node values exactly.
    """
    shape = samples.shape[: len(block_axes)]
    m = int(np.prod(shape))
    rows_in = samples.reshape(m, -1)
    out = np.zeros(samples.shape)
    rows_out = out.reshape(rows_in.shape)
    for chunk in row_blocks((m,)):
        ij = np.unravel_index(np.arange(chunk.start, min(chunk.stop, m)), shape)
        x = [ax[i] - dk for ax, i, dk in zip(block_axes, ij, d)]
        base, frac = 0, []
        inside = np.ones(x[0].size, dtype=bool)
        for j, ax in enumerate(block_axes):
            src = x[0] * s_inv[j, 0]
            for k in range(1, len(x)):
                src += x[k] * s_inv[j, k]
            step = (ax[-1] - ax[0]) / (ax.size - 1)
            f = (src - ax[0]) / step
            near = np.rint(f)
            f = np.where(np.abs(f - near) < 1e-9, near, f)
            inside &= (f >= 0.0) & (f <= ax.size - 1)
            i0 = np.clip(np.floor(f).astype(np.int64), 0, ax.size - 2)
            base = base * ax.size + i0
            frac.append(f - i0)
        part = rows_out[chunk]
        for sl in row_blocks(part.shape):
            for corner in product((0, 1), repeat=len(block_axes)):
                w = inside[sl].astype(float)
                for j, bit in enumerate(corner):
                    w *= frac[j][sl] if bit else 1.0 - frac[j][sl]
                gathered = rows_in.take(base[sl] + np.ravel_multi_index(corner, shape), axis=0)
                gathered *= w[:, None]
                part[sl] += gathered
    return out


def apply_symplectic(field: WignerField, op: SymplecticOp) -> WignerField:
    """Resample a field under a Gaussian unitary: W_out(x) = W(S^-1 (x - d)).

    The field is resampled one block of S at a time. Unit Jacobian means the
    integral is preserved: the output carries the one it measures, and a
    drop from the input's by over 10 * TOL_NORM (support off the grid) raises.
    """
    if op.mode_count != field.mode_count:
        raise GridMismatchError("operator and field mode counts differ")
    grid = field.grid
    s_inv = np.linalg.inv(op.S)
    vals = field.samples
    for block in _blocks(op.S):
        lead = tuple(range(len(block)))
        # rebinding frees the previous pass's output before this pass allocates
        vals = np.ascontiguousarray(np.moveaxis(vals, block, lead))
        block_axes = [grid.axes[j] for j in block]
        sub = np.ix_(block, block)
        vals = _resample_block(vals, block_axes, s_inv[sub], op.d[list(block)])
        if block != lead:  # else the output keeps its own data and is not copied
            vals = np.moveaxis(vals, lead, block)
    vals = np.ascontiguousarray(vals)

    before = field.integral
    after = integrate_samples(vals, grid.axes)
    if abs(after - before) > 10.0 * TOL_NORM:
        raise OutOfDomainError(
            f"transformed support leaves the grid: integral {before:.6f} -> {after:.6f}"
        )
    vals.setflags(write=False)  # handed over, so the field keeps it uncopied
    return WignerField(grid=grid, samples=vals, integral=after)


def homodyne_pdf(field: WignerField, mode: int, quadrature: str) -> QuadratureDistribution:
    """Marginal density of one quadrature of one mode."""
    if not field.normalized:
        raise UnnormalizedFieldError("homodyne_pdf needs a normalized field")
    keep = field.grid.axis_index(mode, quadrature)
    axes = tuple(None if i == keep else ax for i, ax in enumerate(field.grid.axes))
    out = integrate_samples(field.samples, axes)
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
        raise UnnormalizedFieldError(
            "condition_on_homodyne needs a normalized field"
        )
    meas_axis = field.grid.axis_index(mode, quadrature)
    if field.mode_count < 2:
        raise ValueError("conditioning needs at least one unmeasured mode")

    axes = field.grid.axes
    ax = axes[meas_axis]
    if not ax[0] <= value <= ax[-1]:
        raise OutOfDomainError("measured value lies outside the grid")

    step = (ax[-1] - ax[0]) / (ax.size - 1)
    f = (value - ax[0]) / step
    i0 = min(int(np.floor(f)), ax.size - 2)
    w1 = f - i0
    lo = np.take(field.samples, i0, axis=meas_axis)
    hi = np.take(field.samples, i0 + 1, axis=meas_axis)
    sliced = (1.0 - w1) * lo + w1 * hi

    # whichever quadrature was measured, the other one is axis 2 * mode of sliced
    contract = [None] * (len(axes) - 1)
    contract[2 * mode] = axes[meas_axis ^ 1]
    reduced = integrate_samples(sliced, tuple(contract))
    out_grid = PhaseSpaceGrid(axes=axes[: 2 * mode] + axes[2 * mode + 2 :])
    density = integrate_samples(reduced, out_grid.axes)
    if density < EPS_COND:
        raise DegenerateConditioningError(
            f"outcome density {density:.3e} below {EPS_COND:.0e}"
        )
    # density is the integral of reduced, so the quotient integrates to 1
    out = WignerField(grid=out_grid, samples=reduced / density, integral=1.0)
    return out, float(density)
