"""Grids, sampled Wigner fields, and quadrature primitives.

Conventions used everywhere in this package: hbar = 2, i.e. [q, p] = 2i and
the vacuum has <q^2> = <p^2> = 1. Phase-space coordinates of an N-mode state
are ordered (q1, p1, ..., qN, pN), and an N-mode Wigner field is sampled on
the cartesian product of 2N uniform axes in that order.

All integrals are composite trapezoid rules contracted axis by axis, last
axis first, with numpy's pairwise summation. The contraction order is fixed
so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidGridError,
    NonNormalizableError,
    UnnormalizedFieldError,
)

TOL_NORM = 1e-3

DEFAULT_QMAX = 16.0
DEFAULT_POINTS = 1025

# points per block of leading-axis rows: few enough that every temporary of a
# row-block loop stays in the L2 cache, enough to amortize numpy's call cost
_BLOCK_POINTS = 32768


def _check_axis(ax: np.ndarray) -> None:
    if ax.ndim != 1 or ax.size < 3:
        raise InvalidGridError("each axis needs at least 3 points")
    if not np.all(np.isfinite(ax)):
        raise InvalidGridError("axis values must be finite")
    steps = np.diff(ax)
    if np.any(steps <= 0):
        raise InvalidGridError("axis values must be strictly increasing")
    d = (ax[-1] - ax[0]) / (ax.size - 1)
    if np.max(np.abs(steps - d)) > 1e-9 * max(abs(d), 1e-30):
        raise InvalidGridError("axis spacing must be uniform")


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Uniform rectangular sampling lattice over (q, p) per mode.

    axes holds 2N strictly increasing uniformly spaced 1D arrays ordered
    (q1, p1, ..., qN, pN).
    """

    axes: tuple

    def __post_init__(self):
        if len(self.axes) == 0 or len(self.axes) % 2 != 0:
            raise InvalidGridError("need one (q, p) axis pair per mode")
        frozen = []
        for ax in self.axes:
            arr = np.asarray(ax, dtype=float)
            _check_axis(arr)
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "axes", tuple(frozen))

    @property
    def mode_count(self) -> int:
        return len(self.axes) // 2

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    @property
    def spacings(self) -> tuple:
        return tuple((ax[-1] - ax[0]) / (ax.size - 1) for ax in self.axes)

    def axis(self, mode: int, quadrature: str) -> np.ndarray:
        if quadrature not in ("q", "p"):
            raise ValueError("quadrature must be 'q' or 'p'")
        return self.axes[2 * mode + (0 if quadrature == "q" else 1)]

    def open_mesh(self) -> tuple:
        """Axes broadcast-shaped for elementwise field construction."""
        return tuple(np.meshgrid(*self.axes, indexing="ij", sparse=True))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseSpaceGrid):
            return NotImplemented
        return len(self.axes) == len(other.axes) and all(
            a.size == b.size and np.array_equal(a, b)
            for a, b in zip(self.axes, other.axes)
        )


def build_grid(
    q_min: float,
    q_max: float,
    n_q: int,
    p_min: float,
    p_max: float,
    n_p: int,
    modes: int = 1,
) -> PhaseSpaceGrid:
    """Uniform grid with the same (q, p) axes replicated for every mode."""
    if modes < 1:
        raise InvalidGridError("modes must be >= 1")
    if n_q < 3 or n_p < 3:
        raise InvalidGridError("n_q and n_p must be >= 3")
    for lo, hi in ((q_min, q_max), (p_min, p_max)):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidGridError("bounds must be finite")
        if not lo < hi:
            raise InvalidGridError("bounds must satisfy min < max")
    q = np.linspace(q_min, q_max, n_q)
    p = np.linspace(p_min, p_max, n_p)
    return PhaseSpaceGrid(axes=(q, p) * modes)


def default_grid(modes: int = 1) -> PhaseSpaceGrid:
    """The package default: [-16, 16]^2 with 1025 points per axis."""
    m = DEFAULT_QMAX
    n = DEFAULT_POINTS
    return build_grid(-m, m, n, -m, m, n, modes=modes)


def trapezoid_weights(ax: np.ndarray) -> np.ndarray:
    d = (ax[-1] - ax[0]) / (ax.size - 1)
    w = np.full(ax.size, d)
    w[0] = w[-1] = d / 2
    return w


def integrate_samples(samples: np.ndarray, axes: tuple, *, _pointwise=None) -> float:
    """Trapezoid integral over all axes, contracted last axis first.

    One block of leading-axis rows (about _BLOCK_POINTS points) at a time,
    first mapped by _pointwise if given; each row's pairwise sums are
    unchanged, so the result is bit-identical to a whole-array contraction.
    """
    if samples.ndim != len(axes):
        raise ValueError("samples dimensionality does not match axes")
    weights = [trapezoid_weights(ax) for ax in axes]
    rows = max(1, _BLOCK_POINTS // samples[0].size)
    lead = np.empty(samples.shape[0])
    for lo in range(0, samples.shape[0], rows):
        out = samples[lo : lo + rows]
        if _pointwise is not None:
            out = _pointwise(out)
        for w in reversed(weights[1:]):
            out = (out * w).sum(axis=-1)
        lead[lo : lo + rows] = out
    return float(lead @ weights[0])


@dataclass(frozen=True, eq=False)
class QuadratureDistribution:
    """Probability density of a single quadrature on its axis values."""

    values: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        _check_axis(vals)
        if dens.shape != vals.shape:
            raise ValueError("densities and values must have matching length")
        if not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite")
        if np.min(dens) < 0:
            raise ValueError("densities must be nonnegative")
        total = float(dens @ trapezoid_weights(vals))
        if abs(total - 1.0) > TOL_NORM:
            raise ValueError(f"density integrates to {total:.6f}, expected 1")
        vals, dens = vals.copy(), dens.copy()
        vals.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "densities", dens)


@dataclass(frozen=True, eq=False)
class WignerField:
    """Real Wigner-function samples on a grid for an N-mode state.

    normalized means the trapezoid integral was within TOL_NORM of 1 when
    the field was built. Samples are read-only; operations return new fields.
    """

    grid: PhaseSpaceGrid
    samples: np.ndarray
    normalized: bool

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"samples shape {arr.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("Wigner samples must be finite")
        arr = arr.copy() if not arr.flags.owndata or arr.flags.writeable else arr
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def mode_count(self) -> int:
        return self.grid.mode_count


def field_from_samples(grid: PhaseSpaceGrid, samples: np.ndarray) -> WignerField:
    """Wrap samples, flagging them normalized iff |integral - 1| <= TOL_NORM.

    This is the package's one normalization rule; there is no per-call
    tolerance.
    """
    total = integrate_samples(np.asarray(samples, dtype=float), grid.axes)
    return WignerField(grid=grid, samples=samples, normalized=abs(total - 1.0) <= TOL_NORM)


def integrate_full(field: WignerField) -> float:
    """Integral of the field over the whole grid domain."""
    return integrate_samples(field.samples, field.grid.axes)


def renormalize(field: WignerField) -> WignerField:
    """Explicitly rescale a field so its trapezoid integral is 1."""
    total = integrate_full(field)
    if abs(total) < 1e-12:
        raise NonNormalizableError("field integral is negligible, cannot rescale")
    return WignerField(
        grid=field.grid, samples=field.samples / total, normalized=True
    )


def marginal_over(field: WignerField, dropped_modes) -> WignerField:
    """Integrate out both quadratures of the dropped modes (partial trace).

    dropped_modes is a set of 0-based mode indices; it must be a nonempty
    proper subset of the field's modes.
    """
    modes = set(dropped_modes)
    n = field.mode_count
    if not modes:
        raise ValueError("dropped_modes must be nonempty")
    if not modes.issubset(range(n)):
        raise ValueError(f"mode indices must lie in 0..{n - 1}")
    if len(modes) == n:
        raise ValueError("cannot drop every mode; at least one must remain")

    dropped_axes = sorted(
        [2 * m for m in modes] + [2 * m + 1 for m in modes], reverse=True
    )
    out = field.samples
    for ax_idx in dropped_axes:
        w = trapezoid_weights(field.grid.axes[ax_idx])
        out = np.tensordot(out, w, axes=([ax_idx], [0]))
    kept_axes = tuple(
        ax
        for i, ax in enumerate(field.grid.axes)
        if i not in set(dropped_axes)
    )
    return field_from_samples(PhaseSpaceGrid(axes=kept_axes), out)


def tensor_product(a: WignerField, b: WignerField) -> WignerField:
    """Joint field of a product state: W(x_A, x_B) = W_A(x_A) W_B(x_B)."""
    if not (a.normalized and b.normalized):
        raise UnnormalizedFieldError("tensor_product requires normalized factors")
    joint = np.multiply.outer(a.samples, b.samples)
    grid = PhaseSpaceGrid(axes=a.grid.axes + b.grid.axes)
    return field_from_samples(grid, joint)


def overlap_trace(a: WignerField, b: WignerField) -> float:
    """Tr(rho_a rho_b) = (4 pi)^N integral of W_a W_b (hbar = 2)."""
    if a.grid != b.grid:
        raise GridMismatchError("overlap_trace needs both fields on one grid")
    n = a.mode_count
    return (4.0 * np.pi) ** n * integrate_samples(
        a.samples * b.samples, a.grid.axes
    )


def wigner_from_wavefunction(
    psi: Callable[[np.ndarray], np.ndarray], grid: PhaseSpaceGrid
) -> WignerField:
    """Wigner field of a pure state from its position wavefunction.

    W(q, p) = (1/2pi) * int dy psi*(q - y) psi(q + y) exp(-i p y)

    psi is called with ndarray arguments. It is first sampled on the grid's
    q-axis extended by the axis's own width on each side; that lattice gives
    the norm int |psi|^2 dx and the support where |psi|^2 exceeds 1e-32 of
    its peak, and the y-range is half that support's width. psi must be
    negligible beyond the lattice.

    The y-integral is one FFT per block of q-rows. With n = 4 (n_p - 1) and
    dy = 2 pi / (n dp), bin k of the transform of psi*(q - y) psi(q + y)
    exp(-i p_min y) is W at p_min + k dp, so the first n_p bins land on the
    grid's own p-axis; y-samples beyond n are folded modulo n, which leaves
    every bin exact. The sampled sum aliases W(q, p + 2 pi j / dy), j != 0,
    onto W(q, p): W must be negligible farther than three grid p-widths
    beyond either p-edge.

    The result is divided by the norm of psi, never by its own integral,
    so unnormalized wavefunctions are accepted and mass that falls off the
    grid shows in the normalized flag, which is set from the on-grid
    integral.
    """
    if grid.mode_count != 1:
        raise ValueError("wigner_from_wavefunction handles single-mode grids")
    q, p = grid.axes
    dq, dp = grid.spacings
    x = q[0] + dq * np.arange(1 - q.size, 2 * q.size - 1)
    dens = np.abs(psi(x)) ** 2
    norm = float(dens @ trapezoid_weights(x))
    if not (norm >= 1e-8 and np.isfinite(norm)):
        raise NonNormalizableError(
            f"wavefunction norm {norm:.3e} near the grid is negligible or not finite"
        )
    support = x[dens > 1e-32 * dens.max()]

    n = 4 * (p.size - 1)
    dy = 2 * np.pi / (n * dp)
    half = int(np.ceil((support[-1] - support[0]) / (2 * dy)))
    y = dy * np.arange(-half, half + 1)
    phase = np.exp(-1j * p[0] * y)
    start = -half % n  # where y[0] falls in the folded sequence
    width = n * int(np.ceil((start + y.size) / n))
    rows = max(1, 2**18 // width)
    w = np.empty(grid.shape)
    for r in range(0, q.size, rows):
        u = psi(q[r : r + rows, None] + y)  # y is symmetric: u[:, ::-1] is psi(q - y)
        seq = np.zeros((u.shape[0], width), dtype=complex)
        seq[:, start : start + y.size] = np.conjugate(u[:, ::-1]) * u * phase
        folded = seq.reshape(u.shape[0], -1, n).sum(axis=1)
        w[r : r + rows] = np.fft.fft(folded, axis=1).real[:, : p.size]
    return field_from_samples(grid, w * (dy / (2 * np.pi * norm)))


def csv_header(mode_count: int) -> str:
    if mode_count == 1:
        return "q,p,w"
    cols = []
    for m in range(1, mode_count + 1):
        cols += [f"q{m}", f"p{m}"]
    return ",".join(cols + ["w"])


def write_field_csv(field: WignerField, path) -> None:
    """Row-major CSV dump: one row per grid node, all values %.12e.

    Byte-identical to np.savetxt of the coordinate columns and samples, but
    each coordinate is formatted once: a row along the last axis is its
    leading coordinates' prefix on a template of the last-axis values.
    """
    *lead, last = [["%.12e" % v for v in ax.tolist()] for ax in field.grid.axes]
    tails = [v + ",%.12e\n" for v in last]
    rows = field.samples.reshape(-1, len(last))
    with open(path, "w") as fh:
        fh.write(csv_header(field.mode_count) + "\n")
        for coords, row in zip(itertools.product(*lead), rows):
            prefix = ",".join(coords) + ","
            fh.write((prefix + prefix.join(tails)) % tuple(row.tolist()))


def read_field_csv(path) -> WignerField:
    """Rebuild a field from write_field_csv output."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_axes = data.shape[1] - 1
    if n_axes < 2 or n_axes % 2 != 0:
        raise ValueError("unexpected CSV column count")
    grid = PhaseSpaceGrid(axes=tuple(np.unique(data[:, j]) for j in range(n_axes)))
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    expected = np.column_stack([m.ravel() for m in mesh])
    if expected.shape[0] != data.shape[0] or not np.allclose(
        expected, data[:, :n_axes], atol=0, rtol=1e-12
    ):
        raise ValueError("CSV rows are not a row-major grid enumeration")
    samples = data[:, -1].reshape(grid.shape)
    return field_from_samples(grid, samples)
