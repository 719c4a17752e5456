"""Negativity distillation by beam splitter, vacuum ancilla, and homodyne.

The input state is mixed with vacuum on a transmittance-t beam splitter and
the ancilla's p quadrature is measured. Conditioned on outcome p_v, the
unnormalized output field is

    raw(q, p) = G(p) * (2 pi sqrt(1-t))^{-1}
                * int dw exp(-(q - sqrt(t) w)^2 / (2(1-t))) W_in(w, p')

with p' = sqrt(t) p - sqrt(1-t) p_v and
G(p) = exp(-(sqrt(t) p_v + sqrt(1-t) p)^2 / 2), obtained from the joint
post-beam-splitter field by substituting w for the ancilla position.

Each outcome's field lives on its own lattice: the input q-axis, and the
image of the input p-axis, p_j = (p_in,j + sqrt(1-t) p_v) / sqrt(t), on
which p' lands exactly on the input columns. The Gaussian w-kernel does not
depend on p_v, so the input is blurred once, B = K @ W_in (banded), and
each outcome is raw = B * G(p_j), column for column, with nothing
interpolated. As G depends on p alone, every outcome takes its density,
which normalizes the conditional state, and l1 = integral |raw| from the
q-integrals of B and |B| dotted with G times the p-weights; N_L =
ln(l1 / density). Only distill_conditional builds a field or holds B whole.

A sweep needs those q-integrals alone, and two exact identities cut the
arithmetic behind them to about a quarter on the protocol grid. Parity: on
a q-axis antisymmetric to the bit, an input (and target) even in q to the
bit gives an even B, so only the rows with q <= 0 are blurred, each with
its mirror row's trapezoid weight added; every cubic-phase input is even
there, as its mirror rows are copies. Sign split: the q-integral of B is
linear in W_in, so it is one matrix-vector product, and in a column of W_in
with no negative sample B >= 0, so the q-integral of |B| is that of B. The
banded matmul then runs only over the column range holding W_in's negative
samples (p >~ 0 for a cubic input, none for the vacuum), or over every
column when a target is tracked.

The blur's matrix product runs on normal doubles only, as subnormal
arithmetic would make it 2-3x slower: the cubic-phase input holds no
subnormal sample, and the kernel is lifted by an exact power of two (_lift).
distill_conditional's columns keep the unlifted product's bits, and its B
differs from it only in entries the unlifted product rounded at subnormal
precision (below 1e-291 on the protocol grid). A sweep's columns, folded
and split, agree with those to about 1e-15 of the largest column.

Postselection keeps a contiguous outcome window [p-, p+]. Over a window,
P_suc integrates the density, avg_neg integrates density * negativity, and
post_neg = avg_neg / P_suc, and avg_l1 integrates l1, which the monotone
bounds by e^{ini_neg}; likewise for fidelity when a cubic-phase target
is tracked. The tracked target for outcome p_v is the cubic-phase state
shifted to P' = sqrt((1-t)/t) * p_v, which is where the ancilla kick moves
the state's momentum. That is the same shift as the outcome's lattice, so
on every outcome's lattice the target has the same samples T, those of the
unshifted target at (q_in, p_in / sqrt(t)): a sweep builds T once, and each
outcome's fidelity 4 pi integral raw * T / density takes its integral from
the q-integral of B * T, as its density does from that of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditioningError,
    GridMismatchError,
    UnnormalizedFieldError,
)
from .grids import (
    TOL_NORM,
    PhaseSpaceGrid,
    WignerField,
    build_grid,
    row_blocks,
    trapezoid_weights,
    wigner_from_wavefunction,
)
from .monotones import fidelity_of_overlap, log_negativity, log_negativity_of_l1
from .states import CubicPhase, cubic_phase_wigner, resource_wigner
from .symplectic import EPS_COND

DEFAULT_TRANSMITTANCE = 0.95

# the blur's kernel is 2^-106 of its peak at |q - sqrt(t) w| = sqrt(2 (1-t) _BAND_DEPTH)
_BAND_DEPTH = 106.0 * np.log(2.0)


def default_protocol_grid() -> PhaseSpaceGrid:
    """Single-mode grid wide enough in p for conditioned cubic states."""
    return build_grid(-16.0, 16.0, 1025, -32.0, 32.0, 2049)


def default_outcome_samples() -> np.ndarray:
    return np.linspace(-6.0, 6.0, 81)


@dataclass(frozen=True)
class OutcomeRecord:
    """One homodyne outcome: density, N_L, fidelity, l1 = integral |raw|."""

    p_v: float
    density: float
    neg: float
    fid: float | None = None
    l1: float | None = None


@dataclass(frozen=True, eq=False)
class DistillationConfig:
    """Inputs of a full outcome sweep.

    input is either a resource-state record (realized on input_grid, by
    default the protocol grid) or a ready-made normalized field, whose grid
    is then the input grid. Exactly one of window / target_P_suc may be
    given; neither means the full sampled range, and a window reaching past
    it is clipped to it in the outcome. s_targ switches on fidelity tracking
    toward cubic-phase targets with the input's gamma, so it needs a
    cubic-phase record as input. Each outcome's field lives on its own
    lattice over the input grid, so input_grid and output_grid may each be
    None or the input grid; the sweep refuses any other grid.
    """

    input: object
    t: float = DEFAULT_TRANSMITTANCE
    p_v_samples: np.ndarray = None
    window: tuple = None
    target_P_suc: float = None
    input_grid: PhaseSpaceGrid = None
    output_grid: PhaseSpaceGrid = None
    s_targ: float = None

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError("transmittance must lie strictly inside (0, 1)")
        given = self.p_v_samples
        samples = default_outcome_samples() if given is None else np.array(given, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("p_v_samples must hold at least 2 values")
        if not np.all(np.isfinite(samples)) or np.any(np.diff(samples) <= 0):
            raise ValueError("p_v_samples must be finite and strictly increasing")
        samples.setflags(write=False)
        object.__setattr__(self, "p_v_samples", samples)
        if self.window is not None and self.target_P_suc is not None:
            raise ValueError("give either a window or a target_P_suc, not both")
        if self.window is not None and not (
            len(self.window) == 2 and self.window[0] < self.window[1]
        ):
            raise ValueError("window must be a pair (p-, p+) with p- < p+")
        if self.target_P_suc is not None and not 0.0 < self.target_P_suc <= 1.0:
            raise ValueError("target_P_suc must lie in (0, 1]")
        if self.s_targ is not None and not 0.0 <= self.s_targ < np.inf:
            raise ValueError("s_targ must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    """Sweep results: per-outcome records plus window aggregates.

    avg_l1 is the window's integral of l1 = density * e^{N_L}. The blur and
    the homodyne integral have positive kernels, so the integral of l1 over
    all outcomes is at most that of |W_in|: avg_l1 <= e^{ini_neg}. Derived,
    not stored: post_neg = avg_neg / P_suc, post_fid = avg_fid / P_suc (None
    without fidelity tracking) and rate_bound.
    """

    records: tuple
    P_suc: float
    avg_neg: float
    window: tuple
    ini_neg: float
    avg_l1: float
    avg_fid: float = None

    def __post_init__(self):
        if any(r.density < 0 for r in self.records):
            raise ValueError("outcome densities must be nonnegative")
        if not -1e-12 <= self.P_suc <= 1.0 + TOL_NORM:
            raise ValueError(f"P_suc={self.P_suc:.6f} outside [0, 1+tol]")
        if not self.window[0] < self.window[1]:
            raise ValueError("window must satisfy p- < p+")

    @property
    def post_neg(self) -> float:
        return self.avg_neg / self.P_suc

    @property
    def post_fid(self) -> float | None:
        return None if self.avg_fid is None else self.avg_fid / self.P_suc

    @property
    def rate_bound(self) -> float:
        """exp(ini_neg - post_neg), the paper's bound on the success rate.

        The window's integral of density * e^{N_L} (avg_l1) is at most
        e^{ini_neg}, so by Jensen's inequality P_suc <= rate_bound.
        """
        return float(np.exp(self.ini_neg - self.post_neg))


def _lift(samples: np.ndarray, w_q: np.ndarray, t: float) -> float:
    """The power of two 2^L by which _blur scales its kernel, exactly.

    An in-band kernel weight is at least 2^-106 of w_q / (2 pi sqrt(1-t)),
    so at L = 600 its lifted product with any normal sample is normal. A
    kernel row sums to at most S / (2 pi sqrt(1-t)), S = sum of w_q, so
    |lift B| <= lift max|W| S / (2 pi sqrt(1-t)) and a column is at most S
    times that; L drops below 600 where that would pass 2^1022 (samples
    beyond about 2^410 on the protocol grid).
    """
    peak = max(samples.max(), -samples.min())
    span = float(np.sum(w_q))
    bound = np.log2(peak) + 2.0 * np.log2(span) - np.log2(2.0 * np.pi * np.sqrt(1.0 - t))
    return math.ldexp(1.0, min(600, 1022 - math.ceil(bound)))


def _blur(field: WignerField, t: float, whole: bool = False, target=None) -> tuple:
    """Columns w_q B, w_q |B| (and f = w_q B T given T) of B = K @ W; B if whole.

    B is banded by row blocks and the product runs in lifted units (a
    target's |T| <= 1/(2 pi) keeps f within the bound on |B|); the columns
    are scaled back once. whole=True, distill_conditional's path, takes no
    target and blurs every row; it flushes each block of B below 2^-1022
    lift before it scales it back, so B holds no subnormal.
    """
    field.grid.require_single_mode("the distillation conditional")
    if not field.normalized:
        raise UnnormalizedFieldError("distillation input must be normalized")
    if not 0.0 < t < 1.0:
        raise ValueError("transmittance must lie strictly inside (0, 1)")
    q, samples = field.grid.axes[0], field.samples
    w_q = trapezoid_weights(q)
    lift = _lift(samples, w_q, t)
    if not whole:
        return _blurred_columns(q, samples, t, lift, target) / lift, None
    floor = np.finfo(float).tiny * lift
    columns = np.zeros((2, samples.shape[1]))
    blurred = np.zeros(samples.shape)
    for rows, lo, hi, kernel in _kernel_blocks(q, t, lift, samples.shape):
        block = kernel @ samples[lo:hi]
        columns[0] += w_q[rows] @ block
        magnitude = np.abs(block)
        columns[1] += w_q[rows] @ magnitude
        np.multiply(block, 1.0 / lift, out=blurred[rows], where=magnitude >= floor)
    return columns / lift, blurred


def _kernel_blocks(q, t: float, lift: float, shape):
    """(rows, lo, hi, lifted K[rows, lo:hi]) over the row blocks of a field of shape.

    Input rows lo:hi are those within the band of some row of the block.
    """
    var2, src = 2.0 * (1.0 - t), np.sqrt(t) * q
    reach = np.sqrt(var2 * _BAND_DEPTH)
    weights = trapezoid_weights(q) / (2.0 * np.pi * np.sqrt(1.0 - t)) * lift
    for rows in row_blocks(shape):
        rows = slice(*rows.indices(shape[0]))  # the last block ends at row shape[0]
        lo, hi = np.searchsorted(src, q[rows][[0, -1]] + [-reach, reach])
        diff = q[rows, None] - src[lo:hi]
        yield rows, lo, hi, np.exp(-diff * diff / var2) * weights[lo:hi]


def _blurred_columns(q, samples, t: float, lift: float, target) -> np.ndarray:
    """lift * (w_q B, w_q |B| and f given T), by the module docstring's fold and split.

    The fold needs q == -q[::-1], W and T even to the bit; the folded w^T K
    equals the unfolded one only in its product with an even W.
    """
    n, width = samples.shape
    w = trapezoid_weights(q)
    half = (n + 1) // 2  # the rows with q <= 0 on an antisymmetric axis
    if np.array_equal(q, -q[::-1]) and all(_even(a) for a in (samples, target) if a is not None):
        w[: n - half] += w[half:][::-1]
        n = half
    if target is None:
        negative = np.flatnonzero(_column_minima(samples[:n]) < 0.0)
        span = slice(negative[0], negative[-1] + 1) if negative.size else slice(0, 0)
    else:
        span = slice(0, width)
    magnitude = np.zeros(span.stop - span.start)
    overlap = np.zeros(width)
    folded = np.zeros(q.size)
    for rows, lo, hi, kernel in _kernel_blocks(q, t, lift, (n, width)):
        folded[lo:hi] += w[rows] @ kernel
        if magnitude.size:
            block = kernel @ samples[lo:hi, span]
            if target is not None:
                overlap += w[rows] @ (block * target[rows])
            magnitude += w[rows] @ np.abs(block, out=block)
    density = folded @ samples
    l1 = density.copy()
    l1[span] = magnitude
    return np.array([density, l1] if target is None else [density, l1, overlap])


def _even(samples) -> bool:
    """Whether samples equal their q-mirror bitwise, checked a row block at a time."""
    n = samples.shape[0]
    half = (n + 1) // 2
    for rows in row_blocks((half,) + samples.shape[1:]):
        lo, hi = rows.indices(half)[:2]
        if not np.array_equal(samples[lo:hi], samples[n - 1 - lo : n - 1 - hi : -1]):
            return False
    return True


def _column_minima(samples) -> np.ndarray:
    """Each column's smallest sample, a row block at a time."""
    lowest = np.full(samples.shape[1], np.inf)
    for rows in row_blocks(samples.shape):
        np.minimum(lowest, samples[rows].min(axis=0), out=lowest)
    return lowest


def _outcome(columns, p_in, t: float, p_v: float) -> tuple:
    """Outcome p_v's lattice p_j, G(p_j), then density, l1 (and f's integral)."""
    p_out = (p_in + np.sqrt(1.0 - t) * p_v) / np.sqrt(t)
    g = np.exp(-0.5 * (np.sqrt(t) * p_v + np.sqrt(1.0 - t) * p_out) ** 2)
    density, *rest = (columns @ (g * (trapezoid_weights(p_in) / np.sqrt(t)))).tolist()
    if density < EPS_COND:
        msg = f"outcome density {density:.3e} at p_v={p_v:.3f} below {EPS_COND:.0e}"
        raise DegenerateConditioningError(msg)
    return p_out, g, density, *rest


def _outcome_field(q, blurred, p_out, g, density: float) -> WignerField:
    """The normalized output field B * G(p_j) / density on the outcome's lattice."""
    raw = blurred * g
    raw /= density  # density integrates B G over this lattice
    raw.setflags(write=False)  # handed over, so the field keeps it uncopied
    return WignerField(grid=PhaseSpaceGrid(axes=(q, p_out)), samples=raw, integral=1.0)


def distill_conditional(field: WignerField, t: float, p_v: float) -> tuple:
    """Conditional output state (on outcome p_v's lattice) and outcome density."""
    if not np.isfinite(p_v):
        raise ValueError(f"p_v must be finite, got {p_v}")
    columns, blurred = _blur(field, t, whole=True)
    p_out, g, density, _ = _outcome(columns, field.grid.axes[1], t, p_v)
    return _outcome_field(field.grid.axes[0], blurred, p_out, g, density), density


def _segment_integral(xs, ys, lo, hi) -> float:
    """Integral of the piecewise-linear interpolant of (xs, ys) over [lo, hi]."""
    a, b = xs[:-1], xs[1:]
    left, right = np.maximum(a, lo), np.minimum(b, hi)
    slope = (ys[1:] - ys[:-1]) / (b - a)
    y_left = ys[:-1] + slope * (left - a)
    y_right = ys[:-1] + slope * (right - a)
    parts = (0.5 * (y_left + y_right) * (right - left))[right > left]
    # a running sum from 0.0 adds the segments in order, as a loop would
    return float(np.cumsum(np.concatenate(([0.0], parts)))[-1])


def select_window(records, target_P_suc: float) -> tuple:
    """Contiguous outcome window hitting target_P_suc, maximizing post_neg.

    Window endpoints run over the sampled outcomes; a window is feasible
    when its mass is within one of its own edge-bin masses of the target,
    the finest adjustment its endpoints allow. Targets at or beyond the
    captured mass return the full range; targets beyond reach by more than
    one bin raise.
    """
    if len(records) < 2:
        raise ValueError("need at least two records")
    if not 0.0 < target_P_suc <= 1.0:
        raise ValueError("target_P_suc must lie in (0, 1]")
    xs = np.array([r.p_v for r in records])
    dens = np.array([r.density for r in records])
    negs = np.array([r.neg for r in records])

    widths = np.diff(xs)
    bin_mass = 0.5 * (dens[:-1] + dens[1:]) * widths
    bin_weighted = 0.5 * (dens[:-1] * negs[:-1] + dens[1:] * negs[1:]) * widths
    mass_prefix = np.concatenate([[0.0], np.cumsum(bin_mass)])
    weighted_prefix = np.concatenate([[0.0], np.cumsum(bin_weighted)])
    total = mass_prefix[-1]
    slack = max(np.max(bin_mass), 1e-15)

    if target_P_suc > total + slack:
        raise ValueError(
            f"target {target_P_suc:.4f} exceeds captured mass {total:.4f}"
        )
    if target_P_suc >= total - slack:
        return (float(xs[0]), float(xs[-1]))

    # every window [xs[i], xs[j]], i < j, in row-major order, so argmax
    # picks the first of equal maxima
    i, j = np.triu_indices(xs.size, k=1)
    mass = mass_prefix[j] - mass_prefix[i]
    local = np.maximum(np.maximum(bin_mass[i], bin_mass[j - 1]), 1e-15)
    feasible = np.flatnonzero((np.abs(mass - target_P_suc) <= local) & (mass > 0.0))
    if feasible.size == 0:
        raise ValueError("no feasible window for the requested success probability")
    i, j = i[feasible], j[feasible]
    post = (weighted_prefix[j] - weighted_prefix[i]) / mass[feasible]
    k = np.argmax(post)
    return (float(xs[i[k]]), float(xs[j[k]]))


def distill_sweep(config: DistillationConfig) -> DistillationOutcome:
    """Run the conditional protocol over every sampled outcome and aggregate."""
    if config.s_targ is not None and not isinstance(config.input, CubicPhase):
        raise ValueError("fidelity tracking needs gamma for non-cubic inputs")

    given = config.input if isinstance(config.input, WignerField) else None
    grid_in = given.grid if given else config.input_grid or default_protocol_grid()
    for name, grid in (("input_grid", config.input_grid), ("output_grid", config.output_grid)):
        if grid is not None and grid != grid_in:
            raise GridMismatchError(f"{name} may only repeat the input grid (a field input's own)")
    field = given or resource_wigner(config.input, grid_in)
    ini_neg = log_negativity(field)

    q_in, p_in = grid_in.axes
    # the target shifted to P' = sqrt((1-t)/t) p_v, on outcome p_v's lattice,
    # is the unshifted target at (q_in, p_in / sqrt(t))
    target = None if config.s_targ is None else cubic_phase_wigner(
        config.input.gamma, 0.0, config.s_targ,
        PhaseSpaceGrid(axes=(q_in, p_in / np.sqrt(config.t))),
    ).samples
    columns, _ = _blur(field, config.t, target=target)

    records = []
    for p_v in config.p_v_samples.tolist():
        _, _, density, l1, *overlap = _outcome(columns, p_in, config.t, p_v)
        fid = fidelity_of_overlap(4.0 * np.pi * overlap[0] / density) if overlap else None
        records.append(OutcomeRecord(p_v, density, log_negativity_of_l1(l1 / density), fid, l1))

    xs = config.p_v_samples
    if config.window is not None:
        lo, hi = float(config.window[0]), float(config.window[1])
        if hi <= xs[0] or lo >= xs[-1]:
            raise ValueError("window lies outside the sampled outcome range")
        lo, hi = max(lo, float(xs[0])), min(hi, float(xs[-1]))
    elif config.target_P_suc is not None:
        lo, hi = select_window(records, config.target_P_suc)
    else:
        lo, hi = float(xs[0]), float(xs[-1])

    dens = np.array([r.density for r in records])
    p_suc = _segment_integral(xs, dens, lo, hi)
    if p_suc < EPS_COND:
        raise ValueError("selected window has negligible success probability")
    avg_neg = _segment_integral(xs, dens * [r.neg for r in records], lo, hi)
    avg_l1 = _segment_integral(xs, np.array([r.l1 for r in records]), lo, hi)

    avg_fid = None
    if target is not None:
        avg_fid = _segment_integral(xs, dens * [r.fid for r in records], lo, hi)

    return DistillationOutcome(
        records=tuple(records),
        P_suc=float(p_suc),
        avg_neg=float(avg_neg),
        window=(lo, hi),
        ini_neg=ini_neg,
        avg_l1=avg_l1,
        avg_fid=avg_fid,
    )


def on_gate_output(gamma: float, q_tilde: float, grid: PhaseSpaceGrid) -> WignerField:
    """Cubic-gate output sigma_{q~} for an infinitely squeezed input.

    The position wavefunction is exp(-(q + q~)^2/4 + i gamma q^3), a cubic
    phase imprinted on a displaced finite-width Gaussian noise factor.
    wigner_from_wavefunction divides by its norm, so the field is flagged
    unnormalized when the grid cuts off part of the state.
    """

    def psi(q):
        q = np.asarray(q, dtype=float)
        return np.exp(-((q + q_tilde) ** 2) / 4.0 + 1j * gamma * (q * q * q))

    return wigner_from_wavefunction(psi, grid)


def write_sweep_csv(outcome: DistillationOutcome, path) -> None:
    """Serialize a sweep: one row per outcome, aggregates in footer comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p_v,density,neg,fid\n")
        for r in outcome.records:
            fid = float("nan") if r.fid is None else r.fid
            fh.write(f"{r.p_v:.12e},{r.density:.12e},{r.neg:.12e},{fid:.12e}\n")
        fh.write(
            f"# P_suc={outcome.P_suc:.12e} rate_bound={outcome.rate_bound:.12e} "
            f"avg_l1={outcome.avg_l1:.12e} "
            f"avg_neg={outcome.avg_neg:.12e} "
            f"post_neg={outcome.post_neg:.12e} "
            f"window=[{outcome.window[0]:.12e},{outcome.window[1]:.12e}] "
            f"ini_neg={outcome.ini_neg:.12e}\n"
        )
        if outcome.avg_fid is not None:
            fh.write(
                f"# avg_fid={outcome.avg_fid:.12e} post_fid={outcome.post_fid:.12e}\n"
            )
