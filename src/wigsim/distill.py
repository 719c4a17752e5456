"""Negativity distillation by beam splitter, vacuum ancilla, and homodyne.

The input state is mixed with vacuum on a transmittance-t beam splitter and
the ancilla's p quadrature is measured. Conditioned on outcome p_v, the
unnormalized output field is

    raw(q, p) = G(p) * (2 pi sqrt(1-t))^{-1}
                * int dw exp(-(q - sqrt(t) w)^2 / (2(1-t))) W_in(w, p')

with p' = sqrt(t) p - sqrt(1-t) p_v and
G(p) = exp(-(sqrt(t) p_v + sqrt(1-t) p)^2 / 2), obtained from the joint
post-beam-splitter field by substituting w for the ancilla position. The
Gaussian w-kernel does not depend on p_v, and interpolating W_in at p' is
linear in its columns, so the two commute: a sweep over outcomes blurs the
input once (one matrix product per sweep) and pays only a column
interpolation per outcome. The outcome density is the integral of raw;
dividing by it normalizes the conditional state.

Postselection keeps a contiguous outcome window [p-, p+]. Over a window,
P_suc integrates the density, avg_neg integrates density * negativity, and
post_neg = avg_neg / P_suc; likewise for fidelity when a cubic-phase target
is tracked. The tracked target for outcome p_v is the cubic-phase state
shifted to P' = sqrt((1-t)/t) * p_v, which is where the ancilla kick moves
the state's momentum.
"""

from __future__ import annotations

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
    integrate_samples,
    trapezoid_weights,
    wigner_from_wavefunction,
)
from .monotones import fidelity_to_pure, log_negativity
from .states import CubicPhase, ResourceStateSpec, cubic_phase_wigner, resource_wigner
from .symplectic import EPS_COND

DEFAULT_TRANSMITTANCE = 0.95


def default_protocol_grid() -> PhaseSpaceGrid:
    """Single-mode grid wide enough in p for conditioned cubic states."""
    return build_grid(-16.0, 16.0, 1025, -32.0, 32.0, 2049)


def default_outcome_samples() -> np.ndarray:
    return np.linspace(-6.0, 6.0, 81)


@dataclass(frozen=True)
class OutcomeRecord:
    """One homodyne outcome: its density, output negativity, and fidelity."""

    p_v: float
    density: float
    neg: float
    fid: float | None = None


@dataclass(frozen=True, eq=False)
class DistillationConfig:
    """Inputs of a full outcome sweep.

    input is either a resource-state record (realized on input_grid) or a
    ready-made normalized field. Exactly one of window / target_P_suc may be
    given; neither means the full sampled range. s_targ (with gamma, which
    defaults to the input's when it is a cubic-phase record) switches on
    fidelity tracking.
    """

    input: object
    t: float = DEFAULT_TRANSMITTANCE
    p_v_samples: np.ndarray = None
    window: tuple = None
    target_P_suc: float = None
    input_grid: PhaseSpaceGrid = None
    output_grid: PhaseSpaceGrid = None
    s_targ: float = None
    gamma: float = None

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError("transmittance must lie strictly inside (0, 1)")
        samples = (
            default_outcome_samples()
            if self.p_v_samples is None
            else np.asarray(self.p_v_samples, dtype=float)
        )
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("p_v_samples must hold at least 2 values")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("p_v_samples must be strictly increasing")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "p_v_samples", samples)
        if self.window is not None and self.target_P_suc is not None:
            raise ValueError("give either a window or a target_P_suc, not both")
        if self.window is not None:
            lo, hi = self.window
            if not lo < hi:
                raise ValueError("window must satisfy p- < p+")
        if self.target_P_suc is not None and not 0.0 < self.target_P_suc <= 1.0:
            raise ValueError("target_P_suc must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    """Sweep results: per-outcome records plus window aggregates."""

    records: tuple
    P_suc: float
    avg_neg: float
    post_neg: float
    window: tuple
    ini_neg: float
    avg_fid: float = None
    post_fid: float = None

    def __post_init__(self):
        if any(r.density < 0 for r in self.records):
            raise ValueError("outcome densities must be nonnegative")
        if not -1e-12 <= self.P_suc <= 1.0 + TOL_NORM:
            raise ValueError(f"P_suc={self.P_suc:.6f} outside [0, 1+tol]")
        lo, hi = self.window
        if not lo < hi:
            raise ValueError("window must satisfy p- < p+")


class _Conditional:
    """The conditional protocol for one input field, t and output grid.

    K @ interp_p(W) == interp_p(K @ W), so the blurred input B = K @ W (K the
    Gaussian w-kernel with trapezoid weights) is built once; each outcome
    gathers two columns of B per output p, with weights that fold in G(p)
    and zero p' off the input grid.
    """

    def __init__(self, field: WignerField, t: float, grid_out: PhaseSpaceGrid):
        if field.mode_count != 1:
            raise GridMismatchError("distillation input must be single-mode")
        if not field.normalized:
            raise UnnormalizedFieldError("distillation input must be normalized")
        if not 0.0 < t < 1.0:
            raise ValueError("transmittance must lie strictly inside (0, 1)")
        rt, rr = np.sqrt(t), np.sqrt(1.0 - t)
        self._rt, self._rr = rt, rr
        q_in, self._p_in = field.grid.axes
        diff = grid_out.axes[0][:, None] - rt * q_in[None, :]
        kernel = np.exp(-diff * diff / (2.0 * (1.0 - t))) / (2.0 * np.pi * rr)
        kernel *= trapezoid_weights(q_in)[None, :]
        self._blurred = kernel @ field.samples
        self._grid_out = grid_out

    def __call__(self, p_v: float) -> tuple:
        """Normalized output field and outcome density for outcome p_v."""
        p_in = self._p_in
        p_out = self._grid_out.axes[1]
        rt, rr = self._rt, self._rr

        p_prime = rt * p_out - rr * p_v
        step = (p_in[-1] - p_in[0]) / (p_in.size - 1)
        f = (p_prime - p_in[0]) / step
        inside = (f >= 0.0) & (f <= p_in.size - 1)
        i0 = np.clip(np.floor(f).astype(np.int64), 0, p_in.size - 2)
        frac = np.clip(f - i0, 0.0, 1.0)
        g_p = np.exp(-0.5 * (rt * p_v + rr * p_out) ** 2) * inside

        raw = np.take(self._blurred, i0, axis=1)
        raw *= (1.0 - frac) * g_p
        upper = np.take(self._blurred, i0 + 1, axis=1)
        upper *= frac * g_p
        raw += upper
        del upper  # free it before the density integral allocates

        density = integrate_samples(raw, self._grid_out.axes)
        if density < EPS_COND:
            raise DegenerateConditioningError(
                f"outcome density {density:.3e} at p_v={p_v:.3f} "
                f"below {EPS_COND:.0e}"
            )
        raw /= density
        field = WignerField(grid=self._grid_out, samples=raw, normalized=True)
        return field, float(density)


def distill_conditional(
    field: WignerField,
    t: float,
    p_v: float,
    output_grid: PhaseSpaceGrid = None,
) -> tuple:
    """Conditional output state and outcome density for one p_v."""
    grid_out = field.grid if output_grid is None else output_grid
    return _Conditional(field, t, grid_out)(p_v)


def _cubic_target(
    gamma: float, s_targ: float, t: float, p_v: float, grid: PhaseSpaceGrid
) -> WignerField:
    shift = np.sqrt((1.0 - t) / t) * p_v
    return cubic_phase_wigner(gamma, shift, s_targ, grid, check_norm=False)


def _segment_integral(xs, ys, lo, hi) -> float:
    """Integral of the piecewise-linear interpolant of (xs, ys) over [lo, hi]."""
    total = 0.0
    for k in range(xs.size - 1):
        a, b = xs[k], xs[k + 1]
        left, right = max(a, lo), min(b, hi)
        if right <= left:
            continue
        slope = (ys[k + 1] - ys[k]) / (b - a)
        y_left = ys[k] + slope * (left - a)
        y_right = ys[k] + slope * (right - a)
        total += 0.5 * (y_left + y_right) * (right - left)
    return total


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

    best = None
    best_post = -np.inf
    for i in range(xs.size - 1):
        for j in range(i + 1, xs.size):
            mass = mass_prefix[j] - mass_prefix[i]
            local = max(bin_mass[i], bin_mass[j - 1], 1e-15)
            if abs(mass - target_P_suc) > local or mass <= 0.0:
                continue
            post = (weighted_prefix[j] - weighted_prefix[i]) / mass
            if post > best_post:
                best_post = post
                best = (float(xs[i]), float(xs[j]))
    if best is None:
        raise ValueError("no feasible window for the requested success probability")
    return best


def distill_sweep(config: DistillationConfig) -> DistillationOutcome:
    """Run the conditional protocol over every sampled outcome and aggregate."""
    gamma = config.gamma
    if config.s_targ is not None and gamma is None:
        if isinstance(config.input, CubicPhase):
            gamma = config.input.gamma
        else:
            raise ValueError("fidelity tracking needs gamma for non-cubic inputs")

    if isinstance(config.input, WignerField):
        field = config.input
    else:
        grid_in = (
            default_protocol_grid() if config.input_grid is None else config.input_grid
        )
        field = resource_wigner(config.input, grid_in)
    grid_out = field.grid if config.output_grid is None else config.output_grid
    conditional = _Conditional(field, config.t, grid_out)
    ini_neg = log_negativity(field)

    records = []
    for p_v in config.p_v_samples.tolist():
        out_field, density = conditional(p_v)
        neg = log_negativity(out_field)
        fid = None
        if config.s_targ is not None:
            target = _cubic_target(gamma, config.s_targ, config.t, p_v, grid_out)
            fid = fidelity_to_pure(out_field, target)
        records.append(OutcomeRecord(p_v=p_v, density=density, neg=neg, fid=fid))

    xs = config.p_v_samples
    if config.window is not None:
        lo, hi = float(config.window[0]), float(config.window[1])
        if hi <= xs[0] or lo >= xs[-1]:
            raise ValueError("window lies outside the sampled outcome range")
    elif config.target_P_suc is not None:
        lo, hi = select_window(records, config.target_P_suc)
    else:
        lo, hi = float(xs[0]), float(xs[-1])

    dens = np.array([r.density for r in records])
    negs = np.array([r.neg for r in records])
    p_suc = _segment_integral(xs, dens, lo, hi)
    if p_suc < EPS_COND:
        raise ValueError("selected window has negligible success probability")
    avg_neg = _segment_integral(xs, dens * negs, lo, hi)

    avg_fid = post_fid = None
    if config.s_targ is not None:
        fids = np.array([r.fid for r in records])
        avg_fid = _segment_integral(xs, dens * fids, lo, hi)
        post_fid = avg_fid / p_suc

    return DistillationOutcome(
        records=tuple(records),
        P_suc=float(p_suc),
        avg_neg=float(avg_neg),
        post_neg=float(avg_neg / p_suc),
        window=(lo, hi),
        ini_neg=ini_neg,
        avg_fid=avg_fid,
        post_fid=post_fid,
    )


def on_gate_output(gamma: float, q_tilde: float, grid: PhaseSpaceGrid) -> WignerField:
    """Cubic-gate output sigma_{q~} for an infinitely squeezed input.

    The state is the normalized integral of exp(-(q + q~)^2/4 + i gamma q^3)
    over position, i.e. a cubic phase imprinted on a displaced finite-width
    Gaussian noise factor.
    """

    def psi(q):
        q = np.asarray(q, dtype=float)
        return np.exp(-((q + q_tilde) ** 2) / 4.0 + 1j * gamma * q**3)

    return wigner_from_wavefunction(psi, grid)


def write_sweep_csv(outcome: DistillationOutcome, path) -> None:
    """Serialize a sweep: one row per outcome, aggregates in footer comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p_v,density,neg,fid\n")
        for r in outcome.records:
            fid = float("nan") if r.fid is None else r.fid
            fh.write(f"{r.p_v:.12e},{r.density:.12e},{r.neg:.12e},{fid:.12e}\n")
        fh.write(
            f"# P_suc={outcome.P_suc:.12e} avg_neg={outcome.avg_neg:.12e} "
            f"post_neg={outcome.post_neg:.12e} "
            f"window=[{outcome.window[0]:.12e},{outcome.window[1]:.12e}] "
            f"ini_neg={outcome.ini_neg:.12e}\n"
        )
        if outcome.avg_fid is not None:
            fh.write(
                f"# avg_fid={outcome.avg_fid:.12e} post_fid={outcome.post_fid:.12e}\n"
            )
