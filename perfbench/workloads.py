"""The benchmark's workloads: inputs, one task, and its correctness checks.

Each workload is a closed loop with one client. ``setup`` builds grids,
configs and inputs; ``round`` draws the parameters of the next few tasks
from the seeded generator; ``task`` runs one task through wigsim's public
functions and returns its digest, its failed checks and its work units.

The seed picks parameters only from fixed menus and never changes grid
sizes or outcome counts. Where a menu choice changes the cost of a task
(the transmittance changes the conditional's cost by about 1.6x), a round
holds one task per menu value, so every run does the same mix of work.

Grids and outcome counts are smaller than the protocol's production sizes
so that a run holds several tasks; the sizes are stated per workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from wigsim import cli, distill, fock, grids, monotones, states, symplectic

GAMMA = 0.05
TOL_NORM = grids.TOL_NORM


@dataclass
class TaskResult:
    digest: dict
    failures: list = field(default_factory=list)
    nodes: int = 0  # grid nodes produced, see each workload
    outcomes: int = 0  # homodyne outcomes conditioned


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (smoke: bool, workdir: str) -> context
    round: Callable  # (context, rng) -> list of task parameters
    task: Callable  # (context, parameters) -> TaskResult


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# -- distill-bound -----------------------------------------------------------

BOUND_T = (0.9, 0.95, 0.99)
BOUND_S = (0.2, 0.6, 1.0)


def _bound_setup(smoke, workdir):
    if smoke:
        grid = grids.build_grid(-16.0, 16.0, 257, -32.0, 32.0, 513)
    else:
        grid = distill.default_protocol_grid()
    # every tenth of the 81 default outcomes: a sweep is 9 conditionals
    p_v = distill.default_outcome_samples()[::10]
    configs = {
        (t, s): distill.DistillationConfig(
            input=states.CubicPhase(GAMMA, 0.0, s),
            t=t,
            p_v_samples=p_v,
            input_grid=grid,
            output_grid=grid,
            target_P_suc=1.0,
        )
        for t in BOUND_T
        for s in BOUND_S
    }
    return {"configs": configs, "nodes": grid.shape[0] * grid.shape[1]}


def _bound_round(ctx, rng):
    return [
        {"t": float(t), "s": float(rng.choice(BOUND_S))}
        for t in rng.permutation(BOUND_T)
    ]


def _bound_task(ctx, prm):
    config = ctx["configs"][(prm["t"], prm["s"])]
    out = distill.distill_sweep(config)
    xs = config.p_v_samples
    res = TaskResult(
        digest={
            "t": prm["t"],
            "s": prm["s"],
            "P_suc": out.P_suc,
            "post_neg": out.post_neg,
            "ini_neg": out.ini_neg,
            "window": list(out.window),
        },
        nodes=len(xs) * ctx["nodes"],
        outcomes=len(xs),
    )
    f = res.failures
    # criterion 06: the full-range average cannot beat the input
    _check(f, out.post_neg <= 1.01 * out.ini_neg, "post_neg exceeds 1.01 * ini_neg")
    _check(f, 0.0 <= out.P_suc <= 1.0 + TOL_NORM, "P_suc outside [0, 1+tol]")
    _check(f, out.window == (float(xs[0]), float(xs[-1])), "window is not full range")
    _check(f, len(out.records) == len(xs), "record count differs from outcomes")
    _check(
        f,
        all(r.density >= 0 and math.isfinite(r.neg) for r in out.records),
        "non-finite or negative outcome record",
    )
    return res


# -- distill-fidelity --------------------------------------------------------

FID_OFFSETS = (-0.2, -0.1, 0.0, 0.1, 0.2)


def _fid_setup(smoke, workdir):
    # the criterion-07 gain-leg extents; the full grid has half its
    # resolution per axis (641 x 1025 instead of 1281 x 2049)
    n_q, n_p = (257, 513) if smoke else (641, 1025)
    grid = grids.build_grid(-20.0, 20.0, n_q, -64.0, 64.0, n_p)
    # 14 outcomes: coarse over the low-density left tail, 0.1 apart where the
    # 1% window ends, so P_suc lands within 0.002 of the target
    band = np.r_[-6.0, -5.0, -4.0, -3.5, np.linspace(-3.2, -2.3, 10)]
    configs = {
        off: distill.DistillationConfig(
            input=states.CubicPhase(GAMMA, 0.0, 1.0),
            t=0.99,
            p_v_samples=band + off,
            input_grid=grid,
            output_grid=grid,
            target_P_suc=0.01,
            s_targ=4.0,
        )
        for off in FID_OFFSETS
    }
    return {
        "configs": configs,
        "nodes": grid.shape[0] * grid.shape[1],
        "fid_ini": monotones.fidelity_initial_analytic(1.0, 4.0),
    }


def _fid_round(ctx, rng):
    return [{"offset": float(rng.choice(FID_OFFSETS))}]


def _fid_task(ctx, prm):
    config = ctx["configs"][prm["offset"]]
    out = distill.distill_sweep(config)
    xs = config.p_v_samples
    ratio = out.post_fid / ctx["fid_ini"]
    res = TaskResult(
        digest={
            "offset": prm["offset"],
            "P_suc": out.P_suc,
            "post_neg": out.post_neg,
            "post_fid": out.post_fid,
            "ini_neg": out.ini_neg,
            "window": list(out.window),
        },
        nodes=len(xs) * ctx["nodes"],
        outcomes=len(xs),
    )
    f = res.failures
    # criterion 07, gain leg
    _check(f, abs(out.P_suc - 0.01) <= 0.002, "P_suc misses 0.01 +- 0.002")
    _check(f, out.post_neg > out.ini_neg, "no negativity gain")
    _check(f, ratio >= 1.10, f"fidelity ratio {ratio:.4f} below 1.10")
    lo, hi = out.window
    _check(f, xs[0] <= lo < hi <= xs[-1], "window outside the outcome band")
    _check(f, (lo, hi) != (float(xs[0]), float(xs[-1])), "window did not narrow")
    return res


# -- states-io -----------------------------------------------------------------

N_L_ONE_PHOTON = math.log(4.0 / math.sqrt(math.e) - 1.0)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _grid_flags(qmax, nq, pmax, n_p):
    return ["--qmax", str(qmax), "--nq", str(nq), "--pmax", str(pmax), "--np", str(n_p)]


def _io_setup(smoke, workdir):
    if smoke:
        csv = (16.0, 65, 32.0, 129)
        g_fock = grids.build_grid(-16.0, 16.0, 65, -16.0, 16.0, 65)
        g_wave = grids.build_grid(-12.0, 12.0, 97, -40.0, 40.0, 321)
        square = (16.0, 257, 16.0, 257)
        tall = (16.0, 257, 40.0, 641)
        cutoff = 120
    else:
        # the CSV field is 385 x 769 over the CLI's default extents (17 MB
        # of text rather than 123 MB); the other grids are the tier-1 ones
        csv = (16.0, 385, 32.0, 769)
        g_fock = grids.build_grid(-16.0, 16.0, 257, -16.0, 16.0, 257)
        g_wave = grids.build_grid(-12.0, 12.0, 193, -40.0, 40.0, 641)
        square = (16.0, 1025, 16.0, 1025)
        tall = (16.0, 1025, 40.0, 2561)
        cutoff = 240
    csv_grid = grids.build_grid(-csv[0], csv[0], csv[1], -csv[2], csv[2], csv[3])
    nodes = (
        3 * csv[1] * csv[3]  # generated, written, read back
        + 2 * g_fock.shape[0] * g_fock.shape[1]  # Fock route and closed form
        + 2 * g_wave.shape[0] * g_wave.shape[1]  # wavefunction route and Airy
        + 3 * square[1] * square[3]  # number, ON, photon-modified
        + tall[1] * tall[3]  # cubic
    )
    return {
        "csv_flags": _grid_flags(*csv),
        "csv_grid": csv_grid,
        "csv_path": os.path.join(workdir, "field.csv"),
        "g_fock": g_fock,
        "g_wave": g_wave,
        "square": _grid_flags(*square),
        "tall": _grid_flags(*tall),
        "cutoff": cutoff,
        "nodes": nodes,
    }


def _io_round(ctx, rng):
    return [
        {
            "csv_s": float(rng.choice((0.2, 0.6, 1.0))),
            # cost of the Fock route grows with s, so s is fixed at 1.0
            "fock": (int(rng.choice((1, -1))), 1.0, float(rng.choice((0.0, math.pi / 4)))),
            "wave_s": float(rng.choice((0.2, 0.5, 1.0))),
            "pmod": (
                int(rng.choice((1, -1))),
                float(rng.choice((0.2, 0.5, 1.0))),
                float(rng.choice((0.0, math.pi / 4))),
            ),
            # criterion 03 at s = 0.2 is a known miss, so it is not an anchor
            "cubic_s": float(rng.choice((0.6, 1.0))),
        }
    ]


def _parse(pattern, text):
    match = re.search(pattern, text)
    return float(match.group(1)) if match else float("nan")


def _io_task(ctx, prm):
    res = TaskResult(digest=dict(prm), nodes=ctx["nodes"])
    f = res.failures
    path = ctx["csv_path"]
    try:
        rc, text = _run_cli(
            ["state", f"cubic:gamma={GAMMA},P=0,s={prm['csv_s']}", "--out", path]
            + ctx["csv_flags"]
        )
        _check(f, rc == 0, f"wigsim state exited {rc}: {text.strip()}")
        printed = _parse(r"integral=([-+0-9.eE]+)", text)
        back = grids.read_field_csv(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    integral = grids.integrate_full(back)
    res.digest["csv_integral"] = integral
    want = ctx["csv_grid"]
    _check(
        f,
        back.grid.shape == want.shape
        and all(np.allclose(a, b, rtol=1e-11, atol=0) for a, b in zip(back.grid.axes, want.axes)),
        "CSV grid differs from the requested grid",
    )
    _check(f, abs(integral - printed) <= 1e-6, "CSV integral differs from the printed one")
    _check(f, abs(integral - 1.0) <= TOL_NORM and back.normalized, "CSV field not normalized")

    sign, s, theta = prm["fock"]
    spec = states.PhotonMod(sign, s, theta)
    w_fock = fock.wigner_from_fock(fock.fock_density(spec, ctx["cutoff"]), ctx["g_fock"])
    w_ref = states.resource_wigner(spec, ctx["g_fock"])
    dev = float(np.max(np.abs(w_fock.samples - w_ref.samples)))
    res.digest["fock_dev"] = dev
    _check(f, dev < 1e-4, f"Fock oracle deviates by {dev:.2e}")  # criterion 10
    _check(f, abs(grids.integrate_full(w_fock) - 1.0) <= TOL_NORM, "Fock field not normalized")

    s = prm["wave_s"]
    w_psi = grids.wigner_from_wavefunction(
        states.cubic_phase_wavefunction(GAMMA, 0.0, s), ctx["g_wave"]
    )
    w_airy = states.cubic_phase_wigner(GAMMA, 0.0, s, ctx["g_wave"])
    dev = float(np.max(np.abs(w_psi.samples - w_airy.samples)))
    res.digest["wave_dev"] = dev
    _check(f, dev < 1e-4, f"wavefunction route deviates by {dev:.2e}")  # criterion 10

    sign, s, theta = prm["pmod"]
    cases = (
        ("number:n=1", ctx["square"], N_L_ONE_PHOTON, 1e-3),  # criterion 01
        ("on:N=3,aim=0.2449", ctx["square"], 0.11, 0.01),  # criterion 04
        (f"pmod:sign={sign},s={s},theta={theta!r}", ctx["square"], 0.354, 5e-3),  # 02
        (
            f"cubic:gamma={GAMMA},P=0,s={prm['cubic_s']}",
            ctx["tall"],
            {0.6: 0.38, 1.0: 0.81}[prm["cubic_s"]],
            0.02,
        ),  # criterion 03
    )
    for spec_text, flags, want, tol in cases:
        rc, text = _run_cli(["negativity", spec_text] + flags)
        neg = _parse(r"N_L = ([-+0-9.eE]+)", text)
        res.digest["N_L " + spec_text.split(":")[0]] = neg
        _check(f, rc == 0, f"wigsim negativity {spec_text} exited {rc}")
        _check(f, abs(neg - want) < tol, f"{spec_text}: N_L={neg} misses {want}+-{tol}")
    return res


# -- two-mode ----------------------------------------------------------------

TWO_MODE_T = (0.5, 0.9, 0.95)
# states whose beam-splitter output keeps its integral within the
# resampler's gate on both the full and the smoke grid
TWO_MODE_SPECS = (
    states.Number(1),
    states.ON(2, 0.4),
    states.CubicPhase(GAMMA, 0.0, 0.2),
)


def _two_setup(smoke, workdir):
    # 41 points per axis (2.8 M joint nodes, about 0.7 GB peak) instead of
    # 61 (13.8 M nodes, 3.1 GB), which would not fit beside other work
    ext, n = (6.0, 25) if smoke else (8.0, 41)
    grid = grids.build_grid(-ext, ext, n, -ext, ext, n)
    ops = {t: symplectic.sym_beamsplitter(t) for t in TWO_MODE_T}
    return {"grid": grid, "ops": ops, "nodes": n**4}


def _two_round(ctx, rng):
    return [
        {"t": float(t), "spec": int(rng.integers(len(TWO_MODE_SPECS)))}
        for t in rng.permutation(TWO_MODE_T)
    ]


def _two_task(ctx, prm):
    grid = ctx["grid"]
    spec = TWO_MODE_SPECS[prm["spec"]]
    single = states.resource_wigner(spec, grid)
    vacuum = states.vacuum_wigner(grid)
    joint = grids.tensor_product(single, vacuum)
    before = grids.integrate_full(joint)
    factors = grids.integrate_full(single) * grids.integrate_full(vacuum)
    mixed = symplectic.apply_symplectic(joint, ctx["ops"][prm["t"]])
    after = grids.integrate_full(mixed)
    mixed = grids.renormalize(mixed)
    cond, density = symplectic.condition_on_homodyne(mixed, 1, "p", 0.0)
    kept = grids.marginal_over(mixed, (1,))
    joint_neg = monotones.log_negativity(mixed)
    kept_neg = monotones.log_negativity(kept)
    res = TaskResult(
        digest={
            "t": prm["t"],
            "spec": repr(spec),
            "integral_before": before,
            "integral_after": after,
            "density": density,
            "joint_neg": joint_neg,
            "kept_neg": kept_neg,
        },
        nodes=ctx["nodes"],
    )
    f = res.failures
    _check(f, abs(before - factors) < 1e-12, "product integral does not factor")
    # the resampler's own gate on integral drift
    _check(f, abs(after - before) <= 10 * TOL_NORM, "beam splitter lost mass")
    _check(f, math.isfinite(density) and density > 0, "degenerate homodyne density")
    _check(f, abs(grids.integrate_full(cond) - 1.0) <= TOL_NORM, "conditioned field not normalized")
    _check(f, abs(grids.integrate_full(kept) - 1.0) <= TOL_NORM, "marginal not normalized")
    # criterion 09: tracing out a mode cannot raise the negativity
    _check(f, kept_neg <= joint_neg + 1e-9, "partial trace raised the negativity")
    return res


# why each workload exists is stated in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("distill-bound", _bound_setup, _bound_round, _bound_task),
        Workload("distill-fidelity", _fid_setup, _fid_round, _fid_task),
        Workload("states-io", _io_setup, _io_round, _io_task),
        Workload("two-mode", _two_setup, _two_round, _two_task),
    )
}
