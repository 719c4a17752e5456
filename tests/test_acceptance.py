"""End-to-end quantitative checks at production grid sizes.

One test per numbered criterion; each prints a one-line summary so a
verbose run doubles as a results table. Stated runtime budgets are
asserted alongside the numerical tolerances. Grid extents follow the
convergence needs of each state family: the cubic family keeps slow
tails in p, so those grids are much taller than they are wide.

Criteria 03, 06, 07 and 11 run the grids and configs of wigsim.cli.STUDIES,
the same runs `wigsim study` prints, so each study has one definition.
"""

import math
import time
import warnings

import numpy as np
import pytest

import wigsim as ws
from wigsim.cli import GAMMA, STUDIES
from wigsim.distill import (
    DistillationConfig,
    default_protocol_grid,
    distill_sweep,
    on_gate_output,
)
from wigsim.fock import fock_density, wigner_from_fock
from wigsim.grids import (
    integrate_full,
    marginal_over,
    tensor_product,
    wigner_from_wavefunction,
)
from wigsim.monotones import (
    fidelity_initial_analytic,
    fidelity_to_pure,
    log_negativity,
)
from wigsim.states import (
    ON,
    CubicPhase,
    Gaussian,
    GaussianStateParams,
    Number,
    PhotonMod,
    cubic_phase_wavefunction,
    cubic_phase_wigner,
    gaussian_wigner,
    number_state_wigner,
    resource_wigner,
    rotated_squeezed_cov,
)
from wigsim.symplectic import (
    apply_symplectic,
    compose,
    omega,
    sym_beamsplitter,
    sym_displace,
    sym_rotate,
    sym_squeeze,
)


def report(label, detail):
    print(f"{label}: {detail}")


def study_job(study, name):
    """The job that study runs for its output file name."""
    return dict(STUDIES[study]())[name]


def test_criterion_01_one_photon_negativity():
    t0 = time.perf_counter()
    neg = log_negativity(number_state_wigner(1, ws.default_grid()))
    elapsed = time.perf_counter() - t0
    want = math.log(4.0 / math.sqrt(math.e) - 1.0)
    report(
        "criterion 01",
        f"N_L(one photon)={neg:.6f} target={want:.6f} "
        f"err={abs(neg - want):.1e} (tol 1e-3) {elapsed:.1f}s",
    )
    assert abs(neg - want) < 1e-3
    assert elapsed < 5.0


def test_criterion_02_photon_mod_negativity():
    t0 = time.perf_counter()
    grid = ws.default_grid()
    vals = [
        log_negativity(resource_wigner(PhotonMod(sign, s, theta), grid))
        for sign in (1, -1)
        for s in (0.2, 0.5, 1.0)
        for theta in (0.0, math.pi / 4)
    ]
    elapsed = time.perf_counter() - t0
    dev = max(abs(v - 0.354) for v in vals)
    report(
        "criterion 02",
        f"12 add/subtract states in [{min(vals):.6f}, {max(vals):.6f}] "
        f"max dev from 0.354 = {dev:.1e} (tol 5e-3) {elapsed:.1f}s",
    )
    assert dev < 5e-3
    assert elapsed < 30.0


# N_L of |0.05, 0, s> read off the source paper's figure, with the band each
# is held to. The s = 0.2 read-off is recorded but not asserted: the state
# documented in wigsim.states gives 0.0784 there, on every route below and in
# the independent FFT reference. Gaussian invariance makes N_L a function of
# gamma e^{3s} alone, so an hbar or squeezing convention only rescales gamma
# or s; no such rescaling (gamma x sqrt2, 1/sqrt2, 2, 1/2; s x 2, 1/2) meets
# the s = 0.6 and 1.0 read-offs, which the documented convention meets. All
# three read-offs sit above the computed values (by 0.032, 0.019, 0.017), as
# values taken off a plotted curve would.
CUBIC_READOFF = {0.2: (0.11, None), 0.6: (0.38, 0.02), 1.0: (0.81, 0.02)}


@pytest.mark.parametrize("s", [0.2, 0.6, 1.0], ids=["s=0.2", "s=0.6", "s=1.0"])
def test_criterion_03_cubic_negativity(s, cubic_reference):
    t0 = time.perf_counter()
    grid, _ = study_job("curves", "cubic.csv")
    neg = log_negativity(resource_wigner(CubicPhase(GAMMA, 0.0, s), grid))

    # the library's two routes to the same field, on a reduced grid
    small = ws.build_grid(-16, 16, 257, -64, 64, 513)
    routes = [
        cubic_phase_wigner(GAMMA, 0.0, s, small),
        wigner_from_wavefunction(cubic_phase_wavefunction(GAMMA, 0.0, s), small),
    ]
    route_negs = [log_negativity(w) for w in routes]
    spread = max(route_negs) - min(route_negs)
    elapsed = time.perf_counter() - t0

    ref = cubic_reference(GAMMA, 0.0, s)
    readoff, band = CUBIC_READOFF[s]
    report(
        "criterion 03",
        f"s={s}: N_L={neg:.6f} reference={ref:.6f} (tol 1e-3) "
        f"route spread={spread:.1e} paper read-off={readoff} "
        f"gap={neg - readoff:+.4f} "
        + (f"(band {band})" if band is not None else "(not asserted)")
        + f" {elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert abs(neg - ref) < 1e-3
    assert spread < 1e-6
    if band is not None:
        assert abs(neg - readoff) < band


def test_criterion_04_on_state_and_gate_output():
    t0 = time.perf_counter()
    neg_on = log_negativity(
        resource_wigner(ON(3, 1j * math.sqrt(6) * 0.1), ws.default_grid())
    )
    grid = ws.build_grid(-16, 16, 1025, -32, 32, 2049)
    gate = {
        qt: log_negativity(on_gate_output(0.1, qt, grid))
        for qt in (0.0, 1.0, -1.0)
    }
    elapsed = time.perf_counter() - t0
    report(
        "criterion 04",
        f"N_L(ON)={neg_on:.6f} (0.11+-0.01); gate outputs "
        + " ".join(f"q~={qt:+.0f}:{v:.6f}" for qt, v in gate.items())
        + f" (0.09+-0.015, cap 0.12) {elapsed:.1f}s",
    )
    assert abs(neg_on - 0.11) < 0.01
    for v in gate.values():
        assert abs(v - 0.09) < 0.015
        assert v <= 0.11 + 0.01


def test_criterion_05_fidelity_anchors():
    t0 = time.perf_counter()
    cases = [
        (0.2, 16, 1025, 32, 2049, 0.04),
        (1.0, 20, 1281, 48, 3073, 0.10),
        (1.6, 24, 1537, 128, 6145, 0.18),
    ]
    details = []
    for s_ini, qm, nq, pm, n_p, caption in cases:
        grid = ws.build_grid(-qm, qm, nq, -pm, pm, n_p)
        w_ini = cubic_phase_wigner(GAMMA, 0.0, s_ini, grid)
        # the target state is far wider than any workable grid; the overlap
        # product is still supported where the initial state lives
        w_targ = cubic_phase_wigner(GAMMA, 0.0, 4.0, grid)
        fid = fidelity_to_pure(w_ini, w_targ)
        exact = 1.0 / math.cosh(4.0 - s_ini)
        analytic = fidelity_initial_analytic(s_ini, 4.0)
        assert abs(fid - exact) < 2e-3
        assert round(analytic, 2) == caption
        details.append(f"s={s_ini}: fid={fid:.6f} err={abs(fid - exact):.1e}")
    elapsed = time.perf_counter() - t0
    report(
        "criterion 05",
        "; ".join(details) + f" (tol 2e-3, captions match) {elapsed:.1f}s",
    )


def test_criterion_06_selective_average_bound():
    t0 = time.perf_counter()
    details = []
    for _, config in STUDIES["bound"]():
        t, s = config.t, config.input.s
        out = distill_sweep(config)
        bound = out.ini_neg * 1.01
        assert out.post_neg <= bound, (
            f"t={t} s={s}: full-range average {out.post_neg:.5f} "
            f"exceeds {bound:.5f}"
        )
        # the l1 form of the bound, with no slack: the window's integral
        # of density * e^{N_L} cannot exceed e^{N_L(in)}
        l1_bound = math.exp(out.ini_neg)
        assert out.avg_l1 <= l1_bound, (
            f"t={t} s={s}: avg_l1 {out.avg_l1:.6f} exceeds {l1_bound:.6f}"
        )
        details.append(
            f"t={t},s={s}:{out.post_neg:.4f}<={bound:.4f}"
            f",l1={out.avg_l1:.5f}<={l1_bound:.5f}"
        )
    elapsed = time.perf_counter() - t0
    report("criterion 06", " ".join(details) + f" {elapsed:.0f}s (budget 900s)")
    assert elapsed < 900.0


def test_criterion_07_distillation_gain_leg():
    t0 = time.perf_counter()
    config = study_job("effect", "effect_s1.0.csv")
    out = distill_sweep(config)
    s_ini = config.input.s
    ratio = out.post_fid / fidelity_initial_analytic(s_ini, config.s_targ)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 07 gain",
        f"s_ini={s_ini} t={config.t} window=[{out.window[0]:.2f},{out.window[1]:.2f}] "
        f"P_suc={out.P_suc:.6f} rate_bound={out.rate_bound:.4f} avg_l1={out.avg_l1:.6f} "
        f"post_neg={out.post_neg:.4f} "
        f"ini_neg={out.ini_neg:.4f} fid_ratio={ratio:.4f} {elapsed:.0f}s",
    )
    assert abs(out.P_suc - 0.01) <= 0.002
    assert out.post_neg > out.ini_neg
    assert out.P_suc <= out.rate_bound
    assert ratio >= 1.10


def test_criterion_07_saturation_leg():
    t0 = time.perf_counter()
    config = study_job("effect", "effect_s1.6.csv")
    out = distill_sweep(config)
    s_ini = config.input.s
    ratio = out.post_fid / fidelity_initial_analytic(s_ini, config.s_targ)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 07 saturation",
        f"s_ini={s_ini} t={config.t} window=[{out.window[0]:.2f},{out.window[1]:.2f}] "
        f"P_suc={out.P_suc:.6f} avg_l1={out.avg_l1:.6f} fid_ratio={ratio:.4f} (<1) {elapsed:.0f}s",
    )
    assert ratio < 1.0


@pytest.mark.parametrize("s", [0.2, 0.6, 1.0], ids=["s=0.2", "s=0.6", "s=1.0"])
def test_criterion_08_negativity_monotone_in_outcome(s):
    # at t=0.99 the negativity peak sits left of p_v=-3 for every s here,
    # so the curve is decreasing over the sampled range
    t0 = time.perf_counter()
    grid = default_protocol_grid()
    out = distill_sweep(
        DistillationConfig(
            input=CubicPhase(GAMMA, 0.0, s),
            t=0.99,
            p_v_samples=np.linspace(-3.0, 6.0, 61),
            input_grid=grid,
        )
    )
    negs = np.array([r.neg for r in out.records])
    steps = np.diff(negs)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 08",
        f"s={s}: neg falls {negs[0]:.4f} -> {negs[-1]:.4f} over p_v in "
        f"[-3,6], max step {steps.max():.1e} {elapsed:.0f}s",
    )
    assert np.all(steps <= 1e-10)


def test_criterion_09_monotone_axioms():
    t0 = time.perf_counter()

    # additivity on a product state
    g8 = ws.build_grid(-8, 8, 81, -8, 8, 81)
    w1 = number_state_wigner(1, g8)
    w2 = resource_wigner(ON(2, 0.4), g8)
    add_dev = abs(
        log_negativity(tensor_product(w1, w2))
        - log_negativity(w1)
        - log_negativity(w2)
    )
    assert add_dev < 1e-3

    # invariance under random Gaussian unitaries
    rng = np.random.default_rng(7)
    base_field = number_state_wigner(1, ws.default_grid())
    base = log_negativity(base_field)
    gu_dev = 0.0
    for _ in range(20):
        op = compose(
            sym_rotate(rng.uniform(0, 2 * np.pi)),
            compose(
                sym_squeeze(rng.uniform(-0.4, 0.4)),
                sym_rotate(rng.uniform(0, 2 * np.pi)),
            ),
        )
        gu_dev = max(
            gu_dev, abs(log_negativity(apply_symplectic(base_field, op)) - base)
        )
    assert gu_dev < 5e-3

    # convex mixtures of Gaussian states carry no negativity
    rng = np.random.default_rng(12)
    gmix = ws.build_grid(-10, 10, 257, -10, 10, 257)
    mix_max = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            weights = rng.uniform(0.1, 1.0, 3)
            weights /= weights.sum()
            samples = np.zeros(gmix.shape)
            for w in weights:
                params = GaussianStateParams(
                    mean=rng.uniform(-2, 2, 2),
                    cov=rotated_squeezed_cov(
                        rng.uniform(0, 0.5), rng.uniform(0, np.pi)
                    ),
                )
                samples += w * gaussian_wigner(params, gmix).samples
            mix_max = max(
                mix_max,
                log_negativity(ws.field_from_samples(gmix, samples)),
            )
    assert mix_max <= 1e-4

    # tracing out either side of the entangling stage cannot raise it
    g61 = ws.build_grid(-10, 10, 61, -10, 10, 61)
    joint = tensor_product(
        cubic_phase_wigner(GAMMA, 0.0, 0.2, g61), ws.vacuum_wigner(g61)
    )
    mixed = ws.renormalize(apply_symplectic(joint, sym_beamsplitter(0.9)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        joint_neg = log_negativity(mixed)
        kept = [
            log_negativity(marginal_over(mixed, (1,))),
            log_negativity(marginal_over(mixed, (0,))),
        ]
    assert all(m <= joint_neg + 1e-9 for m in kept)

    elapsed = time.perf_counter() - t0
    report(
        "criterion 09",
        f"additivity dev={add_dev:.1e}; unitary dev={gu_dev:.1e}; "
        f"mixture max={mix_max:.1e}; partial trace {joint_neg:.4f} >= "
        f"{max(kept):.4f} {elapsed:.0f}s",
    )


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    g161 = ws.build_grid(-10, 10, 161, -10, 10, 161)
    g257 = ws.build_grid(-16, 16, 257, -16, 16, 257)

    exact_dev = 0.0
    for n in range(7):
        spec = Number(n)
        dev = np.max(
            np.abs(
                wigner_from_fock(fock_density(spec, 32), g161).samples
                - resource_wigner(spec, g161).samples
            )
        )
        exact_dev = max(exact_dev, dev)
    for N in range(1, 7):
        for mag in (0.1, 0.3, 1.0):
            for phase in (1.0, 1j):
                spec = ON(N, mag * phase)
                dev = np.max(
                    np.abs(
                        wigner_from_fock(fock_density(spec, 32), g161).samples
                        - resource_wigner(spec, g161).samples
                    )
                )
                exact_dev = max(exact_dev, dev)
    for s in (0.2, 0.5, 1.0, 1.5):
        spec = Gaussian(
            params=GaussianStateParams(
                mean=np.zeros(2), cov=rotated_squeezed_cov(s, 0.4)
            )
        )
        dev = np.max(
            np.abs(
                wigner_from_fock(fock_density(spec, 300), g257).samples
                - resource_wigner(spec, g257).samples
            )
        )
        exact_dev = max(exact_dev, dev)
    assert exact_dev < 1e-6

    pmod_dev = 0.0
    for sign in (1, -1):
        for s in (0.2, 0.5, 1.0, 1.5):
            for theta in (0.0, math.pi / 4):
                spec = PhotonMod(sign, s, theta)
                dev = np.max(
                    np.abs(
                        wigner_from_fock(fock_density(spec, 240), g257).samples
                        - resource_wigner(spec, g257).samples
                    )
                )
                pmod_dev = max(pmod_dev, dev)
    assert pmod_dev < 1e-4

    gcubic = ws.build_grid(-12, 12, 193, -40, 40, 641)
    cubic_dev = 0.0
    for s in (0.2, 0.5, 1.0):
        w_airy = cubic_phase_wigner(GAMMA, 0.0, s, gcubic)
        w_psi = wigner_from_wavefunction(
            cubic_phase_wavefunction(GAMMA, 0.0, s), gcubic
        )
        cubic_dev = max(
            cubic_dev, np.max(np.abs(w_psi.samples - w_airy.samples))
        )
    assert cubic_dev < 1e-4

    elapsed = time.perf_counter() - t0
    report(
        "criterion 10",
        f"number/ON/Gaussian dev={exact_dev:.1e} (<1e-6); "
        f"add/subtract dev={pmod_dev:.1e} (<1e-4); "
        f"wavefunction vs Airy dev={cubic_dev:.1e} (<1e-4) "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_conservation():
    t0 = time.perf_counter()

    worst = 0.0
    count = 0

    def check(field):
        nonlocal worst, count
        assert field.normalized
        worst = max(worst, abs(integrate_full(field) - 1.0))
        count += 1

    gd = ws.default_grid()
    for n in range(7):
        check(resource_wigner(Number(n), gd))
    for N in range(1, 7):
        for mag in (0.1, 0.3, 1.0):
            for phase in (1.0, 1j):
                check(resource_wigner(ON(N, mag * phase), gd))
    tall, _ = study_job("curves", "cubic.csv")
    taller = ws.build_grid(-16, 16, 1025, -80, 80, 5121)
    for s in (0.2, 0.5, 1.0, 1.5):
        check(resource_wigner(CubicPhase(GAMMA, 0.0, s), taller if s == 1.5 else tall))
    wide = ws.build_grid(-20, 20, 1281, -20, 20, 1281)
    for s in (0.2, 0.5, 1.0, 1.5):
        g = wide if s == 1.5 else gd
        check(
            gaussian_wigner(
                GaussianStateParams(
                    mean=np.zeros(2), cov=rotated_squeezed_cov(s, 0.4)
                ),
                g,
            )
        )
        for sign in (1, -1):
            for theta in (0.0, math.pi / 4):
                check(resource_wigner(PhotonMod(sign, s, theta), g))

    rng = np.random.default_rng(11)
    omega_1 = omega(1)
    omega_2 = omega(2)
    sym_dev = 0.0
    for _ in range(80):
        op = sym_rotate(rng.uniform(0, 2 * np.pi))
        for _ in range(rng.integers(1, 5)):
            choice = rng.integers(0, 3)
            if choice == 0:
                nxt = sym_squeeze(rng.uniform(-1.0, 1.0))
            elif choice == 1:
                nxt = sym_rotate(rng.uniform(0, 2 * np.pi))
            else:
                nxt = sym_displace(*rng.uniform(-2, 2, 2))
            op = compose(nxt, op)
        sym_dev = max(
            sym_dev, np.max(np.abs(op.S @ omega_1 @ op.S.T - omega_1))
        )
    for _ in range(20):
        op = sym_beamsplitter(rng.uniform(0.05, 1.0))
        for _ in range(rng.integers(1, 4)):
            op = compose(sym_beamsplitter(rng.uniform(0.05, 1.0)), op)
        sym_dev = max(
            sym_dev, np.max(np.abs(op.S @ omega_2 @ op.S.T - omega_2))
        )
    assert sym_dev <= 1e-10

    elapsed = time.perf_counter() - t0
    report(
        "criterion 11",
        f"{count} generator fields normalized, worst err={worst:.1e} "
        f"(tol 1e-3); symplectic form dev={sym_dev:.1e} (<=1e-10) "
        f"{elapsed:.0f}s",
    )
