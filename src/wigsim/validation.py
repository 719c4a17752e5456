"""Built-in self-checks behind the `validate` subcommand.

Each check pins an independently known constant or identity so that a
corrupted coefficient anywhere in the package trips at least one of them.
The fast subset avoids large grids and finishes in well under a second.
"""

import time

import numpy as np

from .distill import DistillationConfig, distill_sweep
from .fock import fock_density, wigner_from_fock
from .grids import (
    build_grid,
    default_grid,
    overlap_trace,
    wigner_from_wavefunction,
)
from .monotones import fidelity_initial_analytic, fidelity_to_pure, log_negativity
from .special import airy_ai, laguerre
from .states import (
    Gaussian,
    GaussianStateParams,
    Number,
    cubic_phase_wavefunction,
    cubic_phase_wigner,
    gaussian_wigner,
    number_state_wigner,
    photon_mod_wigner,
    rotated_squeezed_cov,
    vacuum_wigner,
)
from .symplectic import (
    SymplecticOp,
    compose,
    homodyne_pdf,
    omega,
    sym_beamsplitter,
    sym_rotate,
    sym_squeeze,
)

INV_TWO_PI = 0.15915494309189535
AIRY_AT_0 = 0.3550280538878172
AIRY_AT_1 = 0.1352924163128814
AIRY_AT_M2 = 0.22740742820168557


def _small_grid(extent=8.0, points=257):
    return build_grid(-extent, extent, points, -extent, extent, points)


def check_airy_values():
    got = airy_ai(np.array([0.0, 1.0, -2.0]))
    want = np.array([AIRY_AT_0, AIRY_AT_1, AIRY_AT_M2])
    err = np.abs(got - want).max()
    assert err < 1e-8, f"airy pinned values off by {err:.2e}"
    return f"max err {err:.1e}"


def check_laguerre_values():
    # L_3(2.5) = 13/48, L_2^(1)(1.5) = -3/8
    err = max(
        abs(laguerre(3, np.array(2.5)) - 13.0 / 48.0),
        abs(laguerre(2, np.array(1.5), alpha=1) + 0.375),
    )
    assert err < 1e-12, f"laguerre pinned values off by {err:.2e}"
    return f"max err {err:.1e}"


def check_vacuum_peak():
    grid = _small_grid()
    field = vacuum_wigner(grid)
    peak = field.samples[128, 128]
    err = abs(peak - INV_TWO_PI)
    assert err < 1e-12, f"vacuum peak {peak:.12f} != 1/(2 pi)"
    return f"peak err {err:.1e}"


def check_number_state_origin():
    grid = _small_grid()
    field = number_state_wigner(1, grid)
    err = abs(field.samples[128, 128] + INV_TWO_PI)
    assert err < 1e-12, f"|1> origin off by {err:.2e}"
    return f"origin err {err:.1e}"


def _embed_single_mode(op, mode):
    S = np.eye(4)
    k = 2 * mode
    S[k : k + 2, k : k + 2] = op.S
    d = np.zeros(4)
    d[k : k + 2] = op.d
    return SymplecticOp(S=S, d=d)


def check_symplectic_invariant():
    op = compose(
        sym_beamsplitter(0.7),
        compose(
            _embed_single_mode(sym_squeeze(0.8), 0),
            _embed_single_mode(sym_rotate(0.3), 1),
        ),
    )
    w = omega(2)
    err = np.abs(op.S @ w @ op.S.T - w).max()
    assert err < 1e-12, f"symplectic invariant violated by {err:.2e}"
    return f"invariant err {err:.1e}"


def check_homodyne_vacuum():
    grid = _small_grid()
    pdf = homodyne_pdf(vacuum_wigner(grid), 0, "q")
    want = np.exp(-pdf.values ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    err = np.abs(pdf.densities - want).max()
    assert err < 1e-9, f"vacuum homodyne pdf off by {err:.2e}"
    return f"max err {err:.1e}"


def check_overlap_purity():
    grid = _small_grid()
    vac = vacuum_wigner(grid)
    err = abs(overlap_trace(vac, vac) - 1.0)
    assert err < 1e-9, f"vacuum purity off by {err:.2e}"
    return f"purity err {err:.1e}"


def check_photon_mod_reduces_to_one():
    grid = _small_grid()
    added = photon_mod_wigner(1, 0.0, 0.0, grid)
    one = number_state_wigner(1, grid)
    err = np.abs(added.samples - one.samples).max()
    assert err < 1e-12, f"photon-added vacuum vs |1> off by {err:.2e}"
    return f"max err {err:.1e}"


def check_cubic_routes_agree():
    grid = build_grid(-6.0, 6.0, 129, -8.0, 8.0, 129)
    a = cubic_phase_wigner(0.05, 0.0, 0.5, grid)
    b = wigner_from_wavefunction(cubic_phase_wavefunction(0.05, 0.0, 0.5), grid)
    err = np.abs(a.samples - b.samples).max()
    assert err < 1e-8, f"cubic closed form vs wavefunction route off by {err:.2e}"
    return f"max err {err:.1e}"


def check_fock_oracle_number():
    grid = _small_grid()
    rho = fock_density(Number(n=2), cutoff=8)
    err = np.abs(wigner_from_fock(rho, grid).samples - number_state_wigner(2, grid).samples).max()
    assert err < 1e-6, f"fock oracle |2> off by {err:.2e}"
    return f"max err {err:.1e}"


def check_fock_oracle_gaussian():
    grid = _small_grid(10.0, 321)
    params = GaussianStateParams(mean=np.zeros(2), cov=rotated_squeezed_cov(0.8, 0.4))
    rho = fock_density(Gaussian(params), cutoff=96)
    err = np.abs(wigner_from_fock(rho, grid).samples - gaussian_wigner(params, grid).samples).max()
    assert err < 1e-6, f"fock oracle squeezed state off by {err:.2e}"
    return f"max err {err:.1e}"


def check_number_negativity():
    field = number_state_wigner(1, default_grid())
    neg = log_negativity(field)
    assert abs(neg - 0.354949) < 1e-3, f"N_L(|1>) = {neg:.6f}"
    return f"N_L = {neg:.6f}"


def check_fidelity_anchor():
    grid = default_grid()
    w = cubic_phase_wigner(0.05, 0.0, 0.2, grid)
    targ = cubic_phase_wigner(0.05, 0.0, 4.0, grid)
    got = fidelity_to_pure(w, targ)
    want = fidelity_initial_analytic(0.2, 4.0)
    err = abs(got - want)
    assert err < 2e-3, f"fidelity anchor off by {err:.2e}"
    return f"err {err:.1e}"


def check_distill_bound():
    grid = build_grid(-12.0, 12.0, 385, -24.0, 24.0, 769)
    w_in = cubic_phase_wigner(0.05, 0.0, 0.6, grid)
    config = DistillationConfig(
        input=w_in, t=0.95, p_v_samples=np.linspace(-4.0, 4.0, 17)
    )
    res = distill_sweep(config)
    assert res.avg_neg <= res.ini_neg * 1.01, (
        f"average negativity {res.avg_neg:.4f} exceeds input {res.ini_neg:.4f}"
    )
    assert 0.9 <= res.P_suc <= 1.01, f"captured mass {res.P_suc:.4f}"
    return f"avg {res.avg_neg:.4f} <= ini {res.ini_neg:.4f}"


CHECKS = (
    ("airy-values", True, check_airy_values),
    ("laguerre-values", True, check_laguerre_values),
    ("vacuum-peak", True, check_vacuum_peak),
    ("number-state-origin", True, check_number_state_origin),
    ("symplectic-invariant", True, check_symplectic_invariant),
    ("homodyne-vacuum", True, check_homodyne_vacuum),
    ("overlap-purity", True, check_overlap_purity),
    ("photon-mod-limit", True, check_photon_mod_reduces_to_one),
    ("cubic-route-agreement", False, check_cubic_routes_agree),
    ("fock-oracle-number", False, check_fock_oracle_number),
    ("fock-oracle-gaussian", False, check_fock_oracle_gaussian),
    ("number-negativity", False, check_number_negativity),
    ("fidelity-anchor", False, check_fidelity_anchor),
    ("distill-bound", False, check_distill_bound),
)


def run_validation(fast: bool = False) -> bool:
    """Run the check suite, print one line per check, return overall pass."""
    all_ok = True
    for name, is_fast, fn in CHECKS:
        if fast and not is_fast:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            elapsed = time.perf_counter() - start
            print(f"[PASS] {name}: {detail} ({elapsed:.2f}s)")
        except Exception as exc:
            elapsed = time.perf_counter() - start
            print(f"[FAIL] {name}: {exc} ({elapsed:.2f}s)")
            all_ok = False
    return all_ok
