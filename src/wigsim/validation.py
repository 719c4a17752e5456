"""Pinned anchors behind the `validate` subcommand and the tier-1 suite.

Each row of CHECKS pins an independently known constant or identity, so that
a corrupted coefficient anywhere in the package trips at least one of them.
A row is (name, bound, deviation): the function computes how far the package
is from the anchor, and the row passes when that deviation is below its
bound. run_check applies that rule and formats the report line; the tests
run every row through it under the row's name.
"""

import math
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
from .special import airy_ai_scaled, laguerre
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


def _small_grid(extent=8.0):
    # 321 points hold every node of the 161-point grids over the same
    # extent; index 160 is the origin
    return build_grid(-extent, extent, 321, -extent, extent, 321)


def _airy_values():
    # Ai(0) = 3^(-2/3)/Gamma(2/3), e^{2/3} Ai(1) and Ai(-2), from tables
    got = airy_ai_scaled(np.array([0.0, 1.0, -2.0]))
    return np.abs(got - [0.3550280538878172, 0.26351364474914013, 0.22740742820168557]).max()


def _laguerre_values():
    # L_3(2.5) = 13/48, L_2(1.5) = -7/8, and L_0 = 1 exactly
    return max(
        abs(laguerre(3, 2.5) - 13.0 / 48.0),
        abs(laguerre(2, 1.5) + 0.875),
        0.0 if laguerre(0, 7.7) == 1.0 else math.inf,
    )


def _vacuum_peak():
    return abs(vacuum_wigner(_small_grid()).samples[160, 160] - INV_TWO_PI)


def _number_state_origin():
    # W_{|1>}(0, 0) = -1/(2 pi), the maximal central dip
    return abs(number_state_wigner(1, _small_grid()).samples[160, 160] + INV_TWO_PI)


def _symplectic_invariant():
    # a beam splitter after a squeezer on mode 0 and a rotation on mode 1
    local = np.zeros((4, 4))
    local[:2, :2], local[2:, 2:] = sym_squeeze(0.8).S, sym_rotate(0.3).S
    S = compose(sym_beamsplitter(0.7), SymplecticOp(S=local, d=np.zeros(4))).S
    return np.abs(S @ omega(2) @ S.T - omega(2)).max()


def _homodyne_vacuum():
    pdf = homodyne_pdf(vacuum_wigner(_small_grid()), 0, "q")
    want = np.exp(-pdf.values ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    return np.abs(pdf.densities - want).max()


def _overlap_purity():
    vac = vacuum_wigner(_small_grid())
    return abs(overlap_trace(vac, vac) - 1.0)


def _photon_mod_limit():
    grid = _small_grid()
    added = photon_mod_wigner(1, 0.0, 0.0, grid)
    return np.abs(added.samples - number_state_wigner(1, grid).samples).max()


def _cubic_route_agreement():
    grid = build_grid(-6.0, 6.0, 129, -8.0, 8.0, 129)
    a = cubic_phase_wigner(0.05, 0.0, 0.5, grid)
    b = wigner_from_wavefunction(cubic_phase_wavefunction(0.05, 0.0, 0.5), grid)
    return np.abs(a.samples - b.samples).max()


def _fock_oracle_number():
    grid = _small_grid()
    rec = wigner_from_fock(fock_density(Number(n=2), cutoff=8), grid)
    return np.abs(rec.samples - number_state_wigner(2, grid).samples).max()


def _fock_oracle_gaussian():
    grid = _small_grid(10.0)
    params = GaussianStateParams(mean=np.zeros(2), cov=rotated_squeezed_cov(0.8, 0.4))
    rec = wigner_from_fock(fock_density(Gaussian(params), cutoff=96), grid)
    return np.abs(rec.samples - gaussian_wigner(params, grid).samples).max()


def _number_negativity():
    neg = log_negativity(number_state_wigner(1, default_grid()))
    return abs(neg - math.log(4.0 / math.sqrt(math.e) - 1.0))


def _fidelity_anchor():
    # F(|gamma, 0, s>, |gamma, 0, s'>) = 1/cosh(s - s')
    grid = default_grid()
    w = cubic_phase_wigner(0.05, 0.0, 0.2, grid)
    targ = cubic_phase_wigner(0.05, 0.0, 4.0, grid)
    return abs(fidelity_to_pure(w, targ) - fidelity_initial_analytic(0.2, 4.0))


def _distill_bound():
    # the full-range average N_L does not exceed the input's, and the
    # outcomes capture all the mass: the larger relative miss of the two
    grid = build_grid(-12.0, 12.0, 385, -24.0, 24.0, 769)
    w_in = cubic_phase_wigner(0.05, 0.0, 0.6, grid)
    config = DistillationConfig(
        input=w_in, t=0.95, p_v_samples=np.linspace(-4.0, 4.0, 17)
    )
    res = distill_sweep(config)
    return max(res.avg_neg / res.ini_neg - 1.0, abs(res.P_suc - 1.0))


CHECKS = (
    ("airy-values", 1e-12, _airy_values),
    ("laguerre-values", 1e-12, _laguerre_values),
    ("vacuum-peak", 1e-14, _vacuum_peak),
    ("number-state-origin", 1e-14, _number_state_origin),
    ("symplectic-invariant", 1e-12, _symplectic_invariant),
    ("homodyne-vacuum", 1e-9, _homodyne_vacuum),
    ("overlap-purity", 1e-9, _overlap_purity),
    ("photon-mod-limit", 1e-12, _photon_mod_limit),
    ("cubic-route-agreement", 1e-8, _cubic_route_agreement),
    ("fock-oracle-number", 1e-6, _fock_oracle_number),
    ("fock-oracle-gaussian", 1e-6, _fock_oracle_gaussian),
    ("number-negativity", 1e-3, _number_negativity),
    ("fidelity-anchor", 2e-3, _fidelity_anchor),
    ("distill-bound", 1e-2, _distill_bound),
)


def run_check(name, bound, deviation):
    """Run one row of CHECKS: (passed, its [PASS]/[FAIL] report line).

    A deviation that is nan, or a row that raises, fails.
    """
    start = time.perf_counter()
    try:
        dev = deviation()
        passed = bool(dev < bound)
        detail = f"deviation {dev:.1e}, bound {bound:.0e}"
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return passed, f"[{'PASS' if passed else 'FAIL'}] {name}: {detail} ({elapsed:.2f}s)"


def run_validation() -> bool:
    """Run every row of CHECKS, print its line, and return whether all passed."""
    all_ok = True
    for row in CHECKS:
        passed, line = run_check(*row)
        print(line)
        all_ok = all_ok and passed
    return all_ok
