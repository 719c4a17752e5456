import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import wigsim as ws

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid_default():
    return ws.default_grid()


@pytest.fixture(scope="session")
def grid_small():
    # coarse single-mode grid for tests that only need qualitative accuracy
    return ws.build_grid(-8, 8, 161, -8, 8, 161)


@pytest.fixture(scope="session")
def grid_tiny():
    # two-mode work scales as n^4 in memory; 61 points keeps a joint field
    # near 100 MB where 161 points would need gigabytes
    return ws.build_grid(-8, 8, 61, -8, 8, 61)


@pytest.fixture(scope="session")
def one_photon(grid_default):
    return ws.number_state_wigner(1, grid_default)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def cubic_wavefunction(gamma, P, s):
    """psi(q) of |gamma, P, s>, written out from the wigsim.states docstring."""
    sig2 = math.exp(2.0 * s)

    def psi(x):
        phase = gamma * x**3 + 0.5 * P * x
        return (2.0 * math.pi * sig2) ** -0.25 * np.exp(
            1j * phase - x * x / (4.0 * sig2)
        )

    return psi


def cubic_log_negativity_reference(gamma, P, s):
    """N_L of |gamma, P, s> from an FFT Wigner transform of its wavefunction.

    A check on the library's cubic-phase route that shares no code with it:
    psi is the wavefunction documented in wigsim.states,

        psi(q) = (2 pi e^{2s})^{-1/4} exp(i gamma q^3 - q^2/(4 e^{2s}) + i P q/2),

    and W(q, p) = (1/2pi) int dy psi*(q - y) psi(q + y) exp(-i p y) is taken
    by one FFT over y per q-row. q covers +-16 with 513 points; y covers
    +-32 with step 1/32, so p covers +-100 with step 0.098. At gamma = 0.05
    it reads N_L 2.2e-5, 3.7e-5 and 5.6e-5 from the exact values at s = 0.2,
    0.6 and 1 (the 1-D shear integral of the closed form, ln(int |H| / int H)
    over b = 3 gamma q^2 - (p - P)/2). The mass that the q-range drops and
    the |W| mass in the outer tenth of the p-band (where aliasing would
    show) must both stay below 1e-6.
    """
    q = np.linspace(-16.0, 16.0, 513)
    n_y, dy = 2048, 1.0 / 32.0
    y = np.fft.ifftshift((np.arange(n_y) - n_y // 2) * dy)
    psi = cubic_wavefunction(gamma, P, s)
    corr = np.conj(psi(q[:, None] - y)) * psi(q[:, None] + y)
    w = np.fft.fftshift(np.fft.fft(corr, axis=1).real, axes=1) * dy / (2.0 * math.pi)
    cell = (q[1] - q[0]) * 2.0 * math.pi / (n_y * dy)
    mass = w.sum() * cell
    edge = n_y // 20
    aliased = (np.abs(w[:, :edge]).sum() + np.abs(w[:, -edge:]).sum()) * cell
    assert 1.0 - mass < 1e-6, f"reference q-range drops mass {1.0 - mass:.1e}"
    assert aliased < 1e-6, f"reference p-band edges hold |W| mass {aliased:.1e}"
    return math.log(np.abs(w).sum() * cell / mass)


@pytest.fixture(scope="session")
def cubic_reference():
    """cubic_log_negativity_reference, for tests that check cubic-state N_L."""
    return cubic_log_negativity_reference


def pure_conditional_reference(gamma, s, t, p_v, s_targ):
    """(density, N_L, fidelity) of one distillation outcome, from wavefunctions.

    The protocol applied to the pure state |gamma, 0, s> with no Wigner
    field of wigsim in the loop. With a = sqrt(t) and b = sqrt(1-t), the
    beam splitter maps psi(x) phi0(x_v) to psi(a x - b x_v) phi0(b x + a x_v),
    and projecting the ancilla on <x_v|p_v> = (4 pi)^{-1/2} e^{i p_v x_v / 2}
    leaves

        psi_out(x) = (4 pi)^{-1/2} b^{-1} e^{-i p_v a x / 2b}
                     * int du psi(u) phi0((x - a u) / b) e^{i p_v u / 2b},

    whose squared norm is the outcome density. With v = a u the integral is
    one np.convolve on a lattice of step dx = 0.005 over +-25. The fidelity
    is |<target|psi_out>|^2 with psi_out normalized, the target being
    |gamma, P', s_targ> with P' = sqrt((1-t)/t) p_v. N_L is taken from psi_out's Wigner function,
    one FFT over y (step 2 dx, 2^15 bins, so p steps by 0.019) per q-row,
    the rows 0.02 apart. For gamma = 0.05, s = 1, t = 0.99 and p_v in
    {-3, -2.2}, these settings are converged to 2e-6 in N_L (rows 0.01
    apart; 2^16 bins) and to 1e-13 in density and fidelity (dx = 0.0025
    over +-30).
    """
    a, b = math.sqrt(t), math.sqrt(1.0 - t)
    dx, n = 0.005, 10000
    x = np.linspace(-25.0, 25.0, n + 1)
    g = cubic_wavefunction(gamma, 0.0, s)(x / a) * np.exp(
        1j * p_v * x / (2.0 * a * b)
    )
    half = int(math.ceil(12.0 * b / dx))
    y = np.arange(-half, half + 1) * dx
    phi0 = (2.0 * math.pi) ** -0.25 * np.exp(-((y / b) ** 2) / 4.0)
    blurred = np.convolve(g, phi0, mode="same") * dx / a
    psi_out = np.exp(-1j * p_v * a * x / (2.0 * b)) * blurred
    psi_out /= math.sqrt(4.0 * math.pi) * b
    density = float(np.sum(np.abs(psi_out) ** 2) * dx)
    psi_out /= math.sqrt(density)

    shift = math.sqrt((1.0 - t) / t) * p_v
    target = cubic_wavefunction(gamma, shift, s_targ)(x)
    fid = float(abs(np.sum(np.conj(target) * psi_out) * dx) ** 2)

    # W(x, p) = (1/2pi) int dy psi*(x - y) psi(x + y) e^{-i p y}, y = 2 j dx,
    # over the rows between the first and last x where psi_out is nonzero
    n_fft, row_step = 2**15, 4
    prob = np.abs(psi_out) ** 2
    support = np.flatnonzero(prob > 1e-30 * prob.max())
    rows = np.arange(support[0], support[-1] + 1, row_step)
    mass = abs_mass = 0.0
    for block in np.array_split(rows, rows.size // 32 + 1):
        corr = np.zeros((block.size, n_fft), dtype=complex)
        for r, i in enumerate(block):
            j = np.arange(-(min(i, n - i) // 2), min(i, n - i) // 2 + 1)
            corr[r, j % n_fft] = np.conj(psi_out[i - 2 * j]) * psi_out[i + 2 * j]
        w = np.fft.fft(corr, axis=1).real
        mass += w.sum()
        abs_mass += np.abs(w).sum()
    # W = fft * dy / 2pi on cells of row_step dx by dp = 2pi / (n_fft dy)
    cell = row_step * dx / n_fft
    assert abs(mass * cell - 1.0) < 1e-9, f"reference W integrates to {mass * cell}"
    return density, math.log(abs_mass / mass), fid


@pytest.fixture(scope="session")
def conditional_reference():
    """pure_conditional_reference, for tests of the distillation outcomes."""
    return pure_conditional_reference
