import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wigsim as ws
from wigsim import states
from wigsim import (
    ON,
    CubicPhase,
    GaussianStateParams,
    Number,
    PhotonMod,
    UndefinedStateError,
)
from wigsim.distill import default_protocol_grid
from wigsim.grids import (_BLOCK_POINTS, integrate_full, overlap_trace,
                          wigner_from_wavefunction)
from wigsim.monotones import log_negativity
from wigsim.special import airy_ai_scaled
from wigsim.states import (
    _cubic_airy_samples,
    _gaussian_samples,
    _number_samples,
    _on_samples,
    _photon_mod_kernel,
    cubic_phase_wavefunction,
    cubic_phase_wigner,
    gaussian_wigner,
    mean_photon_analytic,
    mean_photon_numeric,
    number_state_wigner,
    on_state_wigner,
    photon_mod_wigner,
    resource_wigner,
    rotated_squeezed_cov,
    vacuum_wigner,
)


class TestSpecValidation:
    def test_number_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Number(n=-1)
        with pytest.raises(ValueError):
            Number(n=1.5)

    def test_on_rejects_bad_N(self):
        with pytest.raises(ValueError):
            ON(N=0, a=0.3)

    def test_cubic_rejects_negative_s(self):
        with pytest.raises(ValueError):
            CubicPhase(gamma=0.05, P=0.0, s=-0.1)

    def test_photon_mod_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            PhotonMod(sign=2, s=0.5, theta=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CubicPhase(gamma=np.inf, P=0.0, s=0.5),
            lambda: CubicPhase(gamma=0.05, P=0.0, s=np.nan),
            lambda: PhotonMod(sign=1, s=np.nan, theta=0.0),
            lambda: ON(N=1, a=np.nan),
            lambda: ON(N=1, a=complex(0.0, np.inf)),
            lambda: GaussianStateParams(mean=[np.nan, 0.0], cov=np.eye(2)),
        ],
        ids=["cubic-gamma", "cubic-s", "pmod", "on", "on-imag", "gaussian"],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda g: number_state_wigner(2.5, g),
            lambda g: on_state_wigner(2.5, 0.3, g),
            lambda g: on_state_wigner(1, np.nan, g),
        ],
        ids=["number-n", "on-N", "on-a"],
    )
    def test_generator_refuses_what_its_record_refuses(self, make, monkeypatch, grid_small):
        def never(*args):
            raise AssertionError("a row was filled")

        monkeypatch.setattr(states, "fill_by_rows", never)
        with pytest.raises(ValueError):
            make(grid_small)

    def test_gaussian_params_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError):
            GaussianStateParams(mean=np.zeros(2), cov=np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_gaussian_params_rejects_sub_vacuum_cov(self):
        # diag(0.5, 0.5) has symplectic eigenvalue 1/2 < 1
        with pytest.raises(ValueError):
            GaussianStateParams(mean=np.zeros(2), cov=0.5 * np.eye(2))


class TestVacuumAndNumber:
    @pytest.mark.parametrize("n", range(7))
    def test_number_state_normalized_and_mean_photon(self, grid_default, n):
        w = number_state_wigner(n, grid_default)
        assert w.normalized
        assert abs(mean_photon_numeric(w) - n) < 1e-6

    def test_rotational_symmetry(self, grid_small):
        w = number_state_wigner(3, grid_small).samples
        assert np.max(np.abs(w - w.T)) < 1e-14
        assert np.max(np.abs(w - w[::-1, :])) < 1e-14


class TestOnState:
    def test_normalization_and_mean_photon(self, grid_default):
        for a in (0.3, 0.3j, -0.7 + 0.2j):
            spec = ON(N=3, a=a)
            w = resource_wigner(spec, grid_default)
            assert w.normalized
            assert abs(
                mean_photon_numeric(w) - mean_photon_analytic(spec)
            ) < 1e-6

    def test_zero_amplitude_is_vacuum(self, grid_small):
        w = on_state_wigner(2, 0.0, grid_small)
        assert np.max(np.abs(w.samples - vacuum_wigner(grid_small).samples)) < 1e-14

    def test_mean_photon_formula(self):
        # <n> = |a|^2 N / (1 + |a|^2)
        assert abs(mean_photon_analytic(ON(N=3, a=np.sqrt(0.06) * 1j)) - 0.169811) < 1e-6


class TestGaussianStates:
    def test_rotated_squeezed_cov_properties(self):
        cov = rotated_squeezed_cov(0.7, 0.0)
        assert abs(cov[0, 0] - np.exp(-1.4)) < 1e-12
        assert abs(cov[1, 1] - np.exp(1.4)) < 1e-12
        cov45 = rotated_squeezed_cov(0.7, np.pi / 4)
        assert abs(np.linalg.det(cov45) - 1.0) < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=np.pi),
    )
    def test_rotated_squeezed_cov_is_pure(self, s, theta):
        cov = rotated_squeezed_cov(s, theta)
        assert abs(np.linalg.det(cov) - 1.0) < 1e-9
        assert np.max(np.abs(cov - cov.T)) < 1e-12

    def test_gaussian_wigner_normalized(self, grid_small):
        params = GaussianStateParams(
            mean=np.array([1.0, -0.5]), cov=rotated_squeezed_cov(0.4, 0.3)
        )
        w = gaussian_wigner(params, grid_small)
        assert w.normalized
        assert np.min(w.samples) >= 0.0

    def test_displaced_vacuum_peak_location(self, grid_small):
        params = GaussianStateParams(mean=np.array([2.0, -1.0]), cov=np.eye(2))
        w = gaussian_wigner(params, grid_small)
        i, j = np.unravel_index(np.argmax(w.samples), w.samples.shape)
        assert abs(grid_small.axes[0][i] - 2.0) < 0.11
        assert abs(grid_small.axes[1][j] + 1.0) < 0.11


class TestCubicPhase:
    def test_route_agreement(self):
        # closed form vs FFT transform of the wavefunction on a shared grid
        g = ws.build_grid(-6, 6, 129, -8, 8, 129)
        a = cubic_phase_wigner(0.05, 0.0, 0.5, g)
        b = wigner_from_wavefunction(cubic_phase_wavefunction(0.05, 0.0, 0.5), g)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-8

    def test_gamma_zero_reduces_to_squeezed_gaussian(self, grid_small):
        w = cubic_phase_wigner(0.0, 0.0, 0.3, grid_small)
        ref = gaussian_wigner(
            GaussianStateParams(
                mean=np.zeros(2),
                cov=np.diag([np.exp(0.6), np.exp(-0.6)]),
            ),
            grid_small,
        )
        assert np.max(np.abs(w.samples - ref.samples)) < 1e-14

    def test_mean_photon_matches_analytic(self):
        g = ws.build_grid(-16, 16, 1025, -32, 32, 2049)
        spec = CubicPhase(gamma=0.05, P=0.0, s=0.5)
        w = resource_wigner(spec, g)
        assert abs(mean_photon_numeric(w) - mean_photon_analytic(spec)) < 1e-4

    @pytest.mark.parametrize(
        "gamma,P,s", [(np.nan, 0.0, 0.5), (0.05, np.inf, 0.5), (0.05, 0.0, np.nan)],
        ids=["gamma", "P", "s"],
    )
    def test_non_finite_parameters_rejected_at_entry(self, gamma, P, s, grid_small):
        with pytest.raises(ValueError, match="parameters must be finite"):
            cubic_phase_wigner(gamma, P, s, grid_small)

    def test_tiny_gamma_names_gamma_before_any_row(self, monkeypatch, grid_small):
        # CubicPhase(1e-300, 0, 0) is valid, but c0 = 1/(432 gamma^2) overflows
        def never(*args):
            raise AssertionError("a row was filled")

        monkeypatch.setattr(states, "_cubic_airy_samples", never)
        with pytest.raises(ValueError, match="gamma=1e-300"):
            resource_wigner(CubicPhase(1e-300, 0.0, 0.0), grid_small)

    def test_gamma_whose_closed_form_cancels_is_refused(self, grid_small):
        # c0 = 1/(432 gamma^2) = 2.3e11 at gamma = 1e-7, s = 0: the exponent
        # cancels to about c0 * 2^-52 = 5.1e-5 (1.9e-5 measured)
        with pytest.raises(ValueError, match=r"gamma=1e-07 .* 5\.1e-05"):
            cubic_phase_wigner(1e-7, 0.0, 0.0, grid_small)

    def test_small_gamma_accepted_within_the_airy_accuracy(self):
        # c0 * 2^-52 = 5.1e-13 at gamma = 1e-3, s = 0 (2.0e-13 measured)
        g = ws.build_grid(-8, 8, 129, -8, 8, 129)
        w = cubic_phase_wigner(1e-3, 0.0, 0.0, g)
        ref = wigner_from_wavefunction(cubic_phase_wavefunction(1e-3, 0.0, 0.0), g)
        assert np.max(np.abs(w.samples - ref.samples)) < 1e-9

    def test_undersized_grid_flags_unnormalized(self):
        g = ws.build_grid(-3, 3, 65, -3, 3, 65)
        w = cubic_phase_wigner(0.05, 0.0, 1.5, g)
        assert not w.normalized

    @pytest.mark.parametrize(
        "gamma,s,s2",
        [(0.05, 0.2, 0.6), (0.05, 1.0, 0.4), (0.1, 0.3, 0.8), (0.02, 0.9, 0.0)],
    )
    def test_negativity_depends_on_gamma_e3s_only(self, gamma, s, s2):
        # squeezing by r = s2 - s (q -> e^r q, p -> e^-r p) maps |gamma, 0, s>
        # to |gamma e^{-3r}, 0, s2>, and N_L is invariant under Gaussian
        # unitaries; each state is sampled on the image of one grid under
        # that map, so both fields are equally well resolved
        r = s2 - s
        qm, pm = 16.0 * np.exp(r), 64.0 * np.exp(-r)
        grid_a = ws.build_grid(-16, 16, 513, -64, 64, 1025)
        grid_b = ws.build_grid(-qm, qm, 513, -pm, pm, 1025)
        a = cubic_phase_wigner(gamma, 0.0, s, grid_a)
        b = cubic_phase_wigner(gamma * np.exp(-3.0 * r), 0.0, s2, grid_b)
        assert abs(log_negativity(a) - log_negativity(b)) < 1e-4

    @given(
        st.floats(min_value=0.01, max_value=0.15),
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_closed_form_samples_finite(self, gamma, s, q, p):
        v = _cubic_airy_samples(gamma, 0.0, s, np.array([q]), np.array([p]))
        assert np.isfinite(v).all()


_ROWS = _BLOCK_POINTS // 1025  # q-rows per block on the 1025-point p-axis


# (q_lo, q_hi, n_q, n_p): one row per block on a p-axis wider than a block,
# then a partial, an exact, an overfull single block and many blocks; then
# grids where the cubic fill's mirrored rows are not the two halves of the
# q-axis: an asymmetric q-range, an even count with no q = 0 row, and 385
# points over +-16, where 128 of the 192 +-q pairs differ by an ulp and both
# rows are evaluated
_FILL_GRIDS = [(-20, 20, 3, _BLOCK_POINTS + 1), (-20, 20, _ROWS - 1, 1025),
               (-20, 20, _ROWS, 1025), (-20, 20, _ROWS + 1, 1025), (-20, 20, 641, 1025),
               (-3, 17, 201, 1025), (-20, 20, 640, 1025), (-16, 16, 385, 1025)]


@pytest.mark.parametrize(
    "q_lo,q_hi,n_q,n_p", _FILL_GRIDS,
    ids=[f"{n_q}-{n_p}" if q_hi == 20 else f"{n_q}-{n_p}-q{q_lo}..{q_hi}"
         for q_lo, q_hi, n_q, n_p in _FILL_GRIDS],
)
def test_block_fill_equals_pointwise_closed_form(q_lo, q_hi, n_q, n_p):
    grid = ws.build_grid(q_lo, q_hi, n_q, -64, 64, n_p)
    q, p = grid.open_mesh()
    for gamma in (0.05, -0.1):
        for P in (0.0, -0.3):
            for s in (0.0, 1.0, 4.0):
                field = cubic_phase_wigner(gamma, P, s, grid)
                ref = _cubic_airy_samples(gamma, P, s, q, p)
                assert np.array_equal(field.samples, ref)
                assert field.integral == ws.field_from_samples(grid, ref).integral
    for n in (0, 1, 4):
        assert np.array_equal(number_state_wigner(n, grid).samples, _number_samples(n, q, p))
    for N, a in ((1, 0.5), (3, 0.2449j)):
        assert np.array_equal(on_state_wigner(N, a, grid).samples, _on_samples(N, a, q, p))
    for sign, s, theta in ((1, 0.5, 0.0), (-1, 1.0, np.pi / 4)):
        ref = _photon_mod_kernel(sign, s, theta)(q, p)
        assert np.array_equal(photon_mod_wigner(sign, s, theta, grid).samples, ref)
    one = GaussianStateParams(mean=np.array([0.3, -0.2]), cov=rotated_squeezed_cov(0.7, 0.4))
    assert np.array_equal(gaussian_wigner(one, grid).samples, _gaussian_samples(one, (q, p)))
    # two modes: the first over (at most 33 of) the grid's q-rows and its
    # p-axis, the second on 3 x 3 points, so a row holds 9 n_p points
    cov = np.eye(4)
    cov[:2, :2] = 2.0 * rotated_squeezed_cov(0.7, 0.4)
    cov[2:, 2:] = 2.0 * rotated_squeezed_cov(-0.3, 1.1)
    cov[0, 2] = cov[2, 0] = 0.2
    cov[1, 3] = cov[3, 1] = -0.1
    two = GaussianStateParams(mean=np.array([0.1, 0.2, -0.3, 0.4]), cov=cov)
    small = np.linspace(-2, 2, 3)
    grid2 = ws.PhaseSpaceGrid(axes=(grid.axes[0][:33], grid.axes[1], small, small))
    ref = _gaussian_samples(two, grid2.open_mesh())
    assert np.array_equal(gaussian_wigner(two, grid2).samples, ref)


def test_cubic_fill_evaluates_each_distinct_abs_q_once(monkeypatch):
    # the protocol grid's q-axis is symmetric to the bit, so the closed form
    # and the p-integrals see rows 0 ... 512 (q <= 0) and the others are
    # copied from them
    seen, integrated = [], []

    def counting(gamma, P, s, q, p):
        seen.append(q.shape[0])
        return _cubic_airy_samples(gamma, P, s, q, p)

    def integrating(samples, axes):
        integrated.append(samples.shape[0])
        return ws.integrate_samples(samples, axes)

    monkeypatch.setattr(states, "_cubic_airy_samples", counting)
    monkeypatch.setattr(states, "integrate_samples", integrating)
    grid = default_protocol_grid()
    field = cubic_phase_wigner(0.05, 0.0, 1.0, grid)
    assert grid.shape[0] == 1025 and sum(seen) == 513 and sum(integrated) == 513
    assert np.array_equal(field.samples, _cubic_airy_samples(0.05, 0.0, 1.0, *grid.open_mesh()))


def _unflushed_cubic_samples(gamma, P, s, q, p):
    # the closed form as it was before samples below 2^-1022 were flushed
    sig2, g = np.exp(2.0 * s), abs(gamma)
    kappa, c0 = 1.0 / (12.0 * g * sig2), 1.0 / (432.0 * g * g * sig2**3)
    b = 3.0 * gamma * q * q - (p - P) / 2.0
    if gamma < 0:
        b = -b
    cbrt = (6.0 * g) ** (1.0 / 3.0)
    arg = (2.0 * b + 1.0 / (24.0 * g * sig2 * sig2)) / cbrt
    expo = 2.0 * b * kappa + c0 - q * q / (2.0 * sig2)
    pos = np.maximum(arg, 0.0)
    expo = expo - (2.0 / 3.0) * pos * np.sqrt(pos)
    amp = 2.0 * np.pi / (cbrt * np.sqrt(8.0 * np.pi**3 * sig2))
    return amp * (np.exp(expo) * airy_ai_scaled(arg))


@pytest.mark.parametrize("gamma", [0.05, -0.05])
@pytest.mark.parametrize("s", [0.2, 1.0, 4.0])
def test_cubic_field_holds_no_subnormal(gamma, s):
    # about 1 % of the protocol grid is subnormal in the unflushed formula;
    # those samples are 0 and every other sample keeps its bits
    grid = default_protocol_grid()
    field = cubic_phase_wigner(gamma, 0.0, s, grid)
    ref = _unflushed_cubic_samples(gamma, 0.0, s, *grid.open_mesh())
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert np.count_nonzero(ref[~normal]) > 0.005 * ref.size
    assert np.array_equal(field.samples[normal], ref[normal])
    assert not np.any(field.samples[~normal])


def test_cubic_peak_memory():
    # representative rows and mirror copies both go one row block at a time;
    # gathering every mirror row at once would hold about half a field more
    grid = ws.build_grid(-16, 16, 1025, -32, 32, 2049)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        field = cubic_phase_wigner(0.05, 0.0, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * field.samples.nbytes


def test_on_state_peak_memory():
    # the fresh samples are filled in row blocks and wrapped without a copy
    grid = ws.build_grid(-16, 16, 1025, -16, 16, 1025)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        field = on_state_wigner(3, 0.2449j, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * field.samples.nbytes


def test_gaussian_peak_memory():
    # filled in row blocks like every generator, not on the whole mesh
    grid = ws.build_grid(-16, 16, 1025, -16, 16, 1025)
    params = GaussianStateParams(mean=np.array([0.3, -0.2]), cov=rotated_squeezed_cov(0.7, 0.4))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        field = gaussian_wigner(params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * field.samples.nbytes


@pytest.mark.parametrize(
    "reduce", [mean_photon_numeric, lambda f: overlap_trace(f, f)],
    ids=["mean_photon_numeric", "overlap_trace"],
)
def test_reduction_peak_memory_is_a_row_block(reduce):
    # the integrand is formed one row block at a time inside the integral
    field = number_state_wigner(1, ws.build_grid(-16, 16, 1025, -32, 32, 2049))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reduce(field)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * field.samples.nbytes


class TestPhotonMod:
    def test_subtracted_from_vacuum_undefined(self, grid_small):
        with pytest.raises(UndefinedStateError):
            photon_mod_wigner(-1, 0.0, 0.0, grid_small)

    def test_normalized_across_params(self, grid_default):
        for sign in (1, -1):
            for s in (0.2, 1.0):
                w = photon_mod_wigner(sign, s, np.pi / 4, grid_default)
                assert w.normalized
                assert abs(integrate_full(w) - 1.0) < 1e-3

    def test_theta_rotates_the_field(self, grid_small):
        # theta = pi/2 swaps the squeezed axes: W(q, p) -> W(p, -q)
        w0 = photon_mod_wigner(1, 0.6, 0.0, grid_small).samples
        w90 = photon_mod_wigner(1, 0.6, np.pi / 2, grid_small).samples
        rotated = np.rot90(w0, k=-1)
        assert np.max(np.abs(w90 - rotated)) < 1e-10


def test_resource_wigner_dispatch(grid_small):
    pairs = [
        (Number(n=2), number_state_wigner(2, grid_small)),
        (ON(N=2, a=0.4), on_state_wigner(2, 0.4, grid_small)),
        (
            GaussianStateParams(mean=np.zeros(2), cov=np.eye(2)),
            vacuum_wigner(grid_small),
        ),
    ]
    for spec, ref in pairs:
        assert np.max(np.abs(resource_wigner(spec, grid_small).samples - ref.samples)) == 0.0


def test_mean_photon_analytic_rejects_unsupported():
    with pytest.raises(ValueError):
        mean_photon_analytic(PhotonMod(sign=1, s=0.5, theta=0.0))
