import tracemalloc
import warnings

import numpy as np
import pytest

import wigsim as ws
from wigsim import UnnormalizedFieldError
from wigsim.grids import field_from_samples, tensor_product
from wigsim.monotones import (
    fidelity_initial_analytic,
    fidelity_of_overlap,
    fidelity_to_pure,
    log_negativity,
    log_negativity_of_l1,
)
from wigsim.states import (
    GaussianStateParams,
    gaussian_wigner,
    number_state_wigner,
    on_state_wigner,
    rotated_squeezed_cov,
    vacuum_wigner,
)


class TestLogNegativity:
    def test_vacuum_is_zero(self, grid_default):
        assert log_negativity(ws.vacuum_wigner(grid_default)) == 0.0

    def test_one_photon_matches_closed_form(self, one_photon):
        # integral |W| for |1> gives N_L = ln(4 / sqrt(e) - 1)
        exact = np.log(4.0 / np.sqrt(np.e) - 1.0)
        assert abs(log_negativity(one_photon) - exact) < 5e-4

    def test_requires_normalized(self, grid_small):
        half = field_from_samples(
            grid_small, ws.vacuum_wigner(grid_small).samples / 2.0
        )
        with pytest.raises(UnnormalizedFieldError):
            log_negativity(half)

    def test_peak_memory_is_a_row_block(self):
        # |W| is taken one row block at a time inside the integral
        field = number_state_wigner(1, ws.build_grid(-16, 16, 1025, -32, 32, 2049))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            log_negativity(field)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * field.samples.nbytes

    def test_noise_clamped_to_zero(self, grid_small):
        # shave a sliver off the vacuum so integral |W| dips just under 1
        w = ws.vacuum_wigner(grid_small).samples * (1.0 - 5e-4)
        field = field_from_samples(grid_small, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert log_negativity(field) == 0.0

    @pytest.mark.parametrize("total", [np.nan, -1.0, 0.0, np.inf])
    def test_l1_total_must_be_positive_and_finite(self, total):
        # raised before the log, so no nan or inf N_L reaches a record
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="positive and finite"):
                log_negativity_of_l1(total)

    def test_displacement_invariance(self, grid_default):
        from wigsim.symplectic import apply_symplectic, sym_displace

        w = number_state_wigner(1, grid_default)
        moved = apply_symplectic(w, sym_displace(1.5, -2.0))
        assert abs(log_negativity(moved) - log_negativity(w)) < 5e-4

    def test_additive_over_tensor_products(self, grid_tiny):
        a = number_state_wigner(1, grid_tiny)
        b = on_state_wigner(2, 0.3, grid_tiny)
        joint = tensor_product(a, b)
        total = log_negativity(a) + log_negativity(b)
        assert abs(log_negativity(joint) - total) < 1e-9


class TestFidelity:
    def test_self_fidelity_is_one(self, grid_default):
        vac = vacuum_wigner(grid_default)
        assert abs(fidelity_to_pure(vac, vac) - 1.0) < 1e-9

    def test_orthogonal_states(self, grid_default, one_photon):
        vac = vacuum_wigner(grid_default)
        assert fidelity_to_pure(vac, one_photon) < 1e-9

    def test_squeezed_overlap_closed_form(self, grid_default):
        # <0|S(r)|0>|^2 = 1/cosh(r)
        r = 0.8
        sq = gaussian_wigner(
            GaussianStateParams(mean=np.zeros(2), cov=rotated_squeezed_cov(r, 0.0)),
            grid_default,
        )
        vac = vacuum_wigner(grid_default)
        assert abs(fidelity_to_pure(sq, vac) - 1.0 / np.cosh(r)) < 1e-6

    def test_grid_mismatch_rejected(self, grid_default, grid_small):
        with pytest.raises(ws.GridMismatchError):
            fidelity_to_pure(vacuum_wigner(grid_default), vacuum_wigner(grid_small))

    @pytest.mark.parametrize("overlap,fid", [(-1e-12, 0.0), (0.5, 0.5), (1.01, 1.0 + ws.TOL_NORM)])
    def test_overlap_clamped_into_range(self, overlap, fid):
        # the one clamp rule of fidelity_to_pure and the sweep's fidelity column
        assert fidelity_of_overlap(overlap) == fid

    def test_analytic_form(self):
        assert abs(fidelity_initial_analytic(1.0, 4.0) - 1.0 / np.cosh(3.0)) < 1e-15
        assert fidelity_initial_analytic(4.0, 4.0) == 1.0
        # symmetric in the squeezing gap
        assert fidelity_initial_analytic(0.2, 1.4) == fidelity_initial_analytic(1.4, 0.2)
