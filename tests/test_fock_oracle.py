import numpy as np
import pytest

import wigsim as ws
from wigsim import TruncationError
from wigsim.fock import FockDensity, fock_density, wigner_from_fock
from wigsim.states import (
    ON,
    CubicPhase,
    Gaussian,
    GaussianStateParams,
    Number,
    PhotonMod,
    resource_wigner,
    rotated_squeezed_cov,
)


@pytest.fixture(scope="module")
def grid_oracle():
    return ws.build_grid(-10, 10, 161, -10, 10, 161)


class TestFockDensity:
    def test_number_state_matrix(self):
        rho = fock_density(Number(n=2), 8)
        assert rho.matrix.shape == (8, 8)
        assert rho.matrix[2, 2] == 1.0
        assert np.sum(np.abs(rho.matrix)) == 1.0

    def test_on_state_weights(self):
        rho = fock_density(ON(N=3, a=0.5), 8)
        # populations 1/(1+0.25) and 0.25/(1+0.25)
        assert abs(rho.matrix[0, 0] - 0.8) < 1e-12
        assert abs(rho.matrix[3, 3] - 0.2) < 1e-12
        assert abs(rho.matrix[0, 3] - 0.4) < 1e-12

    def test_cutoff_must_be_an_integer(self):
        with pytest.raises(ValueError, match="cutoff must be a positive integer"):
            fock_density(Number(n=1), 4.0)
        assert fock_density(Number(n=1), np.int64(4)).cutoff == 4

    def test_cutoff_too_small_raises(self):
        with pytest.raises(TruncationError):
            fock_density(Number(n=9), 8)

    def test_heavy_tail_raises(self):
        # s = 2.5 squeezing needs far more than 12 levels
        with pytest.raises(TruncationError):
            fock_density(PhotonMod(sign=1, s=2.5, theta=0.0), 12)

    def test_cubic_unsupported(self):
        with pytest.raises(ValueError):
            fock_density(CubicPhase(gamma=0.05, P=0.0, s=0.5), 64)

    @pytest.mark.parametrize("cutoff", [47, 48, 49])
    def test_squeezed_expansion_any_cutoff_parity(self, cutoff):
        # even cutoffs once wrote past the end of the coefficient vector
        spec = Gaussian(
            params=GaussianStateParams(mean=np.zeros(2), cov=rotated_squeezed_cov(0.8, 0.0))
        )
        rho = fock_density(spec, cutoff)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-8

    def test_density_validation(self):
        with pytest.raises(ValueError):
            FockDensity(cutoff=4, matrix=np.ones((3, 3)))


class TestOracleAgreement:
    def test_number_states(self, grid_oracle):
        for n in range(5):
            ref = resource_wigner(Number(n=n), grid_oracle)
            rec = wigner_from_fock(fock_density(Number(n=n), 16), grid_oracle)
            assert np.max(np.abs(rec.samples - ref.samples)) < 1e-6

    def test_on_state(self, grid_oracle):
        spec = ON(N=3, a=0.3)
        ref = resource_wigner(spec, grid_oracle)
        rec = wigner_from_fock(fock_density(spec, 16), grid_oracle)
        assert np.max(np.abs(rec.samples - ref.samples)) < 1e-6

    def test_photon_mod_at_spec_cutoff(self, grid_oracle):
        spec = PhotonMod(sign=-1, s=0.5, theta=0.0)
        ref = resource_wigner(spec, grid_oracle)
        rec = wigner_from_fock(fock_density(spec, 60), grid_oracle)
        assert np.max(np.abs(rec.samples - ref.samples)) < 1e-4

    def test_padding_the_cutoff_leaves_the_field_bit_identical(self, grid_oracle):
        # the elements beyond cutoff 60 are negligible, so the recurrences
        # stop at the same terms
        spec = PhotonMod(sign=1, s=0.2, theta=0.0)
        a = wigner_from_fock(fock_density(spec, 60), grid_oracle)
        b = wigner_from_fock(fock_density(spec, 240), grid_oracle)
        assert np.array_equal(a.samples, b.samples)

    def test_high_cutoff_stays_finite(self):
        # the angular factor z^k/sqrt(k!) must not overflow at k > 170
        g = ws.build_grid(-9, 9, 81, -9, 9, 81)
        spec = Gaussian(
            params=GaussianStateParams(mean=np.zeros(2), cov=rotated_squeezed_cov(1.5, 0.0))
        )
        rec = wigner_from_fock(fock_density(spec, 300), g)
        assert np.all(np.isfinite(rec.samples))
        ref = resource_wigner(spec, g)
        assert np.max(np.abs(rec.samples - ref.samples)) < 1e-6
