from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wigsim as ws
from wigsim import OutOfDomainError
from wigsim.grids import integrate_full, tensor_product
from wigsim.states import (
    GaussianStateParams,
    gaussian_wigner,
    number_state_wigner,
    vacuum_wigner,
)
from wigsim.symplectic import (
    SymplecticOp,
    _blocks,
    apply_symplectic,
    compose,
    condition_on_homodyne,
    homodyne_pdf,
    omega,
    sym_beamsplitter,
    sym_displace,
    sym_rotate,
    sym_squeeze,
)


def sym_dev(op):
    om = omega(op.mode_count)
    return np.max(np.abs(op.S @ om @ op.S.T - om))


def multilinear_reference(field, op):
    """W(S^-1 (x - d)) by one 2^d-corner multilinear pass over all axes.

    Plain numpy: every node's source point is located on the full lattice,
    snapped to a node within 1e-9 spacings, and set to zero off the grid.
    """
    axes = field.grid.axes
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    src = (pts - op.d) @ np.linalg.inv(op.S).T
    inside = np.ones(len(pts), dtype=bool)
    idx, frac = [], []
    for j, ax in enumerate(axes):
        f = (src[:, j] - ax[0]) / ((ax[-1] - ax[0]) / (ax.size - 1))
        near = np.rint(f)
        f = np.where(np.abs(f - near) < 1e-9, near, f)
        inside &= (f >= 0.0) & (f <= ax.size - 1)
        i0 = np.clip(np.floor(f).astype(np.int64), 0, ax.size - 2)
        idx.append(i0)
        frac.append(f - i0)
    out = np.zeros(len(pts))
    for corner in product((0, 1), repeat=len(axes)):
        w = inside.astype(float)
        for j, bit in enumerate(corner):
            w *= frac[j] if bit else 1.0 - frac[j]
        out += w * field.samples[tuple(i + bit for i, bit in zip(idx, corner))]
    return out.reshape(field.grid.shape)


def mode0_rotation(theta):
    c, sn = np.cos(theta), np.sin(theta)
    S = np.eye(4)
    S[:2, :2] = [[c, sn], [-sn, c]]
    return SymplecticOp(S=S, d=np.zeros(4))


class TestOperators:
    def test_omega_blocks(self):
        om = omega(2)
        assert om.shape == (4, 4)
        assert np.array_equal(om, -om.T)
        assert np.array_equal(om[:2, :2], [[0, 1], [-1, 0]])

    def test_constructor_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            SymplecticOp(S=np.diag([2.0, 2.0]), d=np.zeros(2))

    def test_constructor_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SymplecticOp(S=np.eye(2), d=np.zeros(4))

    def test_constructor_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymplecticOp(S=[[np.nan, 0.0], [0.0, np.nan]], d=np.zeros(2))
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            sym_rotate(np.inf)
        with pytest.raises(ValueError):
            sym_displace(np.nan, 0.0)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_generators_preserve_form(self, s, theta, t):
        assert sym_dev(sym_squeeze(s)) < 1e-12
        assert sym_dev(sym_rotate(theta)) < 1e-12
        assert sym_dev(sym_beamsplitter(t)) < 1e-12

    def test_beamsplitter_rejects_bad_transmittance(self):
        for t in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sym_beamsplitter(t)

    def test_compose_order(self):
        # squeeze then rotate differs from rotate then squeeze
        a = compose(sym_rotate(0.5), sym_squeeze(0.3))
        manual = sym_rotate(0.5).S @ sym_squeeze(0.3).S
        assert np.max(np.abs(a.S - manual)) < 1e-15

    def test_compose_carries_displacement(self):
        op = compose(sym_rotate(np.pi / 2), sym_displace(1.0, 0.0))
        # displacement (1, 0) rotated: q -> p under this convention
        assert np.max(np.abs(op.d - np.array([0.0, -1.0]))) < 1e-12

    def test_random_compositions_stay_symplectic(self, rng):
        for _ in range(100):
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
            assert sym_dev(op) <= 1e-10


class TestApplySymplectic:
    def test_rotation_invariance_of_number_state(self):
        g = ws.build_grid(-10, 10, 321, -10, 10, 321)
        w = number_state_wigner(1, g)
        out = apply_symplectic(w, sym_rotate(0.7))
        assert np.max(np.abs(out.samples - w.samples)) < 2e-3

    def test_squeeze_changes_quadrature_variance(self):
        g = ws.build_grid(-10, 10, 641, -10, 10, 641)
        out = apply_symplectic(vacuum_wigner(g), sym_squeeze(0.4))
        for quad, expect in (("q", np.exp(-0.8)), ("p", np.exp(0.8))):
            pdf = homodyne_pdf(out, 0, quad)
            var = float(
                np.sum(pdf.densities * pdf.values**2 * np.gradient(pdf.values))
            )
            assert abs(var - expect) < 2e-3

    def test_on_node_displacement_is_exact(self):
        g = ws.build_grid(-10, 10, 321, -10, 10, 321)
        out = apply_symplectic(vacuum_wigner(g), sym_displace(2.5, -1.25))
        i = np.argmin(np.abs(g.axes[0] - 2.5))
        j = np.argmin(np.abs(g.axes[1] + 1.25))
        assert abs(out.samples[i, j] - 1.0 / (2.0 * np.pi)) < 1e-14

    def test_beamsplitter_leaves_vacuum_pair_invariant(self, grid_tiny):
        vac = vacuum_wigner(grid_tiny)
        pair = tensor_product(vac, vac)
        out = apply_symplectic(pair, sym_beamsplitter(0.7))
        assert np.max(np.abs(out.samples - pair.samples)) < 1e-3

    @pytest.mark.parametrize(
        "case",
        ["squeeze", "rotate", "beamsplitter", "rotate_then_beamsplitter"],
    )
    def test_matches_full_multilinear_reference(self, case):
        # each op pushes part of the support off the grid (the integral
        # drops by over 1e-3), so the zero-outside mask matters
        one = ws.build_grid(-6, 6, 101, -6, 6, 101)
        two = ws.build_grid(-6, 6, 25, -6, 6, 25)
        bs_d = SymplecticOp(S=sym_beamsplitter(0.7).S, d=[2.0, -2.0, 1.5, 2.0])
        field, op, blocks = {
            "squeeze": (
                number_state_wigner(1, one),
                compose(sym_displace(2.0, -1.0), sym_squeeze(0.4)),
                [(0,), (1,)],
            ),
            "rotate": (
                number_state_wigner(1, one),
                compose(sym_displace(2.5, 0.5), sym_rotate(0.6)),
                [(0, 1)],
            ),
            "beamsplitter": (
                tensor_product(number_state_wigner(1, two), vacuum_wigner(two)),
                bs_d,
                [(0, 2), (1, 3)],
            ),
            "rotate_then_beamsplitter": (
                tensor_product(number_state_wigner(1, two), vacuum_wigner(two)),
                compose(bs_d, mode0_rotation(0.5)),
                [(0, 1, 2, 3)],
            ),
        }[case]
        assert _blocks(op.S) == blocks
        out = apply_symplectic(field, op)
        ref = multilinear_reference(field, op)
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert integrate_full(field) - integrate_full(out) > 1e-3

    def test_mode_count_mismatch_rejected(self, grid_tiny):
        with pytest.raises(ws.GridMismatchError):
            apply_symplectic(vacuum_wigner(grid_tiny), sym_beamsplitter(0.5))


class TestHomodyne:
    def test_vacuum_pdf_is_standard_normal(self, grid_small):
        pdf = homodyne_pdf(vacuum_wigner(grid_small), 0, "q")
        ref = np.exp(-pdf.values**2 / 2.0) / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(pdf.densities - ref)) < 1e-9

    def test_pdf_requires_normalized_field(self, grid_small):
        from wigsim.grids import field_from_samples

        half = field_from_samples(grid_small, vacuum_wigner(grid_small).samples / 2)
        with pytest.raises(ValueError):
            homodyne_pdf(half, 0, "q")

    def test_pdf_rejects_bad_quadrature(self, grid_small):
        with pytest.raises(ValueError):
            homodyne_pdf(vacuum_wigner(grid_small), 0, "x")


class TestConditioning:
    def test_vacuum_pair_conditions_to_vacuum(self, grid_tiny):
        vac = vacuum_wigner(grid_tiny)
        pair = tensor_product(vac, vac)
        cond, dens = condition_on_homodyne(pair, 1, "p", 0.5)
        # outcome density is the vacuum marginal N(0, 1) at 0.5, up to the
        # grid truncation of the +-8 box
        ref = np.exp(-0.125) / np.sqrt(2.0 * np.pi)
        assert abs(dens - ref) < 2e-3
        assert cond.mode_count == 1
        assert np.max(np.abs(cond.samples - vac.samples)) < 1e-8

    def test_off_node_value_interpolates(self, grid_tiny):
        vac = vacuum_wigner(grid_tiny)
        pair = tensor_product(vac, vac)
        cond, _ = condition_on_homodyne(pair, 0, "q", 0.131)
        assert np.max(np.abs(cond.samples - vac.samples)) < 1e-4

    def test_out_of_domain_rejected(self, grid_tiny):
        pair = tensor_product(vacuum_wigner(grid_tiny), vacuum_wigner(grid_tiny))
        with pytest.raises(OutOfDomainError):
            condition_on_homodyne(pair, 0, "q", 9.5)

    def test_single_mode_rejected(self, grid_tiny):
        with pytest.raises(ValueError):
            condition_on_homodyne(vacuum_wigner(grid_tiny), 0, "q", 0.0)

    def test_remote_squeezing_via_entangler(self, grid_tiny):
        # two-mode squeezed-like correlations: squeeze both arms, mix on a
        # balanced splitter, then read p on the idler; the signal variance
        # must drop below vacuum
        sq = apply_symplectic(vacuum_wigner(grid_tiny), sym_squeeze(0.35))
        asq = apply_symplectic(vacuum_wigner(grid_tiny), sym_squeeze(-0.35))
        pair = tensor_product(sq, asq)
        # interpolation at this coarse resolution drifts the integral just
        # past the normalized gate; rescale before conditioning
        mixed = ws.renormalize(apply_symplectic(pair, sym_beamsplitter(0.5)))
        cond, dens = condition_on_homodyne(mixed, 1, "q", 0.0)
        assert dens > 0
        pdf = homodyne_pdf(cond, 0, "q")
        var = float(np.sum(pdf.densities * pdf.values**2 * np.gradient(pdf.values)))
        assert var < 1.0
