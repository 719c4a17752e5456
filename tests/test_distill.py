import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wigsim as ws
from wigsim import distill, monotones
from wigsim.distill import (
    DistillationConfig,
    _blur,
    _segment_integral,
    OutcomeRecord,
    default_protocol_grid,
    distill_conditional,
    distill_sweep,
    on_gate_output,
    select_window,
    write_sweep_csv,
)
from wigsim.grids import row_blocks, tensor_product
from wigsim.states import (
    CubicPhase,
    GaussianStateParams,
    gaussian_wigner,
    vacuum_wigner,
)
from wigsim.symplectic import apply_symplectic, condition_on_homodyne, sym_beamsplitter


class TestConfigValidation:
    def test_transmittance_bounds(self):
        for t in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                DistillationConfig(input=CubicPhase(0.05, 0.0, 0.5), t=t)

    def test_window_and_target_exclusive(self):
        with pytest.raises(ValueError):
            DistillationConfig(
                input=CubicPhase(0.05, 0.0, 0.5),
                window=(-1.0, 1.0),
                target_P_suc=0.5,
            )

    def test_samples_must_increase(self):
        # a NaN compares false with everything and a trailing inf leaves
        # increasing differences, so both need their own rejection
        for samples in ([0.0, 1.0, 1.0], [0.0, np.nan, 1.0],
                        [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]):
            with pytest.raises(ValueError, match="p_v_samples"):
                DistillationConfig(
                    input=CubicPhase(0.05, 0.0, 0.5),
                    p_v_samples=np.array(samples),
                )

    @pytest.mark.parametrize("s_targ", [-1.0, np.nan, np.inf])
    def test_s_targ_must_be_finite_and_nonnegative(self, s_targ):
        with pytest.raises(ValueError, match="s_targ"):
            DistillationConfig(input=CubicPhase(0.05, 0.0, 0.5), s_targ=s_targ)

    def test_bad_window_order(self):
        with pytest.raises(ValueError):
            DistillationConfig(input=CubicPhase(0.05, 0.0, 0.5), window=(2.0, -2.0))

    @pytest.mark.parametrize("window", [(-1.0, 1.0, 5.0), (1.0,)])
    def test_window_must_be_a_pair(self, window):
        with pytest.raises(ValueError, match="window"):
            DistillationConfig(input=CubicPhase(0.05, 0.0, 0.5), window=window)

    def test_fidelity_on_plain_field_needs_gamma(self, grid_small):
        cfg = DistillationConfig(
            input=vacuum_wigner(grid_small),
            t=0.9,
            p_v_samples=np.linspace(-2, 2, 5),
            s_targ=4.0,
        )
        # the config error comes before any field work, so nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs gamma"):
                distill_sweep(cfg)


class TestConditional:
    def test_vacuum_passes_through(self):
        # vacuum in, vacuum ancilla: the output is vacuum for every outcome
        # and the outcome density is the ancilla's own marginal N(0, 1)
        g = ws.build_grid(-8, 8, 257, -8, 8, 257)
        vac = vacuum_wigner(g)
        out, dens = distill_conditional(vac, 0.7, 0.9)
        assert abs(dens - np.exp(-0.81 / 2.0) / np.sqrt(2.0 * np.pi)) < 2e-5
        assert np.max(np.abs(out.samples - vacuum_wigner(out.grid).samples)) < 3e-4

    def test_requires_single_mode(self, grid_tiny):
        pair = tensor_product(vacuum_wigner(grid_tiny), vacuum_wigner(grid_tiny))
        with pytest.raises(ws.GridMismatchError):
            distill_conditional(pair, 0.9, 0.0)

    def test_requires_normalized(self, grid_small):
        from wigsim.grids import field_from_samples

        half = field_from_samples(grid_small, vacuum_wigner(grid_small).samples / 2)
        with pytest.raises(ws.UnnormalizedFieldError):
            distill_conditional(half, 0.9, 0.0)

    @pytest.mark.parametrize("p_v", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome_refused_before_the_blur(self, monkeypatch, p_v):
        def no_blur(*args):
            raise AssertionError("the input was blurred")

        monkeypatch.setattr(distill, "_blur", no_blur)
        vac = vacuum_wigner(ws.build_grid(-6, 6, 49, -5, 5, 41))
        with pytest.raises(ValueError, match="p_v"):
            distill_conditional(vac, 0.9, p_v)

    def test_matches_plain_numpy_formula(self):
        # the module docstring's formula in its written order on the image
        # lattice p_j = (p_in,j + sqrt(1-t) p_v) / sqrt(t): W at p' (which is
        # p_in, so np.interp returns the input's own columns), blur in q with
        # trapezoid weights, multiply by G(p_j)
        g_in = ws.build_grid(-6, 6, 97, -5, 5, 81)
        q_in, p_in = g_in.axes
        # broad in p, so W is far from zero at the input's p edges
        broad_p = GaussianStateParams(np.zeros(2), np.diag([0.5, 8.0]))
        w_in = ws.renormalize(gaussian_wigner(broad_p, g_in))
        t, p_v = 0.6, 1.5
        rt, rr = np.sqrt(t), np.sqrt(1.0 - t)

        p_out = (p_in + rr * p_v) / rt
        p_prime = rt * p_out - rr * p_v
        w_p = np.array([np.interp(p_prime, p_in, row) for row in w_in.samples])
        dq = q_in[1] - q_in[0]
        trap = np.full(q_in.size, dq)
        trap[[0, -1]] = dq / 2.0
        diff = q_in[:, None] - rt * q_in[None, :]
        kernel = np.exp(-diff * diff / (2.0 * (1.0 - t)))
        kernel *= trap / (2.0 * np.pi * rr)
        g_p = np.exp(-0.5 * (rt * p_v + rr * p_out) ** 2)
        raw = (kernel @ w_p) * g_p
        density = np.trapezoid(np.trapezoid(raw, p_out, axis=1), q_in)
        scale = np.max(np.abs(raw))

        out, dens = distill_conditional(w_in, t, p_v)
        assert np.array_equal(out.grid.axes[0], q_in)
        assert np.array_equal(out.grid.axes[1], p_out)
        assert abs(dens - density) <= 1e-12 * density
        assert np.max(np.abs(out.samples * dens - raw)) <= 1e-12 * scale

    @pytest.mark.parametrize("t", [0.5, 0.9, 0.99])
    def test_banded_blur_matches_dense_kernel(self, t):
        # on +-16 the band (reach 8.6 at t = 0.5, 1.2 at t = 0.99) leaves out
        # most of the kernel; with 1025 p-points a row block spans 2 in q, and
        # mass at both q edges sits under the band edges of many blocks
        g = ws.build_grid(-16, 16, 513, -6, 6, 1025)
        q, p = g.axes
        samples = (np.exp(-((q[:, None] - 15.0) ** 2) - p[None, :] ** 2)
                   + np.exp(-((q[:, None] + 14.5) ** 2) / 0.5 - p[None, :] ** 2))
        field = ws.renormalize(ws.field_from_samples(g, samples))
        rt, rr = np.sqrt(t), np.sqrt(1.0 - t)
        dq = q[1] - q[0]
        trap = np.full(q.size, dq)
        trap[[0, -1]] = dq / 2.0
        diff = q[:, None] - rt * q[None, :]
        kernel = np.exp(-diff * diff / (2.0 * (1.0 - t))) * trap / (2.0 * np.pi * rr)
        dense = kernel @ field.samples
        banded = _blur(field, t, whole=True)[1]
        assert np.max(np.abs(banded - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("gamma,s,t", [(0.05, 0.2, 0.99), (-0.05, 1.0, 0.9),
                                           (0.05, 0.6, 0.95)])
    def test_lifted_blur_stores_no_subnormal(self, gamma, s, t):
        # the unlifted banded loop is the reference: its columns, and its B
        # wherever no product underflowed into its rounding (2^-900 and up)
        field = ws.cubic_phase_wigner(gamma, 0.0, s, default_protocol_grid())
        q = field.grid.axes[0]
        var2, src = 2.0 * (1.0 - t), np.sqrt(t) * q
        reach = np.sqrt(var2 * distill._BAND_DEPTH)
        w_q = ws.trapezoid_weights(q)
        weights = w_q / (2.0 * np.pi * np.sqrt(1.0 - t))
        ref_columns, ref = np.zeros((2, field.grid.shape[1])), np.empty(field.grid.shape)
        for rows in row_blocks(field.grid.shape):
            lo, hi = np.searchsorted(src, q[rows][[0, -1]] + [-reach, reach])
            diff = q[rows, None] - src[lo:hi]
            ref[rows] = (np.exp(-diff * diff / var2) * weights[lo:hi]) @ field.samples[lo:hi]
            ref_columns += w_q[rows] @ np.array([ref[rows], np.abs(ref[rows])])
        columns, blurred = _blur(field, t, whole=True)
        assert np.all(np.abs(columns - ref_columns) <= 1e-15 * np.abs(ref_columns))
        assert not np.any((blurred != 0) & (np.abs(blurred) < np.finfo(float).tiny))
        exact = np.abs(ref) >= 2.0**-900
        assert np.array_equal(blurred[exact], ref[exact])

    def test_lift_leaves_room_for_large_samples(self):
        # a lift of 2^600 would overflow samples of 2^450; the blur lowers it
        g = ws.build_grid(-6, 6, 97, -5, 5, 81)
        q, p = g.axes
        samples = 2.0**450 * np.exp(-q[:, None] ** 2 - p[None, :] ** 2)
        # a deliberately lifted field: it claims integral 1 so the blur accepts it
        field = ws.WignerField(grid=g, samples=samples, integral=1.0)
        t = 0.9
        diff = q[:, None] - np.sqrt(t) * q[None, :]
        kernel = np.exp(-diff * diff / (2.0 * (1.0 - t))) * ws.trapezoid_weights(q)
        dense = kernel / (2.0 * np.pi * np.sqrt(1.0 - t)) @ samples
        want = ws.trapezoid_weights(q) @ np.array([dense, np.abs(dense)])
        columns, blurred = _blur(field, t, whole=True)
        assert np.all(np.abs(columns - want) <= 1e-14 * want)
        assert np.max(np.abs(blurred - dense)) <= 1e-14 * np.max(dense)

    def test_holds_no_interpolation_arrays(self):
        # the blur hands back the (c, a) columns and the blurred input only:
        # no gather indices, interpolation weights or off-grid masks
        g = ws.build_grid(-6, 6, 49, -5, 5, 41)
        arrays = _blur(vacuum_wigner(g), 0.9, whole=True)
        assert [v.shape for v in arrays] == [(2, 41), (49, 41)]
        assert all(v.dtype == np.float64 for v in arrays)

    def test_matches_generic_two_mode_route(self, grid_tiny):
        # independent evaluation: tensor with vacuum, apply the beam
        # splitter by interpolation, slice on the measured value; agreement
        # is limited by the 61-point multilinear interpolation and halves
        # on refinement. The comparison is on the generic route's grid: the
        # conditional's output, on its own p-lattice, is carried there by
        # the same linear rule in p (on the lattice itself the generic
        # route alone is 2.7e-3 off at 61 points)
        w_in = ws.renormalize(
            ws.cubic_phase_wigner(0.05, 0.0, 0.3, grid_tiny)
        )
        vac = vacuum_wigner(grid_tiny)
        t, p_v = 0.9, -0.8
        mixed = apply_symplectic(tensor_product(w_in, vac), sym_beamsplitter(t))
        cond, dens = condition_on_homodyne(mixed, 1, "p", p_v)
        fast, dens_fast = distill_conditional(w_in, t, p_v)
        p_fast, p_shared = fast.grid.axes[1], cond.grid.axes[1]
        shared = np.array([np.interp(p_shared, p_fast, row) for row in fast.samples])
        assert abs(dens - dens_fast) / dens_fast < 6e-3
        assert np.max(np.abs(cond.samples - shared)) < 2.5e-3

    def test_pure_state_oracle_on_criterion_07_grid(self, conditional_reference):
        # two outcomes of criterion 07's gain leg against the wavefunction
        # route of conftest; N_L's trapezoid error on this lattice is 4.5e-6
        # at p_v = -3 and 1.5e-5 at -2.2 (the library converges to the
        # reference on 2561 x 4097 and 1921 x 6145 points)
        grid = ws.build_grid(-20, 20, 1281, -64, 64, 2049)
        out = distill_sweep(
            DistillationConfig(
                input=CubicPhase(0.05, 0.0, 1.0), t=0.99,
                p_v_samples=np.array([-3.0, -2.2]), input_grid=grid, s_targ=4.0,
            )
        )
        for rec in out.records:
            density, neg, fid = conditional_reference(0.05, 1.0, 0.99, rec.p_v, 4.0)
            assert abs(rec.density - density) <= 1e-5 * density
            assert abs(rec.fid - fid) <= 1e-5
            assert abs(rec.neg - neg) <= 2e-5


def _cubic_target(grid, t, gamma=0.05):
    # the sweep's s = 4 target: the unshifted target on (q_in, p_in / sqrt(t))
    q, p = grid.axes
    return ws.cubic_phase_wigner(gamma, 0.0, 4.0, ws.PhaseSpaceGrid(axes=(q, p / np.sqrt(t)))).samples


def _spy_columns_path(monkeypatch):
    # counts the rows the columns path blurs and records the column range of
    # each banded matmul, the only 2-D index it takes of the input samples
    seen = {"rows": 0, "spans": []}
    kernel_blocks, blurred_columns = distill._kernel_blocks, distill._blurred_columns

    def counted(*args):
        for rows, *rest in kernel_blocks(*args):
            seen["rows"] += rows.stop - rows.start
            yield rows, *rest

    class Indexed(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, tuple):
                seen["spans"].append(key[1])
            return super().__getitem__(key)

    monkeypatch.setattr(distill, "_kernel_blocks", counted)
    monkeypatch.setattr(distill, "_blurred_columns", lambda q, samples, *rest:
                        blurred_columns(q, samples.view(Indexed), *rest))
    return seen


class TestBlurColumns:
    """The sweep's columns path (q-parity fold, sign split) against whole=True."""

    @staticmethod
    def assert_matches_whole(field, t, target=None, seen=None):
        # per column, within 1.5e-15 of its largest entry: the fold and the
        # matrix-vector density move the columns by up to 1.12e-15 on the
        # protocol grid, as close to a long-double sum as the whole path's;
        # seen, if given, counts the columns path's rows alone
        columns, blurred = _blur(field, t, whole=True)
        if target is not None:
            f = ws.trapezoid_weights(field.grid.axes[0]) @ (blurred * target)
            columns = np.vstack([columns, f])
        if seen is not None:
            seen["rows"] = 0
        got, nothing = _blur(field, t, target=target)
        assert nothing is None and got.shape == columns.shape
        scale = np.max(np.abs(columns), axis=1, keepdims=True)
        assert np.all(np.abs(got - columns) <= 1.5e-15 * scale)

    @pytest.mark.parametrize("t", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("s", [0.2, 1.0])
    @pytest.mark.parametrize("gamma", [0.05, -0.05])
    def test_matches_whole_columns(self, gamma, s, t):
        grid = default_protocol_grid()
        field = ws.cubic_phase_wigner(gamma, 0.0, s, grid)
        self.assert_matches_whole(field, t)
        self.assert_matches_whole(field, t, _cubic_target(grid, t, gamma))

    def test_uneven_input_or_target_blurs_every_row(self, monkeypatch):
        # a rotated photon-added state is not even in q, so neither it nor a
        # cubic input tracking it as a target may fold
        seen = _spy_columns_path(monkeypatch)
        grid = default_protocol_grid()
        uneven = ws.photon_mod_wigner(1, 0.5, 0.3, grid)
        cubic = ws.cubic_phase_wigner(0.05, 0.0, 1.0, grid)
        for field, target in ((uneven, None), (uneven, _cubic_target(grid, 0.9)),
                              (cubic, uneven.samples)):
            self.assert_matches_whole(field, 0.9, target, seen)
            assert seen["rows"] == 1025

    def test_asymmetric_axis_blurs_every_row(self, monkeypatch):
        seen = _spy_columns_path(monkeypatch)
        grid = ws.build_grid(-16, 15.5, 1009, -32, 32, 2049)
        field = ws.cubic_phase_wigner(0.05, 0.0, 1.0, grid)
        for target in (None, _cubic_target(grid, 0.95)):
            self.assert_matches_whole(field, 0.95, target, seen)
            assert seen["rows"] == 1009

    def test_protocol_sweep_blurs_half_the_rows_over_the_negative_columns(self, monkeypatch):
        # the cubic input is even on the protocol grid's antisymmetric q-axis,
        # so 513 of its 1025 rows are blurred (q <= 0); without a target the
        # matmul spans only the columns holding a negative sample
        seen = _spy_columns_path(monkeypatch)
        grid = default_protocol_grid()
        field = ws.cubic_phase_wigner(0.05, 0.0, 1.0, grid)
        negative = np.flatnonzero((field.samples < 0).any(axis=0))
        assert 0 < negative[-1] + 1 - negative[0] < grid.shape[1] / 2
        distill_sweep(DistillationConfig(input=field, t=0.95, p_v_samples=np.linspace(-3, 3, 7)))
        assert grid.shape[0] == 1025 and seen["rows"] == 513
        assert seen["spans"] and all(
            span == slice(negative[0], negative[-1] + 1) for span in seen["spans"])
        # a target needs B T wherever T is not 0: every column
        seen.update(rows=0, spans=[])
        distill_sweep(DistillationConfig(input=CubicPhase(0.05, 0.0, 1.0), t=0.95,
                                         p_v_samples=np.linspace(-3, 3, 7), s_targ=4.0))
        assert seen["rows"] == 513
        assert seen["spans"] and all(span == slice(0, 2049) for span in seen["spans"])

    def test_vacuum_sweep_runs_no_matmul(self, monkeypatch):
        # no negative sample: w_q |B| is w_q B, so l1 equals the density to
        # the bit and every N_L is exactly 0, with nothing to clamp
        seen = _spy_columns_path(monkeypatch)
        out = distill_sweep(DistillationConfig(
            input=vacuum_wigner(default_protocol_grid()), t=0.9,
            p_v_samples=np.linspace(-3, 3, 7),
        ))
        assert seen["rows"] == 513 and seen["spans"] == []
        assert all(r.l1 == r.density and r.neg == 0.0 for r in out.records)

    @pytest.mark.parametrize("tracked", [False, True])
    def test_holds_row_blocks_only(self, tracked):
        # the evenness check and the negative-column scan go a row block at a
        # time: a boolean over half the protocol grid would add 4 row blocks
        grid = default_protocol_grid()
        field = ws.cubic_phase_wigner(0.05, 0.0, 1.0, grid)
        target = _cubic_target(grid, 0.9) if tracked else None
        block = row_blocks(grid.shape)[0].stop * grid.shape[1] * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _blur(field, 0.9, target=target)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # measured: 1.41 row blocks (B's block, the kernel), 2.49 with B T
        assert peak <= (3 if tracked else 2) * block


class TestSelectWindow:
    @staticmethod
    def records_from(xs, dens, negs):
        return [
            OutcomeRecord(p_v=float(x), density=float(d), neg=float(n))
            for x, d, n in zip(xs, dens, negs)
        ]

    def test_decreasing_negativity_anchors_left(self):
        xs = np.linspace(-4, 4, 33)
        dens = np.exp(-(xs**2) / 2.0) / np.sqrt(2.0 * np.pi)
        negs = np.linspace(1.0, 0.1, 33)
        recs = self.records_from(xs, dens, negs)
        lo, hi = select_window(recs, 0.2)
        assert lo == xs[0]

    def test_full_range_for_unit_target(self):
        xs = np.linspace(-4, 4, 33)
        dens = np.exp(-(xs**2) / 2.0) / np.sqrt(2.0 * np.pi)
        recs = self.records_from(xs, dens, np.ones(33))
        assert select_window(recs, 1.0) == (xs[0], xs[-1])

    def test_unreachable_target_raises(self):
        xs = np.linspace(-1, 1, 9)
        dens = np.full(9, 0.05)
        recs = self.records_from(xs, dens, np.ones(9))
        with pytest.raises(ValueError):
            select_window(recs, 0.9)

    @given(st.floats(min_value=0.05, max_value=0.6))
    def test_window_mass_lands_within_edge_bin(self, target):
        xs = np.linspace(-4, 4, 65)
        dens = np.exp(-(xs**2) / 2.0) / np.sqrt(2.0 * np.pi)
        recs = self.records_from(xs, dens, np.linspace(2.0, 0.0, 65))
        lo, hi = select_window(recs, target)
        i, j = np.searchsorted(xs, lo), np.searchsorted(xs, hi)
        widths = np.diff(xs)
        bins = 0.5 * (dens[:-1] + dens[1:]) * widths
        mass = bins[i:j].sum()
        local = max(bins[i], bins[j - 1])
        assert abs(mass - target) <= local + 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1.0),
                st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 2.0),
            ),
            min_size=2,
            max_size=30,
        ),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_matches_double_loop(self, rows, target):
        # small value sets make ties between windows common
        xs = np.cumsum([gap for gap, _, _ in rows])
        dens = np.array([d for _, d, _ in rows])
        total = np.sum(0.5 * (dens[:-1] + dens[1:]) * np.diff(xs))
        if total > 0:
            dens = dens / total
        recs = self.records_from(xs, dens, [n for _, _, n in rows])

        def outcome(fn):
            try:
                return fn(recs, target)
            except ValueError:
                return "raises"

        assert outcome(select_window) == outcome(select_window_loop)


def select_window_loop(records, target_P_suc):
    """select_window as a Python double loop over (i, j); the reference for
    the vectorised search, including its strict > first-maximum tie-break."""
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
        raise ValueError("target exceeds captured mass")
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


@given(st.integers(2, 120), st.integers(0, 2**32 - 1), st.booleans())
def test_segment_integral_matches_loop(n, seed, on_knots):
    # numpy-drawn values, unlike hypothesis' simple floats, round in their
    # sums, so a change of summation order shows
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.01, 1.0, n))
    ys = rng.exponential(1.0, n)
    if on_knots:
        lo, hi = np.sort(rng.choice(xs, 2, replace=False))
    else:
        lo, hi = np.sort(rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 2))
    lo, hi = float(lo), float(hi)
    assert _segment_integral(xs, ys, lo, hi) == segment_integral_loop(xs, ys, lo, hi)


def segment_integral_loop(xs, ys, lo, hi):
    """_segment_integral as a Python loop over segments; the reference for
    the vectorised sum, which adds the same terms in the same order."""
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


@pytest.fixture(scope="module")
def small_config():
    g = ws.build_grid(-10, 10, 257, -14, 14, 385)
    return DistillationConfig(
        input=CubicPhase(0.05, 0.0, 0.3),
        t=0.9,
        p_v_samples=np.linspace(-4, 4, 33),
        input_grid=g,
        target_P_suc=1.0,
    )


@pytest.fixture(scope="module")
def small_sweep(small_config):
    return distill_sweep(small_config)


def _forbid_outcome_fields(monkeypatch):
    """Make building an outcome's field, or overlapping one with a target, raise."""

    def forbidden(*args):
        raise AssertionError("an outcome field was built or overlapped")

    monkeypatch.setattr(distill, "_outcome_field", forbidden)
    monkeypatch.setattr(monotones, "fidelity_to_pure", forbidden)
    monkeypatch.setattr(distill, "fidelity_to_pure", forbidden, raising=False)


class TestSweep:
    def test_full_range_averages(self, small_sweep):
        out = small_sweep
        assert out.window == (-4.0, 4.0)
        assert 0.9 < out.P_suc <= 1.0 + 1e-3
        # post_neg is the conditional mean avg_neg / P_suc by construction
        assert out.post_neg == pytest.approx(out.avg_neg / out.P_suc, rel=1e-12)
        # over the full range the two coincide up to the outcome mass that
        # falls beyond the sampled endpoints, so the gap is (1 - P_suc)-sized
        assert abs(out.post_neg - out.avg_neg) < 5e-4
        # selective average over everything cannot beat the input
        assert out.avg_neg <= out.ini_neg * 1.01

    @pytest.mark.parametrize(
        "requested,clipped",
        [((-100.0, 0.0), (-3.0, 0.0)), ((0.5, 100.0), (0.5, 3.0))],
        ids=["below", "above"],
    )
    def test_window_past_the_samples_is_clipped(self, requested, clipped):
        # only the sampled outcomes are integrated, so the outcome reports
        # the clipped window and the same aggregates as asking for it
        grid = ws.build_grid(-10, 10, 129, -16, 16, 257)

        def sweep(window):
            return distill_sweep(DistillationConfig(
                input=CubicPhase(0.05, 0.0, 0.3), t=0.9,
                p_v_samples=np.linspace(-3, 3, 7), window=window, input_grid=grid,
            ))

        wide, exact = sweep(requested), sweep(clipped)
        assert wide.window == clipped
        assert (wide.P_suc, wide.avg_neg, wide.post_neg) == (
            exact.P_suc, exact.avg_neg, exact.post_neg
        )

    def test_records_cover_samples(self, small_sweep):
        assert len(small_sweep.records) == 33
        assert all(r.density >= 0 for r in small_sweep.records)

    def test_records_match_single_conditional(self, small_config, small_sweep):
        field = ws.resource_wigner(small_config.input, small_config.input_grid)
        t = small_config.t
        tracked = distill_sweep(dataclasses.replace(small_config, s_targ=4.0))
        for rec, fid_rec in zip(small_sweep.records, tracked.records):
            out, dens = distill_conditional(field, t, rec.p_v)
            assert abs(rec.density - dens) <= 1e-12 * dens
            assert abs(rec.neg - ws.log_negativity(out)) <= 1e-12 * abs(rec.neg)
            # the field's density comes from the columns, and still normalizes it
            assert abs(ws.integrate_full(out) - 1.0) <= 1e-12
            # the shifted target built on the outcome's own lattice, against
            # the sweep's one target at (q_in, p_in / sqrt(t))
            shift = np.sqrt((1.0 - t) / t) * rec.p_v
            target = ws.cubic_phase_wigner(0.05, shift, 4.0, out.grid)
            assert abs(fid_rec.fid - ws.fidelity_to_pure(out, target)) <= 1e-12

    def test_undersized_cubic_input_refused(self):
        # a +-3 window cannot hold the s=1.5 cubic state: the generated
        # input comes back flagged and the sweep refuses it
        grid = ws.build_grid(-3, 3, 65, -3, 3, 65)
        config = DistillationConfig(
            input=CubicPhase(0.05, 0.0, 1.5), t=0.9, target_P_suc=1.0,
            input_grid=grid,
        )
        with pytest.raises(ws.UnnormalizedFieldError):
            distill_sweep(config)

    def test_fidelity_target_built_once_per_sweep(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return ws.cubic_phase_wigner(*args)

        monkeypatch.setattr(distill, "cubic_phase_wigner", counted)
        grid = ws.build_grid(-10, 10, 129, -16, 16, 257)
        out = distill_sweep(
            DistillationConfig(
                input=CubicPhase(0.05, 0.0, 0.5), t=0.95,
                p_v_samples=np.linspace(-3, 3, 7), input_grid=grid, s_targ=4.0,
            )
        )
        assert len(calls) == 1
        assert all(0.0 < r.fid <= 1.0 for r in out.records)

    def test_output_grid_must_be_the_input_grid(self, monkeypatch, grid_small):
        # a field input fixes the input grid, so input_grid may only repeat it too
        vac = vacuum_wigner(grid_small)
        equal = ws.build_grid(-8, 8, 161, -8, 8, 161)
        with pytest.warns(UserWarning, match="clamping"):  # the vacuum's N_L is -2.7e-15
            same = distill_sweep(
                DistillationConfig(input=vac, t=0.9, p_v_samples=np.linspace(-2, 2, 5),
                                   input_grid=equal, output_grid=equal)
            )
        assert same.P_suc > 0.0

        def no_outcome(*args):
            raise AssertionError("an outcome was computed")

        monkeypatch.setattr(distill, "_blur", no_outcome)
        for grid in (ws.build_grid(-8, 8, 161, -9, 9, 161),
                     ws.build_grid(-8, 8, 161, -8, 8, 163)):
            for name in ("input_grid", "output_grid"):
                config = DistillationConfig(input=vac, t=0.9, **{name: grid})
                with pytest.raises(ws.GridMismatchError, match=name):
                    distill_sweep(config)

    def test_records_come_from_columns_alone(self, monkeypatch, grid_small):
        # without fidelity tracking a sweep blurs once and never builds an
        # outcome's field: one N_L integral (the input's), no overlap, no
        # conditional; each record's l1 is density * exp(N_L)
        calls = {"log_negativity": 0}
        original = distill.log_negativity

        def counted(*args):
            calls["log_negativity"] += 1
            return original(*args)

        monkeypatch.setattr(distill, "log_negativity", counted)
        _forbid_outcome_fields(monkeypatch)
        field = ws.renormalize(ws.cubic_phase_wigner(0.05, 0.0, 0.3, grid_small))
        out = distill_sweep(DistillationConfig(
            input=field, t=0.9, p_v_samples=np.linspace(-3, 3, 7),
        ))
        assert calls == {"log_negativity": 1}
        for rec in out.records:
            assert rec.l1 == pytest.approx(rec.density * np.exp(rec.neg), rel=1e-14)

    def test_fidelity_records_come_from_columns_alone(self, monkeypatch, grid_small):
        # with a target the blur takes a third column, f = w_q B T, and each
        # outcome's fidelity is a dot product with it: one target, and no
        # outcome field or overlap
        targets = []

        def counted(*args):
            targets.append(args)
            return ws.cubic_phase_wigner(*args)

        monkeypatch.setattr(distill, "cubic_phase_wigner", counted)
        _forbid_outcome_fields(monkeypatch)
        out = distill_sweep(DistillationConfig(
            input=CubicPhase(0.05, 0.0, 0.3), t=0.9, p_v_samples=np.linspace(-3, 3, 7),
            input_grid=grid_small, s_targ=4.0,
        ))
        assert len(targets) == 1
        assert all(0.0 < r.fid <= 1.0 for r in out.records)

    @staticmethod
    def _sweep_peak_in_fields(monkeypatch, grid):
        # tracemalloc peak of a fidelity sweep, in input field sizes; the
        # input and the target are built before the trace
        config = DistillationConfig(
            input=CubicPhase(0.05, 0.0, 0.3), t=0.9, p_v_samples=np.linspace(-3, 3, 7),
            input_grid=grid, s_targ=4.0,
        )
        field = ws.resource_wigner(config.input, grid)
        q, p = grid.axes
        target = ws.cubic_phase_wigner(
            0.05, 0.0, 4.0, ws.PhaseSpaceGrid(axes=(q, p / np.sqrt(config.t)))
        )
        monkeypatch.setattr(distill, "resource_wigner", lambda *args: field)
        monkeypatch.setattr(distill, "cubic_phase_wigner", lambda *args: target)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            distill_sweep(config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / field.samples.nbytes

    def test_fidelity_sweep_holds_no_field_of_its_own(self, monkeypatch):
        # the sweep itself holds neither B whole nor an outcome field, only row blocks
        grid = ws.build_grid(-10, 10, 513, -16, 16, 1025)
        assert self._sweep_peak_in_fields(monkeypatch, grid) <= 1.0

    def test_single_block_sweep_holds_no_copy_of_its_block(self, monkeypatch):
        # one row block spans 129 x 257: the sweep holds the block, |block|
        # or block * T, and the banded kernel (2.51 fields), not a stacked
        # copy of the block's column products as well (6.47)
        grid = ws.build_grid(-10, 10, 129, -16, 16, 257)
        assert self._sweep_peak_in_fields(monkeypatch, grid) <= 2.6

    def test_far_outcome_raises_naming_it(self, grid_small):
        config = DistillationConfig(
            input=vacuum_wigner(grid_small), t=0.9, p_v_samples=np.array([0.0, 60.0]),
        )
        with pytest.warns(UserWarning, match="clamping"), \
                pytest.raises(ws.DegenerateConditioningError, match="at p_v=60.000 below"):
            distill_sweep(config)

    def test_csv_deterministic(self, small_sweep, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(small_sweep, p1)
        write_sweep_csv(small_sweep, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header.startswith("p_v,")


class TestOnGateOutput:
    def test_normalized_and_shift_invariant(self):
        # the measured-value shift is a Gaussian operation, so the
        # negativity cannot depend on it
        g = ws.build_grid(-16, 16, 513, -32, 32, 1025)
        vals = []
        for qt in (0.0, 1.0, -1.0):
            f = on_gate_output(0.1, qt, g)
            assert f.normalized
            vals.append(ws.log_negativity(f))
        assert np.max(np.abs(np.diff(vals))) < 1e-3
