import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wigsim as ws
from wigsim import InvalidGridError, NonNormalizableError, UnnormalizedFieldError
from wigsim import grids
from wigsim.grids import (
    PhaseSpaceGrid,
    QuadratureDistribution,
    csv_header,
    field_from_samples,
    integrate_full,
    integrate_samples,
    marginal_over,
    overlap_trace,
    read_field_csv,
    renormalize,
    tensor_product,
    trapezoid_weights,
    wigner_from_wavefunction,
    write_field_csv,
)


class TestGridConstruction:
    def test_build_grid_shape_and_spacing(self):
        g = ws.build_grid(-4, 4, 17, -2, 2, 9)
        assert g.shape == (17, 9)
        assert g.mode_count == 1
        assert g.spacings == (0.5, 0.5)
        assert g.axes[0][0] == -4 and g.axes[1][-1] == 2

    def test_default_grid(self):
        g = ws.default_grid()
        assert g.shape == (1025, 1025)
        assert g.axes[0][0] == -16.0 and g.axes[0][-1] == 16.0

    def test_multimode_axes_order(self):
        g = ws.build_grid(-3, 3, 7, -5, 5, 11, modes=2)
        assert g.shape == (7, 11, 7, 11)
        assert g.axis_index(1, "p") == 3

    @pytest.mark.parametrize(
        "args",
        [
            (-4, 4, 2, -4, 4, 9),
            (4, -4, 9, -4, 4, 9),
            (-4, 4, 9, -4, np.inf, 9),
            (-1, 1, 9.5, -1, 1, 9),
            (-1, 1, 9, -1, 1, 9, 1.5),
        ],
    )
    def test_build_grid_rejects(self, args):
        with pytest.raises(InvalidGridError):
            ws.build_grid(*args)

    def test_build_grid_takes_numpy_integer_counts(self):
        g = ws.build_grid(-1, 1, np.int64(5), -1, 1, np.int32(7), modes=np.int64(2))
        assert g.shape == (5, 7, 5, 7)

    def test_nonuniform_axis_rejected(self):
        with pytest.raises(InvalidGridError):
            PhaseSpaceGrid(axes=(np.array([0.0, 1.0, 3.0]), np.linspace(0, 1, 5)))

    def test_odd_axis_count_rejected(self):
        with pytest.raises(InvalidGridError):
            PhaseSpaceGrid(axes=(np.linspace(0, 1, 5),))

    def test_axes_are_read_only(self):
        g = ws.build_grid(-1, 1, 5, -1, 1, 5)
        with pytest.raises(ValueError):
            g.axes[0][0] = 7.0


class TestIntegration:
    def test_trapezoid_weights_sum(self):
        ax = np.linspace(-3, 5, 33)
        assert abs(trapezoid_weights(ax).sum() - 8.0) < 1e-12

    def test_separable_product(self):
        # int x^2 dx * int cos(y) dy over [-1,1] x [-pi/2,pi/2]
        g = ws.build_grid(-1, 1, 801, -np.pi / 2, np.pi / 2, 801)
        x, y = g.open_mesh()
        val = integrate_samples(x**2 * np.cos(y), g.axes)
        assert abs(val - (2.0 / 3.0) * 2.0) < 1e-5

    @given(st.integers(min_value=3, max_value=40))
    def test_constant_integral_is_volume(self, n):
        g = ws.build_grid(-2, 3, n, 0, 4, n)
        assert abs(integrate_samples(np.ones(g.shape), g.axes) - 20.0) < 1e-10

    # one row per block on a last axis wider than a block, many rows per
    # block, and 4-D fields with one and with several leading rows per block
    @pytest.mark.parametrize(
        "shape", [(3, 40000), (201, 1025), (9, 9, 9, 9), (5, 41, 41, 41)]
    )
    def test_row_blocks_equal_whole_array_contraction(self, shape):
        axes = tuple(np.linspace(-4, 4 + i, n) for i, n in enumerate(shape))
        rng = np.random.default_rng(3)
        samples, other = rng.normal(size=shape), rng.normal(size=shape)
        for operands, pointwise, mapped in (
            (samples, None, samples),
            (samples, np.abs, np.abs(samples)),
            ((samples, other), np.multiply, samples * other),
        ):
            ref = mapped
            for ax in reversed(axes):
                ref = ref @ trapezoid_weights(ax) if ref.ndim == 1 else (
                    ref * trapezoid_weights(ax)
                ).sum(axis=-1)
            assert integrate_samples(operands, axes, pointwise=pointwise) == float(ref)

    # unequal axes: rows wider than a block, every row in one block, many
    # rows per block with a partial last block, and one row per block
    @pytest.mark.parametrize(
        "shape", [(3, 5, 7, 4000), (7, 11, 13, 17), (45, 9, 11, 13), (5, 41, 43, 37)]
    )
    def test_kept_axes_match_tensordot(self, shape):
        axes = tuple(np.linspace(-4, 4 + i, n) for i, n in enumerate(shape))
        samples = np.random.default_rng(4).normal(size=shape)
        for count in (1, 2, 3):
            for kept in itertools.combinations(range(len(shape)), count):
                ref = samples
                for j in reversed(range(len(shape))):
                    if j not in kept:
                        ref = np.tensordot(ref, trapezoid_weights(axes[j]), axes=([j], [0]))
                got = integrate_samples(
                    samples, tuple(None if j in kept else ax for j, ax in enumerate(axes))
                )
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_dimension_mismatch_rejected(self):
        g = ws.build_grid(-1, 1, 5, -1, 1, 5)
        with pytest.raises(ValueError):
            integrate_samples(np.ones(5), g.axes)


class TestWignerField:
    def test_normalized_flag_tracks_integral(self, grid_small):
        w = ws.vacuum_wigner(grid_small)
        assert w.normalized
        assert abs(integrate_full(w) - 1.0) < 1e-6
        half = field_from_samples(grid_small, w.samples / 2.0)
        assert not half.normalized

    def test_renormalize(self, grid_small):
        w = ws.vacuum_wigner(grid_small)
        scaled = field_from_samples(grid_small, w.samples * 3.0)
        back = renormalize(scaled)
        assert back.normalized
        assert abs(integrate_full(back) - 1.0) < 1e-12

    def test_renormalize_rejects_null_field(self, grid_small):
        null = field_from_samples(grid_small, np.zeros(grid_small.shape))
        with pytest.raises(NonNormalizableError):
            renormalize(null)

    def test_renormalize_rejects_overflowed_integral(self):
        # every sample is finite, but their trapezoid integral overflows
        g = ws.build_grid(-4, 4, 9, -4, 4, 9)
        with np.errstate(over="ignore"):
            huge = field_from_samples(g, np.full(g.shape, 1e307))
        assert huge.integral == np.inf
        with pytest.raises(NonNormalizableError):
            renormalize(huge)

    def test_carried_integral_matches_a_fresh_contraction(self):
        # builders that already hold the integral carry it: exactly where it
        # is the same contraction, to rounding where it is a product or 1
        one = ws.build_grid(-8, 8, 129, -8, 8, 129)
        two = ws.build_grid(-6, 6, 25, -6, 6, 25)
        photon = ws.number_state_wigner(1, two)
        joint = tensor_product(photon, ws.vacuum_wigner(two))
        mixed = ws.apply_symplectic(joint, ws.sym_beamsplitter(0.7))
        exact = [field_from_samples(two, photon.samples / 2.0), mixed]
        close = [
            joint,
            renormalize(mixed),
            ws.condition_on_homodyne(renormalize(mixed), 1, "p", 0.3)[0],
            ws.distill_conditional(ws.number_state_wigner(1, one), 0.9, 0.2)[0],
        ]
        for fields, tol in ((exact, 0.0), (close, 1e-12)):
            for field in fields:
                fresh = integrate_samples(field.samples, field.grid.axes)
                assert abs(field.integral - fresh) <= tol
                assert field.normalized == (abs(field.integral - 1.0) <= ws.TOL_NORM)
        assert not exact[0].normalized

    def test_samples_read_only(self, grid_small):
        w = ws.vacuum_wigner(grid_small)
        with pytest.raises(ValueError):
            w.samples[0, 0] = 1.0

    def test_nonfinite_samples_rejected(self, grid_small):
        bad = np.zeros(grid_small.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            field_from_samples(grid_small, bad)


class TestComposition:
    def test_tensor_product_integral_and_shape(self, grid_tiny):
        a = ws.vacuum_wigner(grid_tiny)
        b = ws.number_state_wigner(1, grid_tiny)
        joint = tensor_product(a, b)
        assert joint.mode_count == 2
        assert joint.normalized
        assert abs(integrate_full(joint) - 1.0) < 1e-6

    def test_tensor_product_requires_normalized(self, grid_tiny):
        a = ws.vacuum_wigner(grid_tiny)
        half = field_from_samples(grid_tiny, a.samples / 2.0)
        with pytest.raises(UnnormalizedFieldError):
            tensor_product(a, half)

    @pytest.mark.parametrize("op", ["tensor_product", "renormalize"])
    def test_output_is_not_copied(self, op):
        # the fresh product or quotient is handed to the field read-only, so
        # the field keeps it rather than copying it (2.0 field sizes if it did)
        g = ws.build_grid(-8, 8, 41, -8, 8, 41)
        single = ws.number_state_wigner(1, g)
        vac = ws.vacuum_wigner(g)
        joint = tensor_product(single, vac)
        call = {
            "tensor_product": lambda: tensor_product(single, vac),
            "renormalize": lambda: renormalize(joint),
        }[op]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.samples.shape == joint.samples.shape
        assert peak <= 1.5 * joint.samples.nbytes

    def test_marginal_inverts_tensor(self, grid_tiny):
        a = ws.vacuum_wigner(grid_tiny)
        b = ws.number_state_wigner(1, grid_tiny)
        joint = tensor_product(a, b)
        kept = marginal_over(joint, [0])
        assert np.max(np.abs(kept.samples - b.samples)) < 1e-9
        kept0 = marginal_over(joint, {1})
        assert np.max(np.abs(kept0.samples - a.samples)) < 1e-9

    def test_marginal_over_rejects_bad_modes(self, grid_tiny):
        a = ws.vacuum_wigner(grid_tiny)
        joint = tensor_product(a, a)
        with pytest.raises(ValueError):
            marginal_over(joint, [])
        with pytest.raises(ValueError):
            marginal_over(joint, [0, 1])
        with pytest.raises(ValueError):
            marginal_over(joint, [2])

    def test_overlap_trace_orthonormal_pair(self, grid_default, one_photon):
        vac = ws.vacuum_wigner(grid_default)
        assert abs(overlap_trace(vac, vac) - 1.0) < 1e-9
        assert abs(overlap_trace(one_photon, one_photon) - 1.0) < 1e-9
        assert abs(overlap_trace(vac, one_photon)) < 1e-9

    def test_overlap_trace_grid_mismatch(self, grid_default, grid_small):
        with pytest.raises(ws.GridMismatchError):
            overlap_trace(ws.vacuum_wigner(grid_default), ws.vacuum_wigner(grid_small))


class TestWavefunctionRoute:
    def test_vacuum_from_wavefunction(self, grid_small):
        # psi(q) = (2 pi)^(-1/4) exp(-q^2/4) gives the vacuum Gaussian
        w = wigner_from_wavefunction(
            lambda q: np.exp(-(np.asarray(q) ** 2) / 4.0), grid_small
        )
        ref = ws.vacuum_wigner(grid_small)
        assert np.max(np.abs(w.samples - ref.samples)) < 1e-8

    def test_unnormalized_input_accepted(self, grid_small):
        w = wigner_from_wavefunction(
            lambda q: 5.0 * np.exp(-(np.asarray(q) ** 2) / 4.0), grid_small
        )
        assert w.normalized

    def test_mass_off_the_grid_is_flagged_not_rescaled(self, grid_small):
        # q-squeezed vacuum, r = 1.5: <p^2> = e^3, so p in [-8, 8] holds
        # only 92.6 % of the mass
        r = 1.5
        w = wigner_from_wavefunction(
            lambda q: np.exp(-(np.asarray(q) ** 2) * np.exp(2 * r) / 4.0),
            grid_small,
        )
        params = ws.GaussianStateParams(
            mean=np.zeros(2), cov=ws.rotated_squeezed_cov(r, 0.0)
        )
        ref = ws.gaussian_wigner(params, grid_small)
        assert not w.normalized
        assert abs(integrate_full(w) - 0.926) < 1e-3
        assert np.max(np.abs(w.samples - ref.samples)) < 1e-12

    def test_displaced_squeezed_on_asymmetric_even_axes(self):
        # the FFT bins must land on a p-axis that is neither centred nor
        # odd-sized, and on q-rows that do not include q = 0
        g = ws.build_grid(-7, 9, 160, -5.3, 9.1, 288)
        r, q0, p0 = 0.4, 1.3, 2.1

        def psi(q):
            q = np.asarray(q)
            return np.exp(-((q - q0) ** 2) * np.exp(2 * r) / 4.0 + 0.5j * p0 * q)

        params = ws.GaussianStateParams(
            mean=np.array([q0, p0]), cov=ws.rotated_squeezed_cov(r, 0.0)
        )
        w = wigner_from_wavefunction(psi, g)
        assert w.normalized
        assert np.max(np.abs(w.samples - ws.gaussian_wigner(params, g).samples)) < 1e-12

    def test_psi_is_called_once_on_one_lattice(self, grid_small):
        shapes = []

        def psi(q):
            shapes.append(np.shape(q))
            return np.exp(-(q * q) / 4.0)

        wigner_from_wavefunction(psi, grid_small)
        assert len(shapes) == 1 and len(shapes[0]) == 1

    def test_y_range_past_the_lattice_is_zero_padded(self):
        # on q +-5 the lattice spans +-15 and this state's support (|psi|^2
        # above 1e-32 of its peak) is about 24 wide, so the edge rows' y-range
        # reaches past the lattice, where psi is below 1e-25
        g = ws.build_grid(-5, 5, 81, -8, 8, 129)
        q0, p0 = 0.3, -0.4
        lattices = []

        def psi(q):
            lattices.append(q)
            return np.exp(-((q - q0) ** 2) / 4.0 + 0.5j * p0 * q)

        w = wigner_from_wavefunction(psi, g)
        x = lattices[0]
        dens = np.abs(psi(x)) ** 2
        assert np.ptp(x[dens > 1e-32 * dens.max()]) / 2 > 10.0
        params = ws.GaussianStateParams(mean=np.array([q0, p0]), cov=np.eye(2))
        assert np.max(np.abs(w.samples - ws.gaussian_wigner(params, g).samples)) < 1e-12

    def test_negligible_norm_rejected(self, grid_small):
        with pytest.raises(NonNormalizableError):
            wigner_from_wavefunction(
                lambda q: 1e-12 * np.exp(-((np.asarray(q) - 500.0) ** 2)), grid_small
            )


class TestQuadratureDistribution:
    def test_accepts_unit_density(self):
        ax = np.linspace(-8, 8, 257)
        dens = np.exp(-(ax**2) / 2.0) / np.sqrt(2.0 * np.pi)
        d = QuadratureDistribution(values=ax, densities=dens)
        assert d.densities.flags.writeable is False

    def test_rejects_negative_density(self):
        ax = np.linspace(-8, 8, 257)
        dens = np.exp(-(ax**2) / 2.0) / np.sqrt(2.0 * np.pi)
        dens[3] = -1e-3
        with pytest.raises(ValueError):
            QuadratureDistribution(values=ax, densities=dens)

    def test_rejects_unnormalized_density(self):
        ax = np.linspace(-8, 8, 257)
        with pytest.raises(ValueError):
            QuadratureDistribution(values=ax, densities=np.ones(ax.size))


def read_back(path, values: np.ndarray) -> np.ndarray:
    """values written as the samples of a field CSV at path, read back in order."""
    n_p = 1024
    samples = np.zeros(max(3, -(-values.size // n_p)) * n_p)
    samples[: values.size] = values
    g = ws.build_grid(-1, 1, samples.size // n_p, -1, 1, n_p)
    with np.errstate(over="ignore", invalid="ignore"):  # integrals of huge samples
        write_field_csv(field_from_samples(g, samples.reshape(g.shape)), path)
        return read_field_csv(path).samples.ravel()[: values.size]


def python_floats(values: np.ndarray) -> np.ndarray:
    """Python's float of each value's %.12e text."""
    return np.array([float("%.12e" % v) for v in values.tolist()])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def matches_loadtxt(field, path) -> bool:
    """The field's coordinate columns and samples are np.loadtxt's table, bit for bit."""
    mesh = np.meshgrid(*field.grid.axes, indexing="ij")
    table = np.column_stack([m.ravel() for m in mesh] + [field.samples.ravel()])
    return same_bits(table, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


class TestCsvRoundTrip:
    def test_roundtrip_preserves_field(self, tmp_path):
        g = ws.build_grid(-6, 6, 41, -6, 6, 41)
        w = ws.number_state_wigner(2, g)
        path = tmp_path / "field.csv"
        write_field_csv(w, path)
        back = read_field_csv(path)
        # coordinates pass through the %.12e text format, so equality is
        # to 12 significant digits rather than bit-exact
        for ax_in, ax_out in zip(w.grid.axes, back.grid.axes):
            assert np.allclose(ax_out, ax_in, rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(back.samples - w.samples)) < 1e-12

    @pytest.mark.parametrize("modes", [1, 2])
    def test_write_matches_savetxt_bytes(self, tmp_path, modes):
        g = ws.build_grid(-3, 3, 9, -2, 2, 9, modes=modes)
        samples = np.random.default_rng(5).normal(size=g.shape)
        if modes == 1:
            samples[0, :5] = [0.0, -0.0, 1e-300, -1e300, 1e300]
        field = field_from_samples(g, samples)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        coords = np.column_stack([m.ravel() for m in mesh])
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, np.column_stack([coords, field.samples.ravel()]), fmt="%.12e",
                   delimiter=",", header=csv_header(modes), comments="")
        out = tmp_path / "out.csv"
        write_field_csv(field, out)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("edit", ["swap-rows", "move-coordinate"])
    def test_rejects_rows_that_do_not_enumerate_the_grid(self, tmp_path, modes, edit):
        g = ws.build_grid(-3, 3, 5, -2, 2, 7, modes=modes)
        path = tmp_path / "field.csv"
        write_field_csv(field_from_samples(g, np.zeros(g.shape)), path)
        header, *rows = path.read_text().splitlines()
        if edit == "swap-rows":
            rows[3], rows[9] = rows[9], rows[3]
        else:
            # the last coordinate of row 0 moved onto row 1's, so every
            # column still holds exactly the grid's axis values
            cells = rows[0].split(",")
            cells[-2] = rows[1].split(",")[-2]
            rows[0] = ",".join(cells)
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match="not a row-major grid enumeration"):
            read_field_csv(path)

    def test_random_values_read_as_python_floats(self, tmp_path):
        # random bit patterns span every exponent, mostly outside the one
        # multiply-or-divide range |k| <= 22; the scaled normals lie inside it
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2**64, 700_000, dtype=np.uint64).view(np.float64)
        scaled = rng.normal(size=400_000) * 10.0 ** rng.uniform(-12, 36, 400_000)
        values = np.concatenate([bits[np.isfinite(bits)], scaled])
        assert values.size >= 10**6
        assert same_bits(read_back(tmp_path / "f.csv", values), python_floats(values))

    def test_edge_values_read_as_python_floats(self, tmp_path):
        tiny, big = 5e-324, np.finfo(float).max
        values = [0.0, tiny, 2 * tiny, 3 * tiny, 2.0**-1022, big]
        values += [np.nextafter(2.0**-1022, 0.0), np.nextafter(2.0**-1022, 1.0), np.nextafter(big, 0.0)]
        for k in range(-323, 309):  # powers of ten, both sides
            p = float(f"1e{k}")
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        # k = E - 12 at the edges of the exact range: E = -11, -10, 34, 35
        rng = np.random.default_rng(22)
        for e in (-11, -10, 34, 35):
            values += [float(f"{d}e{e - 12}") for d in rng.integers(10**12, 10**13, 500).tolist()]
        # exact decimal ties 2^a 10^23, rounded half to even, and three-digit exponents
        values += [float(f"{2**a}e23") for a in range(40, 44)]
        values += (rng.uniform(1, 10, 500) * 10.0 ** rng.integers(100, 308, 500)).tolist()
        values += (rng.uniform(1, 10, 500) * 10.0 ** -rng.integers(100, 308, 500)).tolist()
        values = np.array(values)
        values = np.concatenate([values, -values])
        assert same_bits(read_back(tmp_path / "f.csv", values), python_floats(values))

    @pytest.mark.parametrize("block_points", [grids._BLOCK_POINTS, 64])
    def test_cubic_and_two_mode_files_read_as_loadtxt(self, tmp_path, monkeypatch, block_points):
        # at 64 points a chunk is 256 bytes, about four 1-mode rows
        monkeypatch.setattr(grids, "_BLOCK_POINTS", block_points)
        g = ws.build_grid(-16, 16, 65, -32, 32, 129)
        two = ws.build_grid(-3, 3, 5, -2, 2, 7, modes=2)
        for field in (
            ws.cubic_phase_wigner(0.05, 0.0, 1.0, g),
            field_from_samples(two, np.random.default_rng(23).normal(size=two.shape)),
        ):
            path = tmp_path / "field.csv"
            write_field_csv(field, path)
            assert matches_loadtxt(read_field_csv(path), path)

    @pytest.mark.parametrize("block_points", [grids._BLOCK_POINTS, 64])
    @pytest.mark.parametrize(
        "cell",
        [
            "1.5", "nan", "inf", "-inf", "1.23456789012e+00", "1.2345678901234e+00",
            "1.234567890123e00", "1.234567890123E+00", "+1.234567890123e+00",
            " 1.234567890123e+00", "1.234567890123e+0", "1.234567890123e+0001", "",
            "x.234567890123e+00", "1.23456789012:e+00", "1.234567/90123e+00", "1.234567890123e+1a",
        ],
    )
    def test_rejects_values_not_in_the_written_form(self, tmp_path, monkeypatch, block_points, cell):
        monkeypatch.setattr(grids, "_BLOCK_POINTS", block_points)
        path = tmp_path / "field.csv"
        write_field_csv(field_from_samples(ws.build_grid(-3, 3, 5, -2, 2, 7), np.ones((5, 7))), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[29] = lines[29].rsplit(",", 1)[0] + f",{cell}\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="^line 30: "):
            read_field_csv(path)

    @pytest.mark.parametrize("block_points", [grids._BLOCK_POINTS, 64])
    @pytest.mark.parametrize("edit", ["extra-value", "missing-value", "blank-line", "semicolon", "joined"])
    def test_rejects_rows_of_the_wrong_length(self, tmp_path, monkeypatch, block_points, edit):
        monkeypatch.setattr(grids, "_BLOCK_POINTS", block_points)
        path = tmp_path / "field.csv"
        write_field_csv(field_from_samples(ws.build_grid(-3, 3, 5, -2, 2, 7), np.ones((5, 7))), path)
        lines = path.read_text().splitlines(keepends=True)
        row, after = lines[29], lines[30]
        lines[29:31] = {
            "extra-value": [row.replace(",", ",1.000000000000e+00,", 1), after],
            "missing-value": [row.split(",", 1)[1], after],
            "blank-line": ["\n" + row, after],
            "semicolon": [row.replace(",", ";", 1), after],
            # the next row's first value moved up: the value count is unchanged
            "joined": [row[:-1] + "," + after.split(",", 1)[0] + "\n", after.split(",", 1)[1]],
        }[edit]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="^line 30: "):
            read_field_csv(path)

    @pytest.mark.parametrize("header", ["q,p,W", "x,p,w", "q,p", "q,p,w,", "q1,p1,w", "q1,p1,q2,p2", ""])
    def test_rejects_a_header_other_than_csv_header(self, tmp_path, header):
        path = tmp_path / "field.csv"
        write_field_csv(field_from_samples(ws.build_grid(-3, 3, 5, -2, 2, 7), np.ones((5, 7))), path)
        path.write_text(header + path.read_text()[len("q,p,w") :])
        with pytest.raises(ValueError, match="^line 1: expected the header 'q,p,w'"):
            read_field_csv(path)

    def test_rejects_crlf_line_endings(self, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(field_from_samples(ws.build_grid(-3, 3, 5, -2, 2, 7), np.ones((5, 7))), path)
        header, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header + b"\n" + rest.replace(b"\n", b"\r\n"))
        with pytest.raises(ValueError, match="^line 2: "):
            read_field_csv(path)
        path.write_bytes(header + b"\r\n" + rest)
        with pytest.raises(ValueError, match="^line 1: "):
            read_field_csv(path)

    @pytest.mark.parametrize("block_points", [grids._BLOCK_POINTS, 64])
    def test_accepts_a_missing_final_newline(self, tmp_path, monkeypatch, block_points):
        # as np.loadtxt does: the last row may end the file without "\n"
        monkeypatch.setattr(grids, "_BLOCK_POINTS", block_points)
        g = ws.build_grid(-3, 3, 5, -2, 2, 7)
        path = tmp_path / "field.csv"
        write_field_csv(field_from_samples(g, np.random.default_rng(24).normal(size=g.shape)), path)
        whole = read_field_csv(path)
        path.write_bytes(path.read_bytes()[:-1])
        cut = read_field_csv(path)
        assert cut.grid == whole.grid and same_bits(cut.samples, whole.samples)
        assert matches_loadtxt(cut, path)

    def test_rejects_a_file_without_rows(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("q,p,w\n")
        with pytest.raises(ValueError, match="^line 2: "):
            read_field_csv(path)

    def test_read_peak_memory(self, tmp_path):
        # the samples (sized from the file, 1.02 field sizes here) and one
        # chunk of text, its values and its parse temporaries: 1.36 measured
        g = ws.build_grid(-10, 10, 385, -16, 16, 769)
        field = ws.number_state_wigner(1, g)
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        read_field_csv(path)  # builds the parse tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            back = read_field_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back.grid.shape == g.shape
        assert peak <= 1.45 * field.samples.nbytes

    @pytest.mark.parametrize("block_points", [grids._BLOCK_POINTS, 64])
    def test_cubic_field_matches_savetxt_bytes(self, tmp_path, monkeypatch, block_points):
        # the cubic field over the CLI's extents changes sign, is flushed to
        # zero far out and falls below 1e-99 (three exponent digits); at 64
        # points a row block is one row, at the default 31 rows with a short last
        g = ws.build_grid(-16, 16, 65, -32, 32, 129)
        field = ws.cubic_phase_wigner(0.05, 0.0, 1.0, g)
        w = field.samples
        assert (w < 0).any() and (w == 0).any() and ((w != 0) & (abs(w) < 1e-99)).any()
        q, p = np.meshgrid(*g.axes, indexing="ij")
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, np.column_stack([q.ravel(), p.ravel(), w.ravel()]), fmt="%.12e",
                   delimiter=",", header=csv_header(1), comments="")
        monkeypatch.setattr(grids, "_BLOCK_POINTS", block_points)
        out = tmp_path / "out.csv"
        write_field_csv(field, out)
        assert out.read_bytes() == ref.read_bytes()

    def test_write_peak_memory(self, tmp_path):
        # one row block of fixed-width text records and its digit
        # temporaries at a time: 0.32 field sizes on this grid
        g = ws.build_grid(-10, 10, 385, -16, 16, 769)
        field = ws.number_state_wigner(1, g)
        path = tmp_path / "field.csv"
        write_field_csv(field, path)  # builds the digit tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_field_csv(field, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.33 * field.samples.nbytes

    def test_write_is_deterministic(self, tmp_path):
        g = ws.build_grid(-6, 6, 41, -6, 6, 41)
        w = ws.number_state_wigner(2, g)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_field_csv(w, p1)
        write_field_csv(w, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "caller",
    [
        "wigner_from_fock", "wigner_from_wavefunction", "fidelity_to_pure",
        "number_state_wigner", "on_state_wigner", "cubic_phase_wigner",
        "photon_mod_wigner", "mean_photon_numeric", "distill_conditional",
    ],
)
def test_single_mode_callers_raise_one_typed_error(caller):
    g = ws.build_grid(-4, 4, 9, -4, 4, 9)
    pair = tensor_product(ws.vacuum_wigner(g), ws.vacuum_wigner(g))
    two = pair.grid
    call = {
        "wigner_from_fock": lambda: ws.wigner_from_fock(
            ws.fock_density(ws.Number(1), 4), two
        ),
        "wigner_from_wavefunction": lambda: wigner_from_wavefunction(
            lambda q: np.exp(-q * q / 4), two
        ),
        "fidelity_to_pure": lambda: ws.fidelity_to_pure(pair, pair),
        "number_state_wigner": lambda: ws.number_state_wigner(1, two),
        "on_state_wigner": lambda: ws.on_state_wigner(1, 0.5, two),
        "cubic_phase_wigner": lambda: ws.cubic_phase_wigner(0.05, 0.0, 0.5, two),
        "photon_mod_wigner": lambda: ws.photon_mod_wigner(1, 0.5, 0.0, two),
        "mean_photon_numeric": lambda: ws.mean_photon_numeric(pair),
        "distill_conditional": lambda: ws.distill_conditional(pair, 0.9, 0.0),
    }[caller]
    with pytest.raises(ws.GridMismatchError, match="is single-mode"):
        call()


def sci_text(values: np.ndarray) -> str:
    out = np.zeros((values.size, 6), np.uint32)
    grids._sci_words(values, out)
    raw = out.view(np.uint8).ravel()
    return raw[raw != 0].tobytes().decode()


def python_text(values: np.ndarray) -> str:
    return "".join("%.12e\n" % v for v in values.tolist())


class TestSciWords:
    """The vectorised %.12e writer against Python's formatting, byte for byte."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 120_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert values.size >= 100_000
        assert sci_text(values) == python_text(values)

    def test_extremes_and_powers_of_ten(self):
        big = np.finfo(float).max
        values = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, big, -big]
        for k in range(-300, 301):
            p = float(f"1e{k}")
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        values = np.array(values)
        assert sci_text(values) == python_text(values)
        assert sci_text(-values) == python_text(-values)

    def test_rounding_into_the_next_decade(self):
        # 13 nines and a tail near one half round up or not, and a rounding
        # past 9.999...e99 gains a third exponent digit; the doubles around
        # 9.9999999999995eK straddle the decade boundary of the scaled digits
        values = [
            9.99999999999951e5, 9.99999999999949e5, 9.99999999999951e99,
            9.99999999999951e-100, 9.9999999999999999e307, 0.99999999999999995,
        ]
        for k in range(-300, 301):
            x = float(f"9.9999999999995e{k}")
            values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
        values = np.array(values)
        assert sci_text(values) == python_text(values)
        assert sci_text(-values) == python_text(-values)

    def test_values_near_a_rounding_tie(self):
        # exact ties (integers plus one half, rounded half to even) and the
        # doubles nearest to decimal ties d.dddddddddddd5eK: their scaled
        # digits lie within 3.3e-3 of a half-integer, so Python formats them
        rng = np.random.default_rng(12)
        digits = rng.integers(10**12, 10**13, 2000)
        ties = digits + 0.5
        near = [float(f"{d}5e{k}") for d, k in zip(digits.tolist(), rng.integers(-320, 290, 2000).tolist())]
        values = np.concatenate([ties, near, np.array([0.5, 2.5, 1234567890123.5])])
        assert sci_text(values) == python_text(values)
