"""Grids, sampled Wigner fields, and quadrature primitives.

Conventions used everywhere in this package: hbar = 2, i.e. [q, p] = 2i and
the vacuum has <q^2> = <p^2> = 1. Phase-space coordinates of an N-mode state
are ordered (q1, p1, ..., qN, pN), and an N-mode Wigner field is sampled on
the cartesian product of 2N uniform axes in that order.

All integrals are composite trapezoid rules contracted axis by axis, last
axis first, one row block at a time (row_blocks): every axis but the leading
one with numpy's pairwise summation, the leading one by one dot product.
The contraction order is fixed so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidGridError,
    NonNormalizableError,
    UnnormalizedFieldError,
)

TOL_NORM = 1e-3

# points per block of leading-axis rows: few enough that every temporary of a
# row-block loop stays in the L2 cache, enough to amortize numpy's call cost.
# Every such loop (fills, integrals, chirp-z batches, resampler gathers, CSV
# text and checks) takes its blocks from row_blocks.
_BLOCK_POINTS = 32768


def row_blocks(shape) -> list:
    """Slices of the leading axis of shape, each of about _BLOCK_POINTS points."""
    rows = max(1, _BLOCK_POINTS // math.prod(shape[1:]))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


def _rows(arrays, block) -> tuple:
    """The block's rows of each array; an array one row high broadcasts whole."""
    return tuple(a if a.shape[0] == 1 else a[block] for a in arrays)


def _uneven_steps(ax: np.ndarray) -> np.ndarray:
    """Steps of ax off its mean step by more than 1e-9 of it (False where not finite)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (ax[-1] - ax[0]) / (ax.size - 1)
        return np.abs(np.diff(ax) - d) > 1e-9 * max(abs(d), 1e-30)


def _check_axis(ax: np.ndarray) -> None:
    if ax.ndim != 1 or ax.size < 3:
        raise InvalidGridError("each axis needs at least 3 points")
    if not np.all(np.isfinite(ax)):
        raise InvalidGridError("axis values must be finite")
    if np.any(np.diff(ax) <= 0):
        raise InvalidGridError("axis values must be strictly increasing")
    if _uneven_steps(ax).any():
        raise InvalidGridError("axis spacing must be uniform")


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Uniform rectangular sampling lattice over (q, p) per mode.

    axes holds 2N strictly increasing uniformly spaced 1D arrays ordered
    (q1, p1, ..., qN, pN).
    """

    axes: tuple

    def __post_init__(self):
        if len(self.axes) == 0 or len(self.axes) % 2 != 0:
            raise InvalidGridError("need one (q, p) axis pair per mode")
        frozen = []
        for ax in self.axes:
            arr = np.asarray(ax, dtype=float)
            _check_axis(arr)
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "axes", tuple(frozen))

    @property
    def mode_count(self) -> int:
        return len(self.axes) // 2

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    @property
    def spacings(self) -> tuple:
        return tuple((ax[-1] - ax[0]) / (ax.size - 1) for ax in self.axes)

    def axis_index(self, mode: int, quadrature: str) -> int:
        """Position in axes of quadrature 'q' or 'p' of a 0-based mode."""
        if quadrature not in ("q", "p"):
            raise ValueError("quadrature must be 'q' or 'p'")
        if not 0 <= mode < self.mode_count:
            raise ValueError("mode index out of range")
        return 2 * mode + (0 if quadrature == "q" else 1)

    def require_single_mode(self, user: str) -> None:
        """The one single-mode precondition; user names the refusing caller."""
        if self.mode_count != 1:
            raise GridMismatchError(f"{user} is single-mode")

    def open_mesh(self) -> tuple:
        """Axes broadcast-shaped for elementwise field construction."""
        return tuple(np.meshgrid(*self.axes, indexing="ij", sparse=True))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseSpaceGrid):
            return NotImplemented
        return len(self.axes) == len(other.axes) and all(
            a.size == b.size and np.array_equal(a, b)
            for a, b in zip(self.axes, other.axes)
        )


def build_grid(
    q_min: float,
    q_max: float,
    n_q: int,
    p_min: float,
    p_max: float,
    n_p: int,
) -> PhaseSpaceGrid:
    """Uniform single-mode grid; a multi-mode grid is PhaseSpaceGrid(axes=...)."""
    if not all(isinstance(count, (int, np.integer)) for count in (n_q, n_p)):
        raise InvalidGridError("n_q and n_p must be integers")
    if n_q < 3 or n_p < 3:
        raise InvalidGridError("n_q and n_p must be >= 3")
    for lo, hi in ((q_min, q_max), (p_min, p_max)):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidGridError("bounds must be finite")
        if not lo < hi:
            raise InvalidGridError("bounds must satisfy min < max")
    q = np.linspace(q_min, q_max, n_q)
    p = np.linspace(p_min, p_max, n_p)
    return PhaseSpaceGrid(axes=(q, p))


def default_grid() -> PhaseSpaceGrid:
    """The package default: [-16, 16]^2 with 1025 points per axis."""
    return build_grid(-16.0, 16.0, 1025, -16.0, 16.0, 1025)


def trapezoid_weights(ax: np.ndarray) -> np.ndarray:
    d = (ax[-1] - ax[0]) / (ax.size - 1)
    w = np.full(ax.size, d)
    w[0] = w[-1] = d / 2
    return w


def fill_by_rows(grid: PhaseSpaceGrid, kernel) -> np.ndarray:
    """kernel(*grid.open_mesh()), evaluated one row block at a time.

    kernel is pointwise in its broadcast coordinates, so the result is
    bit-identical to one call on the whole open mesh. It comes back
    read-only, so WignerField keeps it without a copy.
    """
    mesh = grid.open_mesh()
    out = np.empty(grid.shape)
    for block in row_blocks(grid.shape):
        out[block] = kernel(*_rows(mesh, block))
    out.setflags(write=False)
    return out


def integrate_samples(samples, axes: tuple, *, pointwise=None):
    """Trapezoid integral over every axis whose entry in axes is not None.

    samples is an array, or a tuple of arrays broadcasting to one shape that
    pointwise maps to the integrand, one row block at a time, so no
    full-size temporary is made. The result is a float, or an array over the
    axes whose entry is None. A row's sums do not depend on the blocking, so
    it is bit-identical to a whole-array contraction.
    """
    operands = samples if isinstance(samples, tuple) else (samples,)
    shape = np.broadcast_shapes(*(a.shape for a in operands))
    if len(shape) != len(axes):
        raise ValueError("samples dimensionality does not match axes")
    weights = [None if ax is None else trapezoid_weights(ax) for ax in axes]
    kept = tuple(n for n, w in zip(shape[1:], weights[1:]) if w is None)
    lead = np.empty(shape[:1] + kept)
    for block in row_blocks(shape):
        out = _rows(operands, block)
        out = out[0] if pointwise is None else pointwise(*out)
        for j in reversed(range(1, len(shape))):
            if weights[j] is not None:
                # laid out with axis j last, so numpy sums each row pairwise
                out = np.multiply(np.moveaxis(out, j, -1), weights[j], order="C").sum(-1)
        lead[block] = out
    if weights[0] is None:
        return lead
    total = np.moveaxis(lead, 0, -1) @ weights[0]
    return total if kept else float(total)


@dataclass(frozen=True, eq=False)
class QuadratureDistribution:
    """Probability density of a single quadrature on its axis values."""

    values: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        _check_axis(vals)
        if dens.shape != vals.shape:
            raise ValueError("densities and values must have matching length")
        if not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite")
        if np.min(dens) < 0:
            raise ValueError("densities must be nonnegative")
        total = float(dens @ trapezoid_weights(vals))
        if abs(total - 1.0) > TOL_NORM:
            raise ValueError(f"density integrates to {total:.6f}, expected 1")
        vals, dens = vals.copy(), dens.copy()
        vals.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "densities", dens)


@dataclass(frozen=True, eq=False)
class WignerField:
    """Real Wigner-function samples on a grid for an N-mode state.

    integral is the samples' trapezoid integral, measured or carried by the
    builder; samples are read-only, so it holds. Operations return new fields.
    """

    grid: PhaseSpaceGrid
    samples: np.ndarray
    integral: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"samples shape {arr.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("Wigner samples must be finite")
        arr = arr.copy() if not arr.flags.owndata or arr.flags.writeable else arr
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def mode_count(self) -> int:
        return self.grid.mode_count

    @property
    def normalized(self) -> bool:
        """|integral - 1| <= TOL_NORM: the one rule, with no per-call tolerance."""
        return abs(self.integral - 1.0) <= TOL_NORM


def field_from_samples(grid: PhaseSpaceGrid, samples: np.ndarray) -> WignerField:
    """Wrap samples with their trapezoid integral, measured here."""
    total = integrate_samples(np.asarray(samples, dtype=float), grid.axes)
    return WignerField(grid=grid, samples=samples, integral=total)


def integrate_full(field: WignerField) -> float:
    """Integral of the field over the whole grid domain: the one it carries."""
    return field.integral


def renormalize(field: WignerField) -> WignerField:
    """Explicitly rescale a field so its trapezoid integral is 1."""
    total = field.integral
    if not (abs(total) >= 1e-12 and np.isfinite(total)):
        raise NonNormalizableError(f"field integral {total:.3e} cannot be rescaled")
    samples = field.samples / total
    samples.setflags(write=False)  # handed over, so the field keeps it uncopied
    return WignerField(grid=field.grid, samples=samples, integral=1.0)


def marginal_over(field: WignerField, dropped_modes) -> WignerField:
    """Integrate out both quadratures of the dropped modes (partial trace).

    dropped_modes is a set of 0-based mode indices; it must be a nonempty
    proper subset of the field's modes.
    """
    modes = set(dropped_modes)
    n = field.mode_count
    if not modes:
        raise ValueError("dropped_modes must be nonempty")
    if not modes.issubset(range(n)):
        raise ValueError(f"mode indices must lie in 0..{n - 1}")
    if len(modes) == n:
        raise ValueError("cannot drop every mode; at least one must remain")

    dropped = tuple(ax if i // 2 in modes else None for i, ax in enumerate(field.grid.axes))
    out = integrate_samples(field.samples, dropped)
    kept = tuple(ax for ax, d in zip(field.grid.axes, dropped) if d is None)
    return field_from_samples(PhaseSpaceGrid(axes=kept), out)


def tensor_product(a: WignerField, b: WignerField) -> WignerField:
    """Joint field of a product state: W(x_A, x_B) = W_A(x_A) W_B(x_B)."""
    if not (a.normalized and b.normalized):
        raise UnnormalizedFieldError("tensor_product requires normalized factors")
    joint = np.multiply.outer(a.samples, b.samples)
    joint.setflags(write=False)  # handed over, so the field keeps it uncopied
    grid = PhaseSpaceGrid(axes=a.grid.axes + b.grid.axes)
    # the trapezoid rule over a product grid factorizes
    return WignerField(grid=grid, samples=joint, integral=a.integral * b.integral)


def overlap_trace(a: WignerField, b: WignerField) -> float:
    """Tr(rho_a rho_b) = (4 pi)^N integral of W_a W_b (hbar = 2)."""
    if a.grid != b.grid:
        raise GridMismatchError("overlap_trace needs both fields on one grid")
    n = a.mode_count
    return (4.0 * np.pi) ** n * integrate_samples(
        (a.samples, b.samples), a.grid.axes, pointwise=np.multiply
    )


def wigner_from_wavefunction(
    psi: Callable[[np.ndarray], np.ndarray], grid: PhaseSpaceGrid
) -> WignerField:
    """Wigner field of a pure state from its position wavefunction.

    W(q, p) = (1/2pi) * int dy psi*(q - y) psi(q + y) exp(-i p y)

    psi is called once, with one 1-D array: the lattice x = q_min + h j
    over the grid's q-axis extended by the axis's own width on each side,
    with step h = dq / r and r = ceil(dq 4 (n_p - 1) dp / 2pi), so h is a
    whole fraction of dq and the alias period 2 pi / h is at least four grid
    p-widths. The lattice gives the norm int |psi|^2 dx and the support
    where |psi|^2 exceeds 1e-32 of its peak, and the y-range is half that
    support's width. psi must be negligible beyond the lattice; where a
    row's y-range reaches past it, psi is taken as 0.

    Each q-row's product psi*(q - y) psi(q + y) on y = k h is a gather from
    the lattice, and each block of rows goes to the grid's own p-axis by a
    Bluestein chirp-z transform: two FFTs of a power-of-two length against
    one chirp spectrum built per call. The sampled sum aliases
    W(q, p + 2 pi j / h), j != 0, onto W(q, p): W must be negligible
    farther than three grid p-widths beyond either p-edge.

    The result is divided by the norm of psi, never by its own integral,
    so unnormalized wavefunctions are accepted and mass that falls off the
    grid shows in the field's measured integral and its normalized flag.
    """
    grid.require_single_mode("wigner_from_wavefunction")
    q, p = grid.axes
    dq, dp = grid.spacings
    r = math.ceil(dq * 4 * (p.size - 1) * dp / (2 * np.pi))
    h = dq / r
    m = (q.size - 1) * r  # lattice steps per grid q-width
    x = q[0] + h * np.arange(-m, 2 * m + 1)
    amp = psi(x)
    dens = np.abs(amp) ** 2
    norm = float(dens @ trapezoid_weights(x))
    if not (norm >= 1e-8 and np.isfinite(norm)):
        raise NonNormalizableError(
            f"wavefunction norm {norm:.3e} near the grid is negligible or not finite"
        )
    support = np.flatnonzero(dens > 1e-32 * dens.max())
    half = math.ceil((support[-1] - support[0]) / 2)
    n_y = 2 * half + 1
    # windows[i, k] = psi(q_i + (k - half) h), zero past the lattice
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(amp, half), n_y
    )[m :: r][: q.size]

    # sum_k f_k e^{-i p_j y_k}, y_k = (k - half) h, p_j = p_min + j dp, as
    # the convolution of f_k e^{-i (p_min y_k + t k^2 / 2)} with e^{i t l^2 / 2}
    # (t = dp h), l = j - k, from -(n_y - 1) to n_p - 1
    size = 1 << (n_y + p.size - 2).bit_length()
    t = dp * h
    k = np.arange(n_y)
    pre = np.exp(-1j * (p[0] * h * (k - half) + t / 2 * k * k))
    lag = np.arange(size)
    lag[size - n_y + 1 :] -= size
    chirp = np.fft.fft(np.exp(0.5j * t * lag * lag))
    j = np.arange(p.size)
    post = np.exp(1j * t * j * (half - j / 2)) * (h / (2 * np.pi * norm))

    w = np.empty(grid.shape)
    for block in row_blocks((q.size, size)):
        u = windows[block]
        f = np.fft.fft(np.conjugate(u[:, ::-1]) * u * pre, n=size, axis=1)
        f *= chirp
        w[block] = (np.fft.ifft(f, axis=1)[:, : p.size] * post).real
    w.setflags(write=False)  # handed over, so the field keeps it uncopied
    return field_from_samples(grid, w)


def csv_header(mode_count: int) -> str:
    if mode_count == 1:
        return "q,p,w"
    cols = []
    for m in range(1, mode_count + 1):
        cols += [f"q{m}", f"p{m}"]
    return ",".join(cols + ["w"])


# frexp's binary exponent of the smallest subnormal is -1073 and of the
# largest double 1024: the scale table covers that range
_LEAST_EXPONENT = -1073
# %.12e prints decimal exponents from -324 (2^-1074) to 308
_LEAST_DECADE = -324


@functools.cache
def _sci_tables() -> tuple:
    """Tables of the %.12e digit writer, built on its first call.

    For each frexp exponent E (|x| = m 2^E, 1/2 <= m < 1) with k(E) =
    floor((E - 1) log10 2), the least decimal exponent of an |x| in
    [2^(E-1), 2^E): the correctly rounded scale 2^E 10^(12 - k) (Python's
    int true division rounds correctly) and k - _LEAST_DECADE. Then the
    ASCII words: "dddd" for 0..9999, the sign, lead digit and point for
    lead + 10 sign, and the two words of "e%+03d\\n" for each decimal
    exponent from _LEAST_DECADE, all NUL-padded.
    """
    scale, decades = [], []
    for e in range(_LEAST_EXPONENT, 1025):
        k = math.floor((e - 1) * math.log10(2))
        num = 2 ** max(e, 0) * 10 ** max(12 - k, 0)
        scale.append(num / (2 ** max(-e, 0) * 10 ** max(k - 12, 0)))
        decades.append(k - _LEAST_DECADE)
    quads = b"".join(b"%04d" % i for i in range(10000))
    heads = b"".join((sign + b"%d." % d).ljust(4, b"\0") for sign in (b"", b"-") for d in range(10))
    tails = b"".join((b"e%+03d\n" % e).ljust(8, b"\0") for e in range(_LEAST_DECADE, 309))
    tables = (
        np.array(scale),
        np.array(decades),
        np.frombuffer(quads, np.uint32),
        np.frombuffer(heads, np.uint32),
        *np.frombuffer(tails, np.uint32).reshape(-1, 2).T.copy(),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _sci_words(x: np.ndarray, out: np.ndarray) -> None:
    """Write "%.12e\\n" % v for each finite v in x into out's row of six uint32 words.

    The words are NUL-padded text, byte-identical to Python's once the NULs
    are dropped. The 13 digits are rint(y), y = |x| 10^(12 - e) for the
    decimal exponent e: m times the scale of _sci_tables is within 2.3e-3
    of exact below 1e13 - 1/2, and above it (|x| rounds into the next
    decade) its tenth is within 6e-4. So rint is exact unless y lies
    within 0.005 of a half-integer, or the product within 0.005 of the
    decade boundary; those values (about 1 % of samples) go to Python.
    """
    scale, decades, quads, heads, tail0, tail1 = _sci_tables()
    m, e2 = np.frexp(np.abs(x))
    e2 = e2.astype(np.intp) - _LEAST_EXPONENT
    y = m * scale[e2]
    edge = np.abs(y - (1e13 - 0.5)) < 0.005
    up = y >= 1e13 - 0.5
    np.divide(y, 10.0, out=y, where=up)
    digits = np.rint(y)
    slow = np.flatnonzero(edge | (np.abs(y - digits) > 0.495))
    decade = decades[e2] + up + (x == 0)  # frexp puts 0 in the decade of 0.5
    # digits = lead 10^12 + w1 10^8 + w2 10^4 + w3, each w four digits
    w3 = digits.astype(np.int64)
    w2 = w3 // 10**4
    w1 = w2 // 10**4
    lead = w1 // 10**4
    out[:, 0] = heads[lead + 10 * np.signbit(x)]
    out[:, 1] = quads[w1 - lead * 10**4]
    out[:, 2] = quads[w2 - w1 * 10**4]
    out[:, 3] = quads[w3 - w2 * 10**4]
    out[:, 4] = tail0[decade]
    out[:, 5] = tail1[decade]
    if slow.size:
        text = ["%.12e\n" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype="S24").view(np.uint32).reshape(-1, 6)


def _text_words(texts: list) -> np.ndarray:
    """ASCII texts as rows of uint32 words, NUL-padded to the longest."""
    width = -(-max(map(len, texts)) // 4) * 4
    return np.array(texts, dtype=f"S{width}").view(np.uint32).reshape(len(texts), -1)


def write_field_csv(field: WignerField, path) -> None:
    """Row-major CSV dump: one row per grid node, all values %.12e.

    Byte-identical to np.savetxt of the coordinate columns and samples.
    Each coordinate is formatted once; the samples go through _sci_words.
    A row block's nodes become fixed-width records of uint32 words, each
    column's text NUL-padded, and the block is written with its NULs
    dropped. The blocks are sized as if every 8 bytes of records were one
    point, so a block's text is no bigger than a block of samples would be.
    """
    shape = field.grid.shape
    cols = [_text_words(["%.12e," % v for v in ax.tolist()]) for ax in field.grid.axes]
    edges = np.cumsum([0] + [c.shape[1] for c in cols] + [6])  # a record's word columns
    rows = field.samples.reshape(-1, shape[-1])
    blocks = row_blocks((rows.shape[0], shape[-1] * edges[-1] // 2))  # two words a point
    records = np.empty((min(blocks[0].stop, rows.shape[0]), shape[-1], edges[-1]), np.uint32)
    records[..., edges[-3] : edges[-2]] = cols[-1]  # the same in every row
    with open(path, "wb") as fh:
        fh.write(f"{csv_header(field.mode_count)}\n".encode())
        for block in blocks:
            lead = np.unravel_index(np.arange(rows.shape[0])[block], shape[:-1])
            part = records[: lead[0].size]
            for j, index in enumerate(lead):
                part[..., edges[j] : edges[j + 1]] = cols[j][index, None]
            _sci_words(rows[block].ravel(), part.reshape(-1, edges[-1])[:, edges[-2] :])
            text = part.reshape(-1).view(np.uint8)
            fh.write(text[text != 0])


_NOT_A_GRID = "CSV rows are not a row-major grid enumeration"
# the reader's tables are indexed by a printed exponent's digits, plus 1000 if it is positive
_DECADES = 1000


@functools.cache
def _sci_read_tables() -> tuple:
    """Tables of the %.12e reader by exponent E, k = E - 12, built on its first call.

    far (|k| > 22); up = 10^k and down = 10^-k where exact (else 1); the
    double-double hi + lo of 10^k 2^s, each correctly rounded by Python int
    true division, hi's 26-bit halves head + tail, and scale = 2^-s, with
    s = 512 below k = -200 so every part is normal; hi = 0 outside
    E in [-324, 308].
    """
    rows = []
    for i in range(2 * _DECADES):
        e = i - _DECADES if i >= _DECADES else -i
        k, s = e - 12, 512 if e < -188 else 0
        hi = lo = head = 0.0
        if -324 <= e <= 308:
            num, den = 10 ** max(k, 0) << s, 10 ** max(-k, 0)
            hi = num / den
            a, b = hi.as_integer_ratio()
            lo = (num * b - a * den) / (den * b)
            c = hi * 134217729.0  # 2^27 + 1: Veltkamp's split
            head = c - (c - hi)
        up = float(10**k) if 0 <= k <= 22 else 1.0
        down = float(10**-k) if -22 <= k < 0 else 1.0
        rows.append((abs(k) > 22, up, down, hi, head, hi - head, lo, 2.0**-s))
    far, *tables = np.array(rows).T.copy()
    tables = [far.astype(bool), *tables]
    for table in tables:
        table.setflags(write=False)
    return tuple(tables)


def _bad_line(text: bytes, line: int, columns: int) -> ValueError:
    """The error for the first line of text (numbered from line) not of columns %.12e values."""
    for number, row in enumerate(text.split(b"\n")[:-1], line):
        cells = row.split(b",")
        if len(cells) != columns:
            return ValueError(f"line {number}: {len(cells)} values, expected {columns}")
        for cell in cells:
            if not re.fullmatch(rb"-?[0-9]\.[0-9]{12}e[+-][0-9]{2,3}", cell):
                return ValueError(f"line {number}: {cell!r} is not a %.12e value")
    return ValueError(f"line {line}: not rows of {columns} %.12e values")


def _sci_values(text: np.ndarray, begin: int, end: int, columns: int, out: np.ndarray, line: int) -> int:
    """Parse text[begin:end], rows of columns %.12e values, into out; return their count.

    Each value is found by its decimal point and read as three 8-byte words
    from 2 bytes before it: [-]d.ddddd | ddddddde | ±dd[d] and a separator.
    """
    at = np.flatnonzero(text[begin:end] == ord("."))
    at += begin - 2
    n = at.size
    if not n or n % columns:
        raise _bad_line(text[begin:end].tobytes(), line, columns)
    records = np.ndarray((text.size - 23,), "V24", buffer=text, strides=(1,))
    words = records[at].view(np.uint64).reshape(n, 3).T.copy()
    w0, w1, w2 = words
    neg = (w0 & 0xFF) == ord("-")
    three = w2 >> 28 & 1  # bit 4: a third exponent digit, not a separator (checked below)
    # the words tile the text: each value starts right after the separator before it
    gap = at[1:] - at[:-1] - 19 - three[:-1].view(np.int64) - neg[1:]
    if gap.any() or at[0] + 1 - neg[0] != begin or at[-1] + 19 + three[-1] != end - 1:
        raise _bad_line(text[begin:end].tobytes(), line, columns)
    del gap
    shift = three << 3
    flaws = w2 >> shift + 24 & 0xFF  # the separator: ',' or, ending a row, '\n'
    flaws[columns - 1 :: columns] ^= ord(",") ^ ord("\n")
    flaws ^= ord(",")
    flaws |= (w2 & 0xFF) - ord("+") & 2**64 - 3  # 0 for '+' and '-'
    flaws |= w1 >> 56 ^ ord("e")
    if flaws.any():
        raise _bad_line(text[begin:end].tobytes(), line, columns)
    del flaws
    # the digits alone, '0'-padded, and a 1 for a positive exponent:
    # 00dddddd | 0ddddddd | 0000(0|1)ddd or 0000(0|1)0dd
    plus = w2 << 31 & 1 << 32
    w0[...] = w0 & 0xFFFFFFFFFF000000 | w0 << 8 & 0xFF0000 | 0x3030
    w1[...] = w1 << 8 | ord("0")
    w2[...] = w2 >> 8 << 48 - shift | 0x303030303030 >> shift | plus
    del plus, shift
    words ^= 0x3030303030303030
    bad = words + 0x0606060606060606  # a byte above 9 sets its high nibble
    bad |= words
    bad &= 0xF0F0F0F0F0F0F0F0
    if bad.any():
        raise _bad_line(text[begin:end].tobytes(), line, columns)
    del bad
    # each word's 8 digits: pairs, then quads, then the whole (SWAR)
    for mul, bits, mask in ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF)):
        words *= mul
        words >>= bits
        words &= mask
    words *= 42949672960001
    words >>= 32
    index = w2.astype(np.intp)
    w0 *= 10**7
    w0 += w1
    digits = w0.astype(np.float64)
    del words, w0, w1, w2
    far, up, down, hi, head, tail, lo, scale = _sci_read_tables()
    values = out[:n]
    np.multiply(digits, up[index], out=values)
    values /= down[index]
    far = np.flatnonzero(far[index])
    if far.size:
        a, k = digits[far], index[far]
        b_head, b_tail = head[k], tail[k]
        with np.errstate(over="ignore", invalid="ignore"):
            p = a * hi[k]
            c = a * 134217729.0
            a_head = c - (c - a)
            a_tail = a - a_head
            err = (((a_head * b_head - p) + a_head * b_tail) + a_tail * b_head) + a_tail * b_tail
            err += a * lo[k]
            wide = p * 2.0**-90
            upper = (err + wide) + p
            slow = upper != (err - wide) + p
            upper *= scale[k]  # exact unless the value is not a normal double
            slow |= upper <= 2.0**-1022
            slow |= upper == np.inf
        values[far] = upper
        slow = far[slow]
        if slow.size:
            ends = at[slow] + 19 + three[slow].view(np.int64)
            values[slow] = [float(text[i + 1 : j].tobytes()) for i, j in zip(at[slow].tolist(), ends.tolist())]
    bits = values.view(np.uint64)
    bits ^= neg.astype(np.uint64) << 63
    return n


def read_field_csv(path) -> WignerField:
    """Rebuild a field from write_field_csv output.

    Accepts exactly that format: the header csv_header(modes), then rows of
    2 modes + 1 values [-]d.dddddddddddde±dd[d], comma-separated, each
    ending in "\n" (the last may lack it), enumerating the grid row-major;
    anything else raises ValueError naming its line (for a coordinate, the
    first line that bends or disagrees with the axes the first rows give).

    Every value is bitwise Python's float of its text, as NumPy's text
    reader gives it: the 13 digits M times 10^k. For |k| <= 22 that is one
    correctly rounded multiply or divide of exact operands. Otherwise M
    times the double-double 10^k 2^s (Dekker's exact product plus M lo) is
    within 2^-104 of its size, so rounding it with 2^-90 of its size added
    and subtracted gives one double unless it lies that close to a rounding
    boundary; those values, and any that are not a normal double, go to
    Python's float. So the coordinates equal the axes exactly.

    The file is read in chunks of whole rows, so only the samples are held
    whole.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        modes = max(header.count(b",") // 2, 1)
        if header != f"{csv_header(modes)}\n".encode():
            raise ValueError(f"line 1: expected the header {csv_header(modes)!r}, found {header!r}")
        columns = 2 * modes + 1
        size = os.fstat(fh.fileno()).st_size - len(header)
        samples = np.empty((size + 1) // (19 * columns))  # 19 bytes: the shortest value and separator
        chunk = 4 * row_blocks((1, 1))[0].stop  # 4 bytes a point: 128 KB, parse temporaries ~0.5 MB
        buffer = bytearray(8 + chunk + 32)  # room for the words read around any point
        text, view = np.frombuffer(buffer, np.uint8), memoryview(buffer)
        values = np.empty(chunk // 19 + 1)
        end, rows, pending, axes, lead = 8, 0, [], None, []

        def check(coords, first):  # rows first.. against the axes, growing the first one
            stride = math.prod(ax.size for ax in axes)
            lead.append(coords[-first % stride :: stride, 0].copy())
            index, ok = np.arange(first, first + len(coords)), True
            for j in reversed(range(len(axes))):
                index, i = np.divmod(index, axes[j].size)
                ok &= coords[:, j + 1] == axes[j][i]
            ok &= coords[:, 0] == np.concatenate(lead)[index]
            if not ok.all():
                raise ValueError(f"line {first + np.argmin(ok) + 2}: {_NOT_A_GRID}")

        def settle():
            # the first axis moved on (or the rows ended), so each later axis is its column's
            # leading increasing run at the stride of the axes after it, which must be uniform
            nonlocal axes, pending
            coords, axes, stride = np.concatenate(pending), [], 1
            for j in reversed(range(1, columns - 1)):
                column = coords[::stride, j]
                axis = column[: np.argmax(np.append(column[1:] <= column[:-1], True)) + 1]
                uneven = _uneven_steps(axis)
                if uneven.any():
                    raise ValueError(f"line {(np.argmax(uneven) + 1) * stride + 2}: {_NOT_A_GRID}")
                axes.insert(0, axis)
                stride *= axis.size
            pending = None
            check(coords, 0)

        while True:
            got = fh.readinto(view[end : 8 + chunk])
            end += got
            cut = buffer.rfind(b"\n", 8, end) + 1 or 8
            if not got and cut < end:  # the last line lacks its newline
                buffer[end] = ord("\n")
                end = cut = end + 1
            if cut == 8:
                if got:
                    continue
                break
            n = _sci_values(text, 8, cut, columns, values, rows + 2)
            table = values[:n].reshape(-1, columns)
            samples[rows : rows + len(table)] = table[:, -1]
            if axes is not None:
                check(table[:, :-1], rows)
            else:
                pending.append(table[:, :-1].copy())
                if (table[:, 0] != pending[0][0, 0]).any():
                    settle()
            rows += len(table)
            buffer[8 : 8 + end - cut] = buffer[cut:end]
            end = 8 + end - cut
        if not rows:
            raise ValueError(f"line 2: no rows of {columns} values")
        if axes is None:
            settle()
    lead = np.concatenate(lead)
    stride = math.prod(ax.size for ax in axes)
    rises = np.diff(lead) > 0
    if not rises.all():
        raise ValueError(f"line {(np.argmin(rises) + 1) * stride + 2}: {_NOT_A_GRID}")
    if rows != lead.size * stride:
        raise ValueError(f"line {rows + 2}: {_NOT_A_GRID}")
    grid = PhaseSpaceGrid(axes=(lead, *axes))
    samples.resize(grid.shape, refcheck=False)
    samples.setflags(write=False)  # handed over, so the field keeps it uncopied
    return field_from_samples(grid, samples)
