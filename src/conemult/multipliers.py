"""Multiplier fields on uniform box grids and their convolution operators.

The discrete model is periodic: an operator is the inverse DFT of
(symbol x forward DFT), i.e. circular convolution.  Frequency-representation
arrays are stored in FFT order; the dual grid of an axis with extent L and
resolution N is xi_m = 2 pi m / L for m = -N/2 .. N/2 - 1.  A multiplier
field is a GridField in frequency form whose values are the symbol.
"""

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError

_MAGIC = b"CMF1"
MAX_AXES = 4
# cap on the cells of an apply/opnorm grid: at 2^24 cells one complex
# field is 256 MiB, and a run holds a few at once
MAX_GRID_CELLS = 2 ** 24
# cap on the cells of a CSV export: one text row per cell
CSV_MAX_CELLS = 65536
# edge profiles vanish off (-_EDGE_SUPPORT, _EDGE_SUPPORT)
_EDGE_SUPPORT = 0.25
# the outer part of each axis extent whose mass wraparound_fraction measures
_WRAP_SHELL = 0.125


@dataclass(frozen=True)
class Axis:
    extent: float
    resolution: int

    def __post_init__(self):
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise DomainError(f"axis extent must be positive and finite, "
                              f"got {self.extent}")
        n = self.resolution
        if n < 2 or (n & (n - 1)) != 0:
            raise DomainError(f"axis resolution must be a power of two, got {n}")

    @property
    def step(self):
        return self.extent / self.resolution

    def space_coords(self):
        return -0.5 * self.extent + self.step * np.arange(self.resolution)

    def freq_coords(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.step)


def build_axes(extent, resolution, ndim):
    """Axes of a cubic grid, checked before any array is allocated."""
    if not 1 <= ndim <= MAX_AXES:
        raise DomainError(f"ndim = {ndim}: grids support 1 to {MAX_AXES} axes")
    axes = tuple(Axis(extent, resolution) for _ in range(ndim))
    if resolution ** ndim > MAX_GRID_CELLS:
        raise BudgetError(f"grid of {resolution}^{ndim} cells exceeds the cap "
                          f"{MAX_GRID_CELLS}")
    # |x|^2 and |xi|^2 sum the squared coordinates over the axes, the
    # largest being the half extent and the Nyquist frequency pi N / L;
    # every norm carries the cell volume (L / N)^ndim
    space, freq = 0.5 * extent, math.pi * resolution / extent
    for size, what in ((ndim * space * space, "squared space coordinates"),
                       (ndim * freq * freq, "squared frequency coordinates"),
                       (math.prod([extent / resolution] * ndim),
                        "cell volume")):
        if not 0 < size < math.inf:
            raise DomainError(f"extent = {extent} over {ndim} axes of "
                              f"{resolution} cells puts the {what} out of "
                              f"the float range")
    return axes


@dataclass
class GridField:
    """Complex function on a uniform box grid, in space or frequency form."""

    axes: tuple
    values: np.ndarray
    rep: str = "space"

    def __post_init__(self):
        self.axes = tuple(self.axes)
        if not 1 <= len(self.axes) <= MAX_AXES:
            raise DomainError(f"grids support 1 to {MAX_AXES} axes")
        if self.rep not in ("space", "frequency"):
            raise DomainError(f"unknown representation {self.rep!r}")
        shape = tuple(ax.resolution for ax in self.axes)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != shape:
            raise DomainError(
                f"value array shape {self.values.shape} != grid shape {shape}")

    @property
    def ndim(self):
        return len(self.axes)

    def cell_volume(self):
        return float(np.prod([ax.step for ax in self.axes]))

    def l2_norm(self):
        return float(np.linalg.norm(self.values.ravel())) * self.cell_volume() ** 0.5


def sparse_coords(axes, rep):
    """The coordinates of ``axes`` in ``rep`` ("space", or "frequency" in
    FFT order), one per axis, as a sparse grid."""
    return np.meshgrid(*[ax.space_coords() if rep == "space" else
                         ax.freq_coords() for ax in axes],
                       indexing="ij", sparse=True)


def radius_sq(axes, rep, out=None, block=None):
    """|x|^2 or |xi|^2 over the grid of ``axes``, into ``out`` when given.

    The squared coordinates are added in axis order, all but the last on
    the sparse grid of the axes before it, so the only full-grid array is
    the result.  ``block``, one slice per axis, restricts the grid to the
    cells it indexes, each with the value of the whole grid's.
    """
    coords = sparse_coords(axes, rep)
    if block is not None:
        coords = [c[(slice(None),) * k + (s,)]
                  for k, (c, s) in enumerate(zip(coords, block))]
    return np.add(sum(c ** 2 for c in coords[:-1]), coords[-1] ** 2,
                  out=out)


def freq_magnitude(axes):
    """|xi| over the grid spanned by ``axes`` (FFT order per axis)."""
    return np.sqrt(radius_sq(axes, "frequency"))


def radial_field(m0, *args):
    """The multiplier m0(*arg, |xi|) of a radial symbol on the grid of
    ``axes``: ``args`` is the symbol's arguments ``arg``, then ``axes``."""
    *arg, axes = args
    return GridField(axes, m0(*arg, freq_magnitude(axes)), rep="frequency")


def halfspace_field(axes):
    """The multiplier 1 on xi_1 >= 0, 0 elsewhere."""
    on = sparse_coords(axes, "frequency")[0] >= 0
    return GridField(axes, np.broadcast_to(on, [ax.resolution for ax in axes]),
                     rep="frequency")


def gauss_field(width, axes):
    """exp(-|x|^2 / (2 width^2)) on the grid, in space."""
    # a ratio |x|^2 / width^2 past the float range gives exp(-inf) = 0
    with np.errstate(over="ignore"):
        values = np.exp(-0.5 * radius_sq(axes, "space") / width ** 2)
    return GridField(axes, values.astype(complex))


def _check_profile_support(profile):
    """Probe an edge profile on |u| >= _EDGE_SUPPORT and insist it vanishes."""
    span = _EDGE_SUPPORT + np.linspace(0.0, 3.0 * _EDGE_SUPPORT, 40)
    vals = np.asarray(profile(np.concatenate([-span, span])), dtype=complex)
    if np.any(np.abs(vals) > 1e-12):
        raise DomainError(f"the edge profile does not vanish at u <= "
                          f"{-_EDGE_SUPPORT} or u >= {_EDGE_SUPPORT}")


def _check_cone_axes(axes):
    """Reject a grid without an (xi, tau) split before any array exists."""
    if len(axes) < 2:
        raise DomainError("cone multipliers need at least (xi, tau) axes")


def build_dyadic_cone_multiplier(profile, axes):
    """Sum over octaves of gamma((|xi| - tau) / 2^k) on the slab tau in [2^k, 2^{k+1}).

    Exactly zero off the slabs; on each slab the support sits inside the
    annulus ||xi| - tau| < 2^(k-2) because the edge profile gamma vanishes
    off (-1/4, 1/4).  Every octave the grid's tau axis reaches is covered.
    """
    axes = tuple(axes)
    _check_cone_axes(axes)
    _check_profile_support(profile)
    xi_mag = freq_magnitude(axes[:-1])[..., None]
    tau = axes[-1].freq_coords()
    values = np.zeros(xi_mag.shape[:-1] + (len(tau),), dtype=complex)
    pos = tau > 0
    if np.any(pos):
        kmin = int(math.floor(math.log2(tau[pos].min())))
        kmax = int(math.floor(math.log2(tau[pos].max())))
        for k in range(kmin, kmax + 1):
            sel = (tau >= 2.0 ** k) & (tau < 2.0 ** (k + 1))
            u = (xi_mag - tau[sel]) / 2.0 ** k
            values[..., sel] = np.asarray(profile(u), dtype=complex)
    return GridField(axes, values, rep="frequency")


def field_symbol(m, axes):
    """The symbol array of the multiplier field ``m`` on the grid of ``axes``."""
    if m.rep != "frequency":
        raise DomainError("multiplier GridField must be in frequency form")
    axes = tuple(axes)
    if not (len(axes) == m.ndim and all(
            a.extent == b.extent and a.resolution == b.resolution
            for a, b in zip(axes, m.axes))):
        raise DomainError("field and multiplier grids do not match")
    return m.values


def _symbol_values(f, m):
    if isinstance(m, GridField):
        return field_symbol(m, f.axes)
    if callable(m):
        return np.asarray(m(freq_magnitude(f.axes)), dtype=complex)
    raise DomainError("multiplier must be a field or a radial symbol callable")


def _support_box(sym):
    """Per axis, the index slices (FFT order) outside which ``sym`` vanishes.

    Each axis gets the shortest cyclic run holding every index where some
    value of ``sym`` is nonzero: one slice, or two when the run wraps
    around the end.  A symbol that vanishes everywhere has no slices.
    """
    nonzero = sym != 0
    box = []
    for k, n in enumerate(sym.shape):
        hit = np.flatnonzero(np.any(nonzero, axis=tuple(
            j for j in range(sym.ndim) if j != k)))
        if len(hit) == 0:
            return [[] for _ in sym.shape]
        if len(hit) == n:
            box.append([slice(None)])
            continue
        # the run starts after the largest cyclic gap between hits
        last = int(np.argmax(np.diff(hit, append=hit[0] + n)))
        start, stop = int(hit[(last + 1) % len(hit)]), int(hit[last]) + 1
        box.append([slice(start, stop)] if start < stop else
                   [slice(start, n), slice(0, stop)])
    return box


def _box_complement(box, shape):
    """Index blocks that cover the cells outside the support ``box`` (not
    empty) of a grid of ``shape``, each cell once: for each axis k, the
    cells inside the box on the axes before k and outside it on axis k."""
    blocks = []
    for k, (runs, n) in enumerate(zip(box, shape)):
        if runs == [slice(None)]:
            continue
        # one run [a, b) leaves [0, a) and [b, n); a run that wraps
        # around the end, [a, n) and [0, b), leaves [b, a)
        gaps = [slice(runs[1].stop, runs[0].start)] if len(runs) == 2 else \
            [g for g in (slice(0, runs[0].start), slice(runs[0].stop, n))
             if g.start < g.stop]
        blocks += [head + (gap,) for head in itertools.product(*box[:k])
                   for gap in gaps]
    return blocks


def _inverse_in_place(values, box):
    """``np.fft.ifftn(values, out=values)``, bit for bit, on fewer lines.

    The values vanish outside the support ``box``, which is not empty.
    Axes are transformed in numpy's order, last first; on each axis only
    the lines inside the box of the axes not yet transformed can be
    nonzero, so only those are transformed.  A line transforms alone, so
    the result is that of the full transform (up to the sign of zeros).
    """
    for k in reversed(range(values.ndim)):
        for block in itertools.product(*box[:k]):
            lines = values[block]
            np.fft.ifft(lines, axis=k, out=lines)


def _forward_in_place(values, box):
    """``np.fft.fftn(values, out=values)``, bit for bit inside the support
    ``box``, on fewer lines: the transpose of ``_inverse_in_place``.

    Axes are transformed in numpy's order, last first; a value inside the
    box depends only on the lines inside the box of the axes already
    transformed, so only those are transformed.  Values outside the box
    are left partly transformed: the symbol multiplies them by zero.
    """
    for k in reversed(range(values.ndim)):
        for block in itertools.product(*box[k + 1:]):
            lines = values[(slice(None),) * (k + 1) + block]
            np.fft.fft(lines, axis=k, out=lines)


def _apply_in_place(values, rep, sym, box):
    """The grid operator of the symbol ``sym`` on the buffer ``values``.

    ``values`` holds f in space (``rep`` "space") or its forward DFT
    ("frequency"); it is overwritten with T f in space and returned.  The
    transforms skip the lines outside ``sym``'s support box ``box``
    (``_support_box``), so the values equal those of
    ``ifftn(sym * fftn(f))`` up to the sign of zeros; a symbol that
    vanishes everywhere gives +0.
    """
    if not all(box):
        values[...] = 0.0
        return values
    if rep == "space":
        _forward_in_place(values, box)
    # sym first: numpy's complex product is not bitwise commutative
    np.multiply(sym, values, out=values)
    _inverse_in_place(values, box)
    return values


def apply_multiplier(f, m):
    """Apply a Fourier multiplier: inverse DFT of (symbol * forward DFT).

    Circular convolution semantics; the discrete energy bound
    ||Tf||_2 <= max|m| ||f||_2 holds exactly.  A field in frequency form
    is taken as the forward DFT of the input, which is not recomputed.
    ``m`` is a multiplier field or a radial symbol callable, evaluated at
    |xi| on the grid.
    """
    sym = _symbol_values(f, m)
    out = _apply_in_place(f.values.copy(), f.rep, sym, _support_box(sym))
    return GridField(f.axes, out, rep="space")


def wraparound_fraction(f):
    """Fraction of |f| mass in the outer ``_WRAP_SHELL`` of each axis extent."""
    boundary = functools.reduce(np.logical_or, [
        np.abs(x) >= (0.5 - _WRAP_SHELL) * ax.extent
        for x, ax in zip(sparse_coords(f.axes, "space"), f.axes)])
    total = np.sum(np.abs(f.values))
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(f.values)[boundary]) / total)


def save_field(f, path):
    """Flat binary format: header (dims, extents, resolutions, rep) + complex64.

    A finite value past the complex64 range is a domain error, raised
    before the file is opened.
    """
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(f.values.astype("<c8"))
    except FloatingPointError:
        raise DomainError(f"a value of the field leaves the complex64 range "
                          f"of {os.path.basename(path)}") from None
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBBH", 1, 1 if f.rep == "frequency" else 0,
                             f.ndim, 0))
        for ax in f.axes:
            fh.write(struct.pack("<dQ", ax.extent, ax.resolution))
        fh.write(payload.tobytes())


def load_field(path):
    """Read a field written by ``save_field``.

    The header length, the axis count and the exact payload byte count are
    checked against the file before the payload is read, so a truncated or
    foreign file raises DomainError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != _MAGIC:
            raise DomainError(f"{path} is not a multiplier field file")
        version, rep, ndim, _ = struct.unpack("<IBBH", head[4:])
        if version != 1:
            raise DomainError(f"unsupported field format version {version}")
        if not 1 <= ndim <= MAX_AXES:
            raise DomainError(f"{path}: {ndim} axes, fields have 1 to "
                              f"{MAX_AXES}")
        table = fh.read(16 * ndim)
        if len(table) < 16 * ndim:
            raise DomainError(f"{path}: header truncated")
        axes = tuple(Axis(extent, int(res))
                     for extent, res in struct.iter_unpack("<dQ", table))
        shape = tuple(ax.resolution for ax in axes)
        nbytes = 8 * math.prod(shape)
        if size - 12 - 16 * ndim != nbytes:
            raise DomainError(f"{path}: payload has {size - 12 - 16 * ndim} "
                              f"bytes, the header needs {nbytes}")
        payload = np.frombuffer(fh.read(nbytes), dtype="<c8").reshape(shape)
    return GridField(axes, payload.astype(complex),
                     rep="frequency" if rep else "space")


def export_field_csv(f, path):
    """Plot-ready CSV (one row per cell, C order) for grids of at most
    ``CSV_MAX_CELLS`` cells.

    The rows are those of a ``csv.writer``: ``repr`` of each float,
    comma-separated, ended by CRLF.
    """
    if f.values.size > CSV_MAX_CELLS:
        raise DomainError(f"grid too large for CSV export ({f.values.size} cells)")
    rows = [""]
    for ax in f.axes:
        coords = ax.space_coords() if f.rep == "space" else ax.freq_coords()
        cells = [f"{c!r}," for c in coords.tolist()]
        rows = [row + cell for row in rows for cell in cells]
    values = f.values.ravel()
    header = ",".join([f"x{i}" for i in range(f.ndim)] + ["re", "im"])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.write("".join([f"{row}{re!r},{im!r}\r\n" for row, re, im in
                          zip(rows, values.real.tolist(),
                              values.imag.tolist())]))
