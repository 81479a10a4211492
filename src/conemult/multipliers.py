"""Multiplier fields on uniform box grids and their convolution operators.

The discrete model is periodic: an operator is the inverse DFT of
(symbol x forward DFT), i.e. circular convolution.  Frequency-representation
arrays are stored in FFT order; the dual grid of an axis with extent L and
resolution N is xi_m = 2 pi m / L for m = -N/2 .. N/2 - 1.
"""

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WraparoundWarning

_MAGIC = b"CMF1"
MAX_AXES = 4
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


def freq_magnitude(axes):
    """|xi| over the grid spanned by ``axes`` (FFT order per axis)."""
    coords = np.meshgrid(*[ax.freq_coords() for ax in axes],
                         indexing="ij", sparse=True)
    return np.sqrt(sum(c ** 2 for c in coords))


def _check_profile_support(profile, name):
    """Probe a profile on |u| >= _EDGE_SUPPORT and insist it vanishes."""
    span = _EDGE_SUPPORT + np.linspace(0.0, 3.0 * _EDGE_SUPPORT, 40)
    vals = np.asarray(profile(np.concatenate([-span, span])), dtype=complex)
    if np.any(np.abs(vals) > 1e-12):
        raise DomainError(f"{name} does not vanish at u <= {-_EDGE_SUPPORT} "
                          f"or u >= {_EDGE_SUPPORT}")


@dataclass
class GammaFamily:
    """Per-octave edge profiles gamma_k, each supported in (-1/4, 1/4)."""

    profiles: dict

    def __post_init__(self):
        if not self.profiles:
            raise DomainError("family must contain at least one profile")
        for k, prof in self.profiles.items():
            _check_profile_support(prof, f"gamma_{k}")

    @classmethod
    def constant(cls, profile, ks):
        return cls({k: profile for k in ks})


@dataclass
class ConeMultiplierField:
    """Frequency-side multiplier on an (xi, tau) grid."""

    grid: GridField

    def __post_init__(self):
        if self.grid.rep != "frequency":
            raise DomainError("multiplier fields live in frequency representation")
        if self.grid.ndim < 2:
            raise DomainError("cone multipliers need at least (xi, tau) axes")


def build_dyadic_cone_multiplier(family, axes):
    """Sum over octaves of gamma_k((|xi| - tau) / 2^k) on the slab tau in [2^k, 2^{k+1}).

    Exactly zero off the slabs; on each slab the support sits inside the
    annulus ||xi| - tau| < 2^(k-2) because gamma_k vanishes off (-1/4, 1/4).
    """
    axes = tuple(axes)
    xi_mag = freq_magnitude(axes[:-1])[..., None]
    tau = axes[-1].freq_coords()
    values = np.zeros(xi_mag.shape[:-1] + (len(tau),), dtype=complex)
    pos = tau > 0
    if np.any(pos):
        kmin = int(math.floor(math.log2(tau[pos].min())))
        kmax = int(math.floor(math.log2(tau[pos].max())))
        for k in range(kmin, kmax + 1):
            if k not in family.profiles:
                continue
            sel = (tau >= 2.0 ** k) & (tau < 2.0 ** (k + 1))
            if not np.any(sel):
                continue
            u = (xi_mag - tau[sel]) / 2.0 ** k
            values[..., sel] = np.asarray(family.profiles[k](u), dtype=complex)
    return ConeMultiplierField(GridField(axes, values, rep="frequency"))


def field_symbol(m, axes):
    """The symbol array of the multiplier field ``m`` on the grid of ``axes``."""
    grid = m.grid if isinstance(m, ConeMultiplierField) else m
    if grid.rep != "frequency":
        raise DomainError("multiplier GridField must be in frequency form")
    axes = tuple(axes)
    if not (len(axes) == grid.ndim and all(
            a.extent == b.extent and a.resolution == b.resolution
            for a, b in zip(axes, grid.axes))):
        raise DomainError("field and multiplier grids do not match")
    return grid.values


def _symbol_values(f, m):
    if isinstance(m, (GridField, ConeMultiplierField)):
        return field_symbol(m, f.axes)
    if callable(m):
        return np.asarray(m(freq_magnitude(f.axes)), dtype=complex)
    raise DomainError("multiplier must be a field or a radial symbol callable")


def apply_multiplier(f, m):
    """Apply a Fourier multiplier: inverse DFT of (symbol * forward DFT).

    Circular convolution semantics; the discrete energy bound
    ||Tf||_2 <= max|m| ||f||_2 holds exactly.  A field in frequency form
    is taken as the forward DFT of the input, which is not recomputed.
    """
    sym = _symbol_values(f, m)
    # sym first: numpy's complex product is not bitwise commutative
    if f.rep == "frequency":
        out = np.multiply(sym, f.values)
    else:
        out = np.fft.fftn(f.values)
        np.multiply(sym, out, out=out)
    np.fft.ifftn(out, out=out)
    return GridField(f.axes, out, rep="space")


def wraparound_fraction(f):
    """Fraction of |f| mass in the outer ``_WRAP_SHELL`` of each axis extent."""
    masks = []
    for i, ax in enumerate(f.axes):
        x = np.abs(ax.space_coords())
        m = x >= (0.5 - _WRAP_SHELL) * ax.extent
        shape = [1] * f.ndim
        shape[i] = ax.resolution
        masks.append(m.reshape(shape))
    boundary = np.zeros(f.values.shape, dtype=bool)
    for m in masks:
        boundary |= m
    total = np.sum(np.abs(f.values))
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(f.values)[boundary]) / total)


def check_wraparound(f, threshold=1e-6):
    frac = wraparound_fraction(f)
    if frac > threshold:
        warnings.warn(
            f"boundary shell carries {frac:.3e} of the field mass "
            f"(threshold {threshold:.1e}); enlarge the box extent",
            WraparoundWarning, stacklevel=2)
    return frac


def save_field(f, path):
    """Flat binary format: header (dims, extents, resolutions, rep) + complex64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBBH", 1, 1 if f.rep == "frequency" else 0,
                             f.ndim, 0))
        for ax in f.axes:
            fh.write(struct.pack("<dQ", ax.extent, ax.resolution))
        fh.write(np.ascontiguousarray(f.values.astype("<c8")).tobytes())


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
