"""Independent numpy re-implementations used to check the program's outputs.

Nothing here imports conemult: each function follows the documented format
or definition, so a check that compares against it tests the program.
"""

import struct

import numpy as np

CMF_MAGIC = b"CMF1"


def write_cmf(path, values, extent):
    """Write a space-representation field in the .cmf format (README)."""
    values = np.asarray(values)
    with open(path, "wb") as fh:
        fh.write(CMF_MAGIC)
        fh.write(struct.pack("<IBBH", 1, 0, values.ndim, 0))
        for n in values.shape:
            fh.write(struct.pack("<dQ", float(extent), n))
        fh.write(np.ascontiguousarray(values, dtype="<c8").tobytes())


def read_cmf(path):
    """Read a .cmf file: returns (values, extents, representation)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CMF_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    version, rep, ndim, _ = struct.unpack_from("<IBBH", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    extents, shape = [], []
    for i in range(ndim):
        extent, res = struct.unpack_from("<dQ", data, 12 + 16 * i)
        extents.append(extent)
        shape.append(res)
    offset = 12 + 16 * ndim
    count = int(np.prod(shape))
    if len(data) != offset + 8 * count:
        raise ValueError(f"{path}: payload holds {len(data) - offset} bytes, "
                         f"expected {8 * count}")
    values = np.frombuffer(data, dtype="<c8", offset=offset).reshape(shape)
    return values, extents, "frequency" if rep else "space"


def bochner_riesz_apply(values, extent, lam):
    """Apply (1 - |xi|^2)_+^lam by FFT on a periodic box of side ``extent``.

    The dual grid of an axis with N points is xi_m = 2 pi m / extent in FFT
    order, as in the program's documented convention.
    """
    values = np.asarray(values, dtype=complex)
    freqs = [2.0 * np.pi * np.fft.fftfreq(n, d=extent / n)
             for n in values.shape]
    grids = np.meshgrid(*freqs, indexing="ij", sparse=True)
    xi_sq = sum(g ** 2 for g in grids)
    symbol = np.clip(1.0 - xi_sq, 0.0, None) ** lam
    return np.fft.ifftn(symbol * np.fft.fftn(values))


def weak_lorentz(values, weights, p):
    """Weak-type quasi-norm sup_t t^(1/p) f*(t) of a weighted sample set.

    f* is constant on pieces whose right endpoints are the cumulative
    weights of the samples in decreasing order (equal values merged); the
    sup over a piece is attained at its right endpoint.
    """
    levels, inverse = np.unique(np.abs(values), return_inverse=True)
    mass = np.bincount(inverse.ravel(), weights=np.ravel(weights))
    levels, mass = levels[::-1], mass[::-1]
    return float(np.max(levels * np.cumsum(mass) ** (1.0 / p)))
