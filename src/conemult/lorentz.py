"""Decreasing rearrangements and Lorentz quasi-norms over weighted samples.

Conventions (fixed; no gamma-factor normalization):

    ||f||_{p,nu} = ( integral_0^inf (t^{1/p} f*(t))^nu dt/t )^{1/nu}   nu < inf
    ||f||_{p,inf} = sup_t t^{1/p} f*(t)

with f* the right-continuous decreasing rearrangement.  On a step function
the finite-nu integral is evaluated in closed form piece by piece, and the
weak-type supremum uses the right endpoint of each constant piece.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair (p, nu); nu = math.inf gives the weak quasi-norm."""

    p: float
    nu: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise DomainError(f"p must be a positive real, got {self.p}")
        if not (self.nu >= self.p):
            raise DomainError(f"nu must satisfy nu >= p, got nu={self.nu} < p={self.p}")

    @property
    def weak(self):
        return math.isinf(self.nu)


@dataclass
class WeightedSampleSet:
    """Finitely many |value| samples carrying positive measure weights.

    ``weights`` is a 1-d array of one weight per sample, or a scalar: the
    weight every sample carries (a uniform measure, such as grid cells).
    """

    values: np.ndarray
    weights: np.ndarray

    # set by ``of_magnitudes``: the values array belongs to the set alone,
    # and a float64 array of one entry per sample that its norms may use
    _owns_values = False
    _scratch = None

    def __post_init__(self):
        self.values = np.abs(np.asarray(self.values, dtype=float))
        self._check()

    @classmethod
    def of_magnitudes(cls, magnitudes, weights, scratch=None):
        """The sample set over ``magnitudes`` itself, taken without a copy.

        ``magnitudes`` is a 1-d float64 array of values >= 0, such as
        ``np.abs`` returns, that no one else reads afterwards: under a
        scalar weight ``lorentz_quasinorm`` sorts it in place, which leaves the
        set (values of equal weight, in no particular order) unchanged.
        ``scratch``, a float64 array of at least one entry per sample, takes
        the terms of a finite-nu quasi-norm in place of a new array.
        """
        samples = cls.__new__(cls)
        samples.values = magnitudes
        samples.weights = weights
        samples._owns_values = True
        samples._scratch = scratch
        samples._check()
        return samples

    def _check(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.values.ndim != 1 or not (self.uniform or
                                         self.values.shape == self.weights.shape):
            raise DomainError("values must be a 1-d array, weights a scalar "
                              "or an array of the same length")
        if len(self.values) == 0:
            raise DomainError("sample set must be nonempty")
        # the values are >= 0 or NaN, so they are finite when their max is
        if not math.isfinite(self.values.max()):
            raise DomainError("sample values must be finite")
        if not (np.all(self.weights > 0) and np.all(np.isfinite(self.weights))):
            raise DomainError("weights must be positive and finite")

    @property
    def uniform(self):
        """True when every sample carries the one scalar weight."""
        return self.weights.ndim == 0

    @property
    def total_measure(self):
        if self.uniform:
            return float(self.weights * len(self.values))
        return float(self.weights.sum())


@dataclass
class RearrangedFunction:
    """Step function t -> level on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: np.ndarray  # increasing, breakpoints[0] == 0
    levels: np.ndarray       # strictly decreasing

    def measure_above(self, lam):
        """Measure of {f* > lam}; equals the weighted measure of {|f| > lam}."""
        count = int(np.sum(self.levels > lam))
        return float(self.breakpoints[count])


def decreasing_rearrangement(samples):
    """Decreasing rearrangement of a weighted sample set.

    Equal values are merged into a single constant piece; this does not
    change any of the derived quasi-norms.  Each piece's measure is summed
    in sample order (``bincount`` walks the samples by index), so the sort
    need not be stable and the result does not depend on how ties sort.
    A scalar weight is summed as the array of that weight per sample.
    """
    return subset_rearrangements(samples, [None])[0]


def subset_rearrangements(samples, masks):
    """Decreasing rearrangement of each masked subset of one sample set.

    The set is sorted once; each subset reads its ascending order off that
    sort.  Its result is bit-identical to ``decreasing_rearrangement`` of
    the subset, since ties are merged in sample order as there.  A mask
    of None selects every sample, with no gather.  An empty subset raises
    DomainError.
    """
    order = np.argsort(samples.values)
    weights = np.broadcast_to(samples.weights, samples.values.shape)
    out = []
    for keep in masks:
        if keep is None:
            sub = order
        else:
            keep = np.asarray(keep, dtype=bool)
            if not keep.any():
                raise DomainError("subset mask selects no sample")
            sub = order[keep[order]]
        out.append(_tie_merged(samples.values, weights, sub, keep))
    return out


def _tie_merged(values, weights, order, keep):
    """Rearrangement of the samples ``order`` lists in ascending value.

    ``keep`` marks the samples ``order`` covers, None for all of them;
    the merged measures are summed over those in index order.
    """
    v = values[order]
    start = np.empty(len(v), dtype=bool)
    start[0] = True
    start[1:] = v[1:] != v[:-1]
    if start.all():
        # no ties: every piece is one sample, whose measure is its weight
        # (what ``bincount`` sums, adding it to 0.0)
        merged, levels = weights[order][::-1], v[::-1]
    else:
        group = np.empty(len(values), dtype=np.intp)
        group[order] = np.cumsum(start) - 1
        if keep is not None:
            group, weights = group[keep], weights[keep]
        merged = np.bincount(group, weights=weights)[::-1]
        levels = v[start][::-1]
    breakpoints = np.concatenate(([0.0], np.cumsum(merged)))
    return RearrangedFunction(breakpoints, levels)


# pieces of a rearrangement per chunk, where it is formed or read in chunks
_CHUNK = 2 ** 14


def _uniform_pieces(v, weight):
    """The rearrangement of the ascending values ``v``, each of measure
    ``weight``, as consecutive ``(levels, ends)`` chunks, largest first.

    A chunk holds whole pieces, about ``_CHUNK`` of them: ``levels`` their
    values, descending, and ``ends`` their right breakpoints.  The ends of
    a chunk are one cumsum that carries the running total into its first
    entry, so they are those of one cumsum over all pieces, bit for bit,
    and no array of the sample count is formed (but for a chunk that
    stretches over a long run of ties).
    """
    total = 0.0
    hi = len(v)
    while hi > 0:
        # the chunk starts where the run of its smallest value starts
        lo = 0 if hi <= _CHUNK else \
            int(np.searchsorted(v, v[hi - _CHUNK], side="left"))
        u = v[lo:hi]
        start = np.empty(len(u), dtype=bool)
        start[0] = True
        np.not_equal(u[1:], u[:-1], out=start[1:])
        if start.all():
            # no ties: every piece is one sample
            levels = u[::-1]
            ends = np.full(len(u), weight)
        else:
            first = np.flatnonzero(start)
            levels = u[first[::-1]]
            counts = np.empty_like(first)
            np.subtract(first[1:], first[:-1], out=counts[:-1])
            counts[-1] = len(u) - first[-1]
            ends = _repeated_sums(counts[::-1], weight)
        ends[0] += total
        np.cumsum(ends, out=ends)
        total = ends[-1]
        yield levels, ends
        hi = lo


def _repeated_sums(counts, weight):
    """``weight`` summed ``c`` times in sequence, for each count c >= 1.

    The running sums are the ones ``bincount`` forms when it adds the same
    weight once per sample, so a uniform measure merges bit-identically to
    the array of its weights.  They are formed ``_CHUNK`` at a time, each
    chunk's cumsum carrying the running total into its first entry.
    """
    last = counts - 1
    top = int(counts.max())
    block = np.empty(min(top, _CHUNK))
    out = np.empty(len(counts))
    total = 0.0
    for lo in range(0, top, len(block)):
        block[...] = weight
        block[0] += total
        np.cumsum(block, out=block)
        total = block[-1]
        hit = (last >= lo) & (last < lo + len(block))
        out[hit] = block[last[hit] - lo]
    return out


_BITS = 4


def rounded_up(samples, out=None):
    """Pointwise majorant of ``samples`` on a coarse level grid.

    Each positive value is raised to the top of its bin, the bins cutting
    every binade [2^e, 2^(e+1)) into 16 equal pieces; zeros stay zero.
    The bins are read off the float64 bit pattern, so the map is monotone
    and exact, and each value grows by a factor of at most 17/16, attained
    at the bottom of the first bin of a binade (a subnormal value grows by
    less than 2^-1026).  The weights of a bin are summed into one sample,
    leaving at most 16 samples per binade present.  As the Lorentz
    quasi-norms are monotone under pointwise majorants and homogeneous,

        ||f||_{p,nu} <= ||rounded_up(f)||_{p,nu} <= (17/16) ||f||_{p,nu},

    the right-hand inequality for samples free of subnormals.

    A value in the top bin below the float64 overflow threshold has no
    finite majorant there and is rejected like any non-finite sample.

    ``out``, an int64 array with one entry per sample, receives the bin
    keys instead of a new array.
    """
    shift = 52 - _BITS
    v = samples.values
    keys = np.right_shift(v.view(np.int64), shift, out=out)
    keys += v > 0
    k0 = int(keys.min())
    keys -= k0
    if samples.uniform:
        counts = np.bincount(keys)
        present = np.flatnonzero(counts)
        merged = _repeated_sums(counts[present], samples.weights)
    else:
        merged = np.bincount(keys, weights=samples.weights)
        present = np.flatnonzero(merged)
        merged = merged[present]
    tops = ((present + k0) << shift).view(np.float64)
    return WeightedSampleSet(tops, merged)


def lorentz_quasinorm(samples, params):
    """Lorentz L^{p,nu} quasi-norm of a weighted sample set.

    Under a scalar weight the rearrangement is read chunk by chunk as it
    is formed, with the values of ``rearranged_quasinorm`` bit for bit.
    """
    if samples.uniform:
        # sorted in place when the set owns its values (``of_magnitudes``)
        v = samples.values if samples._owns_values else samples.values.copy()
        v.sort()
        return _pieces_quasinorm(_uniform_pieces(v, samples.weights), params,
                                 len(v), samples._scratch)
    return rearranged_quasinorm(decreasing_rearrangement(samples), params)


def rearranged_quasinorm(r, params):
    """Lorentz L^{p,nu} quasi-norm from the decreasing rearrangement ``r``."""
    levels, ends = r.levels, r.breakpoints[1:]
    return _pieces_quasinorm(((levels[i:i + _CHUNK], ends[i:i + _CHUNK])
                              for i in range(0, len(levels), _CHUNK)),
                             params, len(levels))


# pieces per block of the weak supremum's bounds, and the relative slack
# of a bound; it covers the rounding of the power and the product
_BLOCK = 64
_BOUND_SLACK = 1e-12


def _weak_top(lv, t, e, top):
    """max(top, max(lv * t ** e)) for descending levels ``lv`` and
    increasing ends ``t``, with the powers taken on fewer pieces.

    Over a block of ``_BLOCK`` pieces, lv * t ** e is below its first
    level times its last end's power.  A block whose bound, raised by the
    slack, stays below the largest of ``top`` and the blocks' last values
    holds no value above them and is skipped; the others are evaluated
    whole, so the supremum is the full array's, bit for bit.  Up to
    ``_BLOCK`` blocks, where the bounds save less than they cost, every
    piece is evaluated.
    """
    # np.maximum, as np.max, keeps a NaN (0 * inf at an overflowing end)
    if len(lv) <= _BLOCK ** 2:
        return np.maximum(top, np.max(lv * t ** e))
    last = np.minimum(np.arange(_BLOCK - 1, len(lv) + _BLOCK - 1, _BLOCK),
                      len(lv) - 1)
    tail = t[last] ** e
    top = np.maximum(top, np.max(lv[last] * tail))
    reach = lv[::_BLOCK] * tail
    reach *= 1.0 + _BOUND_SLACK
    keep = np.repeat(reach >= top, _BLOCK)[:len(lv)]
    if keep.any():
        top = np.maximum(top, np.max(lv[keep] * t[keep] ** e))
    return top


def _pieces_quasinorm(chunks, params, count, scratch=None):
    """The quasi-norm of the step function of consecutive ``(levels, ends)``
    chunks (levels descending, ends the right breakpoints) of at most
    ``count`` pieces; ``scratch`` as for ``WeightedSampleSet.of_magnitudes``.

    The weak supremum is taken chunk by chunk.  The finite-nu integral is
    summed by one ``np.sum`` over the pieces' terms, each formed per chunk,
    so it adds them in the order of a sum over whole arrays.  A power or
    the root out of the float range (at an extreme p or nu) leaves 0, inf
    or NaN in place of the positive quasi-norm: that is a ``DomainError``.
    """
    chunks = iter(chunks)
    lv, t = next(chunks)
    peak = lv[0]
    if peak == 0.0:
        return 0.0
    p, nu = params.p, params.nu
    with np.errstate(over="ignore", invalid="ignore"):
        if params.weak:
            value = 0.0
            for lv, t in itertools.chain([(lv, t)], chunks):
                value = _weak_top(lv, t, 1.0 / p, value)
        else:
            q = nu / p
            contrib = np.empty(count) if scratch is None else scratch[:count]
            n = 0
            below = 0.0   # t ** q at the chunk's left end; the first is 0
            for lv, t in itertools.chain([(lv, t)], chunks):
                tq = t ** q
                lower = np.empty_like(tq)
                lower[0] = below
                lower[1:] = tq[:-1]
                # scale by the top level so lv**nu cannot overflow
                contrib[n:n + len(lv)] = (lv / peak) ** nu * (tq - lower)
                below = tq[-1]
                n += len(lv)
            value = peak * ((p / nu) * np.sum(contrib[:n])) ** (1.0 / nu)
    if not 0.0 < value < math.inf:
        raise DomainError(f"p = {p}, nu = {nu}: the quasi-norm leaves the "
                          f"float range")
    return float(value)
