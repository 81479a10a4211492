"""Lower-bound estimation of operator quasi-norms on grid operators.

Only lower bounds are claimed: the estimate is the best Rayleigh-type ratio
||Tf||_{p,nu} / ||f||_p over an explicitly recorded witness family, so it is
valid by construction.  The search, ``_search``, is an anytime loop (two
exploration steps, one refinement step, repeating), which makes the estimate
nondecreasing in the step budget for a fixed seed; the shell-operator bound
of ``wave`` runs on it too.
"""

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import util
from .errors import DomainError
from .lorentz import (LevelBins, LorentzParams, WeightedSampleSet,
                      lorentz_quasinorm)
from .multipliers import (GridField, _apply_in_place, _box_complement,
                          _inverse_in_place, _support_box, field_symbol,
                          radius_sq, sparse_coords)

FAMILIES = ("dilated_bump", "random_superposition", "radial_focus",
            "annulus_knapp")
# the families defined by their spectrum: at p <= 2 a search takes a lower
# bound of their ||f||_p first (``witness_input``)
DEFERRED_FAMILIES = ("random_superposition", "annulus_knapp")
# dilations of the default scan grid of scaling_sweep_experiment
SWEEP_DILATIONS = 13
# bytes per grid cell of a workspace's buffers (one complex, one float64)
WORKSPACE_CELL_BYTES = 24
# the largest share of the grid a support box may hold for the spectra to be
# formed inside it alone: the strided blocks of a larger box cost more than
# they save (cone_tent's half box: 6.2 against 5.9 ms a witness at 64^3 on
# a 2-vCPU x86 VM)
BOX_SHARE = 0.25
# cap on a search's steps: the set of the specs it has seen grows by about
# 330 B a step, so the cap keeps it under about 90 MB
MAX_SEARCH_STEPS = 2 ** 18


def _float_power(base, exponent, p):
    """base ** exponent > 0 as a float; DomainError out of the float range."""
    try:
        value = float(base) ** exponent
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"p = {p}: the power {base:.6g} ** {exponent:.6g} "
                          f"leaves the float range")
    return value


def _peak(mags):
    """max(mags) of magnitudes >= 0 or NaN, in one pass; 0.0 when none is
    positive (zeros and NaN alone), as the test ``np.any(mags > 0)`` finds."""
    peak = mags.max()
    if peak != peak and not np.any(mags > 0):   # NaN, read again
        return 0.0
    return peak


def _lp_norm(mags, cell_volume, p):
    """||f||_p from the raveled |f| ``mags``, which it overwrites."""
    peak = _peak(mags)
    if peak == 0.0:
        return 0.0
    mags /= peak
    mags **= p
    return _float_power(np.sum(mags) * cell_volume, 1.0 / p, p) * peak


def _grid_samples(mags, cell_volume, scratch=None):
    """The raveled |f| ``mags`` with cell-volume weights, or None when f
    vanishes; the sample set takes ``mags`` over (and ``scratch``, as
    ``WeightedSampleSet.of_magnitudes`` does)."""
    peak = _peak(mags)
    if peak == 0.0:
        return None
    return WeightedSampleSet.of_magnitudes(mags, cell_volume, scratch, peak)


# relative slack of the majorant test; it covers the rounding of the cumsum
# and the powers in the two quasi-norms it compares
_MAJORANT_SLACK = 1e-9


def _defers(spec, p):
    """True when a search may take a lower bound of the witness's ||f||_p
    first (``witness_input``)."""
    return p <= 2.0 and spec["family"] in DEFERRED_FAMILIES


def _witness_norms(operator, spec, axes, p, nu, beat=0.0):
    """(||f||_p, ||T f||_{p,nu}) for the witness f of ``spec``.

    ||f||_p and f's form F come from ``witness_input``, f's one definition.
    A multiplier field T, or the ``_Workspace`` of one, is applied to F in
    the workspace's memory; any other operator is called on f in space:
    F itself for a radial focus, F's inverse DFT for every other family.
    T is not applied when ||f||_p vanishes; the second entry is then None.
    It is None as well when the ratio cannot exceed ``beat > 0``: the norm
    of the rounded-up majorant of |T f| (``lorentz.LevelBins``) bounds
    ||T f||_{p,nu} from above and is checked before the exact norm, which
    reads the same bins.  Through a workspace, a witness of
    ``DEFERRED_FAMILIES`` at p <= 2 with ``beat > 0`` is checked first
    against a lower bound of ||f||_p; when that rejects it the result is
    (None, None).  A witness that survives gets its exact ||T f||_{p,nu},
    then its exact ||f||_p (built in the workspace's buffers) and the
    majorant check against that norm, so the second entry is the one of
    the route that takes ||f||_p first.
    """
    work = _Workspace.of(operator, axes)
    deferred = beat > 0.0 and work is not None and _defers(spec, p)
    denom, f = witness_input(spec, axes, p, work, deferred)
    if denom == 0.0:
        return 0.0, None
    if work is not None:
        samples, keys = work.apply(f), work.keys
    else:
        if f.rep == "frequency":
            f = GridField(axes, np.fft.ifftn(f.values))
        tf = operator(f)
        samples = _grid_samples(np.abs(tf.values).ravel(), tf.cell_volume())
        keys = None
    if samples is None:
        return (_witness_lp_norm(spec, axes, p, work) if deferred
                else denom), 0.0
    params = LorentzParams(p, nu)
    bins = LevelBins(samples, keys) if beat > 0.0 or params.weak else None
    if beat > 0.0:
        bound = bins.majorant_quasinorm(params)
        if bound <= beat * denom * (1.0 - _MAJORANT_SLACK):
            return None if deferred else denom, None
    num = lorentz_quasinorm(samples, params, bins)
    if deferred:
        denom = _witness_lp_norm(spec, axes, p, work)
        if bound <= beat * denom * (1.0 - _MAJORANT_SLACK):
            return denom, None
    return denom, num


class _Workspace:
    """The memory every witness of one search through a multiplier reuses.

    It holds the symbol, its support box (``multipliers._support_box``),
    one complex grid buffer for the witness's spectrum and T f, and one
    float64 grid buffer for |f| and |T f|.  As the symbol vanishes outside
    the box, a spectrum is formed in ``blocks`` alone: the box's index
    blocks when it holds at most ``BOX_SHARE`` of the grid, the whole grid
    otherwise; ``outside`` covers the other cells
    (``multipliers._box_complement``).  The level bins' int64 keys go into
    the complex buffer, which is free once |T f| is taken, and after them
    the terms of a finite-nu exact norm; a deferred ||f||_p
    (``_witness_norms``) is built in both buffers after the exact norm of
    T f.  Without a multiplier it holds the buffers alone, and its one
    block is the whole grid: ``witness_input`` builds one such per witness
    for an operator given as a function, and drops it with that witness.
    Its siblings (``team``) share the symbol and the blocks and have
    buffers of their own, one workspace per worker thread.
    """

    def __init__(self, axes, multiplier=None):
        shape = tuple(ax.resolution for ax in axes)
        self.blocks, self.outside = [(slice(None),) * len(axes)], []
        if multiplier is not None:
            self.sym = field_symbol(multiplier, axes)
            self.box = _support_box(self.sym)
            inside = math.prod(sum(len(range(n)[run]) for run in runs)
                               for runs, n in zip(self.box, shape))
            if 0 < inside <= BOX_SHARE * math.prod(shape):
                self.blocks = list(itertools.product(*self.box))
                self.outside = _box_complement(self.box, shape)
        self.cell_volume = float(np.prod([ax.step for ax in axes]))
        self._allocate(shape)
        self._siblings = []

    def _allocate(self, shape):
        self.spectrum = np.empty(shape, dtype=complex)
        self.magnitude = np.empty(shape)
        self.keys = self.spectrum.reshape(-1).view(np.int64)[:math.prod(shape)]

    def team(self, count):
        """This workspace and ``count - 1`` siblings, made once and kept."""
        while len(self._siblings) < count - 1:
            twin = copy.copy(self)
            twin._allocate(self.magnitude.shape)
            twin._siblings = []
            self._siblings.append(twin)
        return [self] + self._siblings[:count - 1]

    @classmethod
    def of(cls, operator, axes):
        """The workspace of a multiplier field, None for any other operator."""
        if isinstance(operator, cls):
            return operator
        if isinstance(operator, GridField):
            return cls(axes, operator)
        return None

    def apply(self, f):
        """|T f| as grid samples (None when T f vanishes); f's values are
        the complex buffer, a spectrum formed in ``blocks`` or, for a space
        field, the witness.  A spectrum's cells ``outside`` are set to
        zero, each once, and the symbol multiplies the blocks alone, before
        ``_inverse_in_place``: |T f| is that of ``_apply_in_place``, bit
        for bit."""
        out = f.values
        if f.rep == "frequency" and all(self.box):
            for block in self.outside:
                out[block] = 0.0
            for block in self.blocks:
                # sym first: numpy's complex product is not bitwise
                # commutative
                np.multiply(self.sym[block], out[block], out=out[block])
            _inverse_in_place(out, self.box)
        else:
            _apply_in_place(out, f.rep, self.sym, self.box)
        mags = np.abs(out, out=self.magnitude).reshape(-1)
        # the keys' memory, spent once the majorant is taken, is the
        # scratch of the exact norm
        return _grid_samples(mags, self.cell_volume,
                             self.keys.view(np.float64))


@dataclass
class OpNormEstimate:
    """Certified lower bound plus the witness that achieved it."""

    lower_bound: float
    witness: dict
    p: float
    nu: float
    budget_used: int
    seed: int
    improvements: list = field(default_factory=list)  # (step, ratio)


def default_eta(x_sq):
    """Fixed rapidly decaying reference bump exp(-|x|^2 / 2)."""
    return np.exp(-0.5 * x_sq)


def _outer(factors, out):
    """The full-grid outer product of per-axis factors, into ``out``."""
    grids = np.meshgrid(*factors, indexing="ij", sparse=True)
    if len(grids) == 1:
        out[...] = grids[0]
        return out
    return np.multiply(functools.reduce(np.multiply, grids[:-1]), grids[-1],
                       out=out)


# cells of the temporary an outer product is added through
_SLAB_CELLS = 2 ** 14


def _add_outer(factors, out):
    """``out += `` the outer product of per-axis factors, a block of slabs
    of axis 0 (at most ``_SLAB_CELLS`` cells, or one slab) at a time.

    Each block is the product ``_outer`` forms there, so the sum is
    bit-identical to adding the full outer product.
    """
    grids = np.meshgrid(*factors, indexing="ij", sparse=True)
    if len(grids) == 1:
        out += grids[0]
        return
    head = functools.reduce(np.multiply, grids[:-1])
    rows = max(1, _SLAB_CELLS * len(out) // out.size)
    for i in range(0, len(out), rows):
        out[i:i + rows] += head[i:i + rows] * grids[-1]


def _knapp_sector(axes, prm):
    """The angular factor of an ``annulus_knapp`` witness's sector, on the
    sparse grid of the first two frequency axes, or None without one."""
    if not (prm.get("sector_width") and len(axes) >= 2):
        return None
    coords = sparse_coords(axes, "frequency")
    angle = np.arctan2(coords[1], coords[0] + 1e-300)
    delta = np.angle(np.exp(1j * (angle - prm["sector_angle"])))
    return np.exp(-0.5 * (delta / prm["sector_width"]) ** 2)


def _knapp_window(axes, prm, sector, out, block=None):
    """Spectrum of an ``annulus_knapp`` witness (FFT order), into the float
    grid ``out``: exp(-((|xi| - r0) / w)^2 / 2), times its ``sector``
    factor (``_knapp_sector``), built in place.  ``block``, one slice per
    axis, restricts it to the cells it indexes, ``out`` of their shape."""
    window = np.sqrt(radius_sq(axes, "frequency", out, block), out=out)
    window -= prm["r0"]
    window /= prm["w"]
    window **= 2
    window *= -0.5
    np.exp(window, out=window)
    if sector is not None:
        window *= sector if block is None else sector[block[:2]]
    return window


def _bump_factors(axes, prm, coef=1.0):
    """Per-axis factors of coef * eta(t (x - center)) exp(i freqs . x).

    The bump is the outer product of the factors, so its DFT is the outer
    product of their 1-d DFTs.  ``coef`` is folded into the first factor.
    """
    center = prm.get("center") or [0.0] * len(axes)
    freqs = prm.get("freqs")
    factors = []
    for k, ax in enumerate(axes):
        x = ax.space_coords()
        g = default_eta(((x - center[k]) * prm["t"]) ** 2).astype(complex)
        if freqs:
            g *= np.exp(1j * (freqs[k] * x))
        factors.append(g)
    factors[0] = coef * factors[0]
    return factors


def _separable_lp_norm(factors, cell_volume, p):
    """||f||_p of the outer product f of ``factors``, from per-axis sums."""
    mags = [np.abs(g) for g in factors]
    peaks = [float(m.max()) for m in mags]
    if min(peaks) == 0.0:
        return 0.0
    total = math.prod(float(np.sum((m / peak) ** p))
                      for m, peak in zip(mags, peaks))
    return _float_power(total * cell_volume, 1.0 / p, p) * math.prod(peaks)


def witness_input(spec, axes, p, work=None, floor=False):
    """(||f||_p, F) for the witness f of ``spec``: each family's one definition.

    F is f's forward DFT, in frequency form, where that is cheaper than f:
    a dilated bump and each piece of a superposition are outer products of
    per-axis factors, and an annulus-Knapp witness is defined by its
    spectrum.  A radial focus is built in space.  The norm of a single
    bump is taken from per-axis sums, so no full-grid space values are
    built for it.  F's values are the complex buffer of ``work`` (a
    ``_Workspace``, or new arrays when None), whose float buffer holds the
    |f| a norm is taken of.  A spectrum is formed in the workspace's
    ``blocks`` alone, inside the multiplier's support box; the cells
    outside them are left as they are, for ``_Workspace.apply`` to clear.
    An operator that is not a multiplier field receives f in space, F's
    inverse DFT (``_witness_norms``).

    With ``floor``, a witness of ``DEFERRED_FAMILIES`` (a superposition or
    an annulus-Knapp witness) at p <= 2 takes a lower bound of ||f||_p in
    place of the norm (``_parseval_floor``): F over the whole grid gives
    it, and f's space values are not built; ``_witness_lp_norm`` builds
    them when the norm is needed.  The norm itself stands where the bound
    leaves the float range.
    """
    work = work or _Workspace(axes)
    out = work.spectrum
    family = spec["family"]
    prm = spec["params"]
    if family == "dilated_bump":
        factors = _bump_factors(axes, prm)
        spectra = [np.fft.fft(g) for g in factors]
        for block in work.blocks:
            _outer([g[k] for g, k in zip(spectra, block)], out[block])
        denom = _separable_lp_norm(factors, math.prod(ax.step for ax in axes),
                                   p)
        return denom, GridField(axes, out, rep="frequency")
    if family == "radial_focus":
        # exp(-((|x| - a) / s)^2 / 2), step by step in place
        rad = np.sqrt(radius_sq(axes, "space", work.magnitude),
                      out=work.magnitude)
        rad -= prm["a"]
        rad /= prm["s"]
        rad **= 2
        rad *= -0.5
        np.exp(rad, out=rad)
        out[...] = rad
        return _lp_norm(work.magnitude.reshape(-1), work.cell_volume, p), \
            GridField(axes, out)
    if family not in DEFERRED_FAMILIES:
        raise DomainError(f"unknown witness family {spec['family']!r}")
    if floor and _defers(spec, p):
        bound = _parseval_floor(spec, axes, p, work)
        if bound is not None:
            return bound, GridField(axes, out, rep="frequency")
    denom = _witness_lp_norm(spec, axes, p, work)
    if family == "random_superposition":
        spectra = [[np.fft.fft(g) for g in factors]
                   for factors in _piece_factors(axes, prm)]
        for block in work.blocks:
            out[block] = 0.0
            for factors in spectra:
                _add_outer([g[k] for g, k in zip(factors, block)], out[block])
    else:
        sector = _knapp_sector(axes, prm)
        for block in work.blocks:
            out[block] = _knapp_window(axes, prm, sector,
                                       work.magnitude[block], block)
    return denom, GridField(axes, out, rep="frequency")


def _piece_factors(axes, prm):
    """The per-axis factors of each piece of a superposition."""
    return [_bump_factors(axes, piece, piece["coef_re"] + 1j * piece["coef_im"])
            for piece in prm["pieces"]]


def _witness_lp_norm(spec, axes, p, work):
    """||f||_p of a witness of ``DEFERRED_FAMILIES``, from its space values
    built over the whole grid in both buffers of ``work``: a superposition
    as the sum of its pieces' outer products, an annulus-Knapp witness as
    the inverse DFT of its window."""
    out, mags = work.spectrum, work.magnitude.reshape(-1)
    prm = spec["params"]
    if spec["family"] == "random_superposition":
        out[...] = 0.0
        for factors in _piece_factors(axes, prm):
            _add_outer(factors, out)
    else:
        out[...] = _knapp_window(axes, prm, _knapp_sector(axes, prm),
                                 work.magnitude)
        np.fft.ifftn(out, out=out)
    return _lp_norm(np.abs(out.reshape(-1), out=mags), work.cell_volume, p)


# relative slack of the Parseval lower bound of ||f||_p; it covers the
# rounding of the two sums and of the inverse DFT behind the exact norm
_PARSEVAL_SLACK = 1e-6


def _parseval_floor(spec, axes, p, work):
    """A lower bound of ||f||_p, p <= 2, from the spectrum F over the whole
    grid of N cells of volume v, or None when it leaves the float range.

    As |f|^p >= |f|^2 / ||f||_inf^(2 - p), with ||f||_2^2 = v sum |F|^2 / N
    (Parseval) and ||f||_inf <= sum |F| / N,

        ||f||_p >= m (v (sum |F|^2 / N) / m^2)^(1/p),   m = sum |F| / N,

    lowered by ``_PARSEVAL_SLACK``.  F is left in the complex buffer, in
    the workspace's blocks at least: a superposition is summed there over
    the whole grid, and its sum |F|^2 is a ``np.dot`` of the buffer's
    floats with themselves; an annulus-Knapp window is built in the float
    buffer, where both sums are read without a temporary, and copied in.
    """
    out, mags = work.spectrum, work.magnitude
    prm = spec["params"]
    if spec["family"] == "random_superposition":
        out[...] = 0.0
        for factors in _piece_factors(axes, prm):
            _add_outer([np.fft.fft(g) for g in factors], out)
        flat = out.reshape(-1).view(np.float64)
        square = float(np.dot(flat, flat))
        total = float(np.sum(np.abs(out, out=mags)))
    else:
        window = _knapp_window(axes, prm, _knapp_sector(axes, prm), mags)
        flat = window.reshape(-1)
        square = float(np.dot(flat, flat))
        total = float(np.sum(flat))
        for block in work.blocks:
            out[block] = window[block]
    if total == 0.0:
        return 0.0
    n = mags.size
    mean = total / n
    try:
        bound = mean * (work.cell_volume * (square / n) / (mean * mean)) \
            ** (1.0 / p) * (1.0 - _PARSEVAL_SLACK)
    except (OverflowError, ZeroDivisionError):
        return None
    return bound if 0.0 < bound < math.inf else None


def _dilation_bounds(axes):
    # bump width 1/t must stay above 3 cells and below a third of the extent
    tmax = min(1.0 / (3.0 * ax.step) for ax in axes)
    tmin = max(3.0 / ax.extent for ax in axes)
    if tmin >= tmax:
        raise DomainError("grid cannot resolve any admissible bump width")
    return tmin, tmax


class _WitnessStream:
    """Deterministic exploration sequence cycling through ``FAMILIES``,
    with refinements of the best witness, the grid search's proposer.

    It opens with plain dilated bumps eta(t .), at the dilations ``ts``
    (9 geometric steps across the admissible ones when None).
    """

    def __init__(self, axes, rng, ts):
        self.axes = axes
        self.rng = rng
        self.tmin, self.tmax = _dilation_bounds(axes)
        if ts is None:
            ts = np.geomspace(self.tmin, self.tmax, 9)
        self.queue = [{"family": "dilated_bump", "params": {"t": float(t)}}
                      for t in ts]
        self.counter = 0

    def _draw_t(self):
        lo, hi = math.log(self.tmin), math.log(self.tmax)
        return float(math.exp(self.rng.uniform(lo, hi)))

    def _draw_center(self):
        return [float(self.rng.uniform(-0.2, 0.2) * ax.extent)
                for ax in self.axes]

    def _draw_freqs(self):
        return [float(self.rng.uniform(-0.5, 0.5) * np.pi / ax.step)
                for ax in self.axes]

    def propose(self, step, best):
        """A refinement of ``best`` (``_refine``) at each step ``step % 3 ==
        2`` once there is one, else the next witness of the sequence."""
        if best is not None and step % 3 == 2:
            return _refine(best, self.rng, self.tmin, self.tmax)
        return self.queue.pop(0) if self.queue else self._draw()

    def _draw(self):
        family = FAMILIES[self.counter % len(FAMILIES)]
        self.counter += 1
        if family == "dilated_bump":
            return {"family": family,
                    "params": {"t": self._draw_t(),
                               "center": self._draw_center(),
                               "freqs": self._draw_freqs()}}
        if family == "random_superposition":
            pieces = []
            for _ in range(int(self.rng.integers(2, 5))):
                pieces.append({"t": self._draw_t(),
                               "center": self._draw_center(),
                               "freqs": self._draw_freqs(),
                               "coef_re": float(self.rng.standard_normal()),
                               "coef_im": float(self.rng.standard_normal())})
            return {"family": family, "params": {"pieces": pieces}}
        if family == "radial_focus":
            ext = min(ax.extent for ax in self.axes)
            s_lo = 2.0 * max(ax.step for ax in self.axes)
            s_hi = max(ext / 6.0, 2.0 * s_lo)
            return {"family": family,
                    "params": {"a": float(self.rng.uniform(0.0, ext / 4)),
                               "s": float(self.rng.uniform(s_lo, s_hi))}}
        if family == "annulus_knapp":
            ny = min(np.pi / ax.step for ax in self.axes)
            return {"family": family,
                    "params": {"r0": float(self.rng.uniform(0.1 * ny, 0.8 * ny)),
                               "w": float(self.rng.uniform(0.02 * ny, 0.2 * ny)),
                               "sector_angle": float(self.rng.uniform(-np.pi,
                                                                      np.pi)),
                               "sector_width": float(self.rng.uniform(0.1,
                                                                      1.5))}}
        raise DomainError(f"unknown witness family {family!r}")


def _refine(spec, rng, tmin, tmax):
    """One local probe around the current best witness."""
    probe = copy.deepcopy(spec)
    prm = probe["params"]
    if probe["family"] == "dilated_bump":
        prm["t"] = float(np.clip(prm["t"] * math.exp(rng.uniform(-0.25, 0.25)),
                                 tmin, tmax))
    elif probe["family"] == "radial_focus":
        prm["a"] = abs(prm["a"] + rng.uniform(-0.1, 0.1) * prm["s"])
        prm["s"] = abs(prm["s"] * math.exp(rng.uniform(-0.2, 0.2)))
    elif probe["family"] == "annulus_knapp":
        prm["r0"] = abs(prm["r0"] * math.exp(rng.uniform(-0.1, 0.1)))
        prm["w"] = abs(prm["w"] * math.exp(rng.uniform(-0.2, 0.2)))
    elif probe["family"] == "random_superposition":
        for piece in prm["pieces"]:
            piece["coef_re"] += float(rng.normal(scale=0.2))
            piece["coef_im"] += float(rng.normal(scale=0.2))
    return probe


def _search(propose, evaluate, budget, workers, tail):
    """The anytime witness search, as (best ratio, its spec, improvements).

    Step ``step`` proposes the spec ``propose(step, best spec so far)``; a
    spec proposed before (by ``repr``) is skipped, though it consumes its
    step.  ``evaluate(worker, spec, beat)`` gives (||f||_p, ||T f||), the
    second None when f vanishes or the ratio cannot exceed ``beat > 0``,
    and both None when a lower bound of ||f||_p showed the latter.
    A ratio strictly above the best becomes the best, recorded as (step,
    ratio) in ``improvements``.  After the last step the specs of
    ``tail()`` are scored as steps ``budget, budget + 1, ...``.
    The steps form rounds, each ending before a step ``step % 3 == 2``, so
    that a proposer may refine there the best of every step before it; the
    tail is a round of its own.  With ``workers > 1`` the witnesses of a
    round are evaluated at once on the worker map against the best ratio
    before the round, and scored in step order: as a rejected ratio cannot
    beat ``beat``, the result is the serial loop's, bit for bit.
    """
    if budget < 1:
        raise DomainError("budget must be at least 1")
    best_ratio, best_spec, improvements, seen = 0.0, None, [], set()
    starts = [0, *range(2, budget, 3), budget]
    for start, end in zip(starts, starts[1:] + [None]):
        specs = enumerate(tail(), start=budget) if end is None else \
            ((step, propose(step, best_spec)) for step in range(start, end))
        entries = []
        for step, spec in specs:
            key = repr(spec)
            if key not in seen:
                seen.add(key)
                entries.append((step, spec))
        found = util._ordered_map(
            lambda worker, entry: evaluate(worker, entry[1], best_ratio),
            entries, workers) if workers > 1 and len(entries) > 1 else None
        for i, (step, spec) in enumerate(entries):
            denom, num = found[i] if found else evaluate(0, spec, best_ratio)
            if denom == 0.0 or num is None:
                continue
            ratio = num / denom
            if ratio > best_ratio:
                best_ratio, best_spec = ratio, spec
                improvements.append((step, float(ratio)))
    return float(best_ratio), best_spec, improvements


def estimate_lower(operator, axes, p, nu, budget=48, seed=0, swept=None):
    """Best witness ratio ||T f||_{p,nu} / ||f||_p over ``budget`` steps
    of ``_search``, proposed by ``_WitnessStream``.

    ``operator`` is a multiplier field (a GridField in frequency form),
    applied through each witness's spectrum, or any map GridField ->
    GridField, linear on the grid, called on the witness in space.  Either
    way every witness comes from its one definition in ``witness_input``.
    ``swept`` lists ``(t, (||f||_p, ||T f||_{p,nu}))`` for dilated bumps
    f = eta(t .) already evaluated: the search opens with them instead of
    its default dilations and takes their norms, and those the budget does
    not reach are its tail.  Each worker thread evaluates in a workspace
    of its own (``_Workspace.team``, ``util._worker_count``).
    """
    LorentzParams(p, nu)   # checked before any witness norm divides by p
    work = _Workspace.of(operator, axes)
    team = work.team(util._worker_count(work.magnitude.size,
                                        WORKSPACE_CELL_BYTES)) \
        if work else [operator]
    rng = np.random.default_rng(seed)
    stream = _WitnessStream(axes, rng, None if swept is None
                            else [t for t, _ in swept])
    known = {repr(spec): norms
             for spec, (_, norms) in zip(stream.queue, swept or ())}

    def evaluate(worker, spec, beat):
        return known.get(repr(spec)) or _witness_norms(team[worker], spec,
                                                       axes, p, nu, beat)

    best, spec, improvements = _search(stream.propose, evaluate, budget,
                                       len(team),
                                       lambda: stream.queue if known else [])
    return OpNormEstimate(best, spec, p, nu, budget, seed, improvements)


def evaluate_witness(operator, spec, axes, p, nu):
    """Recompute the ratio of a recorded witness (reproducibility check)."""
    denom, num = _witness_norms(operator, spec, axes, p, nu)
    if denom == 0.0:
        raise DomainError("the witness has zero norm")
    return num / denom


def scaling_sweep_experiment(m0, axes, p, nu, budget, seed=0):
    """Two routes to the operator size of a radial multiplier.

    Route one (reference family): sup over dilations t of
    t^{d/p} ||T[eta(t .)]||_{p,nu}, over ``SWEEP_DILATIONS`` geometric
    steps across the dilations whose bump the grid resolves.  Route two:
    the general witness search.  Because the dilated family is part of the
    search, the sup satisfies the exact containment

        RHS <= (best ratio) * sup_t t^{d/p} ||eta(t .)||_p,

    which is asserted here and reported.  ``m0`` is a multiplier field.
    """
    LorentzParams(p, nu)   # checked before any witness norm divides by p
    d = len(axes)
    t_used = np.geomspace(*_dilation_bounds(axes), SWEEP_DILATIONS).tolist()

    work = _Workspace(axes, m0)   # shared by the dilations and the search
    # the dilations form one round
    specs = [{"family": "dilated_bump", "params": {"t": t}} for t in t_used]
    team = work.team(util._worker_count(work.magnitude.size,
                                        WORKSPACE_CELL_BYTES))
    norms = util._ordered_map(
        lambda worker, spec: _witness_norms(team[worker], spec, axes, p, nu,
                                            0.0),
        specs, len(team))
    rhs_per_t, scale_per_t = {}, {}
    for t, (denom, num) in zip(t_used, norms):
        weight = _float_power(t, d / p, p)
        rhs_per_t[t] = weight * num
        scale_per_t[t] = weight * denom
    rhs = max(rhs_per_t.values())
    scale_sup = max(scale_per_t.values())

    est = estimate_lower(work, axes, p, nu, budget=budget, seed=seed,
                         swept=list(zip(t_used, norms)))
    contained = rhs <= est.lower_bound * scale_sup * (1.0 + 1e-12)
    return {
        "p": p, "nu": nu, "dim": d,
        "rhs_sup": rhs,
        "rhs_per_t": rhs_per_t,
        "lower_bound": est.lower_bound,
        "witness": est.witness,
        "scale_sup": scale_sup,
        "containment_ok": bool(contained),
        "ratio_band": est.lower_bound * scale_sup / rhs if rhs > 0 else
        float("inf"),
        "t_excluded": [],   # every dilation of the scan is resolved
        "seed": seed,
        "improvements": est.improvements,
    }
