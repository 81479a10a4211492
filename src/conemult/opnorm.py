"""Lower-bound estimation of operator quasi-norms on grid operators.

Only lower bounds are claimed: the estimate is the best Rayleigh-type ratio
||Tf||_{p,nu} / ||f||_p over an explicitly recorded witness family, so it is
valid by construction.  The search is an anytime loop (two exploration steps,
one refinement step, repeating), which makes the estimate nondecreasing in
the step budget for a fixed seed.
"""

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import util
from .errors import DomainError
from .lorentz import (LorentzParams, WeightedSampleSet, lorentz_quasinorm,
                      rounded_up)
from .multipliers import (GridField, _apply_in_place, _support_box,
                          field_symbol)

FAMILIES = ("dilated_bump", "random_superposition", "radial_focus",
            "annulus_knapp")
# dilations of the default scan grid of scaling_sweep_experiment
SWEEP_DILATIONS = 13
# bytes per grid cell of a workspace's buffers (one complex, one float64)
WORKSPACE_CELL_BYTES = 24


def _lp_norm(mags, cell_volume, p):
    """||f||_p from the raveled |f| ``mags``, which it overwrites."""
    if not np.any(mags > 0):
        return 0.0
    peak = mags.max()
    mags /= peak
    mags **= p
    return float(np.sum(mags) * cell_volume) ** (1.0 / p) * peak


def _grid_samples(mags, cell_volume, scratch=None):
    """The raveled |f| ``mags`` with cell-volume weights, or None when f
    vanishes; the sample set takes ``mags`` over (and ``scratch``, as
    ``WeightedSampleSet.of_magnitudes`` does)."""
    if not np.any(mags > 0):
        return None
    return WeightedSampleSet.of_magnitudes(mags, cell_volume, scratch)


# relative slack of the majorant test; it covers the rounding of the cumsum
# and the powers in the two quasi-norms it compares
_MAJORANT_SLACK = 1e-9


def _witness_norms(operator, spec, axes, p, nu, beat=0.0):
    """(||f||_p, ||T f||_{p,nu}) for the witness f of ``spec``.

    ||f||_p and f's form F come from ``witness_input``, f's one definition.
    A multiplier field T, or the ``_Workspace`` of one, is applied to F in
    the workspace's memory; any other operator is called on f in space:
    F itself for a radial focus, F's inverse DFT for every other family.
    T is not applied when ||f||_p vanishes; the second entry is then None.
    It is None as well when the ratio cannot exceed ``beat > 0``: the norm
    of the rounded-up majorant of |T f| (``lorentz.rounded_up``) bounds
    ||T f||_{p,nu} from above and is checked before the exact rearrangement.
    """
    work = _Workspace.of(operator, axes)
    denom, f = witness_input(spec, axes, p, work)
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
        return denom, 0.0
    params = LorentzParams(p, nu)
    if beat > 0.0 and lorentz_quasinorm(rounded_up(samples, keys), params) \
            <= beat * denom * (1.0 - _MAJORANT_SLACK):
        return denom, None
    return denom, lorentz_quasinorm(samples, params)


class _Workspace:
    """The memory every witness of one search through a multiplier reuses.

    It holds the symbol, its support box (``multipliers._support_box``), one
    complex grid buffer for the witness's spectrum and T f, and one float64
    grid buffer for |f| and |T f|.  The majorant's int64 bin keys go into
    the complex buffer, which is free once |T f| is taken, and after them
    the terms of a finite-nu exact norm.  Without a multiplier it holds
    the buffers alone: ``witness_input`` builds one such per witness for
    an operator given as a function, and drops it with that witness.  Its
    siblings (``team``) share the symbol and the box and have buffers of
    their own, one workspace per worker thread.
    """

    def __init__(self, axes, multiplier=None):
        if multiplier is not None:
            self.sym = field_symbol(multiplier, axes)
            self.box = _support_box(self.sym)
        self.cell_volume = float(np.prod([ax.step for ax in axes]))
        self._allocate(tuple(ax.resolution for ax in axes))
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
        the complex buffer, a spectrum or, for a space field, the witness."""
        out = _apply_in_place(f.values, f.rep, self.sym, self.box)
        mags = np.abs(out, out=self.magnitude).reshape(-1)
        # the keys' memory, spent once the majorant is taken, is the
        # scratch of the exact norm
        return _grid_samples(mags, self.cell_volume,
                             self.keys.view(np.float64))


def _worker_count(cells):
    """Witness evaluations a search runs at once on a grid of ``cells``:
    the rule of ``util._worker_count``, one workspace per extra worker."""
    return util._worker_count(cells, WORKSPACE_CELL_BYTES)


def _parallel_norms(team, specs, axes, p, nu, beat):
    """``_witness_norms`` of each spec, in order, on ``util._ordered_map``:
    each worker evaluates its witnesses in its own workspace of ``team``."""
    return util._ordered_map(
        lambda worker, spec: _witness_norms(team[worker], spec, axes, p, nu,
                                            beat),
        specs, len(team))


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


def _radius_sq(coords, out):
    """sum(c ** 2 for c in coords) of sparse per-axis ``coords``, into ``out``.

    The squares are added in the same order, and all but the last summed
    on the sparse grid of the axes before it, so the only full-grid array
    is ``out``.
    """
    squares = [c ** 2 for c in coords]
    if len(squares) == 1:
        out[...] = squares[0]
        return out
    return np.add(functools.reduce(np.add, squares[:-1]), squares[-1],
                  out=out)


def _sparse_coords(axes, rep):
    return np.meshgrid(*[ax.space_coords() if rep == "space" else
                         ax.freq_coords() for ax in axes],
                       indexing="ij", sparse=True)


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
    coords = _sparse_coords(axes, "frequency")
    angle = np.arctan2(coords[1], coords[0] + 1e-300)
    delta = np.angle(np.exp(1j * (angle - prm["sector_angle"])))
    return np.exp(-0.5 * (delta / prm["sector_width"]) ** 2)


def _knapp_window(axes, prm, sector, out):
    """Spectrum of an ``annulus_knapp`` witness (FFT order), into the float
    grid ``out``: exp(-((|xi| - r0) / w)^2 / 2), times its ``sector``
    factor (``_knapp_sector``), built in place."""
    window = np.sqrt(_radius_sq(_sparse_coords(axes, "frequency"), out),
                     out=out)
    window -= prm["r0"]
    window /= prm["w"]
    window **= 2
    window *= -0.5
    np.exp(window, out=window)
    if sector is not None:
        window *= sector
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
    return (total * cell_volume) ** (1.0 / p) * math.prod(peaks)


def witness_input(spec, axes, p, work=None):
    """(||f||_p, F) for the witness f of ``spec``: each family's one definition.

    F is f's forward DFT, in frequency form, where that is cheaper than f:
    a dilated bump and each piece of a superposition are outer products of
    per-axis factors, and an annulus-Knapp witness is defined by its
    spectrum.  A radial focus is built in space.  The norm of a single
    bump is taken from per-axis sums, so no full-grid space values are
    built for it.  F's values are the complex buffer of ``work`` (a
    ``_Workspace``, or new arrays when None), whose float buffer holds the
    |f| a norm is taken of.  An operator that is not a multiplier field
    receives f in space, F's inverse DFT (``_witness_norms``).
    """
    work = work or _Workspace(axes)
    out, mags = work.spectrum, work.magnitude.reshape(-1)
    family = spec["family"]
    prm = spec["params"]
    if family == "dilated_bump":
        factors = _bump_factors(axes, prm)
        _outer([np.fft.fft(g) for g in factors], out)
        denom = _separable_lp_norm(factors, math.prod(ax.step for ax in axes),
                                   p)
        return denom, GridField(axes, out, rep="frequency")
    vol = work.cell_volume
    if family == "random_superposition":
        pieces = [_bump_factors(axes, piece, piece["coef_re"]
                                + 1j * piece["coef_im"])
                  for piece in prm["pieces"]]
        out[...] = 0.0
        for factors in pieces:
            _add_outer(factors, out)
        denom = _lp_norm(np.abs(out.reshape(-1), out=mags), vol, p)
        out[...] = 0.0
        for factors in pieces:
            _add_outer([np.fft.fft(g) for g in factors], out)
        return denom, GridField(axes, out, rep="frequency")
    if family == "annulus_knapp":
        # the window is built twice in the float buffer, once for the
        # inverse DFT whose norm is ||f||_p and once as F: the buffers hold
        # two grids of F's size, and the norm needs three
        sector = _knapp_sector(axes, prm)
        out[...] = _knapp_window(axes, prm, sector, work.magnitude)
        np.fft.ifftn(out, out=out)
        denom = _lp_norm(np.abs(out.reshape(-1), out=mags), vol, p)
        out[...] = _knapp_window(axes, prm, sector, work.magnitude)
        return denom, GridField(axes, out, rep="frequency")
    if family == "radial_focus":
        # exp(-((|x| - a) / s)^2 / 2), step by step in place
        rad = np.sqrt(_radius_sq(_sparse_coords(axes, "space"),
                                 work.magnitude), out=work.magnitude)
        rad -= prm["a"]
        rad /= prm["s"]
        rad **= 2
        rad *= -0.5
        np.exp(rad, out=rad)
        out[...] = rad
        return _lp_norm(mags, vol, p), GridField(axes, out)
    raise DomainError(f"unknown witness family {spec['family']!r}")


def _dilation_bounds(axes):
    # bump width 1/t must stay above 3 cells and below a third of the extent
    tmax = min(1.0 / (3.0 * ax.step) for ax in axes)
    tmin = max(3.0 / ax.extent for ax in axes)
    if tmin >= tmax:
        raise DomainError("grid cannot resolve any admissible bump width")
    return tmin, tmax


class _WitnessStream:
    """Deterministic exploration sequence cycling through ``FAMILIES``.

    It opens with plain dilated bumps; each step yields ``(spec, norms)``,
    where ``norms`` is None unless the opening dilation was passed in
    ``swept`` together with its already computed norms.
    """

    def __init__(self, axes, rng, swept=None):
        self.axes = axes
        self.rng = rng
        self.tmin, self.tmax = _dilation_bounds(axes)
        if swept is None:
            swept = [(t, None) for t in np.geomspace(self.tmin, self.tmax, 9)]
        self.queue = [({"family": "dilated_bump", "params": {"t": float(t)}},
                       norms) for t, norms in swept]
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

    def __next__(self):
        if self.queue:
            return self.queue.pop(0)
        return self._draw(), None

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


def estimate_lower(operator, axes, p, nu, budget=48, seed=0, swept=None):
    """Best witness ratio ||T f||_{p,nu} / ||f||_p within a budget of steps.

    ``operator`` is a multiplier field (a GridField in frequency form),
    applied through each witness's spectrum, or any map GridField ->
    GridField, linear on the grid, called on the witness in space.  Either
    way every witness comes from its one definition in ``witness_input``.
    Each step proposes one witness.  A witness whose norm vanishes, or
    that was proposed before, is skipped without an operator call; one
    whose rounded-up majorant shows that its ratio cannot beat the best so
    far is skipped after T f, without the exact Lorentz norm.  Skipped
    witnesses still consume budget.
    ``swept`` lists ``(t, (||f||_p, ||T f||_{p,nu}))`` for dilated bumps
    f = eta(t .) already evaluated: the search opens with them instead of
    its default dilations, and their steps reuse the recorded norms.  Those
    the budget does not reach are scored after the last step, as steps
    ``budget, budget + 1, ...``, at no operator call.
    The steps form rounds, each ending before a refinement step.  Through
    a multiplier field on a grid of at least ``util.PARALLEL_MIN_POINTS``
    cells (``_worker_count``), the witnesses of a round are evaluated at
    once, each worker thread in its own workspace, against the best ratio
    before the round, and scored in step order: as the majorant test is sound,
    the result is the serial loop's, bit for bit, at any worker count.
    """
    if budget < 1:
        raise DomainError("budget must be at least 1")
    LorentzParams(p, nu)   # checked before any witness norm divides by p
    work = _Workspace.of(operator, axes)
    team = work.team(_worker_count(work.magnitude.size)) if work else \
        [operator]
    rng = np.random.default_rng(seed)
    stream = _WitnessStream(axes, rng, swept)
    best_ratio = 0.0
    best_spec = None
    improvements = []
    seen = set()

    def score(step, spec, norms):
        nonlocal best_ratio, best_spec
        denom, num = norms or _witness_norms(team[0], spec, axes, p, nu,
                                             best_ratio)
        if denom == 0.0 or num is None:
            return
        ratio = num / denom
        if ratio > best_ratio:
            best_ratio = ratio
            best_spec = spec
            improvements.append((step, float(ratio)))

    def score_round(entries):
        # the witnesses of a round are evaluated at once against the best
        # ratio before it; a witness that ratio rejects cannot beat the
        # later best, and one it lets through gets its exact norm
        todo = [i for i, (_, _, norms) in enumerate(entries) if norms is None]
        if len(team) > 1 and len(todo) > 1:
            found = _parallel_norms(team, [entries[i][1] for i in todo],
                                    axes, p, nu, best_ratio)
            for i, norms in zip(todo, found):
                entries[i] = entries[i][:2] + (norms,)
        for entry in entries:
            score(*entry)

    def fresh(spec):
        key = repr(spec)
        if key in seen:
            return False
        seen.add(key)
        return True

    # a round ends before each refinement step (step % 3 == 2), which needs
    # the best witness of every step before it
    starts = [0, *range(2, budget, 3)]
    for start, end in zip(starts, starts[1:] + [budget]):
        entries = []
        for step in range(start, end):
            if best_spec is not None and step % 3 == 2:
                spec, norms = _refine(best_spec, rng, stream.tmin,
                                      stream.tmax), None
            else:
                spec, norms = next(stream)
            if fresh(spec):
                entries.append((step, spec, norms))
        score_round(entries)
    leftover = [(spec, norms) for spec, norms in stream.queue if norms]
    score_round([(step, spec, norms) for step, (spec, norms)
                 in enumerate(leftover, start=budget) if fresh(spec)])
    return OpNormEstimate(float(best_ratio), best_spec, p, nu, budget, seed,
                          improvements)


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
    norms = _parallel_norms(work.team(_worker_count(work.magnitude.size)),
                            specs, axes, p, nu, 0.0)
    rhs_per_t, scale_per_t, swept = {}, {}, []
    for t, (denom, num) in zip(t_used, norms):
        swept.append((t, (denom, num)))
        rhs_per_t[t] = t ** (d / p) * num
        scale_per_t[t] = t ** (d / p) * denom
    rhs = max(rhs_per_t.values())
    scale_sup = max(scale_per_t.values())

    est = estimate_lower(work, axes, p, nu, budget=budget, seed=seed,
                         swept=swept)
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
