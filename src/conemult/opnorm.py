"""Lower-bound estimation of operator quasi-norms on grid operators.

Only lower bounds are claimed: the estimate is the best Rayleigh-type ratio
||Tf||_{p,nu} / ||f||_p over an explicitly recorded witness family, so it is
valid by construction.  The search is an anytime loop (two exploration steps,
one refinement step, repeating), which makes the estimate nondecreasing in
the step budget for a fixed seed.
"""

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .lorentz import (LorentzParams, WeightedSampleSet, lorentz_quasinorm,
                      rounded_up)
from .multipliers import (ConeMultiplierField, GridField, field_symbol,
                          freq_magnitude)

FAMILIES = ("dilated_bump", "random_superposition", "radial_focus",
            "annulus_knapp")
# dilations of the default scan grid of scaling_sweep_experiment
SWEEP_DILATIONS = 13


def _lp_norm(mags, cell_volume, p):
    """||f||_p from the raveled |f| ``mags``, which it overwrites."""
    if not np.any(mags > 0):
        return 0.0
    peak = mags.max()
    mags /= peak
    mags **= p
    return float(np.sum(mags) * cell_volume) ** (1.0 / p) * peak


def _grid_samples(mags, cell_volume):
    """The raveled |f| ``mags`` with cell-volume weights, or None when f
    vanishes; the sample set takes ``mags`` over."""
    if not np.any(mags > 0):
        return None
    return WeightedSampleSet.of_magnitudes(mags, cell_volume)


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

    It holds the symbol, its support box (per axis, the index runs in FFT
    order outside which the symbol vanishes on each whole hyperplane), one
    complex grid buffer for the witness's spectrum and T f, and one float64
    grid buffer for |f| and |T f|.  The majorant's int64 bin keys go into
    the complex buffer, which is free once |T f| is taken.  Without a
    multiplier it holds the buffers alone: ``witness_input`` builds one
    such per witness for an operator given as a function, and drops it
    with that witness.
    """

    def __init__(self, axes, multiplier=None):
        shape = tuple(ax.resolution for ax in axes)
        if multiplier is not None:
            self.sym = field_symbol(multiplier, axes)
            self.box = _support_box(self.sym)
        self.cell_volume = float(np.prod([ax.step for ax in axes]))
        self.spectrum = np.empty(shape, dtype=complex)
        self.magnitude = np.empty(shape)
        self.keys = self.spectrum.reshape(-1).view(np.int64)[:math.prod(shape)]

    @classmethod
    def of(cls, operator, axes):
        """The workspace of a multiplier field, None for any other operator."""
        if isinstance(operator, cls):
            return operator
        if isinstance(operator, (GridField, ConeMultiplierField)):
            return cls(axes, operator)
        return None

    def apply(self, f):
        """|T f| as grid samples (None when T f vanishes); f's values are
        the complex buffer, a spectrum or, for a space field, the witness."""
        out = f.values
        if f.rep == "space":
            np.fft.fftn(out, out=out)
        # sym first: numpy's complex product is not bitwise commutative
        np.multiply(self.sym, out, out=out)
        _inverse_in_place(out, self.box)
        mags = np.abs(out, out=self.magnitude).reshape(-1)
        return _grid_samples(mags, self.cell_volume)


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


def _inverse_in_place(values, box):
    """``np.fft.ifftn(values, out=values)``, bit for bit, on fewer lines.

    The values vanish outside the support ``box``.  Axes are transformed
    in numpy's order, last first; on each axis only the lines inside the
    box of the axes not yet transformed can be nonzero, so only those are
    transformed.  A line transforms alone, so the result is that of the
    full transform (up to the sign of zeros).
    """
    if not all(box):
        return   # the values vanish everywhere
    for k in reversed(range(values.ndim)):
        for block in itertools.product(*box[:k]):
            lines = values[block]
            np.fft.ifft(lines, axis=k, out=lines)


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


def _space_radius_sq(axes):
    coords = np.meshgrid(*[ax.space_coords() for ax in axes],
                         indexing="ij", sparse=True)
    return sum(c ** 2 for c in coords)


def _outer(factors, out=None):
    """The full-grid outer product of per-axis factors (into ``out``)."""
    grids = np.meshgrid(*factors, indexing="ij", sparse=True)
    if out is None:
        return functools.reduce(np.multiply, grids)
    if len(grids) == 1:
        out[...] = grids[0]
        return out
    return np.multiply(functools.reduce(np.multiply, grids[:-1]), grids[-1],
                       out=out)


def _knapp_window(axes, prm):
    """Spectrum of an ``annulus_knapp`` witness (FFT order)."""
    xi_mag = freq_magnitude(axes)
    window = np.exp(-0.5 * ((xi_mag - prm["r0"]) / prm["w"]) ** 2)
    if prm.get("sector_width") and len(axes) >= 2:
        coords = np.meshgrid(*[ax.freq_coords() for ax in axes],
                             indexing="ij", sparse=True)
        angle = np.arctan2(coords[1], coords[0] + 1e-300)
        delta = np.angle(np.exp(1j * (angle - prm["sector_angle"])))
        window = window * np.exp(-0.5 * (delta / prm["sector_width"]) ** 2)
    return window.astype(complex)


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
            out += _outer(factors)
        denom = _lp_norm(np.abs(out.reshape(-1), out=mags), vol, p)
        out[...] = 0.0
        for factors in pieces:
            out += _outer([np.fft.fft(g) for g in factors])
        return denom, GridField(axes, out, rep="frequency")
    if family == "annulus_knapp":
        window = _knapp_window(axes, prm)
        out[...] = window
        space = np.fft.ifftn(window, out=window)
        denom = _lp_norm(np.abs(space.reshape(-1), out=mags), vol, p)
        return denom, GridField(axes, out, rep="frequency")
    if family == "radial_focus":
        # exp(-((|x| - a) / s)^2 / 2), step by step in place
        rad = np.sqrt(_space_radius_sq(axes), out=work.magnitude)
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
    """Deterministic exploration sequence cycling through the families.

    It opens with plain dilated bumps; each step yields ``(spec, norms)``,
    where ``norms`` is None unless the opening dilation was passed in
    ``swept`` together with its already computed norms.
    """

    def __init__(self, axes, families, rng, swept=None):
        self.axes = axes
        self.families = list(families)
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
        family = self.families[self.counter % len(self.families)]
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


def estimate_lower(operator, axes, p, nu, families=FAMILIES, budget=48,
                   seed=0, swept=None):
    """Best witness ratio ||T f||_{p,nu} / ||f||_p within a budget of steps.

    ``operator`` is a multiplier field (a GridField in frequency form or a
    ConeMultiplierField), applied through each witness's spectrum, or any
    map GridField -> GridField, linear on the grid, called on the witness
    in space.  Either way every witness comes from its one definition in
    ``witness_input``.
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
    """
    if budget < 1:
        raise DomainError("budget must be at least 1")
    LorentzParams(p, nu)   # checked before any witness norm divides by p
    operator = _Workspace.of(operator, axes) or operator
    rng = np.random.default_rng(seed)
    stream = _WitnessStream(axes, families, rng, swept)
    best_ratio = 0.0
    best_spec = None
    improvements = []
    seen = set()

    def score(step, spec, norms):
        nonlocal best_ratio, best_spec
        key = repr(spec)
        if key in seen:
            return
        seen.add(key)
        denom, num = norms or _witness_norms(operator, spec, axes, p, nu,
                                             best_ratio)
        if denom == 0.0 or num is None:
            return
        ratio = num / denom
        if ratio > best_ratio:
            best_ratio = ratio
            best_spec = spec
            improvements.append((step, float(ratio)))

    for step in range(budget):
        if best_spec is not None and step % 3 == 2:
            score(step, _refine(best_spec, rng, stream.tmin, stream.tmax),
                  None)
        else:
            score(step, *next(stream))
    leftover = [(spec, norms) for spec, norms in stream.queue if norms]
    for step, (spec, norms) in enumerate(leftover, start=budget):
        score(step, spec, norms)
    return OpNormEstimate(float(best_ratio), best_spec, p, nu, budget, seed,
                          improvements)


def evaluate_witness(operator, spec, axes, p, nu):
    """Recompute the ratio of a recorded witness (reproducibility check)."""
    denom, num = _witness_norms(operator, spec, axes, p, nu)
    if denom == 0.0:
        raise DomainError("the witness has zero norm")
    return num / denom


def scaling_sweep_experiment(m0, axes, p, nu, t_grid=None, budget=64, seed=0):
    """Two routes to the operator size of a radial multiplier.

    Route one (reference family): sup over dilations t of
    t^{d/p} ||T[eta(t .)]||_{p,nu}.  Route two: the general witness search.
    Because the dilated family is part of the search, the sup satisfies the
    exact containment

        RHS <= (best ratio) * sup_t t^{d/p} ||eta(t .)||_p,

    which is asserted here and reported.  Dilations whose bump the grid
    cannot resolve are excluded and flagged.  ``m0`` is a multiplier field
    or a radial symbol callable, which is evaluated once on the grid.
    """
    LorentzParams(p, nu)   # checked before any witness norm divides by p
    d = len(axes)
    tmin, tmax = _dilation_bounds(axes)
    if t_grid is None:
        t_grid = np.geomspace(tmin, tmax, SWEEP_DILATIONS)
    t_used, t_excluded = [], []
    for t in np.asarray(t_grid, dtype=float):
        (t_used if tmin <= t <= tmax else t_excluded).append(float(t))
    if not t_used:
        raise DomainError("no admissible dilation in the grid")

    if not isinstance(m0, (GridField, ConeMultiplierField)):
        m0 = GridField(axes, m0(freq_magnitude(axes)), rep="frequency")
    work = _Workspace(axes, m0)   # shared by the dilations and the search
    rhs_per_t, scale_per_t, swept = {}, {}, []
    for t in t_used:
        spec = {"family": "dilated_bump", "params": {"t": t}}
        denom, num = _witness_norms(work, spec, axes, p, nu)
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
        "t_excluded": t_excluded,
        "seed": seed,
        "improvements": est.improvements,
    }
