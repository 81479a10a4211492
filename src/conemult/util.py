"""Small numerical helpers: splines, panel quadrature, log-log fits, trends,
and the one worker map that loops of independent items run on."""

import os
import threading

import numpy as np

from .errors import BudgetError, DomainError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# per-doubling growth that flags a divergent trend
GROWTH_THRESHOLD = 1.10
# a loop runs its items serially below this many points (grid cells, line
# samples) per item, where an item costs too little to pay for a thread:
# with two workers on two CPUs an opnorm search took 2.7x (64^2) and 1.2x
# (32^3) its serial time, 0.72x at 256^2 and 0.64x at 64^3
PARALLEL_MIN_POINTS = 2 ** 16
# cap on the bytes the extra workers of a loop hold at once
EXTRA_WORKER_BYTES = 64 * 2 ** 20
# bytes per point a worker of a loop of 1-d line transforms holds at its
# peak: its radial.LineBuffers (32), then an item's |g_hat| and its sort
# (tracemalloc read 53 for br-scan's orders at 2^17 points, 42 for
# characterize's dilates at 2^16)
LINE_POINT_BYTES = 56


def geometric_grid(lo, hi, points_per_octave):
    """Log-spaced grid covering [lo, hi] with a fixed dyadic density."""
    if not (0 < lo < hi):
        raise DomainError(f"geometric grid needs 0 < lo < hi, got [{lo}, {hi}]")
    n = int(np.ceil(np.log2(hi / lo) * points_per_octave)) + 1
    return lo * 2.0 ** (np.arange(n) / points_per_octave)


def panel_nodes(a, b, freq, nodes_per_period=16, max_panels=2_000_000):
    """Gauss-Legendre panel nodes and weights on [a, b] for an oscillatory integrand.

    ``freq`` is the largest angular frequency present; panels are sized so the
    16-node rule sees at least ``nodes_per_period`` nodes per oscillation
    period, and no panel is longer than a quarter of the interval.
    """
    span = float(b - a)
    if span <= 0:
        raise DomainError(f"empty integration range [{a}, {b}]")
    period = 2.0 * np.pi / freq if freq > 0 else span
    panel_len = min(period * 16.0 / nodes_per_period, span / 4.0)
    npanels = int(np.ceil(span / panel_len))
    if npanels > max_panels:
        raise BudgetError(
            f"{npanels} quadrature panels exceed the budget of {max_panels}")
    edges = np.linspace(a, b, npanels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    r = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return r, w


class CubicSpline1D:
    """Natural cubic spline through (x, y); evaluates to 0 outside [x0, xn].

    Plain tridiagonal construction, complex y supported.  The out-of-range
    clamp is deliberate: sampled profiles are treated as compactly supported.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        if x.ndim != 1 or len(x) < 2:
            raise DomainError("spline needs at least two sample points")
        if np.any(np.diff(x) <= 0):
            raise DomainError("spline abscissae must be strictly increasing")
        self.x = x
        self.y = y
        self.m = self._second_derivatives(x, y)

    @staticmethod
    def _second_derivatives(x, y):
        # natural boundary: m[0] = m[-1] = 0, Thomas sweep on the interior rows
        n = len(x)
        dtype = complex if np.iscomplexobj(y) else float
        m = np.zeros(n, dtype=dtype)
        if n == 2:
            return m
        h = np.diff(x)
        diag = 2.0 * (h[:-1] + h[1:]).astype(float).copy()
        rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
        rhs = rhs.astype(dtype)
        k = n - 2
        for i in range(1, k):
            w = h[i] / diag[i - 1]
            diag[i] -= w * h[i]
            rhs[i] -= w * rhs[i - 1]
        m[k] = rhs[k - 1] / diag[k - 1]
        for i in range(k - 2, -1, -1):
            m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
        return m

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        out = np.zeros(xq.shape, dtype=self.y.dtype)
        inside = (xq >= self.x[0]) & (xq <= self.x[-1])
        if np.any(inside):
            xi = xq[inside]
            idx = np.clip(np.searchsorted(self.x, xi) - 1, 0, len(self.x) - 2)
            x0, x1 = self.x[idx], self.x[idx + 1]
            h = x1 - x0
            t0 = (x1 - xi) / h
            t1 = (xi - x0) / h
            out[inside] = (
                t0 * self.y[idx] + t1 * self.y[idx + 1]
                + ((t0 ** 3 - t0) * self.m[idx] + (t1 ** 3 - t1) * self.m[idx + 1])
                * h ** 2 / 6.0
            )
        return out[0] if scalar else out


def dyadic_envelope_fit(s, values, s_lo, s_hi):
    """Least-squares slope of log2(max |values| per dyadic block) vs log2(s).

    The decay exponent of |values| ~ s**(-e) is -slope.
    """
    s = np.asarray(s, float)
    values = np.abs(np.asarray(values))
    mask = (s >= s_lo) & (s <= s_hi) & (values > 0)
    if not np.any(mask):
        raise DomainError("no usable samples in the requested fit range")
    s, values = s[mask], values[mask]
    j = np.floor(np.log2(s)).astype(int)
    blocks = []
    for jj in range(j.min(), j.max() + 1):
        sel = j == jj
        if np.any(sel):
            k = np.argmax(values[sel])
            # anchor each block's point at the location of its max, so
            # partially covered edge blocks do not tilt the fit
            blocks.append((float(s[sel][k]), float(values[sel][k])))
    if len(blocks) < 3:
        raise DomainError("fewer than three dyadic blocks in the fit range")
    bx = np.log2([b[0] for b in blocks])
    by = np.log2([b[1] for b in blocks])
    slope, _ = np.polyfit(bx, by, 1)
    return float(slope)


def doubling_trend(values_by_scale):
    """Classify growth of a quantity across nested doublings of a truncation.

    ``values_by_scale`` maps truncation -> value, smallest truncation first.
    Flags a divergent trend when the value grows by at least
    ``GROWTH_THRESHOLD`` per doubling across the last three doublings.
    """
    scales = sorted(values_by_scale)
    vals = [values_by_scale[s] for s in scales]
    ratios = []
    for lo, hi in zip(vals[:-1], vals[1:]):
        if lo > 0:
            ratios.append(float(hi / lo))
        else:
            ratios.append(1.0 if hi == 0 else float("inf"))
    divergent = len(ratios) >= 3 and all(r >= GROWTH_THRESHOLD
                                         for r in ratios[-3:])
    return {"scales": scales, "values": vals, "ratios": ratios,
            "divergent": bool(divergent)}


def next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def _worker_count(points, point_bytes):
    """Workers a loop runs at once when each item has ``points`` points.

    One per CPU this process may run on, as far as the memory the extra
    workers hold, ``point_bytes`` per point each, fits in
    ``EXTRA_WORKER_BYTES``; one below ``PARALLEL_MIN_POINTS``.
    """
    if points < PARALLEL_MIN_POINTS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    extra = EXTRA_WORKER_BYTES // (point_bytes * points)
    return max(1, min(cpus, 1 + extra))


def _ordered_map(func, items, workers):
    """``[func(w, item) for item in items]`` on ``workers`` threads.

    ``w`` is the index of the worker making the call, so that each worker
    may keep memory of its own.  The calling thread is worker 0, and one
    thread is started here for each other worker, no more than there are
    items; every worker takes the next item not yet taken until none is
    left, and all are joined before this returns.  The results come in
    item order.  After a failure no item is taken; once every thread has
    stopped, the exception of the first item that failed is raised, which
    is the one the serial loop raises, as every item before it was taken.
    """
    items = list(items)
    results = [None] * len(items)
    pending = iter(range(len(items)))
    lock = threading.Lock()
    failures = []   # (item index, exception)

    def drain(worker):
        while not failures:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = func(worker, items[i])
            except BaseException as exc:   # re-raised by the calling thread
                failures.append((i, exc))

    threads = [threading.Thread(target=drain, args=(w,))
               for w in range(1, min(workers, len(items)))]
    for thread in threads:
        thread.start()
    drain(0)
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
