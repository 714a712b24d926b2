"""Propagation of the first-order system across coefficient jumps.

Coefficient breakpoints split the interval into segments, each a hard
mesh node; the state (y0, y1) passes through them unchanged, which is
exactly the absolute continuity the quasi-derivative buys.  States growing
past 1e100 are renormalized and the exponent ledger travels with them.

``endpoint`` and ``integrate`` walk the segments the same way.  On a
segment where the system matrix A is constant the state is multiplied by
the exact exp(hA) in equal sub-steps; on any other it takes Taylor steps
of order 23 + d from the exact recurrence of the entries of degree d
(classical high-order Taylor method, Corliss & Chang 1982), each as long
as Jorba & Zou's rule (2005) allows.  Both are accurate to rounding at
any lambda, so there is no tolerance to choose.  ``endpoint`` keeps the
end state and log sup|Y| only, and on request dY/dlambda along the same
steps; ``integrate`` also records each sub-step or step as a row of
dense output, the Taylor series of the state on it.
Each system reads its entries' pieces per segment from
``ShinZettlSystem.rows``, built once per field and side.

A trajectory stores its rows as one structured array sorted by position
(fields ``x0``, ``h``, ``coef`` and ``logscale``).  All dense output goes
through ``Trajectory.sample`` (row lookup plus batched Horner).
``_panels`` is the one quadrature: Gauss-Legendre per panel, with as many
nodes as the degrees of the operands need, for ``pair_integral``, over
trajectories and piecewise polynomials alike with the exponent
bookkeeping of the rows, for the quadratic forms and for the nested Gram
windows of the probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .config import MIN_STEP_FRACTION, RESCALE_THRESHOLD
from .coeffs import PiecewisePoly, _dense, _horner
from .errors import OverflowUnrecoverableError, StepUnderflowError
from .quasi import QuasiState, ShinZettlSystem


def _step_dtype(width: int) -> np.dtype:
    """One row of dense output: the state on it is sum_k coef[k] * theta**k
    times exp(logscale), theta = (x - x0)/h, for k < width; coef columns
    are (y0, y1).  h < 0 on backward steps."""
    return np.dtype([("x0", float), ("h", float), ("coef", complex, (width, 2)), ("logscale", float)])


@dataclass
class Trajectory:
    """Dense-output solution of one system over an interval.

    ``steps`` is an array of ``_step_dtype`` rows sorted by position; the
    true solution on a row is its Taylor polynomial times exp(logscale).
    Rescaling never changes the direction of the state vector, only its
    magnitude.
    """

    system: ShinZettlSystem
    a: float
    b: float
    steps: np.ndarray

    @property
    def degree(self) -> int:
        """Degree in theta of the rows (zero-padded to one width)."""
        return self.steps.dtype["coef"].shape[0] - 1

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every step."""
        return _edges(self.steps)

    def _locate(self, xs: np.ndarray, side: str = "right") -> np.ndarray:
        outside = (xs < self.a - 1e-12) | (xs > self.b + 1e-12)
        if np.any(outside):
            raise ValueError(
                f"x={xs[outside][0]} outside trajectory interval [{self.a}, {self.b}]"
            )
        lo, hi = self.edges()
        if side == "right":
            i = np.searchsorted(lo, xs, side="right") - 1
        elif side == "left":
            i = np.searchsorted(hi, xs, side="left")
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return np.clip(i, 0, len(self.steps) - 1)

    def sample(self, xs, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Dense output at an array of x: states (n, 2) and their logscales.

        At a step edge ``side`` picks the step on that side of x.
        """
        xs = np.asarray(xs, dtype=float)
        rows = self.steps[self._locate(xs, side)]
        theta = (xs - rows["x0"]) / rows["h"]
        return _dense(rows["coef"], theta[:, None]), rows["logscale"]

    def state_at(self, x: float) -> QuasiState:
        y, ls = self.sample([x])
        return QuasiState(x, complex(y[0, 0]), complex(y[0, 1]), self.system.side, float(ls[0]))

    def log_sup(self) -> float:
        """log of sup |Y| over the trajectory (sampled at step ends and midpoints)."""
        s = self.steps
        xs = (s["x0"][:, None] + np.array([0.0, 0.5, 1.0]) * s["h"][:, None]).ravel()
        y, ls = self.sample(xs)
        m = np.max(np.abs(y), axis=1)
        pos = m > 0
        return float(np.max(np.log(m[pos]) + ls[pos])) if np.any(pos) else -math.inf

    def to_piecewise(self, component: int = 0, lo: float | None = None, hi: float | None = None) -> PiecewisePoly:
        """Re-fit the dense output as a PiecewisePoly (absolute scale).

        End pieces extend into the tails.  Only valid when exp(logscale)
        is representable; refits are meant for desk-scale windows.
        """
        lo = self.a if lo is None else lo
        hi = self.b if hi is None else hi
        s_lo, s_hi = self.edges()
        keep = (s_hi > lo + 1e-14) & (s_lo < hi - 1e-14)
        s = self.steps[keep]
        ends = np.minimum(s_hi[keep], hi)
        centers = 0.5 * (np.maximum(s_lo[keep], lo) + ends)
        # theta = (x - x0)/h = alpha*u + beta with u = x - center; compose
        # each row's polynomial with it by Horner on polynomials
        alpha = (1.0 / s["h"])[:, None]
        beta = ((centers - s["x0"]) / s["h"])[:, None]
        coef = s["coef"][:, :, component]
        sub = np.zeros_like(coef)
        for k in range(coef.shape[1] - 1, -1, -1):
            prev = sub
            sub = beta * prev
            sub[:, 1:] += alpha * prev[:, :-1]
            sub[:, 0] += coef[:, k]
        try:
            scale = np.array([math.exp(v) for v in s["logscale"].tolist()])
        except OverflowError:
            top = float(np.max(s["logscale"]))
            raise OverflowUnrecoverableError(
                f"re-fit at absolute scale: logscale {top:.6g} overflows", logscale=top) from None
        # interior knots only; the first/last piece double as the tails
        return PiecewisePoly._from_local(ends[:-1], centers, sub * scale[:, None])


def _edges(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x0, h = steps["x0"], steps["h"]
    return x0 + np.minimum(h, 0.0), x0 + np.maximum(h, 0.0)


def _by_position(steps: np.ndarray) -> np.ndarray:
    return steps[np.argsort(_edges(steps)[0], kind="stable")]


@dataclass(frozen=True)
class FundamentalSystem:
    """Canonical solution pair with initial states (1,0) and (0,1) at x0."""

    y1: Trajectory
    y2: Trajectory
    x0: float


def integrate(sys: ShinZettlSystem, y0: QuasiState, to: float) -> Trajectory:
    """Propagate a state to ``to`` with dense output, breakpoints as hard mesh nodes.

    The walk of ``endpoint``, with one row per exact sub-step or Taylor
    step: the Taylor series of the state on it, whose terms past the last
    column are below rounding.  The rows of a system all have
    _TAYLOR_ORDER + d columns, d the largest degree of its entries, so the
    two halves of a ``fundamental`` pair concatenate.  The state is
    renormalized whenever |Y| exceeds 1e100 and the exponent is recorded
    per row.  Raises StepUnderflowError as ``endpoint`` does.
    """
    blocks: list[tuple] = []
    _walk(sys, y0, to, blocks)
    width = _TAYLOR_ORDER + max(len(p) for row in sys.rows for _, p in row) - 1
    steps = np.zeros(sum(len(x0) for x0, *_ in blocks), dtype=_step_dtype(width))
    i = 0
    for x0, h, coef, ls in blocks:
        rows = steps[i:i + len(x0)]
        rows["x0"], rows["h"], rows["logscale"] = x0, h, ls
        rows["coef"][:, :coef.shape[1]] = coef
        i += len(x0)
    return Trajectory(system=sys, a=min(y0.x, to), b=max(y0.x, to), steps=_by_position(steps))


def endpoint(sys: ShinZettlSystem, y0: QuasiState, to: float, derivative: bool = False):
    """End state at ``to`` and log of sup |Y| along the way, no dense output.

    A segment whose system matrix is constant is crossed by exact
    exponentials (``_exact_segment``), any other by Taylor steps of the
    exact recurrence of its polynomial entries (``_taylor_segment``);
    log|Y| is sampled at the segment starts and at every sub-step end, and
    at Taylor step midpoints.  Both kinds of step are accurate to
    rounding.  Raises StepUnderflowError when a step falls below 1e-14
    times the interval length.

    With ``derivative`` a third item is returned: Z = dY/dlambda at ``to``
    on the logscale of the end state.  Z starts at 0 (the start state does
    not depend on lambda) and solves Z' = AZ + EY, E = dA/dlambda =
    [[0, 0], [-1, 0]], along the same steps as Y.
    """
    y, ls, sup = _walk(sys, y0, to, derivative=derivative)
    end = QuasiState(to, y[0], y[1], sys.side, ls)
    if not derivative:
        return end, sup
    return end, sup, QuasiState(to, y[2], y[3], sys.side, ls)


def _walk(sys, y0, to, out=None, derivative=False):
    """(state, logscale, log sup) at ``to``; each segment appends its rows
    of dense output to ``out`` when one is given.  With ``derivative`` the
    state is (y0, y1, z0, z1), Z on the logscale of Y."""
    segments, h_floor = _segments(sys, y0.x, to)
    y = (complex(y0.y0), complex(y0.y1))
    if derivative:
        y += (0j, 0j)
    ls = float(y0.logscale)
    sup = -math.inf
    for seg_a, seg_b, rows in segments:
        cross = _exact_segment if all(len(p) == 1 for _, p in rows) else _taylor_segment
        y, ls, sup = cross(rows, seg_a, seg_b, y, ls, sup, h_floor, out)
    return y, ls, sup


def _segments(sys, x_from, to):
    """(start, end, rows) of each segment from x_from to ``to``, with the
    rows of the system on it, and the step floor.  Lambda is subtracted
    from the constant term of the a21 row here, which gives the bits of
    the ``sys.a21`` piece (``a21_0`` is a sum, so never -0.0)."""
    if to == x_from:
        raise ValueError("empty integration interval")
    lo, hi = min(x_from, to), max(x_from, to)
    bps = sorted((float(t) for t in sys.breakpoints() if lo < t < hi), reverse=to < x_from)
    nodes = [x_from, *bps, to]
    ends = list(zip(nodes[:-1], nodes[1:]))
    regions = np.searchsorted(sys.breakpoints(), [0.5 * (a + b) for a, b in ends], side="right")
    segments = []
    for (a, b), i in zip(ends, regions.tolist()):
        r11, (c21, p21), r22 = sys.rows[i]
        segments.append((a, b, (r11, (c21, (p21[0] - sys.lam, *p21[1:])), r22)))
    return segments, MIN_STEP_FRACTION * (hi - lo)


# 1/(2k)! and 1/(2k+1)!, highest power first: cosh(z) and sinh(z)/z as
# series in w = z^2, exact to rounding for |w| <= 1
_COSH = tuple(1 / math.factorial(2 * k) for k in range(11, -1, -1))
_SINHC = tuple(1 / math.factorial(2 * k + 1) for k in range(11, -1, -1))
# their derivatives in w, k w^(k-1)/(2k)! and k w^(k-1)/(2k+1)!
_DCOSH = tuple(k / math.factorial(2 * k) for k in range(11, 0, -1))
_DSINHC = tuple(k / math.factorial(2 * k + 1) for k in range(11, 0, -1))

# Taylor steps on polynomial segments of degree d: series order at d = 1
# (d - 1 more above), and the size of the last d + 1 terms relative to
# the state (``_jorba_zou``)
_TAYLOR_ORDER = 24
_TAYLOR_EPS = 1e-16


def _exact_step(inv, h: float) -> tuple[complex, complex, complex, complex]:
    """exp(hA) as (e11, e12, e21, e22), for |h mu| <= 1.

    ``inv`` is (a21, d, tau, mu^2) of the constant A: tau = tr A,
    d = (a11 - a22)/2 and mu^2 = tau^2/4 - det A = d^2 + a21.
    Cayley-Hamilton: exp(hA) = e^(h tau/2) [cosh(h mu) I + sinhc(h mu) h B]
    with B = A - tau/2 I, whose entries are d, 1, a21 and -d.
    """
    a21, d, tau, mu2 = inv
    w = h * h * mu2
    ch = _horner(_COSH, w)
    sh = h * _horner(_SINHC, w)
    g = cmath.exp(0.5 * h * tau)
    return g * (ch + sh * d), g * sh, g * sh * a21, g * (ch - sh * d)


def _exact_step_dlam(inv, h: float) -> tuple[complex, complex, complex, complex]:
    """d exp(hA)/dlambda as (f11, f12, f21, f22): ``_exact_step``
    differentiated through w = h^2 mu^2 and a21, with dw/dlambda = -h^2
    and da21/dlambda = -1 (tau and d do not depend on lambda)."""
    a21, d, tau, mu2 = inv
    w = h * h * mu2
    sh = h * _horner(_SINHC, w)
    dch = -h * h * _horner(_DCOSH, w)
    dsh = -h * h * h * _horner(_DSINHC, w)
    g = cmath.exp(0.5 * h * tau)
    return g * (dch + dsh * d), g * dsh, g * (dsh * a21 - sh), g * (dch - dsh * d)


def _exact_segment(rows, xa, xb, y, ls, sup, h_floor, out=None):
    """Cross a constant segment by n products with exp(hA), h = (xb - xa)/n.

    n keeps |h mu| and |h tau|/2 at most 1, so each sub-step grows |Y| by
    a bounded factor; a sub-step below h_floor raises StepUnderflowError.
    The state is rescaled past RESCALE_THRESHOLD.  ``peak`` is the largest
    mantissa since the last rescale, and a rescale fires at the first
    mantissa past the threshold, so log(peak) + ls at the end is the
    largest log|Y| over the segment start, every sub-step end and ``sup``.
    With ``out``, the rows of the sub-steps are appended to it
    (``_exact_rows``).  A state (y0, y1, z0, z1) also carries Z = dY/dlambda:
    Z <- exp(hA) Z + (d exp(hA)/dlambda) Y per sub-step, rescaled with Y.
    """
    a11, a21, a22 = (complex(p[0]) for _, p in rows)
    d = 0.5 * (a11 - a22)
    tau, mu2 = a11 + a22, d * d + a21
    seg_len = xb - xa
    n = abs(seg_len) * max(math.sqrt(abs(mu2)), 0.5 * abs(tau))
    if not n * h_floor <= abs(seg_len):  # also a rate that is not finite
        raise StepUnderflowError(xa, seg_len / n, y[0], y[1], ls)
    n = max(1, math.ceil(n))
    e11, e12, e21, e22 = _exact_step((a21, d, tau, mu2), seg_len / n)
    if len(y) == 4:
        f11, f12, f21, f22 = _exact_step_dlam((a21, d, tau, mu2), seg_len / n)
        y0, y1, z0, z1 = y
        peak = max(abs(y0), abs(y1))
        for _ in range(n):
            y0, y1, z0, z1 = (e11 * y0 + e12 * y1, e21 * y0 + e22 * y1,
                              e11 * z0 + e12 * z1 + f11 * y0 + f12 * y1,
                              e21 * z0 + e22 * z1 + f21 * y0 + f22 * y1)
            m = max(abs(y0), abs(y1))
            if m > peak:
                peak = m
                if m > RESCALE_THRESHOLD:
                    y0, y1, z0, z1, peak = y0 / m, y1 / m, z0 / m, z1 / m, 1.0
                    ls += math.log(m)
        return (y0, y1, z0, z1), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup
    y0, y1 = y
    peak = max(abs(y0), abs(y1))
    starts = None if out is None else []
    for _ in range(n):
        if starts is not None:
            starts.append((y0, y1, ls))
        y0, y1 = e11 * y0 + e12 * y1, e21 * y0 + e22 * y1
        m = max(abs(y0), abs(y1))
        if m > peak:
            peak = m
            if m > RESCALE_THRESHOLD:
                y0, y1, peak = y0 / m, y1 / m, 1.0
                ls += math.log(m)
    if out is not None:
        out.append(_exact_rows((a21, d, tau, mu2), xa, xb, seg_len / n, np.array(starts)))
    return (y0, y1), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup


def _exact_rows(inv, xa, xb, h, starts):
    """Rows of the sub-steps of a constant segment from their (y0, y1,
    logscale) ``starts``: the first _TAYLOR_ORDER Taylor coefficients in
    theta of exp(theta hA) Y, which are p_k Y + q_k hBY for those p_k, q_k
    of P = e^(theta h tau/2) cosh(theta h mu) and of
    Q = e^(theta h tau/2) sinh(theta h mu)/(h mu) (``_exact_step``'s
    notation); P' = h tau/2 P + (h mu)^2 Q and Q' = h tau/2 Q + P give
    them.  As |h mu| and |h tau|/2 are at most 1, the k-th is at most
    2^k/k! of |Y| + |hBY|, so the rest is below 2^24/24!, 3e-17.  The
    last row ends at xb exactly."""
    a21, d, tau, mu2 = inv
    half_tau, w = 0.5 * h * tau, h * h * mu2
    pq = [(1.0, 0.0)]
    for k in range(1, _TAYLOR_ORDER):
        p, q = pq[-1]
        pq.append(((half_tau * p + w * q) / k, (half_tau * q + p) / k))
    y = starts[:, :2]
    hby = h * np.stack([d * y[:, 0] + y[:, 1], a21 * y[:, 0] - d * y[:, 1]], axis=1)
    x0 = xa + h * np.arange(len(starts))
    hs = np.full(len(starts), h)
    hs[-1] = xb - x0[-1]
    return x0, hs, np.einsum("ks,snc->nkc", np.array(pq), np.array([y, hby])), starts[:, 2].real


def _recentred(row: list, d: float) -> list:
    """Ascending coefficients in t of sum_k row[k] (t + d)^k.

    The synthetic division of ``coeffs._shift_rows`` on one row, with the
    same bits.  It stays a loop over Python scalars: a Taylor step shifts
    three rows of a few coefficients, three rows of three take about 3 us
    here and about 10 us in one array call of ``_shift_rows`` (x86-64,
    one core), and a shot makes a few hundred steps.
    """
    q = list(row)
    for i in range(len(q) - 1):
        for k in range(len(q) - 2, i - 1, -1):
            q[k] += d * q[k + 1]
    return q


def _jorba_zou(u: list, v: list, window: int, size: float = 1.0) -> float:
    """Step of a Taylor series whose state (u[0], v[0]) has size ``size``: the
    largest h with |Y_k| h^k <= _TAYLOR_EPS size for the last ``window`` orders
    k (Jorba & Zou 2005 take the last two); inf when all of them vanish, 0
    when one is not finite.  A series whose recurrence reaches ``window``
    orders back has ended when that many orders in a row vanish, and one
    that has not ended has a nonzero coefficient among them, however
    sparse it is."""
    h = math.inf
    eps = _TAYLOR_EPS * size
    for k in range(len(u) - window, len(u)):
        n = abs(u[k]) + abs(v[k])
        if not n < math.inf:
            return 0.0
        if n > 0:
            h = min(h, (eps / n) ** (1.0 / k))
    return h


def _taylor_segment(rows, xa, xb, y, ls, sup, h_floor, out=None):
    """Cross a segment with polynomial entries by Taylor steps.

    ``rows`` are the segment's lambda-shifted rows, of degree at most d.
    At each step start x the rows are re-centred at x, and the Taylor
    coefficients of the state scaled to unit size follow from
    (k+1) Y_{k+1} = sum_{j<=d} A_j Y_{k-j} with a12 = 1, up to order
    _TAYLOR_ORDER + d - 1.  The step is ``_jorba_zou``'s over the last
    d + 1 orders, the reach of the recurrence, so that a sparse series (a
    monomial entry re-centred at its center) is never read as ended; it is
    clipped to the segment end.  A step below h_floor, or a coefficient,
    step or state that is not finite, raises StepUnderflowError with the
    state at x.  log|Y| is sampled at the segment start and at every step
    end and midpoint, the points ``Trajectory.log_sup`` samples; the state
    is rescaled at step ends past RESCALE_THRESHOLD.  A zero state crosses
    unchanged.  With ``out``, one row per step is appended to it, the
    series m Y_k h^k of the state at step start scaled back by its size m,
    and a zero row for the rest of the segment once the state is zero.

    A state (y0, y1, z0, z1) also carries Z = dY/dlambda, whose series
    follows from (k+1) Z_{k+1} = sum_j A_j Z_{k-j} + E Y_k with
    E = [[0, 0], [-1, 0]].  Its last orders bound the step too, relative
    to the larger of |Z| and |Y|; a Z that is not finite is carried along
    without bounding the step.
    """
    (c11, p11), (c21, p21), (c22, p22) = rows
    p11, p21, p22 = ([complex(c) for c in p] for p in (p11, p21, p22))
    window = max(len(p11), len(p21), len(p22))
    order = _TAYLOR_ORDER + window - 2
    y0, y1, *z = y
    m = max(abs(y0), abs(y1))
    direction = 1.0 if xb > xa else -1.0
    peak = m
    x = xa
    steps = None if out is None else []
    while m > 0 and (xb - x) * direction > 0:
        a11, a21, a22 = _recentred(p11, x - c11), _recentred(p21, x - c21), _recentred(p22, x - c22)
        u, v = [y0 / m], [y1 / m]
        for k in range(1, order + 1):
            du = v[-1] + sum(map(mul, a11, reversed(u)))
            dv = sum(map(mul, a21, reversed(u))) + sum(map(mul, a22, reversed(v)))
            u.append(du / k)
            v.append(dv / k)
        if z:
            p, q = [z[0] / m], [z[1] / m]
            for k in range(1, order + 1):
                dp = q[-1] + sum(map(mul, a11, reversed(p)))
                dq = sum(map(mul, a21, reversed(p))) + sum(map(mul, a22, reversed(q))) - u[k - 1]
                p.append(dp / k)
                q.append(dq / k)
        h = _jorba_zou(u, v, window)
        if z:
            hz = _jorba_zou(p, q, window, max(1.0, abs(p[0]) + abs(q[0])))
            h = min(h, hz) if hz > 0 else h
        if not h >= h_floor:
            raise StepUnderflowError(x, direction * h, y0, y1, ls)
        rest = (xb - x) * direction
        last = h >= rest
        h = direction * (rest if last else h)
        hm = 0.5 * h
        e0 = e1 = f0 = f1 = 0j
        for a, b in zip(reversed(u), reversed(v)):
            e0, e1, f0, f1 = e0 * h + a, e1 * h + b, f0 * hm + a, f1 * hm + b
        if not abs(e0) + abs(e1) + abs(f0) + abs(f1) < math.inf:
            raise StepUnderflowError(x, h, y0, y1, ls)
        if steps is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                coef = np.array([u, v]).T * (m * h ** np.arange(order + 1))[:, None]
            if not np.isfinite(coef).all():
                raise StepUnderflowError(x, h, y0, y1, ls)
            steps.append((x, h, coef, ls))
        if z:
            g0 = g1 = 0j
            for a, b in zip(reversed(p), reversed(q)):
                g0, g1 = g0 * h + a, g1 * h + b
            z = [m * g0, m * g1]
        mid = m * max(abs(f0), abs(f1))
        y0, y1 = m * e0, m * e1
        m = max(abs(y0), abs(y1))
        x = xb if last else x + h
        peak = max(peak, mid, m)
        if m > RESCALE_THRESHOLD:
            sup = max(sup, math.log(peak) + ls)
            z = [t / m for t in z]
            y0, y1, ls, peak, m = y0 / m, y1 / m, ls + math.log(m), 1.0, 1.0
    if steps is not None:
        if x != xb:
            steps.append((x, xb - x, np.zeros((order + 1, 2)), ls))
        out.append(tuple(map(np.array, zip(*steps))))
    return (y0, y1, *z), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup


def fundamental(sys: ShinZettlSystem, x0: float, window: tuple[float, float]) -> FundamentalSystem:
    """Canonical pair covering the window in both directions from x0."""
    a, b = float(window[0]), float(window[1])
    if not (a <= x0 <= b):
        raise ValueError("anchor must lie inside the window")
    trajs = []
    for init in ((1.0, 0.0), (0.0, 1.0)):
        state = QuasiState(x=x0, y0=init[0], y1=init[1], side=sys.side)
        parts = [integrate(sys, state, end) for end in (a, b) if end != x0]
        steps = _by_position(np.concatenate([p.steps for p in parts]))
        trajs.append(Trajectory(system=sys, a=a, b=b, steps=steps))
    return FundamentalSystem(y1=trajs[0], y2=trajs[1], x0=x0)


# ----------------------------------------------------------------------
# quadrature over dense output

@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1], exact to degree 2n - 1."""
    return np.polynomial.legendre.leggauss(n)


def _panels(fs, a: float, b: float, nodes: np.ndarray, cuts=()):
    """(mid, half, xs): midpoints, half-widths and Gauss-Legendre ``nodes`` of the panels
    of [a, b] between the step edges and breakpoints of the functions fs and ``cuts``."""
    edges = [np.asarray([a, b, *cuts], dtype=float)]
    for f in fs:
        edges.extend(f.edges() if isinstance(f, Trajectory) else [f.breakpoints])
    ks = np.unique(np.concatenate(edges))
    ks = ks[(ks >= a) & (ks <= b)]
    mid = 0.5 * (ks[:-1] + ks[1:])
    half = 0.5 * (ks[1:] - ks[:-1])
    return mid, half, mid[:, None] + half[:, None] * nodes


def _panel_values(f, mid: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of f at the nodes xs of panels with midpoints mid, with logscales.

    A Trajectory contributes its y0 component; a PiecewisePoly is one row
    per region (x0 = center, h = 1) with logscale 0.
    """
    if isinstance(f, Trajectory):
        rows = f.steps[f._locate(mid)]
        theta = (xs - rows["x0"][:, None]) / rows["h"][:, None]
        return _dense(rows["coef"][:, :, 0, None], theta), rows["logscale"]
    if isinstance(f, PiecewisePoly):
        i = f._region(mid, "right")
        return _dense(f.coeffs[i, :, None], xs - f.centers[i, None]), np.zeros(len(mid))
    raise TypeError(f"expected Trajectory or PiecewisePoly, got {type(f)!r}")


def pair_integral(u, v, a: float, b: float) -> tuple[complex, float]:
    """(mantissa, logscale) of int_a^b u * conj(v) dx.

    Each operand is a Trajectory (its y0, with the rows' logscales) or a
    PiecewisePoly (logscale 0).  Panels are the merged step edges and
    breakpoints, where both operands are polynomials; floor((deg u +
    deg v)/2) + 1 Gauss-Legendre nodes per panel integrate their product
    exactly, and exponentially large solutions never overflow.
    """
    nodes, weights = _gauss_legendre((u.degree + v.degree) // 2 + 1)
    mid, half, xs = _panels((u, v), a, b, nodes)
    if not len(mid):
        return 0.0 + 0.0j, 0.0
    fu, lu = _panel_values(u, mid, xs)
    fv, lv = _panel_values(v, mid, xs)
    parts = half * ((fu * fv.conj()) @ weights)
    ls = lu + lv
    L = float(np.max(ls))
    return complex(np.sum(parts * np.exp(ls - L))), L
