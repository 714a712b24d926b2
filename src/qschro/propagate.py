"""Propagation of the first-order system across coefficient jumps.

Coefficient breakpoints split the interval into segments, each a hard
mesh node; the state (y0, y1) passes through them unchanged, which is
exactly the absolute continuity the quasi-derivative buys.  States growing
past 1e100 are renormalized and the exponent ledger travels with them.

``integrate`` runs a Dormand-Prince 5(4) pair on every segment and keeps
a quartic interpolant per accepted step, so trajectories have dense
output.  ``endpoint`` walks the same segments for the end state and
log sup|Y| only: on a segment where the system matrix A is constant it
multiplies by the exact exp(hA) in equal sub-steps, and any other segment
runs the same Dormand-Prince steps without keeping them.  The tolerances
apply to Dormand-Prince segments only; exact segments are accurate to
rounding at any lambda.

A trajectory stores its accepted steps as one structured array sorted by
position (fields ``x0``, ``h``, ``coef`` and ``logscale``).  All dense
output goes through ``Trajectory.sample`` (row lookup plus batched
Horner).  ``_panels`` is the one quadrature: Gauss-Legendre per panel for
``pair_integral``, over trajectories and piecewise polynomials alike with
the exponent bookkeeping of the rows, for the quadratic forms and for the
nested Gram windows of the probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import ATOL, MIN_STEP_FRACTION, RESCALE_THRESHOLD, RTOL
from .coeffs import PiecewisePoly, _dense, _horner
from .errors import OverflowUnrecoverableError, StepUnderflowError
from .quasi import QuasiState, ShinZettlSystem

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Shampine's quartic dense-output matrix (theta polynomial degrees 1..4)
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


class _SegmentMatrix:
    """System entries restricted to one smooth segment, Horner-ready;
    lambda is subtracted from the constant term of entry (2,1), which gives
    the bits of the ``sys.a21`` piece (``a21_0`` is a sum, so never -0.0)."""

    __slots__ = ("c11", "p11", "c21", "p21", "c22", "p22")

    def __init__(self, sys: ShinZettlSystem, rep: float):
        pieces = [p.piece_at(rep) for p in (sys.a11, sys.a21_0, sys.a22)]
        (self.c11, self.p11), (self.c21, self.p21), (self.c22, self.p22) = (
            (center, tuple(row[::-1])) for center, row in pieces)
        self.p21 = (*self.p21[:-1], self.p21[-1] - sys.lam)

    def rhs(self, x: float, y0: complex, y1: complex) -> tuple[complex, complex]:
        a11 = _horner(self.p11, x - self.c11)
        a21 = _horner(self.p21, x - self.c21)
        a22 = _horner(self.p22, x - self.c22)
        return a11 * y0 + y1, a21 * y0 + a22 * y1

    @property
    def constant(self) -> bool:
        return len(self.p11) == len(self.p21) == len(self.p22) == 1


# One accepted step: the state on it is sum_k coef[k] * theta**k times
# exp(logscale), theta = (x - x0)/h; coef columns are (y0, y1).  h < 0 on
# backward steps.
STEP_DTYPE = np.dtype(
    [("x0", float), ("h", float), ("coef", complex, (5, 2)), ("logscale", float)]
)


@dataclass
class Trajectory:
    """Dense-output solution of one system over an interval.

    ``steps`` is a STEP_DTYPE array sorted by position; the true solution
    on a step is its interpolant times exp(logscale).  Rescaling never
    changes the direction of the state vector, only its magnitude.
    """

    system: ShinZettlSystem
    a: float
    b: float
    atol: float
    rtol: float
    steps: np.ndarray

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
        # each step's quartic with it by Horner on polynomials
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
                f"re-fit at absolute scale: logscale {top:.6g} overflows") from None
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


def integrate(
    sys: ShinZettlSystem,
    y0: QuasiState,
    to: float,
    tol: tuple[float, float] = (ATOL, RTOL),
) -> Trajectory:
    """Propagate a state to ``to``, breakpoints as hard mesh nodes.

    Local error per step is kept at atol + rtol*|Y|; the state is
    renormalized whenever |Y| exceeds 1e100 and the exponent is recorded
    per step.  Raises StepUnderflowError when the step size falls below
    1e-14 times the interval length.
    """
    segments, h_floor = _segments(sys, y0.x, to, tol)
    y = (complex(y0.y0), complex(y0.y1))
    ls = float(y0.logscale)
    rows: list[tuple] = []
    for seg_a, seg_b in segments:
        mat = _SegmentMatrix(sys, 0.5 * (seg_a + seg_b))
        y, ls = _integrate_segment(mat, rows, seg_a, seg_b, y, ls, *tol, h_floor)
    return _trajectory(sys, y0.x, to, tol, rows)


def endpoint(
    sys: ShinZettlSystem,
    y0: QuasiState,
    to: float,
    tol: tuple[float, float] = (ATOL, RTOL),
) -> tuple[QuasiState, float]:
    """End state at ``to`` and log of sup |Y| along the way, no dense output.

    Walks the segments of ``integrate``.  A segment whose system matrix is
    constant is crossed by exact exponentials (``_exact_step``), with
    log|Y| sampled at every sub-step end.  Any other segment runs the
    Dormand-Prince steps of ``integrate``, and its end state and log sup
    are read from them as ``Trajectory.state_at`` and ``Trajectory.log_sup``
    read them.  Raises StepUnderflowError as ``integrate`` does.
    """
    segments, h_floor = _segments(sys, y0.x, to, tol)
    y = (complex(y0.y0), complex(y0.y1))
    ls = float(y0.logscale)
    sup = -math.inf
    for seg_a, seg_b in segments:
        mat = _SegmentMatrix(sys, 0.5 * (seg_a + seg_b))
        if mat.constant:
            y, ls, sup = _exact_segment(mat, seg_a, seg_b, y, ls, sup, h_floor)
            end = y, ls
        else:
            rows: list[tuple] = []
            y, ls = _integrate_segment(mat, rows, seg_a, seg_b, y, ls, *tol, h_floor)
            seg = _trajectory(sys, seg_a, seg_b, tol, rows)
            sup = max(sup, seg.log_sup())
            (end_y,), (end_ls,) = seg.sample([seg_b])
            end = (complex(end_y[0]), complex(end_y[1])), float(end_ls)
    (e0, e1), end_ls = end
    return QuasiState(to, e0, e1, sys.side, end_ls), sup


def _segments(sys, x_from, to, tol):
    """(start, end) of each segment from x_from to ``to``, and the step floor."""
    if tol[0] <= 0 or tol[1] <= 0:
        raise ValueError("tolerances must be positive")
    if to == x_from:
        raise ValueError("empty integration interval")
    lo, hi = min(x_from, to), max(x_from, to)
    bps = sorted((float(t) for t in sys.breakpoints() if lo < t < hi), reverse=to < x_from)
    nodes = [x_from, *bps, to]
    return list(zip(nodes[:-1], nodes[1:])), MIN_STEP_FRACTION * (hi - lo)


def _trajectory(sys, x_from, to, tol, rows) -> Trajectory:
    return Trajectory(
        system=sys,
        a=min(x_from, to),
        b=max(x_from, to),
        atol=tol[0],
        rtol=tol[1],
        steps=_by_position(np.array(rows, dtype=STEP_DTYPE)),
    )


# 1/(2k)! and 1/(2k+1)!, highest power first: cosh(z) and sinh(z)/z as
# series in w = z^2, exact to rounding for |w| <= 1
_COSH = tuple(1 / math.factorial(2 * k) for k in range(11, -1, -1))
_SINHC = tuple(1 / math.factorial(2 * k + 1) for k in range(11, -1, -1))


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


def _exact_segment(mat, xa, xb, y, ls, sup, h_floor):
    """Cross a constant segment by n products with exp(hA), h = (xb - xa)/n.

    n keeps |h mu| and |h tau|/2 at most 1, so each sub-step grows |Y| by
    a bounded factor; a sub-step below h_floor raises StepUnderflowError,
    as in ``_integrate_segment``.  The state is rescaled past
    RESCALE_THRESHOLD as there.  ``peak`` is the largest mantissa since the
    last rescale, and a rescale fires at the first mantissa past the
    threshold, so log(peak) + ls at the end is the largest log|Y| over the
    segment start, every sub-step end and ``sup``.
    """
    a11, a21, a22 = (complex(p[0]) for p in (mat.p11, mat.p21, mat.p22))
    d = 0.5 * (a11 - a22)
    tau, mu2 = a11 + a22, d * d + a21
    seg_len = xb - xa
    n = abs(seg_len) * max(math.sqrt(abs(mu2)), 0.5 * abs(tau))
    if not n * h_floor <= abs(seg_len):  # also a rate that is not finite
        raise StepUnderflowError(xa, seg_len / n, y[0], y[1], ls)
    n = max(1, math.ceil(n))
    e11, e12, e21, e22 = _exact_step((a21, d, tau, mu2), seg_len / n)
    y0, y1 = y
    peak = max(abs(y0), abs(y1))
    for _ in range(n):
        y0, y1 = e11 * y0 + e12 * y1, e21 * y0 + e22 * y1
        m = max(abs(y0), abs(y1))
        if m > peak:
            peak = m
            if m > RESCALE_THRESHOLD:
                y0, y1, peak = y0 / m, y1 / m, 1.0
                ls += math.log(m)
    return (y0, y1), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup


def _integrate_segment(mat, rows, xa, xb, y, ls, atol, rtol, h_floor):
    seg_len = xb - xa
    direction = 1.0 if seg_len > 0 else -1.0
    x = xa
    h = direction * min(abs(seg_len), max(abs(seg_len) * 0.05, 1e-3))
    f_now = mat.rhs(x, *y)
    while (x - xb) * direction < 0:
        if abs(h) < h_floor:
            raise StepUnderflowError(x, h, y[0], y[1], ls)
        if (x + h - xb) * direction > 0:
            h = xb - x
        k = [f_now]
        for i in range(1, 6):
            yy0 = y[0]
            yy1 = y[1]
            for aij, kj in zip(_A[i], k):
                yy0 += h * aij * kj[0]
                yy1 += h * aij * kj[1]
            k.append(mat.rhs(x + _C[i] * h, yy0, yy1))
        ynew0 = y[0]
        ynew1 = y[1]
        for bi, ki in zip(_B, k):
            ynew0 += h * bi * ki[0]
            ynew1 += h * bi * ki[1]
        f_new = mat.rhs(x + h, ynew0, ynew1)
        k.append(f_new)
        err0 = 0.0 + 0.0j
        err1 = 0.0 + 0.0j
        for ei, ki in zip(_E, k):
            err0 += h * ei * ki[0]
            err1 += h * ei * ki[1]
        sc0 = atol + rtol * max(abs(y[0]), abs(ynew0))
        sc1 = atol + rtol * max(abs(y[1]), abs(ynew1))
        err = math.sqrt(0.5 * ((abs(err0) / sc0) ** 2 + (abs(err1) / sc1) ** 2))
        if err <= 1.0:
            K = np.array(k, dtype=complex)  # 7 x 2
            Q = K.T @ _P  # 2 x 4
            coef = np.empty((5, 2), dtype=complex)
            coef[0] = y
            coef[1:] = h * Q.T
            # pin theta=1 to the accepted state exactly
            coef[4, 0] += ynew0 - coef[:, 0].sum()
            coef[4, 1] += ynew1 - coef[:, 1].sum()
            rows.append((x, h, coef, ls))
            x = x + h
            y = (ynew0, ynew1)
            f_now = f_new
            m = max(abs(y[0]), abs(y[1]))
            if m > RESCALE_THRESHOLD:
                y = (y[0] / m, y[1] / m)
                f_now = (f_now[0] / m, f_now[1] / m)
                ls += math.log(m)
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0 else 5.0
            h *= factor
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return y, ls


def fundamental(
    sys: ShinZettlSystem,
    x0: float,
    window: tuple[float, float],
    tol: tuple[float, float] = (ATOL, RTOL),
) -> FundamentalSystem:
    """Canonical pair covering the window in both directions from x0."""
    a, b = float(window[0]), float(window[1])
    if not (a <= x0 <= b):
        raise ValueError("anchor must lie inside the window")
    trajs = []
    for init in ((1.0, 0.0), (0.0, 1.0)):
        state = QuasiState(x=x0, y0=init[0], y1=init[1], side=sys.side)
        parts = []
        if x0 > a:
            parts.append(integrate(sys, state, a, tol))
        if x0 < b:
            parts.append(integrate(sys, state, b, tol))
        merged = Trajectory(
            system=sys, a=a, b=b, atol=tol[0], rtol=tol[1],
            steps=_by_position(np.concatenate([p.steps for p in parts])),
        )
        trajs.append(merged)
    return FundamentalSystem(y1=trajs[0], y2=trajs[1], x0=x0)


# ----------------------------------------------------------------------
# quadrature over dense output

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


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
    breakpoints; 12-node Gauss-Legendre per panel is exact to degree 23,
    so quartic interpolants times polynomials of degree up to 19 are
    integrated exactly, and exponentially large solutions never overflow.
    """
    mid, half, xs = _panels((u, v), a, b, _GL_NODES)
    if not len(mid):
        return 0.0 + 0.0j, 0.0
    fu, lu = _panel_values(u, mid, xs)
    fv, lv = _panel_values(v, mid, xs)
    parts = half * ((fu * fv.conj()) @ _GL_WEIGHTS)
    ls = lu + lv
    L = float(np.max(ls))
    return complex(np.sum(parts * np.exp(ls - L))), L
