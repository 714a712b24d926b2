"""Propagation of the first-order system across coefficient jumps.

Coefficient breakpoints split the interval into segments, each a hard
mesh node; the state (y0, y1) passes through them unchanged, which is
exactly the absolute continuity the quasi-derivative buys.  States growing
past 1e100 are renormalized and the exponent ledger travels with them.

Every walk takes the field whose expression it solves: ``c`` for l and
``c.adjoint`` for the Lagrange adjoint l+.  A shot
(``spectral.characteristic``) and ``integrate`` walk the segments the
same way (``_walk``), from one lambda-free plan per field and interval
(``_plan``): the segments, each with its rows and, on a constant
segment, the invariants of its exponential, the step floor, and whether
every row is real.  A plan holds one row set: Python floats when every
row is real, else Python complex.  It is built on the first walk from
the field's entries and kept with the field (``CoefficientField.plans``,
at most _PLANS intervals), so a shot only subtracts lambda from each
segment's a21 constant and steps; ``spectral.characteristic`` walks the
plan from a plain (y0, y1, logscale) start, with no state around it.
A walk's number type follows from its data: real rows, a real
lambda and a real start walk in Python floats, anything else in Python
complex, the same rows either way, so a walk is all-float or
all-complex.  A float walk has the bits of the real parts of the complex
walk, and a complex walk of float rows those of the walk of the same rows
as complex, on CPython 3.10-3.13, which widen a float operand of complex
arithmetic to complex(x, 0.0); 3.14 does not, which can change the sign
of a zero part.  Dense output is complex128 either way: a float walk
forms its rows in float arrays and stores them there.  Every walk has
one budget of MAX_WALK_STEPS sub-steps and Taylor steps, past which it
raises StepBudgetError.  On a segment where the
system matrix A is constant the state is multiplied by the exact exp(hA)
in equal sub-steps; on any other it takes Taylor steps of order 23 + d
from the exact recurrence of the entries of degree d (classical
high-order Taylor method, Corliss & Chang 1982), each as long as Jorba &
Zou's rule (2005) allows.  The recurrence of each entry
shape runs in one function compiled from generated source on first use
(``_taylor_kernel``): one loop over every order, whose rolling locals
hold the last coefficients of each series and start at the state and
zeros, with the bits of sums over reversed lists for finite rows.  Every
series, of a Taylor step (Y at h and h/2 in a shot, Y at h in a dense
walk and Z = dY/dlambda at h) and of an exact step, is summed by the one
Horner rule of the package, ``coeffs._value``.  Both
kinds of step are accurate to rounding at any lambda, so there is no
tolerance to choose.
A shot keeps the end state and log sup|Y| only, and on request
dY/dlambda along the same steps; ``integrate`` also records each
sub-step or step as a row of dense output, the Taylor series of the
state on it.  The rows of a segment are built in one array pass at its
end, from the start states of its sub-steps (``_exact_rows``) or from the
series of its Taylor steps (``_taylor_rows``); a dense walk sums a Taylor
series at the step end only and keeps no log sup.
A plan reads each segment's rows from the field's entries when it is
built (``_build_plan``), once per field and interval.

A trajectory stores its rows as one structured array sorted by position
(fields ``x0``, ``h``, ``coef`` and ``logscale``) and their spans as one
knot array, computed once: row i lies between knots i and i + 1, and each
inner knot is the start of the row that the walk entered there, so a
sub-step boundary is one knot, not the end of one row and the start of
the next an ulp apart.  The inner knots are the trajectory's
``breakpoints``, and a row is looked up by the rule of a
``PiecewisePoly``'s region (``_region``: ``breakpoints.searchsorted``).
All dense output goes through ``Trajectory.sample`` (row lookup plus
batched Horner).  ``_panels`` cuts [a, b] at the breakpoints of its
operands with ``coeffs._panels``, the one cutter of every quadrature of
the package.
``_pair_sums`` forms every Gauss-Legendre pair sum on dense output: index
pairs of a few functions over a batch of windows, with as many nodes per
panel as the operands' degrees need, over trajectories and piecewise
polynomials alike with the rows' logscales.  ``pair_integral`` is its
one-pair, one-window case and the probe's nested Gram windows another.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import MAX_WALK_STEPS, MIN_STEP_FRACTION, RESCALE_THRESHOLD
from .coeffs import CoefficientField, PiecewisePoly, _dense, _gauss_legendre, _panels as _cut, _recentred, _trimmed, _value
from .errors import OverflowUnrecoverableError, StepBudgetError, StepUnderflowError
from .quasi import QuasiState


def _step_dtype(width: int) -> np.dtype:
    """One row of dense output: the state on it is sum_k coef[k] * theta**k
    times exp(logscale), theta = (x - x0)/h, for k < width; coef columns
    are (y0, y1).  h < 0 on backward steps."""
    return np.dtype([("x0", float), ("h", float), ("coef", complex, (width, 2)), ("logscale", float)])


@dataclass
class Trajectory:
    """Dense-output solution of the expression of ``field`` minus ``lam``
    over an interval.

    ``steps`` is an array of ``_step_dtype`` rows sorted by position; the
    true solution on a row is its Taylor polynomial times exp(logscale).
    Rescaling never changes the direction of the state vector, only its
    magnitude.  ``knots`` holds the rows' spans, computed once: row i lies
    between knots i and i + 1.  An inner knot is the start of the row that
    the walk entered there, the right one on a forward walk and the left
    one on a backward walk; the ends are the outer ends of the first and
    last rows.  ``breakpoints`` is the view of the inner knots, so that a
    trajectory is looked up as a ``PiecewisePoly`` is (``_region``).
    """

    field: CoefficientField
    lam: complex
    a: float
    b: float
    steps: np.ndarray
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x0, h = self.steps["x0"], self.steps["h"]
        inner = np.where(h[1:] > 0, x0[1:], x0[:-1])
        self.knots = np.concatenate([[min(x0[0], x0[0] + h[0])], inner, [max(x0[-1], x0[-1] + h[-1])]])
        self.breakpoints = self.knots[1:-1]

    @property
    def degree(self) -> int:
        """Degree in theta of the rows (zero-padded to one width)."""
        return self.steps.dtype["coef"].shape[0] - 1

    def _region(self, xs, side: str):
        """Row index (or indices, for an array) holding x on that side, by
        the rule of ``PiecewisePoly._region``; x outside [a, b] raises
        ValueError."""
        outside = (xs < self.a - 1e-12) | (xs > self.b + 1e-12)
        if np.any(outside):
            raise ValueError(
                f"x={xs[outside][0]} outside trajectory interval [{self.a}, {self.b}]"
            )
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self.breakpoints.searchsorted(xs, side=side)

    def sample(self, xs, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Dense output at an array of x: states (n, 2) and their logscales.

        At a knot ``side`` picks the row on that side of x.
        """
        xs = np.asarray(xs, dtype=float)
        rows = self.steps[self._region(xs, side)]
        theta = (xs - rows["x0"]) / rows["h"]
        return _dense(rows["coef"], theta[:, None]), rows["logscale"]

    def state_at(self, x: float, side: str = "right") -> QuasiState:
        """The state at x with its logscale; at a knot, that of the row on ``side`` of x."""
        y, ls = self.sample([x], side)
        return QuasiState(x, complex(y[0, 0]), complex(y[0, 1]), float(ls[0]))

    def to_piecewise(self, lo: float, hi: float) -> PiecewisePoly:
        """Re-fit the dense output's y0 on [lo, hi] as a PiecewisePoly (absolute scale).

        End pieces extend into the tails.  Only valid when exp(logscale)
        is representable; refits are meant for desk-scale windows.
        """
        s_lo, s_hi = self.knots[:-1], self.knots[1:]
        keep = (s_hi > lo + 1e-14) & (s_lo < hi - 1e-14)
        s = self.steps[keep]
        ends = np.minimum(s_hi[keep], hi)
        centers = 0.5 * (np.maximum(s_lo[keep], lo) + ends)
        # theta = (x - x0)/h = alpha*u + beta with u = x - center; compose
        # each row's polynomial with it by Horner on polynomials
        alpha = (1.0 / s["h"])[:, None]
        beta = ((centers - s["x0"]) / s["h"])[:, None]
        coef = s["coef"][:, :, 0]
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


def integrate(c: CoefficientField, lam: complex, start: QuasiState, to: float) -> Trajectory:
    """Propagate a solution of l[u] = lam u, l the expression of c, from the
    state ``start`` to ``to`` with dense output, breakpoints as hard mesh nodes.

    The walk of a shot (``_walk``), with one row per exact sub-step or
    Taylor step: the Taylor series of the state on it, whose terms past
    the last column are below rounding.  The rows of a field all have
    _TAYLOR_ORDER + d columns, d the largest degree of its entries, so the
    two halves of a ``fundamental`` pair concatenate.  The state is
    renormalized whenever |Y| exceeds 1e100 and the exponent is recorded
    per row.  The walk raises StepUnderflowError and StepBudgetError (``_walk``).
    """
    lam = complex(lam)
    plan = _plan(c, start.x, to)
    blocks: list[tuple] = []
    _walk(plan, lam, (start.y0, start.y1, start.logscale), blocks)
    steps = np.zeros(sum(len(x0) for x0, *_ in blocks), dtype=_step_dtype(plan[2]))
    i = 0
    for k, (x0, h, coef, ls) in enumerate(blocks):
        rows = steps[i:i + len(x0)]
        rows["x0"], rows["h"], rows["logscale"] = x0, h, ls
        if isinstance(coef, tuple):  # an exact segment's factors (``_exact_rows``), a chunk at a time
            pq, yh = coef
            for j in range(0, len(x0), _ROWS_CHUNK):
                rows["coef"][j:j + _ROWS_CHUNK, :len(pq)] = np.einsum("ks,snc->nkc", pq, yh[:, j:j + _ROWS_CHUNK])
        else:
            rows["coef"][:, :coef.shape[1]] = coef
        blocks[k] = None  # its rows are copied: let them go
        i += len(x0)
    return Trajectory(c, lam, min(start.x, to), max(start.x, to), steps if to > start.x else steps[::-1])


def _walk(plan, lam, start, out=None, derivative=False):
    """(state, logscale, log sup) at the end of the ``plan`` (``_plan``)
    from the state (y0, y1) times exp(logscale) of ``start`` at its start;
    each segment appends its rows of dense output to ``out`` when one is
    given, and then the log sup leaves out the Taylor segments
    (``integrate`` does not read it).  With ``derivative`` the state is
    (y0, y1, z0, z1): Z = dY/dlambda on the logscale of Y, which starts at
    0 (the start state does not depend on lambda) and solves Z' = AZ + EY,
    E = dA/dlambda = [[0, 0], [-1, 0]], along the same steps as Y.  A step
    below the plan's floor, MIN_STEP_FRACTION of the interval, raises
    StepUnderflowError.  Lambda is subtracted from
    the constant term of each segment's a21 row here, which gives the bits
    of ``a21_0 - lam`` on it (``a21_0`` is a sum, so never -0.0).
    The walk's type follows from its data: a real plan, a lambda and a
    start whose imaginary parts are zero (of either sign) walk in Python
    floats, with Z starting at 0.0; any other walk converts lambda and the
    start to Python complex and walks the same rows, float or complex, in
    complex arithmetic.  The segments share one budget of MAX_WALK_STEPS
    sub-steps and steps: a walk that needs more raises StepBudgetError
    before its memory or time runs away."""
    segments, h_floor, _, real = plan
    y0, y1, ls = start
    if real and not (lam.imag or y0.imag or y1.imag):
        zero, lam, y0, y1 = 0.0, float(lam.real), float(y0.real), float(y1.real)
    else:
        zero, lam, y0, y1 = 0j, complex(lam), complex(y0), complex(y1)
    y = (y0, y1, zero, zero) if derivative else (y0, y1)
    ls = float(ls)
    sup = -math.inf
    left = MAX_WALK_STEPS
    for xa, xb, rows, consts in segments:
        if consts:
            y, ls, sup, left = _exact_segment(consts, lam, xa, xb, y, ls, sup, h_floor, left, out)
        else:
            r11, (c21, p21), r22 = rows
            rows = (r11, (c21, (p21[0] - lam, *p21[1:])), r22)
            y, ls, sup, left = _taylor_segment(rows, xa, xb, y, ls, sup, h_floor, left, out)
    return y, ls, sup


# lambda-free plans kept per field (``_plan``)
_PLANS = 8
# exact rows multiplied out at once by ``integrate``: 3 MB of temporaries,
# where an einsum straight into the strided dense output runs 4x slower;
# also the panels of a trajectory that ``_panel_values`` sums at once
_ROWS_CHUNK = 4096


def _plan(c, x_from, to):
    """The lambda-free shot plan of the field c from x_from to ``to``: its
    segments, the step floor and the width of its dense rows.

    Plans are kept in ``c.plans``, the last _PLANS intervals shot; on a
    miss the plan is built from the field's entries (``_build_plan``) and
    kept there, so a shot on a known interval reads no entry.  -0.0 and
    0.0 are one key of a dict, so an end at zero also keys its sign: a
    segment starts its rows at its own bits.
    """
    plans = c.plans
    key = (x_from, to) if x_from and to else (x_from, to, math.copysign(1.0, x_from), math.copysign(1.0, to))
    plan = plans.get(key)
    if plan is None:
        plan = _build_plan(c, x_from, to)
        if len(plans) >= _PLANS:
            del plans[next(iter(plans))]
        plans[key] = plan
    return plan


def _build_plan(c, x_from, to):
    """(segments, step floor, row width, real) of a walk of the field c from
    x_from to ``to``: one row set, built once.  A segment is (start, end,
    rows, consts).  Its rows are those of the entries (a11, a21_0, a22) of
    the field: each one's (center, ascending coefficients without
    trailing zeros) at the midpoint of the segment's region of the field,
    or at -inf and +inf in the tails.  ``real`` says that no coefficient
    of the plan has an imaginary part (zeros of either sign are none);
    then the coefficients are their real parts as Python floats, with
    their bits, else Python complex.  A segment whose rows are all
    constant is crossed by exact exponentials, with the invariants
    consts = (a21_0, d, tau, d^2, |tau|/2) of ``_exact_segment``; any
    other takes Taylor steps and has consts None.  The widest entry, not
    only the segments' rows, sets the width, so that the two halves of a
    ``fundamental`` pair concatenate.  An empty interval, or one whose
    length is not finite, raises ValueError."""
    if to == x_from:
        raise ValueError("empty integration interval")
    lo, hi = min(x_from, to), max(x_from, to)
    if not hi - lo < math.inf:
        raise ValueError(f"integration interval from {x_from!r} to {to!r} has a length that is not finite")
    pts = c.breakpoints.tolist()
    nodes = [x_from, *sorted((t for t in pts if lo < t < hi), reverse=to < x_from), to]
    ends = list(zip(nodes[:-1], nodes[1:]))
    reps = [-math.inf, *(0.5 * a + 0.5 * b for a, b in zip(pts, pts[1:])), math.inf] if pts else [0.0]
    at = [reps[bisect_right(pts, 0.5 * (a + b))] for a, b in ends]
    entries, per_entry = c.entries, []
    for f in entries:  # a few short rows: lists, where one numpy call costs more than their arithmetic
        own, centers, rows = f.breakpoints.tolist(), f.centers.tolist(), f.coeffs.tolist()
        per_entry.append([(centers[i], tuple(_trimmed(rows[i]))) for i in (bisect_right(own, x) for x in at)])
    real = not any(z.imag for rows in per_entry for _, p in rows for z in p)
    if real:
        per_entry = [[(c, tuple(z.real for z in p)) for c, p in rows] for rows in per_entry]
    segments = tuple(_segment(a, b, rows) for (a, b), rows in zip(ends, zip(*per_entry)))
    width = _TAYLOR_ORDER + max(f.coeffs.shape[1] for f in entries) - 1
    return segments, MIN_STEP_FRACTION * (hi - lo), width, real


def _segment(a, b, rows):
    """The plan's segment (a, b, rows, consts) of rows (``_build_plan``):
    consts are the invariants of ``_exact_segment`` when every row is
    constant, else None."""
    consts = None
    if all(len(p) == 1 for _, p in rows):
        (_, (a11,)), (_, (a21,)), (_, (a22,)) = rows
        d, tau = 0.5 * (a11 - a22), a11 + a22
        consts = (a21, d, tau, d * d, 0.5 * abs(tau))
    return a, b, rows, consts


# 1/(2k)! and 1/(2k+1)!, lowest power first: cosh(z) and sinh(z)/z as
# series in w = z^2, exact to rounding for |w| <= 1
_COSH = tuple(1 / math.factorial(2 * k) for k in range(12))
_SINHC = tuple(1 / math.factorial(2 * k + 1) for k in range(12))
# their derivatives in w, k w^(k-1)/(2k)! and k w^(k-1)/(2k+1)!
_DCOSH = tuple(k / math.factorial(2 * k) for k in range(1, 12))
_DSINHC = tuple(k / math.factorial(2 * k + 1) for k in range(1, 12))

# Taylor steps on polynomial segments of degree d: series order at d = 1
# (d - 1 more above), and the size of the last d + 1 terms relative to
# the state (``_jorba_zou``)
_TAYLOR_ORDER = 24
_TAYLOR_EPS = 1e-16


def _exact_step(inv, h: float, dlam: bool) -> tuple:
    """exp(hA) as (e11, e12, e21, e22), for |h mu| <= 1, and with ``dlam``
    also d exp(hA)/dlambda as (f11, f12, f21, f22) after them.  The series
    are summed by ``coeffs._value`` and take the type of their operands.
    tau is free of lambda, so a float tau (a real plan's, in any walk)
    takes math.exp and a complex one cmath.exp: a float walk's step is
    all float, and a complex walk of a real plan has the bits of the step
    of the same invariants as complex.

    ``inv`` is (a21, d, tau, mu^2) of the constant A: tau = tr A,
    d = (a11 - a22)/2 and mu^2 = tau^2/4 - det A = d^2 + a21.
    Cayley-Hamilton: exp(hA) = e^(h tau/2) [cosh(h mu) I + sinhc(h mu) h B]
    with B = A - tau/2 I, whose entries are d, 1, a21 and -d.  Its
    derivative follows through w = h^2 mu^2 and a21, with dw/dlambda =
    -h^2 and da21/dlambda = -1 (tau and d do not depend on lambda).
    """
    a21, d, tau, mu2 = inv
    w = h * h * mu2
    ch = _value(_COSH, w)
    sh = h * _value(_SINHC, w)
    g = (math.exp if type(tau) is float else cmath.exp)(0.5 * h * tau)
    e = (g * (ch + sh * d), g * sh, g * sh * a21, g * (ch - sh * d))
    if not dlam:
        return e
    dch = -h * h * _value(_DCOSH, w)
    dsh = -h * h * h * _value(_DSINHC, w)
    return (*e, g * (dch + dsh * d), g * dsh, g * (dsh * a21 - sh), g * (dch - dsh * d))


def _exact_segment(consts, lam, xa, xb, y, ls, sup, h_floor, left, out=None):
    """Cross a constant segment by n products with exp(hA), h = (xb - xa)/n.

    ``consts`` are the lambda-free invariants (a21_0, d, tau, d^2, |tau|/2)
    of the segment's plan (``_build_plan``): a21 = a21_0 - lam and
    mu^2 = d^2 + a21.  n keeps |h mu| and |h tau|/2 at most 1, so each
    sub-step grows |Y| by a bounded factor; a sub-step below h_floor
    raises StepUnderflowError, and n past the ``left`` of the walk's step
    budget StepBudgetError, both before the first sub-step, and an end
    state that is not finite (w = h^2 mu^2 past the float range) raises
    StepUnderflowError too, all with the segment start, its sub-step and
    the state there; the budget left after the n is returned last.  The
    state is rescaled past RESCALE_THRESHOLD.  ``peak`` is the largest
    mantissa since the last rescale, and a rescale fires at the first
    mantissa past the threshold, so log(peak) + ls at the end is the
    largest log|Y| over the segment start, every sub-step end and ``sup``.
    With ``out``, the rows of the sub-steps are appended to it
    (``_exact_rows``).  A state (y0, y1, z0, z1) also carries Z = dY/dlambda:
    Z <- exp(hA) Z + (d exp(hA)/dlambda) Y per sub-step, rescaled with Y.
    """
    a21_0, d, tau, dd, half_tau_abs = consts
    a21 = a21_0 - lam
    mu2 = dd + a21
    seg_len = xb - xa
    n = abs(seg_len) * max(math.sqrt(abs(mu2)), half_tau_abs)
    if not n * h_floor <= abs(seg_len):  # also a rate that is not finite
        raise StepUnderflowError(xa, seg_len / n, y[0], y[1], ls)
    n = max(1, math.ceil(n))
    start = (xa, seg_len / n, y[0], y[1], ls)
    if n > left:
        raise StepBudgetError(*start, MAX_WALK_STEPS)
    dlam = len(y) == 4
    e11, e12, e21, e22, *f = _exact_step((a21, d, tau, mu2), seg_len / n, dlam)
    f11, f12, f21, f22 = f or (0.0, 0.0, 0.0, 0.0)
    y0, y1, z0, z1 = y if dlam else (*y, 0.0, 0.0)
    peak = max(abs(y0), abs(y1))
    # a dense walk keeps the start state of each sub-step, flat, and the
    # (sub-step, logscale) of each rescale
    starts, logscales = [], [(0, ls)]
    keep = None if out is None else starts.append
    for i in range(n):
        if keep:
            keep(y0)
            keep(y1)
        if dlam:
            z0, z1 = e11 * z0 + e12 * z1 + f11 * y0 + f12 * y1, e21 * z0 + e22 * z1 + f21 * y0 + f22 * y1
        y0, y1 = e11 * y0 + e12 * y1, e21 * y0 + e22 * y1
        # m = max(|y0|, |y1|) with max's choice, nan included, without a
        # call per sub-step
        m, m1 = abs(y0), abs(y1)
        if m1 > m:
            m = m1
        if m > peak:
            peak = m
            if m > RESCALE_THRESHOLD:
                y0, y1, z0, z1, peak = y0 / m, y1 / m, z0 / m, z1 / m, 1.0
                ls += math.log(m)
                logscales.append((i + 1, ls))
    if not (cmath.isfinite(y0) and cmath.isfinite(y1)):
        raise StepUnderflowError(*start, finite=False)
    if out is not None:
        out.append(_exact_rows((a21, d, tau, mu2), xa, xb, seg_len / n, starts, logscales))
    return (y0, y1, z0, z1)[:len(y)], ls, max(sup, math.log(peak) + ls) if peak > 0 else sup, left - n


def _exact_rows(inv, xa, xb, h, starts, logscales):
    """Rows of the sub-steps of a constant segment from their start states
    ``starts`` (y0, y1 of each, flat), on the logscale that the last
    (sub-step, logscale) of ``logscales`` at or before each sets: the first
    _TAYLOR_ORDER Taylor coefficients in
    theta of exp(theta hA) Y, which are p_k Y + q_k hBY for those p_k, q_k
    of P = e^(theta h tau/2) cosh(theta h mu) and of
    Q = e^(theta h tau/2) sinh(theta h mu)/(h mu) (``_exact_step``'s
    notation); P' = h tau/2 P + (h mu)^2 Q and Q' = h tau/2 Q + P give
    them.  As |h mu| and |h tau|/2 are at most 1, the k-th is at most
    2^k/k! of |Y| + |hBY|, so the rest is below 2^24/24!, 3e-17.  The
    last row ends at xb exactly.  The coefficients are returned as the
    factors (p_k, q_k) and (Y, hBY) of their einsum, which ``integrate``
    forms into the dense output; a float walk's are float arrays, with the
    bits of the real parts of complex ones."""
    a21, d, tau, mu2 = inv
    half_tau, w = 0.5 * h * tau, h * h * mu2
    pq = [(1.0, 0.0)]
    for k in range(1, _TAYLOR_ORDER):
        p, q = pq[-1]
        pq.append(((half_tau * p + w * q) / k, (half_tau * q + p) / k))
    kind = type(starts[0])  # the walk's type: a float walk's factors are float
    y = np.array(starts, dtype=kind).reshape(-1, 2)
    hby = h * np.stack([d * y[:, 0] + y[:, 1], a21 * y[:, 0] - d * y[:, 1]], axis=1)
    x0 = xa + h * np.arange(len(y))
    hs = np.full(len(y), h)
    hs[-1] = xb - x0[-1]
    at, ls = zip(*logscales)
    # pq of the walk's type too: einsum of a float and a complex operand
    # casts on the fly and runs about 1.5x slower
    return x0, hs, (np.array(pq, dtype=kind), np.array([y, hby])), np.repeat(ls, np.diff([*at, len(y)]))


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


def _sum_lines(name: str, coefs: list, terms: list) -> list:
    """Source lines that set ``name`` to 0 + t0*c0 + t1*c1 + ... of the
    ``terms`` and ``coefs``, each product series first, carried on to a
    new line every 32 terms, so that no expression of a wide entry nests
    deeper than the compiler allows."""
    products = [f"{t}*{c}" for c, t in zip(coefs, terms)]
    return [f"{name} = {name if i else 0} + " + " + ".join(products[i:i + 32])
            for i in range(0, len(products), 32)]


def _taylor_source(n11: int, n21: int, n22: int, derivative: bool) -> str:
    """Source of the Taylor recurrence for entries of n11, n21 and n22
    coefficients (``_taylor_kernel``).

    Every order k runs in one loop over rolling locals u1 = u[k-1],
    u2 = u[k-2], ..., which start at the state and zeros, with the
    products written out series first (complex times float is cheaper
    than float times complex) in the order sum(map(mul, a, reversed(u)))
    adds them.  For finite rows that is the list form bit for bit: a zero
    before the start of a series adds a zero to a sum that starts at 0,
    so is never -0.0, and products commute.  An inf or nan coefficient
    makes both forms non-finite in the last ``window`` orders, where
    ``_jorba_zou`` reads them.  The source grows with the window.
    """
    window = max(n11, n21, n22)
    reach = max(n11, n21)  # how far back the recurrence reads u (and p)
    a, b, c = ([f"{x}{j}" for j in range(n)] for x, n in (("A", n11), ("B", n21), ("C", n22)))

    def back(x, n):
        return [f"{x}{j}" for j in range(1, n + 1)]

    # (Y, Z) series; Z's second row also subtracts u[k-1], the rolling u1
    pairs = [("u", "v", "")] + [("p", "q", " - u1")] * derivative
    names = [x for pair in pairs for x in pair[:2]]
    src = [f"def taylor(a11, a21, a22, {', '.join(f'{x}0' for x in names)}):",
           f"    {', '.join(names)} = {', '.join(f'[{x}0]' for x in names)}"]
    src += [f"    {', '.join(coefs)}, = {entry}" for coefs, entry in ((a, "a11"), (b, "a21"), (c, "a22"))]
    lhs, rhs = [], []
    for y, z, tail in pairs:
        for x, n in ((y, reach), (z, n22)):
            src.append(f"    {', '.join(back(x, n))} = {', '.join([f'{x}0'] + ['0.0'] * (n - 1))}")
        lhs += back(y, reach)[::-1] + back(z, n22)[::-1]
        rhs += (back(y, reach)[-2::-1] + [f"({z}1 + s{y}) / k"]
                + back(z, n22)[-2::-1] + [f"(t{y} + t{z}{tail}) / k"])
    src += [f"    {x}_append = {x}.append" for x in names]
    src.append(f"    for k in range(1, {_TAYLOR_ORDER + window - 1}):")
    for y, z, _ in pairs:
        src += ["        " + line for line in _sum_lines(f"s{y}", a, back(y, n11))
                + _sum_lines(f"t{y}", b, back(y, n21)) + _sum_lines(f"t{z}", c, back(z, n22))]
    src.append(f"        {', '.join(lhs)} = {', '.join(rhs)}")
    src += [f"        {x}_append({x}1)" for x in names]
    src.append(f"    return {', '.join(names)}")
    return "\n".join(src) + "\n"


@lru_cache(maxsize=64)
def _taylor_kernel(n11: int, n21: int, n22: int, derivative: bool):
    """The Taylor recurrence of ``_taylor_segment`` for one entry shape,
    compiled from ``_taylor_source`` on first use: one loop over the
    orders 1 to _TAYLOR_ORDER + window - 2.

    kernel(a11, a21, a22, y0, y1) returns the lists (u, v) of the Taylor
    coefficients Y_0..Y_order of the state from the re-centred rows;
    with ``derivative`` it takes z0, z1 as well and also returns (p, q),
    those of Z = dY/dlambda.
    """
    namespace = {}
    exec(compile(_taylor_source(n11, n21, n22, derivative), "<taylor kernel>", "exec"), namespace)
    return namespace["taylor"]


def _taylor_segment(rows, xa, xb, y, ls, sup, h_floor, left, out=None):
    """Cross a segment with polynomial entries by Taylor steps.

    ``rows`` are the segment's lambda-shifted rows, of degree at most d,
    with coefficients as Python floats or complex (``_build_plan``); a
    float walk has float rows and state, a complex walk a complex state
    and either rows, and every sum takes the type of its operands.  At
    each step start x the rows are re-centred at x, and the Taylor
    coefficients of the state scaled to unit size follow from
    (k+1) Y_{k+1} = sum_{j<=d} A_j Y_{k-j} with a12 = 1, up to order
    _TAYLOR_ORDER + d - 1, by the kernel of the rows' shape
    (``_taylor_kernel``, one loop over every order).  The step is
    ``_jorba_zou``'s over the last d + 1 orders, the reach of the
    recurrence, so that a sparse series (a monomial entry re-centred at
    its center) is never read as ended; it is clipped to the segment end.
    The series are summed at the step end by ``coeffs._value``.  A step below
    h_floor, or a coefficient, step or state that is not finite, raises
    StepUnderflowError with the state at x, and a step past the ``left`` of
    the walk's step budget StepBudgetError; the budget left is returned
    last.  The state is rescaled at step ends past RESCALE_THRESHOLD.  A
    zero state crosses unchanged.

    Without ``out`` (a shot), log|Y| is sampled at the segment start and
    at every step end and midpoint, so the series are also summed at the
    midpoint.  With ``out`` neither is done and ``sup`` is returned as
    given; the steps are kept and their rows of dense output built in one
    array pass at the end of the segment (``_taylor_rows``), then appended
    to ``out``, with a zero row for the rest of the segment once the state
    is zero.  A row that is not finite raises as it would have at its own
    step: before any later error of the walk.

    A state (y0, y1, z0, z1) also carries Z = dY/dlambda, whose series
    follows from (k+1) Z_{k+1} = sum_j A_j Z_{k-j} + E Y_k with
    E = [[0, 0], [-1, 0]].  Its last orders bound the step too, relative
    to the larger of |Z| and |Y|; a Z that is not finite is carried along
    without bounding the step.
    """
    (c11, p11), (c21, p21), (c22, p22) = rows
    window = max(len(p11), len(p21), len(p22))
    width = _TAYLOR_ORDER + window - 1
    y0, y1, *z = y
    shot = out is None
    series = _taylor_kernel(len(p11), len(p21), len(p22), bool(z))
    m = max(abs(y0), abs(y1))
    direction = 1.0 if xb > xa else -1.0
    peak = m
    x = xa
    steps = []  # (start, size, series) of each step of a dense walk
    try:
        while m > 0 and (xb - x) * direction > 0:
            # a constant row is its own re-centring
            a11 = _recentred(p11, x - c11) if len(p11) > 1 else p11
            a21 = _recentred(p21, x - c21) if len(p21) > 1 else p21
            a22 = _recentred(p22, x - c22) if len(p22) > 1 else p22
            if z:
                u, v, p, q = series(a11, a21, a22, y0 / m, y1 / m, z[0] / m, z[1] / m)
            else:
                u, v = series(a11, a21, a22, y0 / m, y1 / m)
            h = _jorba_zou(u, v, window)
            if z:
                hz = _jorba_zou(p, q, window, max(1.0, abs(p[0]) + abs(q[0])))
                h = min(h, hz) if hz > 0 else h
            if not h >= h_floor:
                raise StepUnderflowError(x, direction * h, y0, y1, ls)
            rest = (xb - x) * direction
            last = h >= rest
            h = direction * (rest if last else h)
            if not left:
                raise StepBudgetError(x, h, y0, y1, ls, MAX_WALK_STEPS)
            left -= 1
            e0, e1 = _value(u, h), _value(v, h)
            size = abs(e0) + abs(e1)
            if shot:
                f0, f1 = abs(_value(u, 0.5 * h)), abs(_value(v, 0.5 * h))  # only the midpoint's size is read
                size = size + f0 + f1
                mid = m * max(f0, f1)
            if not size < math.inf:
                raise StepUnderflowError(x, h, y0, y1, ls, finite=False)
            if not shot:
                steps.append(((x, h, y0, y1, ls), m, (u, v)))
            if z:
                z = [m * _value(p, h), m * _value(q, h)]
            y0, y1 = m * e0, m * e1
            m = max(abs(y0), abs(y1))
            x = xb if last else x + h
            if shot:
                peak = max(peak, mid, m)
            if m > RESCALE_THRESHOLD:
                if shot:
                    sup = max(sup, math.log(peak) + ls)
                z = [t / m for t in z]
                y0, y1, ls, peak, m = y0 / m, y1 / m, ls + math.log(m), 1.0, 1.0
    except Exception:
        if steps:
            _taylor_rows(steps, width)  # an earlier row that is not finite raises first
        raise
    if shot:
        return (y0, y1, *z), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup, left
    if steps:
        out.append(_taylor_rows(steps, width))
    if x != xb:
        out.append(([x], [xb - x], np.zeros((1, width, 2)), [ls]))
    return (y0, y1, *z), ls, sup, left


def _taylor_rows(steps, width):
    """Rows (x0, h, coef, logscale) of a segment's Taylor steps, in one
    array pass.  ``steps`` holds each step's start (x, h, y0, y1,
    logscale), the size m of its state and its series (u, v) of the state
    scaled to unit size; its row is m Y_k h^k for k < ``width``, the terms
    of the series of the state on the step in theta = (x - x0)/h.  The
    first row that is not finite raises StepUnderflowError with its start.
    A float walk's rows are float arrays (``integrate`` stores them as
    complex), with the bits of the real parts of complex ones.
    """
    starts, scales, series = zip(*steps)
    kind = type(starts[0][2])  # the walk's type: that of its states
    x0, h, _, _, ls = np.array(starts, dtype=kind).real.T
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.array(series, dtype=kind) * (np.array(scales)[:, None] * h[:, None] ** np.arange(width))[:, None]
    finite = np.isfinite(coef).all(axis=(1, 2))
    if not finite.all():
        raise StepUnderflowError(*starts[int(np.argmin(finite))], finite=False)
    return x0, h, coef.transpose(0, 2, 1), ls


def fundamental(c: CoefficientField, lam: complex, x0: float, window: tuple[float, float]) -> tuple[Trajectory, Trajectory]:
    """The canonical pair (y1, y2) of l[u] = lam u, l the expression of c, with
    initial states (1, 0) and (0, 1) at x0, each covering the window in both
    directions from x0."""
    a, b = float(window[0]), float(window[1])
    if not (a <= x0 <= b):
        raise ValueError("anchor must lie inside the window")
    trajs = []
    for init in ((1.0, 0.0), (0.0, 1.0)):
        steps = [integrate(c, lam, QuasiState(x0, *init), end).steps for end in (a, b) if end != x0]
        trajs.append(Trajectory(c, complex(lam), a, b, np.concatenate(steps)))
    return trajs[0], trajs[1]


# ----------------------------------------------------------------------
# quadrature over dense output

def _panels(fs, a: float, b: float, nodes: np.ndarray, cuts=()):
    """(mid, half, xs): midpoints, half-widths and Gauss-Legendre ``nodes`` of the panels
    of [a, b] between the breakpoints of the distinct functions fs (a trajectory's inner knots) and ``cuts``."""
    distinct = {id(f): f.breakpoints for f in fs}.values()
    left, right = _cut([a], [b], np.concatenate([np.asarray(cuts, dtype=float), *distinct]))[:2]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    return mid, half, mid[:, None] + half[:, None] * nodes


def _panel_values(f, mid: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of f at the nodes xs of panels with midpoints mid, with logscales.

    Each panel reads the row of f that holds its midpoint (``_region``):
    a Trajectory's row and its y0 component, or a PiecewisePoly's region
    as a row with x0 = center, h = 1 and logscale 0.  The rows are read by
    index and summed _ROWS_CHUNK panels at a time, so that no copy of all
    the panels' rows is made.
    """
    if isinstance(f, Trajectory):
        x0, h, coef, ls = f.steps["x0"], f.steps["h"], f.steps["coef"][:, :, 0], f.steps["logscale"]
    elif isinstance(f, PiecewisePoly):
        x0, h, coef, ls = f.centers, np.ones(len(f.centers)), f.coeffs, np.zeros(len(f.centers))
    else:
        raise TypeError(f"expected Trajectory or PiecewisePoly, got {type(f)!r}")
    i = f._region(mid, "right")
    x0, h = x0[i], h[i]
    values = np.empty(xs.shape, dtype=complex)
    for j in range(0, len(i), _ROWS_CHUNK):
        at = slice(j, j + _ROWS_CHUNK)
        values[at] = _dense(coef[i[at], :, None], (xs[at] - x0[at, None]) / h[at, None])
    return values, ls[i]


def _pair_sums(fs, pairs, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(mantissas, logscales) of int f_i conj(f_j) dx over every window (lo[w], hi[w])
    for every index pair (i, j) of ``pairs``: mantissas (windows, pairs), one logscale per window.

    Each function is a Trajectory (its y0, with the rows' logscales) or a
    PiecewisePoly (logscale 0).  The panels of [min lo, max hi] are cut once,
    at the breakpoints of fs and at every window end, so each
    panel lies inside or outside each window, and the functions are sampled
    there once.  floor((deg f_i + deg f_j)/2) + 1 Gauss-Legendre nodes per
    panel, the most any pair needs, integrate every product exactly.  Each
    window sums its panels' parts on its largest logscale, so exponentially
    large solutions never overflow; a window with no panel gives 0 on
    logscale 0.  Windows need lo <= hi, and a trajectory that does not
    cover them all raises ValueError (``Trajectory._region``): no panel is
    cut at its ends.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for f in fs:
        f._region(np.array([lo.min(), hi.max()]), "right")
    nodes, weights = _gauss_legendre(max(fs[i].degree + fs[j].degree for i, j in pairs) // 2 + 1)
    mid, half, xs = _panels(fs, lo.min(), hi.max(), nodes, cuts=np.concatenate([lo, hi]))
    values, scales = zip(*(_panel_values(f, mid, xs) for f in fs))
    parts = half * (np.array([values[i] * values[j].conj() for i, j in pairs]) @ weights)
    ls = np.array([scales[i] + scales[j] for i, j in pairs])
    inside = ((lo[:, None] < mid) & (mid < hi[:, None]))[:, None]  # (windows, 1, panels)
    L = np.max(np.where(inside, ls, -np.inf), axis=(1, 2), initial=-np.inf)
    L = np.where(L > -np.inf, L, 0.0)
    return np.sum(parts * np.exp(np.where(inside, ls - L[:, None, None], -np.inf)), axis=2), L


def pair_integral(u, v, a: float, b: float) -> tuple[complex, float]:
    """(mantissa, logscale) of int_a^b u * conj(v) dx, one pair on one window of
    ``_pair_sums``.  b < a gives minus the integral over [b, a]."""
    if b < a:
        mantissa, L = pair_integral(u, v, b, a)
        return -mantissa, L
    sums, L = _pair_sums((u, v), ((0, 1),), [a], [b])
    return complex(sums[0, 0]), float(L[0])
