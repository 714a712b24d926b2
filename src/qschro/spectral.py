"""Finite-interval shooting spectra and the null-space growth probe.

The characteristic function D(lambda) is the right boundary form evaluated
on the unique (up to scale) solution satisfying the left condition; its
zeros are the eigenvalues of the restriction with separated quasi-boundary
conditions.  Because solutions can traverse many orders of magnitude, D
only vanishes *relative to the cancellation scale of the shot*, and every
acceptance test is phrased that way.  The spectrum of the adjoint
expression is that of the conjugate field ``c.adjoint``, so every
function here takes the field whose expression it solves.  Every shot is
one ``characteristic`` call: the walk (``propagate._walk``) of the
field's lambda-free plan for the interval from the left condition's
state, and the CharValue of its end; it reads the field's entries only
when it plans a new interval.  A shot takes the steps of
``propagate.integrate``, so it is accurate to rounding and has no
tolerance.  A shot may also carry the exact D'(lambda), from Z =
dY/dlambda along the same steps (Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993): it drives the Newton refinement of every
root, bracketed for scan roots, and gives each its noise floor, the
residual that rounding lambda alone can leave.

The probe integrates the fundamental pair of the adjoint equation, that
of ``c.adjoint`` at conj(lambda), over growing symmetric windows and
tracks the smallest eigenvalue N(T) of their L2 Gram matrix, by
Gauss-Legendre sums that are exact for the pair's Taylor rows.  Unbounded N(T) means no normalized combination stays
square-integrable: desk-scale evidence that the adjoint null space is
trivial, which is what the uniqueness theorems assert under their
hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import config
from .coeffs import CoefficientField
from .errors import OverflowUnrecoverableError
from .propagate import _pair_sums, _plan, _walk, fundamental

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BoundaryCondition:
    """Separated conditions alpha*y0 + beta*y1 = 0 in quasi-derivative terms.

    y1 is the first quasi-derivative, not u': u' need not exist at an
    endpoint that carries a coefficient jump.  Dirichlet is (1, 0), the
    default at both ends.  A pair is only a direction, kept divided by its
    largest real or imaginary part: scaling it moves no root, residual or
    floor, no finite pair overflows, and (1, 0) keeps its bits.
    """

    left: tuple[complex, complex] = (1.0, 0.0)
    right: tuple[complex, complex] = (1.0, 0.0)

    def __post_init__(self):
        for name, (al, be) in (("left", self.left), ("right", self.right)):
            if al == 0 and be == 0:
                raise ValueError(f"{name} boundary pair must not be (0, 0)")
            scale = max(abs(v) for z in (al, be) for v in (z.real, z.imag))
            object.__setattr__(self, name, (al / scale, be / scale))


@dataclass(slots=True)
class CharValue:
    """Shooting discriminant with its scale bookkeeping.  Every shot builds
    one, and a plain dataclass with slots takes about a third of the time
    of a frozen one to build."""

    value: complex | float  # mantissa; true D = value * exp(logscale); a float walk's is a float
    logscale: float
    log_sup: float  # log of sup |Y| along the shot
    slope: complex | float | None = None  # mantissa of D'(lambda) on the same logscale, if shot with it

    @property
    def residual(self) -> float:
        """|D| relative to the cancellation scale of the shot."""
        return abs(self.value) * math.exp(self.logscale - self.log_sup)

    def floor(self, lam: complex) -> float | None:
        """Noise floor of the residual at lam: |D'| eps (1 + |lam|) on the
        residual's scale, about what rounding lam to a float moves D by;
        None for a shot without a finite D'."""
        if self.slope is None:
            return None
        floor = abs(self.slope) * (_EPS * (1 + abs(lam))) * math.exp(self.logscale - self.log_sup)
        return floor if math.isfinite(floor) else None

    def at_floor(self, lam: complex) -> bool:
        """Whether the residual is at most its noise floor at lam."""
        floor = self.floor(lam)
        return floor is not None and self.residual <= floor


@dataclass
class EigenResult:
    lam: complex
    residual: float
    iterations: int
    converged: bool
    method: str  # "shooting-scan-bracket", "shooting-scan-node" or "shooting-newton"
    message: str = ""
    shots: int = 0  # shots spent on this root past the scan grid
    floor: float | None = None  # noise floor of the residual, None for a node or a D' that is not finite


class EigenRun(NamedTuple):
    """One ``eigenvalues`` call: its roots, the shots it took (the scan nodes
    shot plus each root's), and the refusing node's (lambda, |Im D|/|D|) of
    a refused real scan, else None."""

    roots: list[EigenResult]
    shots: int
    refusal: tuple[float, float] | None


@dataclass
class ProbeReport:
    """Window-growth analysis of the adjoint equation's solution pair.

    log_N[k] is log of the smallest Gram eigenvalue on [-T_k, T_k];
    N values are also given where representable.  classification is
    "grows" / "bounded" / "inconclusive" per the configured margins.
    """

    lam: complex
    windows: tuple
    log_N: tuple
    N: tuple
    classification: str
    monotone: bool
    growth_total: float = 0.0
    tail_ratio: float = 1.0
    notes: tuple = ()


def characteristic(
    c: CoefficientField,
    interval: tuple[float, float],
    bc: BoundaryCondition,
    lam: complex,
    derivative: bool = False,
) -> CharValue:
    """Shoot the expression of c minus lam from the left condition and
    evaluate the right one.

    The shot is the walk (``propagate._walk``) of the field's plan for the
    interval (built from its entries on its first shot only) from the left
    state (-beta, alpha), with no state around it.  It
    keeps no dense output; ``propagate.integrate`` from that state takes
    the same steps with it.  With ``derivative`` the shot also carries
    dY/dlambda, and ``slope`` is D'(lambda) on the logscale of D.
    """
    a, b = float(interval[0]), float(interval[1])
    plan = _plan(c, a, b)
    al, be = bc.left
    y, ls, log_sup = _walk(plan, lam, (-be, al, 0.0), derivative=derivative)
    ar, br = bc.right
    slope = ar * y[2] + br * y[3] if derivative else None
    return CharValue(ar * y[0] + br * y[1], ls, log_sup, slope)


def eigenvalues(
    c: CoefficientField,
    interval: tuple[float, float],
    bc: BoundaryCondition,
    scan: tuple[float, float] | None = None,
    seeds=(),
    grid: int = 120,
) -> EigenRun:
    """Locate eigenvalues of the expression of c by real-interval scan or
    complex Newton seeds.

    Scan mode brackets sign changes of Re D on a real grid and refines
    each by Newton steps on Re D/Re D' kept inside the bracket
    (``_bracket_root``): valid when D is real along the scan, as it is for
    real s and Q with r = 0 (a real r != 0 makes D complex: ROADMAP item
    14).  A grid node where Re D is exactly 0 is itself a
    root.  The nodes are shot in grid order, and each is checked as soon
    as it is shot: at the first one where D != 0 and |Im D|/|D| exceeds
    ``config.SCAN_REAL_TOL`` the scan is refused, with that node's lambda
    and ratio as the run's ``refusal``, no node past it shot and no root
    of its own; a scan with hi <= lo raises ValueError.
    Newton mode takes Newton steps on D/D' from each seed (``_newton``),
    also after a refused scan; non-converged seeds are reported with
    converged=False, never raised.
    Every refined root is accepted by one rule and keeps its noise floor
    (``_root``).  Duplicates within 1e-8 merge into the root found first
    (nodes, bracket roots, then seeds in order), which counts their shots;
    the roots are then sorted by (Re lambda, Im lambda).  The run's shots
    are the nodes shot plus the roots' shots.
    """
    shoot = partial(characteristic, c, interval, bc)
    results: list[EigenResult] = []
    nodes_shot, refusal = 0, None
    if scan is not None:
        lo, hi = float(scan[0]), float(scan[1])
        if not hi > lo:
            raise ValueError(f"scan range needs lo < hi, got ({lo:g}, {hi:g})")
        lams = np.linspace(lo, hi, grid)
        vals, scales, nodes = [], [], {}
        for i, t in enumerate(lams.tolist()):
            cv = shoot(t)
            v = cv.value
            # the first node past the tolerance settles the refusal
            ratio = abs(v.imag) / abs(v) if v != 0 else 0.0
            if ratio > config.SCAN_REAL_TOL:
                refusal = (t, ratio)
                break
            vals.append(v)
            scales.append(cv.logscale)
            if v.real == 0:
                nodes[i] = cv
        nodes_shot = len(vals) + (refusal is not None)
        if refusal is None:
            signs = [math.copysign(1.0, v.real) if v.real != 0 else 0.0 for v in vals]
            for i, cv in nodes.items():
                results.append(EigenResult(lam=complex(lams[i]), residual=cv.residual, iterations=0,
                                           converged=True, method="shooting-scan-node"))
            for i in range(len(lams) - 1):
                if signs[i] * signs[i + 1] < 0:
                    results.append(_bracket_root(shoot, lams[i:i + 2], vals[i:i + 2], scales[i:i + 2]))
    for seed in seeds:
        results.append(_newton(shoot, complex(seed)))
    merged: list[EigenResult] = []
    for r in results:
        dup = next(
            (
                m
                for m in merged
                if m.converged == r.converged
                and abs(m.lam - r.lam) <= config.EIG_MERGE_TOL * (1 + abs(r.lam))
            ),
            None,
        )
        if dup is None:
            merged.append(r)
        else:
            dup.shots += r.shots
    roots = sorted(merged, key=lambda t: (t.lam.real, t.lam.imag))
    return EigenRun(roots, nodes_shot + sum(r.shots for r in roots), refusal)


def _bracket_root(shoot, lams, vals, scales):
    """Refine a sign change of Re D between two scan nodes by Newton steps on
    Re D/Re D', one shot with D' per iterate, kept inside the bracket that
    every iterate narrows by its sign (``rtsafe``, Numerical Recipes 9.4).

    The first iterate is the secant point of the two scan values.  A Newton
    step that leaves the bracket, or is not at most half the last step, is
    replaced by bisection.  A point within the rounding resolution
    eps (1 + |lambda|) of an end moves onto it, as a root at a
    scan node needs.  The refinement stops when Re D = 0 or when the next
    iterate is this one: a Newton step within that resolution means a
    residual within the noise floor (``CharValue.floor``).  The last
    iterate is reported with its own shot (``_root``).  A D' that is zero
    or not finite gives a bisection step, and one that is not finite no
    floor.
    """
    (lo, hi), (f_lo, f_hi) = map(float, lams), (v.real for v in vals)
    below = f_lo < 0  # the sign of Re D at lo, which stays an end of that sign
    # the scan values carry different logscales
    ratio = abs(f_hi / f_lo) * math.exp(min(scales[1] - scales[0], 700.0))

    def snap(x):
        slack = _EPS * (1 + abs(x))
        return lo if x - lo <= slack else hi if hi - x <= slack else x

    t = snap(0.5 * (lo + hi) if math.isnan(ratio) else lo + (hi - lo) / (1.0 + ratio))
    last = hi - lo
    for it in range(1, config.NEWTON_MAX_ITER + 1):
        cv = shoot(t, derivative=True)
        f, df = cv.value.real, cv.slope.real
        if f == 0:
            break
        if (f < 0) == below:
            lo = t
        else:
            hi = t
        slack = _EPS * (1 + abs(t))
        # a zero or non-finite D' gives no Newton step: bisect
        step = f / df if 0 < abs(df) < math.inf else math.nan
        if not (lo - slack <= t - step <= hi + slack and abs(step) <= 0.5 * abs(last)):
            step = t - 0.5 * (lo + hi)
        nxt = snap(t - step)
        if nxt == t:
            break
        last, t = step, nxt
    return _root("shooting-scan-bracket", t, cv, it,
                 "sign change with a residual above CHAR_TOL and the noise floor")


def _newton(shoot, seed):
    """Newton steps lambda <- lambda - D/D' from ``seed``, one shot with D' per
    iterate.  The iteration stops when D = 0, when the residual is within
    its noise floor (``CharValue.floor``), or one step after the first
    iterate that meets CHAR_TOL; the better of the last two iterates is
    reported (``_root``).  A D' that is zero or not finite ends it."""
    lam, prev = seed, None
    message = "no convergence within iteration budget"
    for it in range(1, config.NEWTON_MAX_ITER + 1):
        cv = shoot(lam, derivative=True)
        if cv.value == 0 or cv.at_floor(lam) or (prev is not None and prev[1].residual <= config.CHAR_TOL):
            break
        if not 0 < abs(cv.slope) < math.inf:
            message = "D' is zero or not finite"
            break
        # value and slope share the shot's logscale
        prev, lam = (lam, cv), lam - cv.value / cv.slope
    if prev is not None and prev[1].residual <= cv.residual:
        lam, cv = prev  # the better of the last two iterates
    return _root("shooting-newton", lam, cv, it, message)


def _root(method, lam, cv, shots, message):
    """The root at lam with its shot cv, converged when its residual is at most
    CHAR_TOL or at most its noise floor; ``message`` says why one is not."""
    ok = cv.residual <= config.CHAR_TOL or cv.at_floor(lam)
    return EigenResult(lam=complex(lam), residual=cv.residual, iterations=shots, converged=ok, method=method,
                       message="" if ok else message, shots=shots, floor=cv.floor(lam))


# ----------------------------------------------------------------------
# null-space probe


def default_windows(tmax: float) -> tuple:
    """Geometric ladder of nine windows ending at tmax (T0 = tmax / 2^8)."""
    return tuple(tmax * 0.5 ** k for k in range(8, -1, -1))


def _window_grams(pair, windows) -> tuple[np.ndarray, np.ndarray]:
    """(mantissas, logscales) of the Hermitian L2(-T, T) Gram matrices of the solution pair
    (y1, y2), one per window T, from one ``_pair_sums`` call over all windows.  Entry (2, 1)
    is int y1 conj(y2)."""
    T = np.asarray(windows, dtype=float)
    sums, L = _pair_sums(pair, ((0, 0), (0, 1), (1, 1)), -T, T)
    g11, g12, g22 = sums.T
    return np.stack([g11, g12.conj(), g12, g22], axis=1).reshape(-1, 2, 2), L


def _exp(x: float) -> float:
    """e^x, inf past the float range, where ``math.exp`` raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _half_back(windows, n: int) -> int | None:
    """Index of the largest of the first n windows that is at most half of
    the n-th, None when none is: the window one doubling back."""
    half = 0.5 * windows[n - 1]
    return next((k for k in range(n - 2, -1, -1) if windows[k] <= half), None)


def _ladder(log_N: list, ref: int | None) -> tuple:
    """(monotone, growth, tail ratio, last increment) of a ladder of log N:
    log N never falls by more than 1e-9 relative, the total growth in log,
    N(T_last)/N(T_ref) and 1 - N(T_ref)/N(T_last) against the window
    ``ref`` one doubling back (``_half_back``), inf and 1 without one.
    Each ratio is e^ of a log difference, inf past the float range, so no
    ratio overflows."""
    monotone = all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(log_N[:-1], log_N[1:]))
    if ref is None:
        return monotone, log_N[-1] - log_N[0], math.inf, 1.0
    return monotone, log_N[-1] - log_N[0], _exp(log_N[-1] - log_N[ref]), 1.0 - _exp(log_N[ref] - log_N[-1])


def null_probe(
    c: CoefficientField,
    lam: complex = 0.0,
    tmax: float = 40.0,
    windows=None,
) -> ProbeReport:
    """Growth analysis of the adjoint solution pair: evidence for def = 0.

    Builds the fundamental pair of the adjoint equation, that of
    ``c.adjoint`` at conj(lambda), anchored at 0, and computes N(T), the
    smallest eigenvalue of the 2x2 L2(-T, T) Gram matrix.  "grows" (no normalized null combination stays
    in L2 on the horizon) needs N(Tmax) >= 100 * N(T0) with a monotone
    trend; "bounded" needs a monotone trend that saturates within 1
    percent.  Saturation and sustained growth compare the last window with
    the largest window at most half of it, one doubling back, so that a
    ladder whose last windows (nearly) coincide reads neither; a ladder
    without such a window is "inconclusive".  For problems without
    accretivity evidence the verdict is exploratory.

    A window whose N is at most PROBE_FLOOR eps times the largest
    eigenvalue of its Gram matrix is unresolved: the pair is parallel to
    rounding there.  The classification reads only the windows below the
    first unresolved one, which a note names; with fewer than three of
    them (or fewer than the ladder has) it is "inconclusive", and "grows"
    also needs them to reach tmax/2: growth on small windows says nothing
    of the solutions toward the horizon.  The printed monotone flag, growth
    and tail ratio are those of the whole ladder.
    """
    if not lam.real < 1.0:
        raise ValueError("probe expects Re lambda < 1 (normalized setting)")
    if tmax < 10.0:
        raise ValueError("probe horizon must be at least 10")
    windows = tuple(sorted(windows)) if windows else default_windows(tmax)
    if not all(T > 0 for T in windows):
        raise ValueError("windows must be positive")
    if windows[-1] > tmax:
        raise ValueError("windows exceed tmax")
    pair = fundamental(c.adjoint, complex(lam).conjugate(), 0.0, (-tmax, tmax))
    M, scales = _window_grams(pair, windows)
    log_N = []
    n_vals = []
    resolved = len(windows)  # the windows below the first unresolved one
    for k, (T, (nmin, nmax), L) in enumerate(zip(windows, np.linalg.eigvalsh(M).tolist(), scales.tolist())):
        if not np.isfinite(nmin):
            raise OverflowUnrecoverableError(f"Gram renormalization failed on window T={T}", window=T)
        if not nmin > config.PROBE_FLOOR * _EPS * nmax and resolved > k:
            resolved = k
        if nmin <= 0:
            log_N.append(-math.inf)
            n_vals.append(0.0)
            continue
        log_N.append(math.log(nmin) + L)
        n_vals.append(nmin * math.exp(L) if abs(math.log(nmin) + L) < 700 else math.inf)
    monotone, growth, tail_ratio, _ = _ladder(log_N, _half_back(windows, len(windows)))
    ref = _half_back(windows, max(resolved, 1))
    monotone_r, growth_r, tail_r, increment_r = _ladder(log_N[: max(resolved, 1)], ref)  # what the classification reads
    notes = []
    if resolved < len(windows):
        T = windows[resolved]
        notes.append(f"N({T!r}) is below its rounding floor, {config.PROBE_FLOOR:g} eps times the largest "
                     f"Gram eigenvalue: the windows from T={T!r} on are unresolved")
    if resolved < min(3, len(windows)):
        cls = "inconclusive"
    elif ref is None:
        cls = "inconclusive"
        notes.append(f"no resolved window is at most half of T={windows[resolved - 1]!r}: "
                     "saturation and growth need a window one doubling back")
    elif monotone_r and increment_r <= config.PROBE_SATURATION_FRACTION:
        cls = "bounded"
        notes.append("Gram mass saturates: an L2 null direction is not excluded")
    elif (
        monotone_r
        and windows[resolved - 1] >= 0.5 * tmax
        and growth_r >= math.log(config.PROBE_GROWTH_FACTOR)
        and tail_r >= 1.0 + config.PROBE_SUSTAINED_MIN
    ):
        # total growth alone is not enough: a deep ladder always grows out
        # of its smallest windows, so the outermost doubling (from the window
        # ref) must still add mass for the "grows" call
        cls = "grows"
        notes.append(
            "no unit-norm combination of the solution pair stays bounded in L2"
        )
    else:
        cls = "inconclusive"
    return ProbeReport(
        lam=complex(lam),
        windows=windows,
        log_N=tuple(log_N),
        N=tuple(n_vals),
        classification=cls,
        monotone=monotone,
        growth_total=growth,
        tail_ratio=tail_ratio,
        notes=tuple(notes),
    )
