"""Finite-interval shooting spectra and the null-space growth probe.

The characteristic function D(lambda) is the right boundary form evaluated
on the unique (up to scale) solution satisfying the left condition; its
zeros are the eigenvalues of the restriction with separated quasi-boundary
conditions.  Because solutions can traverse many orders of magnitude, D
only vanishes *relative to the cancellation scale of the shot*, and every
acceptance test is phrased that way.  Every shot is one ``characteristic``
call, and lambda is a scalar of the shot's system.

The probe integrates the adjoint equation's fundamental pair over growing
symmetric windows and tracks the smallest eigenvalue N(T) of their L2
Gram matrix.  Unbounded N(T) means no normalized combination stays
square-integrable: desk-scale evidence that the adjoint null space is
trivial, which is what the uniqueness theorems assert under their
hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import config
from .coeffs import CoefficientField
from .errors import NonRealScanError, OverflowUnrecoverableError
from .propagate import _GL_NODES, _GL_WEIGHTS, FundamentalSystem, _panel_values, _panels
from .propagate import Trajectory, endpoint, fundamental, integrate
from .quasi import ADJOINT, DIRECT, QuasiState, apply_l, assemble


@dataclass(frozen=True)
class BoundaryCondition:
    """Separated conditions alpha*y0 + beta*y1 = 0 in quasi-derivative terms.

    y1 is the first quasi-derivative, not u': u' need not exist at an
    endpoint that carries a coefficient jump.  Dirichlet is (1, 0).
    """

    left: tuple[complex, complex] = (1.0, 0.0)
    right: tuple[complex, complex] = (1.0, 0.0)

    def __post_init__(self):
        for name, (al, be) in (("left", self.left), ("right", self.right)):
            if al == 0 and be == 0:
                raise ValueError(f"{name} boundary pair must not be (0, 0)")

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls((1.0, 0.0), (1.0, 0.0))


@dataclass(frozen=True)
class CharValue:
    """Shooting discriminant with its scale bookkeeping."""

    value: complex  # mantissa; true D = value * exp(logscale)
    logscale: float
    log_sup: float  # log of sup |Y| along the shot

    @property
    def residual(self) -> float:
        """|D| relative to the cancellation scale of the shot."""
        return abs(self.value) * math.exp(self.logscale - self.log_sup)


@dataclass
class EigenResult:
    lam: complex
    residual: float
    iterations: int
    converged: bool
    method: str  # "shooting-scan-brent", "shooting-scan-node" or "shooting-newton"
    message: str = ""
    # the dense shot at lam, run by ``trajectory`` on first read
    shot: Callable[[], Trajectory] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def trajectory(self) -> Trajectory | None:
        """Dense-output shot at ``lam`` (one ``integrate``, then cached), or
        None for a result that keeps none."""
        return None if self.shot is None else self.shot()


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
    side: str = DIRECT,
    tol: tuple[float, float] = (config.ATOL, config.RTOL),
) -> CharValue:
    """Shoot from the left condition and evaluate the right one.

    The shot keeps no dense output (``propagate.endpoint``); ``_dense_shot``
    is the same shot with it.
    """
    end, log_sup = endpoint(assemble(c, side, lam), _left_state(interval, bc, side), float(interval[1]), tol)
    ar, br = bc.right
    D = ar * end.y0 + br * end.y1
    return CharValue(value=D, logscale=end.logscale, log_sup=log_sup)


def _left_state(interval, bc: BoundaryCondition, side: str) -> QuasiState:
    al, be = bc.left
    return QuasiState(x=float(interval[0]), y0=-be, y1=al, side=side)


def _dense_shot(c, interval, bc, lam, side, tol) -> Trajectory:
    return integrate(assemble(c, side, lam), _left_state(interval, bc, side), float(interval[1]), tol)


def eigenvalues(
    c: CoefficientField,
    interval: tuple[float, float],
    bc: BoundaryCondition,
    scan: tuple[float, float] | None = None,
    seeds=(),
    grid: int = 120,
    side: str = DIRECT,
    tol: tuple[float, float] = (config.ATOL, config.RTOL),
) -> list[EigenResult]:
    """Locate eigenvalues by real-interval scan or complex Newton seeds.

    Scan mode brackets sign changes of Re D on a real grid and refines
    each with Brent's method (``scipy.optimize.brentq``): valid when D is
    real along the scan (formally symmetric data).  A grid node where Re D
    is exactly 0 is itself a root.  When
    max |Im D|/|D| over the grid exceeds ``config.SCAN_REAL_TOL`` the scan
    refuses with a NonRealScanError carrying that ratio.
    Newton mode takes secant steps from each seed, one shot per iterate,
    plus one polishing step; non-converged seeds are reported with
    converged=False, never raised.  Duplicates merge within 1e-8.
    """
    shoot = partial(characteristic, c, interval, bc, side=side, tol=tol)
    dense = partial(_dense_shot, c, interval, bc, side=side, tol=tol)
    results: list[EigenResult] = []
    if scan is not None:
        lo, hi = float(scan[0]), float(scan[1])
        lams = np.linspace(lo, hi, grid)
        vals, scales, nodes = [], [], {}
        for i, t in enumerate(lams):
            cv = shoot(float(t))
            vals.append(cv.value)
            scales.append(cv.logscale)
            if cv.value.real == 0:
                nodes[i] = cv
        ratio = max((abs(v.imag) / abs(v) for v in vals if v != 0), default=0.0)
        if ratio > config.SCAN_REAL_TOL:
            raise NonRealScanError(
                f"real scan refused: max |Im D|/|D| = {ratio:.3e} over the grid exceeds "
                f"{config.SCAN_REAL_TOL:g}, so sign changes of Re D are not roots; use Newton seeds",
                ratio=ratio,
            )
        signs = [math.copysign(1.0, v.real) if v.real != 0 else 0.0 for v in vals]
        for i, cv in nodes.items():
            results.append(EigenResult(
                lam=complex(lams[i]), residual=cv.residual, iterations=0, converged=True,
                method="shooting-scan-node", shot=partial(dense, float(lams[i])),
            ))
        for i in range(len(lams) - 1):
            if signs[i] * signs[i + 1] < 0:
                results.append(_brent_real(shoot, dense, lams[i:i + 2], vals[i:i + 2], scales[i:i + 2]))
    for seed in seeds:
        results.append(_newton(shoot, dense, complex(seed)))
    merged: list[EigenResult] = []
    for r in sorted(results, key=lambda t: (t.lam.real, t.lam.imag)):
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
    return merged


def _brent_real(shoot, dense, lams, vals, scales):
    """Refine a sign change of Re D between two scan nodes with brentq.

    The ends reuse the scan's shots.  Every value is put on the common
    scale exp(L), L the larger end logscale: the mantissas alone carry
    different exponents.
    """
    L = max(scales)
    ends = {float(t): v.real * math.exp(ls - L) for t, v, ls in zip(lams, vals, scales)}

    def re_d(t):
        if t in ends:
            return ends[t]
        cv = shoot(t)
        return cv.value.real * math.exp(cv.logscale - L)

    lo, hi = ends
    lam, info = brentq(re_d, lo, hi, xtol=5e-15, full_output=True, disp=False)
    cv = shoot(lam)
    return EigenResult(
        lam=complex(lam),
        residual=cv.residual,
        iterations=info.iterations,
        converged=info.converged or cv.residual <= config.CHAR_TOL,
        method="shooting-scan-brent",
        shot=partial(dense, lam),
    )


def _newton(shoot, dense, seed):
    """Secant steps on D from ``seed`` and seed + NEWTON_FIRST_STEP * (1 + |seed|),
    one shot per iterate.  The first iterate to meet CHAR_TOL gets one more
    step; the better of the last two iterates is reported, converged when
    its residual meets CHAR_TOL."""
    lam = seed + config.NEWTON_FIRST_STEP * (1 + abs(seed))
    prev, cur = (seed, shoot(seed)), (lam, shoot(lam))
    message = "no convergence within iteration budget"
    for it in range(1, config.NEWTON_MAX_ITER + 1):
        (l0, c0), (l1, c1) = prev, cur
        met = c1.residual <= config.CHAR_TOL
        # combine at a common scale; nearby lambdas give nearby logscales
        L = max(c0.logscale, c1.logscale)
        d0, d1 = (cv.value * math.exp(cv.logscale - L) for cv in (c0, c1))
        if d1 == d0:
            message = "flat characteristic (zero derivative)"
            break
        step = d1 * (l1 - l0) / (d1 - d0)
        lam = l1 - step
        prev, cur = cur, (lam, shoot(lam))
        if met or abs(step) <= 1e-14 * (1 + abs(lam)):
            message = "stagnated above tolerance"
            break
    lam, cv = min(prev, cur, key=lambda p: p[1].residual)
    ok = cv.residual <= config.CHAR_TOL
    return EigenResult(lam=lam, residual=cv.residual, iterations=it, converged=ok, method="shooting-newton",
                       message="" if ok else message, shot=partial(dense, lam))


def eigenfunction_residual(
    c: CoefficientField,
    result: EigenResult,
    interval: tuple[float, float],
    side: str = DIRECT,
) -> float:
    """Relative L2 residual of the re-fitted eigenfunction.

    Re-fits the dense output as a piecewise polynomial, applies the
    expression exactly, and compares with lambda times the eigenfunction.
    """
    if result.trajectory is None:
        raise ValueError("eigenvalue result carries no trajectory")
    a, b = float(interval[0]), float(interval[1])
    u = result.trajectory.to_piecewise(0, a, b)
    lu = apply_l(c, side, u, (a, b))
    diff = lu - result.lam * u
    num = (diff * diff.conj()).integrate(a, b).real
    den = (u * u.conj()).integrate(a, b).real
    return math.sqrt(max(num, 0.0) / den) / (1 + abs(result.lam))


# ----------------------------------------------------------------------
# null-space probe


def default_windows(tmax: float) -> tuple:
    """Geometric ladder of nine windows ending at tmax (T0 = tmax / 2^8)."""
    return tuple(tmax * 0.5 ** k for k in range(8, -1, -1))


def _window_grams(fs: FundamentalSystem, windows) -> tuple[np.ndarray, np.ndarray]:
    """(mantissas, logscales) of the Hermitian L2(-T, T) Gram matrices of the pair, one per
    window T, from one sampling of the outermost window's panels cut at every +-T; each
    window sums the parts of its panels on its largest logscale.  Entry (2, 1) is int y1 conj(y2)."""
    T = np.asarray(windows, dtype=float)
    mid, half, xs = _panels((fs.y1, fs.y2), -T[-1], T[-1], _GL_NODES, cuts=np.concatenate([-T, T]))
    (f1, l1), (f2, l2) = (_panel_values(y, mid, xs) for y in (fs.y1, fs.y2))
    parts = half * (np.array([f1 * f1.conj(), f1 * f2.conj(), f2 * f2.conj()]) @ _GL_WEIGHTS)
    ls = np.array([l1 + l1, l1 + l2, l2 + l2])
    inside = (np.abs(mid) < T[:, None])[:, None]  # (windows, 1, panels)
    L = np.max(np.where(inside, ls, -np.inf), axis=(1, 2))
    g11, g12, g22 = np.sum(parts * np.exp(np.where(inside, ls - L[:, None, None], -np.inf)), axis=2).T
    return np.stack([g11, g12.conj(), g12, g22], axis=1).reshape(-1, 2, 2), L


def null_probe(
    c: CoefficientField,
    lam: complex = 0.0,
    tmax: float = 40.0,
    windows=None,
    tol: tuple[float, float] = (config.ATOL, config.RTOL),
) -> ProbeReport:
    """Growth analysis of the adjoint solution pair: evidence for def = 0.

    Builds the fundamental system of the adjoint equation at conj(lambda)
    anchored at 0 and computes N(T), the smallest eigenvalue of the 2x2
    L2(-T, T) Gram matrix.  "grows" (no normalized null combination stays
    in L2 on the horizon) needs N(Tmax) >= 100 * N(T0) with a monotone
    trend; "bounded" needs saturation within 1 percent.  For problems
    without accretivity evidence the verdict is exploratory.
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
    sys = assemble(c, ADJOINT, complex(lam).conjugate())
    M, scales = _window_grams(fundamental(sys, 0.0, (-tmax, tmax), tol), windows)
    log_N = []
    n_vals = []
    for T, nmin, L in zip(windows, np.linalg.eigvalsh(M)[:, 0].tolist(), scales.tolist()):
        if not np.isfinite(nmin):
            raise OverflowUnrecoverableError(
                f"Gram renormalization failed on window T={T}"
            )
        if nmin <= 0:
            log_N.append(-math.inf)
            n_vals.append(0.0)
            continue
        log_N.append(math.log(nmin) + L)
        n_vals.append(nmin * math.exp(L) if abs(math.log(nmin) + L) < 700 else math.inf)
    monotone = all(
        b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(log_N[:-1], log_N[1:])
    )
    notes = []
    growth = log_N[-1] - log_N[0]
    tail_ratio = math.exp(log_N[-1] - log_N[-2]) if len(log_N) >= 2 else math.inf
    last_increment = 1.0 - math.exp(log_N[-2] - log_N[-1]) if len(log_N) >= 2 else 1.0
    if last_increment <= config.PROBE_SATURATION_FRACTION:
        cls = "bounded"
        notes.append("Gram mass saturates: an L2 null direction is not excluded")
    elif (
        monotone
        and growth >= math.log(config.PROBE_GROWTH_FACTOR)
        and tail_ratio >= 1.0 + config.PROBE_SUSTAINED_MIN
    ):
        # total growth alone is not enough: a deep ladder always grows out
        # of its smallest windows, so the outermost doubling must still add
        # mass for the "grows" call
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
