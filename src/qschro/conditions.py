"""Constructive checkers for the two m-accretivity criteria.

Growth-vs-weight checks (imaginary part of r against a weight m with
divergent integral of 1/m), interval schemes with per-interval bounds,
and the key integral identity audited on computed null solutions.
Divergence of an integral is reported as a trend, never as a theorem:
every verdict carries the data it was called on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .coeffs import CoefficientField, PiecewisePoly, _gauss_legendre, _panels, _stack, _value, aligned
from .errors import BadSchemeError, NonRealError
from .propagate import Trajectory
from .quasi import _stack_jumps, apply_l_atoms
from .reports import FAILS, HOLDS, INCONCLUSIVE, ConditionReport


@dataclass(frozen=True)
class WeightFunction:
    """Weight m >= 1 with a symmetric horizon [-X, X] for the checks.

    m must be real, and only its real part is kept.  On the horizon its
    values must lie in the float range, and it must be continuous (the W^1
    proxy: kinks are fine) by the jump rule of ``quasi._stack_jumps``.
    """

    m: PiecewisePoly
    horizon: float

    def __post_init__(self):
        m, X = self.m, self.horizon
        if not m.is_real():
            raise NonRealError("weight function must be real-valued")
        if X <= 0:
            raise ValueError("horizon must be positive")
        if _past_float_range(m, X):
            raise ValueError(f"weight function takes values past the float range on the horizon [{-X!r}, {X!r}]")
        jumps = _stack_jumps(_stack([m]), (-X, X))[0]
        if jumps:
            raise ValueError(f"weight function jumps at x={next(iter(jumps))}")
        object.__setattr__(self, "m", m.real)


def _past_float_range(f: PiecewisePoly, X: float) -> bool:
    """Whether f may take a value past the float range on [-X, X]: on some
    region's part of it, sum |c_k| |x - center|^k at the far end, which
    bounds each value there and each partial sum of Horner's rule, is not
    finite.  A few short rows: lists, at 3-4 us per function against 23-35 us
    in array calls (timeit, 2-CPU Xeon)."""
    bp = f.breakpoints.tolist()
    for lo, hi, center, row in zip([-X, *bp], [*bp, X], f.centers.tolist(), f.coeffs.tolist()):
        lo, hi = max(lo, -X), min(hi, X)
        if lo < hi:
            t = max(abs(lo - center), abs(hi - center))
            if not _value([abs(c) for c in row], t) < math.inf:
                return True
    return False


# adaptive Gauss-Legendre for int dx/m: nodes per panel, the agreement of a
# panel with its two halves that ends its halving, and the most panels one
# integral evaluates
_INV_M_NODES = 16
_INV_M_RTOL = 1e-15
_INV_M_PANELS = 4096


def _inv_m_integrals(m: PiecewisePoly, ends) -> list[float]:
    """int_a^b dx/m(x) for every (a, b) of ``ends``, by one adaptive
    Gauss-Legendre pass split at breakpoints.

    1/m is smooth on each region of m (m >= 1 there), so each region of
    each integral starts as one panel of 16 nodes, and every panel whose
    two halves do not agree with it is halved.  The panels of all
    integrals sit in flat arrays tagged with their integral, and each level
    of halving samples m once over every open panel.  A panel agrees with
    its halves when they differ by at most 1e-15 relative plus the rounding
    error of 1/m in the three sums (the bound of
    ``PiecewisePoly.sample_bounded`` over m^2 at each node), which no
    halving lowers.  Once an integral has evaluated 4096 panels, its open
    ones are accepted as they are; other integrals keep their own budget.
    The accepted halves of each integral are summed exactly
    (``math.fsum``); b < a gives minus the integral over [b, a].

    A panel's sums are row reductions, ``(inv * weights).sum(axis=1)``,
    whose bits depend on that row alone.  A matrix-vector product (``@``)
    goes through BLAS, whose blocking depends on the number and alignment
    of the rows, so a panel's sum would change with the other panels of
    its level; with row reductions, and ``sample_bounded`` deciding per
    point, every integral has the same bits alone or in any batch.
    """
    ends = np.asarray(ends, dtype=float).reshape(-1, 2)
    flip = ends[:, 0] > ends[:, 1]
    lo, hi, tag = _panels(ends.min(axis=1), ends.max(axis=1), m.breakpoints)[:3]  # the regions of m in each integral
    nodes, weights = _gauss_legendre(_INV_M_NODES)

    def panel_sums(lo, hi):
        half = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
        vals, bound = m.sample_bounded(xs)
        inv = 1.0 / vals
        return half * (inv * weights).sum(axis=1), half * (bound * inv**2 * weights).sum(axis=1)

    whole, noise = panel_sums(lo, hi)
    evaluated = np.bincount(tag, minlength=len(ends))
    accepted = [[] for _ in range(len(ends))]  # the accepted halves of each integral
    while len(lo):
        # the left halves of all open panels, then their right halves
        n, mid = len(lo), 0.5 * (lo + hi)
        lo, hi, tag = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([tag, tag])
        sums, noises = panel_sums(lo, hi)
        evaluated += np.bincount(tag, minlength=len(ends))
        halves = sums[:n] + sums[n:]
        done = np.abs(halves - whole) <= _INV_M_RTOL * halves + noise + noises[:n] + noises[n:]
        spent = evaluated + 4 * np.bincount(tag[:n][~done], minlength=len(ends)) > _INV_M_PANELS
        done |= spent[tag[:n]]
        keep = np.concatenate([~done, ~done])
        for k, part in zip(tag[~keep].tolist(), sums[~keep].tolist()):
            accepted[k].append(part)
        lo, hi, tag, whole, noise = lo[keep], hi[keep], tag[keep], sums[keep], noises[keep]
    return [-math.fsum(parts) if minus else math.fsum(parts) for parts, minus in zip(accepted, flip.tolist())]


def check_m(w: WeightFunction, probe_points=()) -> ConditionReport:
    """Check m >= 1 exactly and classify the trend of I(T) = int dT/m.

    Partial integrals are tabulated on a geometric ladder up to the
    horizon on both sides (plus any requested probe points); the verdict
    is "holds-on-horizon" when the outer half of the horizon still
    contributes at least the configured fraction of I(X) on both sides
    ("divergence-consistent"), "inconclusive" when I saturates, and
    "fails" only if m drops below 1.  Divergence is never proved.
    """
    X = w.horizon
    val, x_at = w.m.extreme_on(-X, X, mode="min")
    if val < 1.0 - 1e-12:
        return ConditionReport(
            check="weight-lower-bound",
            verdict=FAILS,
            witnesses={"witness_x": x_at, "witness_value": val},
            notes=("m(x) < 1 inside the horizon",),
        )
    probe_points = [float(T) for T in probe_points]
    for T in probe_points:
        if not math.isfinite(T):
            raise ValueError(f"probe point {T} is not finite")
        if abs(T) > X:
            raise ValueError(f"probe point {T} outside horizon {X}")
    ladder = [X * 0.5**k for k in range(7, -1, -1)]
    sides = (("right", 1.0), ("left", -1.0))
    steps = [(sgn * prev, sgn * T) for _, sgn in sides for prev, T in zip([0.0] + ladder, ladder)]
    integrals = _inv_m_integrals(w.m, steps + [(0.0, T) for T in probe_points])
    tables = {}
    deltas = {}
    for s, (side, _) in enumerate(sides):
        rows = []
        acc = 0.0
        for T, step in zip(ladder, integrals[s * len(ladder) : (s + 1) * len(ladder)]):
            # the last increment, from X/2 to X, is the outer half
            half = abs(step)
            acc += half
            rows.append((T, acc))
        tables[f"partial_integrals_{side}"] = rows
        deltas[side] = (half, acc)
    probes = dict(zip(probe_points, integrals[len(steps) :]))
    diverging = all(
        half >= config.DIVERGENCE_MARGIN_FRACTION * total for half, total in deltas.values()
    )
    witnesses = {
        "I_right": deltas["right"][1],
        "I_left": deltas["left"][1],
        "outer_half_fraction_right": deltas["right"][0] / deltas["right"][1],
        "outer_half_fraction_left": deltas["left"][0] / deltas["left"][1],
        "min_m": val,
    }
    for T, v in probes.items():
        witnesses[f"I({T!r})"] = v
    return ConditionReport(
        check="inverse-weight-divergence",
        verdict=HOLDS if diverging else INCONCLUSIVE,
        witnesses=witnesses,
        tables=tables,
        notes=("divergence-consistent: outer half still accumulates mass" if diverging
               else "partial integrals saturate on the horizon (converging trend)",),
    )


def check_growth(r1: PiecewisePoly, w: WeightFunction) -> ConditionReport:
    """Envelope check of the growth bound: positive part of r1 against m
    toward -infinity and the negative part toward +infinity.

    The horizon is split into blocks by |x|; block maxima of the sampled
    ratio r1^{+-}/m form the growth envelope.  The estimated constant C is
    the outer-half maximum.  On each side N0 is the start of the
    non-increasing run (within the configured slack) that ends at the
    horizon (``_n0``); the verdict is "holds-on-horizon" when both sides
    have one that is longer than the last block alone, otherwise "fails"
    with the worst point as witness.

    A block [a, b] is sampled at 64 even points and at the breakpoints of
    r1 and m strictly inside it; its maximum is the first largest positive
    ratio, or 0 at a when the ratio is nowhere positive.  All blocks are
    sampled in one pass: one row per block, its even points then its
    breakpoints, in the order left, right for each block of |x|.
    """
    if not r1.is_real():
        raise NonRealError("r1 must be real-valued")
    X = w.horizon
    nb = config.ENVELOPE_BLOCKS
    if not X * nb < math.inf:
        raise ValueError(f"horizon {X!r} puts the edges of the {nb} envelope blocks past the float range")
    if _past_float_range(r1, X):
        raise ValueError(f"r1 takes values past the float range on the horizon [{-X!r}, {X!r}]")
    edges = [X * k / nb for k in range(nb + 1)]
    lo, hi = np.repeat(edges[:-1], 2), np.repeat(edges[1:], 2)
    left = np.arange(2 * nb) % 2 == 0
    a, b = np.where(left, -hi, lo), np.where(left, -lo, hi)
    bps = np.concatenate([r1.breakpoints, w.m.breakpoints])
    grid = np.linspace(a, b, 64, axis=1)
    inside = (bps > a[:, None]) & (bps < b[:, None])
    pts = np.concatenate([grid, np.broadcast_to(bps, inside.shape)], axis=1)
    take = np.concatenate([np.ones(grid.shape, dtype=bool), inside], axis=1)
    xs = pts[take]
    r = r1.sample(xs).real
    ratio = np.maximum(np.where(np.repeat(left, take.sum(axis=1)), r, -r), 0.0) / w.m.sample(xs).real
    env = np.zeros(pts.shape)
    env[take] = np.where(ratio > 0, ratio, 0.0)  # NaN never; 0 off the block's points
    at = np.arange(2 * nb), env.argmax(axis=1)  # each block's first maximum
    best = env[at]
    best_x = np.where(best > 0, pts[at], a)
    rows = list(zip(["left", "right"] * nb, lo.tolist(), hi.tolist(), best.tolist(), best_x.tolist()))
    blocks = {"left": best[0::2].tolist(), "right": best[1::2].tolist()}
    k = int(np.argmax(best))
    worst = rows[k][3:] if best[k] > 0 else (0.0, 0.0)
    n0 = {side: _n0(seq) for side, seq in blocks.items()}
    C = max(max(blocks["left"][nb // 2 :]), max(blocks["right"][nb // 2 :]))
    witnesses = {"C": C} | {f"N0_{side}": None if k is None else edges[k] for side, k in n0.items()}
    holds = None not in n0.values()
    if not holds:
        witnesses["witness_x"] = worst[1]
        witnesses["witness_ratio"] = worst[0]
    return ConditionReport(
        check="growth-vs-weight",
        verdict=HOLDS if holds else FAILS,
        witnesses=witnesses,
        tables={"envelope": rows},
        notes=() if holds else ("ratio envelope keeps increasing toward the horizon edge",),
    )


def _n0(seq) -> int | None:
    """The block N0 of an envelope side: the start of the non-increasing run
    (each block at most the one before it times 1 + ENVELOPE_GROWTH_TOL, plus
    1e-12) that ends at the horizon, which is the last block that rises above
    the one before it, or 0; None when that is the last block, as one block
    alone is no trend."""
    tol = config.ENVELOPE_GROWTH_TOL
    last = max((j for j in range(len(seq) - 1) if not seq[j + 1] <= seq[j] * (1 + tol) + 1e-12), default=-1)
    return last + 1 if last < len(seq) - 2 else None


@dataclass(frozen=True)
class IntervalScheme:
    """Disjoint intervals Delta_n = [a_n, b_n], n = ±1..±N, drifting to ±inf.

    ``delta`` is the claimed uniform lower bound on the lengths (the first
    interval condition); it is verified, not trusted.
    """

    intervals: dict[int, tuple[float, float]]
    delta: float

    def __post_init__(self):
        if not self.intervals:
            raise BadSchemeError("empty interval scheme")
        if self.delta <= 0:
            raise BadSchemeError("delta must be positive")
        items = sorted(self.intervals.items())
        for n, (a, b) in items:
            if n == 0:
                raise BadSchemeError("index 0 is not part of a scheme")
            if not b > a:
                raise BadSchemeError(f"interval {n} is degenerate: [{a}, {b}]")
        pos = sorted(self.intervals.values())
        for (a1, b1), (a2, b2) in zip(pos[:-1], pos[1:]):
            if a2 < b1:
                raise BadSchemeError(f"intervals overlap near [{a2}, {b1}]")
        ns = sorted(self.intervals)
        for i, j in zip(ns[:-1], ns[1:]):
            if self.intervals[i][0] >= self.intervals[j][0]:
                raise BadSchemeError("interval positions must increase with the index")

    def index_range(self) -> list[int]:
        """Every |n| of the scheme, also one whose -n or n is missing."""
        return sorted({abs(n) for n in self.intervals})

    @classmethod
    def unit_intervals(cls, count: int, spacing: float = 2.0) -> "IntervalScheme":
        """Delta_n = [spacing*n, spacing*n + 1] on both sides."""
        iv = {}
        for n in range(1, count + 1):
            iv[n] = (spacing * n, spacing * n + 1.0)
            iv[-n] = (-spacing * n - 1.0, -spacing * n)
        return cls(intervals=iv, delta=1.0)


def check_intervals(r1: PiecewisePoly, scheme: IntervalScheme) -> ConditionReport:
    """Verify the length bound and tabulate per-interval sup constants.

    For each n: sup of r1^+ over Delta_{-n} divided by |Delta_{-n}|, and
    sup of r1^- over Delta_n divided by |Delta_n| (exact polynomial
    max-finding).  Off-interval behaviour of r1 is deliberately ignored.
    The verdict is "fails" when the per-n constants keep growing through
    the stored range (no uniform C is evident), otherwise "holds-on-horizon"
    with the constant table.
    """
    if not r1.is_real():
        raise NonRealError("r1 must be real-valued")
    for n, (a, b) in sorted(scheme.intervals.items()):
        if b - a < scheme.delta - 1e-12:
            return ConditionReport(
                check="interval-scheme",
                verdict=FAILS,
                witnesses={"witness_n": n, "witness_length": b - a, "delta": scheme.delta},
                notes=("length lower bound violated",),
            )
    rows = []
    consts = []
    for n in scheme.index_range():
        cs = []
        for idx in (-n, n):
            if idx not in scheme.intervals:
                continue
            a, b = scheme.intervals[idx]
            if idx < 0:
                sup, x_at = r1.extreme_on(a, b, mode="max")
                sup = max(sup, 0.0)  # positive part
            else:
                low, x_at = r1.extreme_on(a, b, mode="min")
                sup = max(-low, 0.0)  # negative part
            cn = sup / (b - a)
            rows.append((idx, a, b, sup, cn, x_at))
            cs.append(cn)
        consts.append(max(cs) if cs else 0.0)
    C = max(consts) if consts else 0.0
    half = max(1, len(consts) // 2)
    inner = max(consts[:half]) if consts[:half] else 0.0
    outer = max(consts[half:]) if consts[half:] else 0.0
    growing = outer > inner * (1 + config.ENVELOPE_GROWTH_TOL) + 1e-12
    witnesses = {"C": C, "delta": scheme.delta}
    if growing:
        worst = max(rows, key=lambda r: r[4])
        witnesses["witness_n"] = worst[0]
        witnesses["witness_constant"] = worst[4]
        witnesses["witness_x"] = worst[5]
    return ConditionReport(
        check="interval-scheme",
        verdict=FAILS if growing else HOLDS,
        witnesses=witnesses,
        tables={"per_interval": rows},
        notes=("per-interval constants grow through the range: no uniform C",) if growing else (),
    )


def verify_caccioppoli(
    c: CoefficientField,
    v: Trajectory,
    phi: PiecewisePoly,
) -> float:
    """Residual of the null-solution energy identity, scale-normalized.

    For v solving the adjoint equation at 0, a trajectory of ``c.adjoint``
    (any other raises ValueError), and a real compactly
    supported phi, Re (phi v, l_adj[phi v]) equals
    int (phi')^2 |v|^2 + 2 int r1 phi' phi |v|^2.  The left side goes
    through the expression applied to the re-fitted product, the right
    side through direct quadrature; their difference is the residual,
    relative to 1 + both magnitudes.  The re-fitted v, phi and r1 are put
    on one mesh with the field's breakpoints first, so no product of v,
    |v|^2 at twice its degree among them, is re-centred.
    """
    if not phi.is_real():
        raise NonRealError("cut-off must be real-valued")
    if v.field is not c.adjoint:
        raise ValueError("the null solution must be a trajectory of c.adjoint")
    if abs(v.lam) > 1e-12:
        raise ValueError("the identity is for null solutions: lambda must be 0")
    lo, hi = phi.support_bounds()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cut-off must be compactly supported")
    if lo < v.a - 1e-9 or hi > v.b + 1e-9:
        raise ValueError("null solution does not cover the cut-off support")
    v_pw, phi, r1 = aligned((v.to_piecewise(lo, hi), phi, c.r1), c.breakpoints)
    phiv = phi * v_pw
    expr, atoms = apply_l_atoms(c.adjoint, phiv, (lo, hi))
    left_c = (phiv * expr.conj()).integrate(lo, hi)
    left_c += sum(
        phiv.eval(p) * wt.conjugate() for p, wt in atoms.items() if lo <= p <= hi
    )
    left = left_c.real
    dphi = phi.derivative()
    vv = v_pw * v_pw.conj()
    right = ((dphi * dphi) * vv).integrate(lo, hi).real
    right += 2.0 * ((r1 * dphi * phi) * vv).integrate(lo, hi).real
    return abs(left - right) / (1.0 + abs(left) + abs(right))
