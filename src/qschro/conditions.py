"""Constructive checkers for the two m-accretivity criteria.

Growth-vs-weight checks (imaginary part of r against a weight m with
divergent integral of 1/m), the reparametrization rho with rho' = 1/m,
cut-off sequences with explicit slope constants, interval schemes with
per-interval bounds, and the key integral identity audited on computed
null solutions.  Divergence of an integral is reported as a trend, never
as a theorem: every verdict carries the data it was called on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .coeffs import CoefficientField, PiecewisePoly, _gauss_legendre, _panels, aligned, bump, from_callable
from .errors import BadSchemeError, NonRealError
from .propagate import Trajectory
from .quasi import ADJOINT, apply_l_atoms
from .reports import FAILS, HOLDS, INCONCLUSIVE, ConditionReport


@dataclass(frozen=True)
class WeightFunction:
    """Weight m >= 1 with a symmetric horizon [-X, X] for the checks.

    Continuity (the W^1 proxy) is required: kinks are fine, jumps are not.
    """

    m: PiecewisePoly
    horizon: float

    def __post_init__(self):
        if not self.m.is_real(1e-10):
            raise NonRealError("weight function must be real-valued")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        scale = self.m.coeff_scale() or 1.0
        for p, h in self.m.jumps.items():
            if abs(p) <= self.horizon and abs(h) > 1e-10 * scale:
                raise ValueError(f"weight function jumps at x={p}")


# adaptive Gauss-Legendre for int dx/m: nodes per panel, the agreement of a
# panel with its two halves that ends its halving, and the most panels one
# integral evaluates
_INV_M_NODES = 16
_INV_M_RTOL = 1e-15
_INV_M_PANELS = 4096
_EPS = float(np.finfo(float).eps)
# most Newton or bisection steps of rho^-1 (MAXIT of Numerical Recipes' rtsafe)
_RHO_INVERSE_ITER = 100


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
    lo, hi, tag = _panels(ends.min(axis=1), ends.max(axis=1), m.breakpoints)  # the regions of m in each integral
    nodes, weights = _gauss_legendre(_INV_M_NODES)

    def panel_sums(lo, hi):
        half = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
        vals, bound = m.sample_bounded(xs)
        inv = 1.0 / vals
        return half * (inv * weights).sum(axis=1), half * (bound * inv**2 * weights).sum(axis=1)

    whole, noise = panel_sums(lo, hi)
    evaluated = np.bincount(tag, minlength=len(ends))
    parts, part_tags = [np.zeros(0)], [tag[:0]]
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
        parts.append(sums[~keep])
        part_tags.append(tag[~keep])
        lo, hi, tag, whole, noise = lo[keep], hi[keep], tag[keep], sums[keep], noises[keep]
    tags = np.concatenate(part_tags)
    flat = np.concatenate(parts)[np.argsort(tags, kind="stable")].tolist()
    stops = np.cumsum(np.bincount(tags, minlength=len(ends))).tolist()
    out, start = [], 0
    for stop, minus in zip(stops, flip.tolist()):
        total = math.fsum(flat[start:stop])
        out.append(-total if minus else total)
        start = stop
    return out


def _inv_m_integral(m: PiecewisePoly, a: float, b: float) -> float:
    """int_a^b dx/m(x), one integral of ``_inv_m_integrals``."""
    return _inv_m_integrals(m, [(a, b)])[0]


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
    if diverging:
        return ConditionReport(
            check="inverse-weight-divergence",
            verdict=HOLDS,
            witnesses=witnesses,
            tables=tables,
            notes=("divergence-consistent: outer half still accumulates mass",),
        )
    return ConditionReport(
        check="inverse-weight-divergence",
        verdict=INCONCLUSIVE,
        witnesses=witnesses,
        tables=tables,
        notes=("partial integrals saturate on the horizon (converging trend)",),
    )


def check_growth(r1: PiecewisePoly, w: WeightFunction) -> ConditionReport:
    """Envelope check of the growth bound: positive part of r1 against m
    toward -infinity and the negative part toward +infinity.

    The horizon is split into blocks by |x|; block maxima of the sampled
    ratio r1^{+-}/m form the growth envelope.  The estimated constant C is
    the outer-half maximum; the verdict is "holds-on-horizon" when the
    envelope stops increasing (within the configured slack) from some
    block N0 on, otherwise "fails" with the worst point as witness.
    """
    if not r1.is_real(1e-10):
        raise NonRealError("r1 must be real-valued")
    X = w.horizon
    nb = config.ENVELOPE_BLOCKS
    edges = [X * k / nb for k in range(nb + 1)]
    rows = []
    blocks = {"left": [], "right": []}
    worst = (0.0, 0.0)
    bps = np.concatenate([r1.breakpoints, w.m.breakpoints])
    for k in range(nb):
        lo, hi = edges[k], edges[k + 1]
        for side, sgn in (("left", -1.0), ("right", 1.0)):
            a, b = sorted((sgn * lo, sgn * hi))
            xs = np.concatenate([np.linspace(a, b, 64), bps[(bps > a) & (bps < b)]])
            r = r1.sample(xs).real
            ratio = np.maximum(r if side == "left" else -r, 0.0) / w.m.sample(xs).real
            j = int(np.argmax(np.where(ratio > 0, ratio, 0.0)))  # first maximum, NaN never
            best, best_x = (ratio[j], float(xs[j])) if ratio[j] > 0 else (0.0, a)
            blocks[side].append(best)
            rows.append((side, lo, hi, best, best_x))
            if best > worst[0]:
                worst = (best, best_x)
    tol = config.ENVELOPE_GROWTH_TOL
    n0_blocks = {}
    for side in ("left", "right"):
        seq = blocks[side]
        n0 = None
        # need a nontrivial non-increasing tail, not just the last block
        for start in range(nb - 1):
            okay = all(
                seq[j + 1] <= seq[j] * (1 + tol) + 1e-12 for j in range(start, nb - 1)
            )
            if okay:
                n0 = start
                break
        n0_blocks[side] = n0
    C = max(max(blocks["left"][nb // 2 :]), max(blocks["right"][nb // 2 :]))
    witnesses = {
        "C": C,
        "N0_left": None if n0_blocks["left"] is None else edges[n0_blocks["left"]],
        "N0_right": None if n0_blocks["right"] is None else edges[n0_blocks["right"]],
    }
    if any(v is None for v in n0_blocks.values()):
        witnesses["witness_x"] = worst[1]
        witnesses["witness_ratio"] = worst[0]
        return ConditionReport(
            check="growth-vs-weight",
            verdict=FAILS,
            witnesses=witnesses,
            tables={"envelope": rows},
            notes=("ratio envelope keeps increasing toward the horizon edge",),
        )
    return ConditionReport(
        check="growth-vs-weight",
        verdict=HOLDS,
        witnesses=witnesses,
        tables={"envelope": rows},
    )


@dataclass
class RhoMap:
    """Strictly increasing reparametrization with rho' = 1/m and rho(0) = 0.

    Values are tabulated at grid nodes (cumulative adaptive quadrature);
    between nodes the map is evaluated by one more quadrature from the
    nearest node, and the inverse by Newton steps with rho' = 1/m inside
    the tabulated cell, bisection where a step would leave it.
    """

    m: PiecewisePoly
    horizon: float
    xs: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def rho(self, x: float) -> float:
        if not math.isfinite(x):
            raise ValueError(f"x={x} is not finite")
        if abs(x) > self.horizon * (1 + 1e-12):
            raise ValueError(f"x={x} outside the tabulated horizon {self.horizon}")
        i = int(np.searchsorted(self.xs, x, side="right")) - 1
        i = max(0, min(i, len(self.xs) - 1))
        return float(self.vals[i]) + _inv_m_integrals(self.m, [(float(self.xs[i]), x)])[0]

    def inverse(self, y: float) -> float:
        if not math.isfinite(y):
            raise ValueError(f"y={y} is not finite")
        if y < self.vals[0] - 1e-12 or y > self.vals[-1] + 1e-12:
            raise ValueError(f"y={y} outside the range of rho on the horizon")
        if y <= self.vals[0]:
            return float(self.xs[0])
        if y >= self.vals[-1]:
            return float(self.xs[-1])
        i = int(np.searchsorted(self.vals, y, side="right")) - 1
        i = max(0, min(i, len(self.xs) - 2))
        a, b = float(self.xs[i]), float(self.xs[i + 1])
        ya, yb = float(self.vals[i]), float(self.vals[i + 1])
        if ya == y:
            return a
        x = a + (b - a) * (y - ya) / (yb - ya)
        for _ in range(_RHO_INVERSE_ITER):
            g = self.rho(x) - y
            if g == 0:
                return x
            if g < 0:
                a = x
            else:
                b = x
            nxt = x - g * float(self.m.eval(x).real)
            if not a < nxt < b:
                nxt = 0.5 * (a + b)
            # the step is within rounding of the bracket it narrowed
            if abs(nxt - x) <= 2 * _EPS * max(abs(a), abs(b)):
                return nxt
            x = nxt
        return x

    @property
    def range(self) -> tuple[float, float]:
        return float(self.vals[0]), float(self.vals[-1])


def build_rho(w: WeightFunction) -> RhoMap:
    """Tabulate rho on 129 nodes of the horizon.  Requires m >= 1 there."""
    val, x_at = w.m.extreme_on(-w.horizon, w.horizon, mode="min")
    if val < 1.0 - 1e-12:
        raise ValueError(f"m(x) = {val} < 1 at x = {x_at}; run check_m first")
    X = w.horizon
    nodes = set(np.linspace(-X, X, 129))
    nodes.add(0.0)
    nodes.update(float(t) for t in w.m.breakpoints if -X < t < X)
    xs = np.asarray(sorted(nodes))
    vals = np.zeros(len(xs))
    i0 = int(np.searchsorted(xs, 0.0))
    *cells, to_zero = _inv_m_integrals(w.m, list(zip(xs[:-1], xs[1:])) + [(xs[i0], 0.0)])
    for i in range(i0, len(xs) - 1):
        vals[i + 1] = vals[i] + cells[i]
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - cells[i]
    anchor = vals[i0] - to_zero
    vals -= anchor
    return RhoMap(m=w.m, horizon=X, xs=xs, vals=vals)


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

    def length(self, n: int) -> float:
        a, b = self.intervals[n]
        return b - a

    def index_range(self) -> list[int]:
        return sorted(n for n in self.intervals if n > 0)

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
    if not r1.is_real(1e-10):
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
            verdict=FAILS,
            witnesses=witnesses,
            tables={"per_interval": rows},
            notes=("per-interval constants grow through the range: no uniform C",),
        )
    return ConditionReport(
        check="interval-scheme",
        verdict=HOLDS,
        witnesses=witnesses,
        tables={"per_interval": rows},
    )


@dataclass
class CutoffSequence:
    """One member of a cut-off family, with its constants and evaluators.

    ``phi`` is the piecewise-polynomial representation (exact for the
    plain and interval kinds, a certified proxy for the reparametrized
    kind).  ``slope_bound(x)`` is the constructive bound on |phi'| at x.
    """

    kind: str
    n: int
    phi: PiecewisePoly
    K: float
    core: tuple[float, float]
    support: tuple[float, float]
    delta: float | None = None
    transitions: dict = field(default_factory=dict)
    rho: RhoMap | None = None
    base: PiecewisePoly | None = None

    def phi_value(self, x: float) -> float:
        if self.rho is not None:
            return float(self.base.eval(self.rho.rho(x)).real)
        return float(self.phi.eval(x).real)

    def phi_prime(self, x: float) -> float:
        if self.rho is not None:
            return float(self.base.derivative().eval(self.rho.rho(x)).real) / float(
                self.rho.m.eval(x).real
            )
        return float(self.phi.derivative().eval(x).real)

    def slope_bound(self, x: float) -> float:
        if self.rho is not None:
            return self.K / float(self.rho.m.eval(x).real)
        if self.kind == "thmB" and self.transitions:
            if x < 0:
                a, b = self.transitions["neg"]
            else:
                a, b = self.transitions["pos"]
            return self.K / (b - a)
        return self.K


def build_cutoff(
    kind: str,
    n: int,
    scheme: IntervalScheme | None = None,
    rho: RhoMap | None = None,
) -> CutoffSequence:
    """Construct a cut-off family member with cubic smoothstep ramps.

    thmA: equal to 1 on [-n, n], ramps of width 1, slope constant 3/2.
    thmB: ramps living on the scheme's intervals ±n, slope K/|interval|.
    thmA-rho: the thmA cut-off composed with rho, chain-rule slope bound
    K/m(x); its piecewise representation is a certified interpolation.
    """
    if n < 1:
        raise ValueError("cut-off index must be >= 1")
    K = config.SMOOTHSTEP_SLOPE
    if kind == "thmA":
        phi = bump(0.0, 2.0 * n, 1.0)
        return CutoffSequence(
            kind=kind,
            n=n,
            phi=phi,
            K=K,
            core=(-n, n),
            support=(-n - 1.0, n + 1.0),
            transitions={"neg": (-n - 1.0, -n), "pos": (n, n + 1.0)},
        )
    if kind == "thmB":
        if scheme is None:
            raise BadSchemeError("thmB cut-off needs an interval scheme")
        if n not in scheme.intervals or -n not in scheme.intervals:
            raise BadSchemeError(f"scheme does not cover index ±{n}")
        am, bm = scheme.intervals[-n]
        ap, bp = scheme.intervals[n]
        if bm > ap:
            raise BadSchemeError("negative-side interval overlaps positive side")
        up = _indicator(am, bm) * _smoothstep_poly(am, bm, rising=True)
        core = _indicator(bm, ap)
        down = _indicator(ap, bp) * _smoothstep_poly(ap, bp, rising=False)
        phi = up + core + down
        return CutoffSequence(
            kind=kind,
            n=n,
            phi=phi,
            K=K,
            core=(bm, ap),
            support=(am, bp),
            delta=scheme.delta,
            transitions={"neg": (am, bm), "pos": (ap, bp)},
        )
    if kind == "thmA-rho":
        if rho is None:
            raise BadSchemeError("thmA-rho cut-off needs a rho map")
        lo_y, hi_y = rho.range
        if not (lo_y <= -n - 1 and hi_y >= n + 1):
            raise BadSchemeError(
                f"rho range [{lo_y:.3g}, {hi_y:.3g}] does not cover ±{n + 1}"
            )
        base = bump(0.0, 2.0 * n, 1.0)
        xm0, xm1 = rho.inverse(-n - 1.0), rho.inverse(-n)
        xp0, xp1 = rho.inverse(float(n)), rho.inverse(n + 1.0)
        kinks = [float(t) for t in rho.m.breakpoints]
        up = from_callable(
            lambda x: base.eval(rho.rho(x)).real,
            (xm0, xm1),
            kinks=[k for k in kinks if xm0 < k < xm1],
            degree=6,
            max_piece=max((xm1 - xm0) / 4, 1e-3),
            tol=1e-9,
            zero_outside=False,
        )
        down = from_callable(
            lambda x: base.eval(rho.rho(x)).real,
            (xp0, xp1),
            kinks=[k for k in kinks if xp0 < k < xp1],
            degree=6,
            max_piece=max((xp1 - xp0) / 4, 1e-3),
            tol=1e-9,
            zero_outside=False,
        )
        phi = (
            _indicator(xm0, xm1) * up
            + _indicator(xm1, xp0)
            + _indicator(xp0, xp1) * down
        )
        return CutoffSequence(
            kind=kind,
            n=n,
            phi=phi,
            K=config.SMOOTHSTEP_SLOPE,
            core=(xm1, xp0),
            support=(xm0, xp1),
            transitions={"neg": (xm0, xm1), "pos": (xp0, xp1)},
            rho=rho,
            base=base,
        )
    raise ValueError(f"unknown cut-off kind {kind!r}")


def _indicator(a: float, b: float) -> PiecewisePoly:
    return PiecewisePoly([a, b], [[0.0], [1.0], [0.0]])


def _smoothstep_poly(a: float, b: float, rising: bool) -> PiecewisePoly:
    from .coeffs import smoothstep

    s = smoothstep(a, b, rising=rising)
    # keep only the ramp piece, extended across the line (the indicator
    # multiplication localizes it)
    return PiecewisePoly._from_local(np.asarray([]), s.centers[1:2], s.coeffs[1:2])


def cutoff_invariants(cut: CutoffSequence) -> dict:
    """Re-verify the defining inequalities of a cut-off on a 400-point mesh.

    Returns margin data; raises nothing.  Used by property tests and the
    CLI verify task.
    """
    lo, hi = cut.support
    pad = 0.1 * (hi - lo)
    xs = np.linspace(lo - pad, hi + pad, 400)
    out = {
        "range_ok": True,
        "core_ok": True,
        "support_ok": True,
        "sign_ok": True,
        "slope_ok": True,
        "max_slope_ratio": 0.0,
    }
    for x in xs:
        x = float(x)
        v = cut.phi_value(x)
        d = cut.phi_prime(x)
        if not -1e-9 <= v <= 1 + 1e-9:
            out["range_ok"] = False
        if cut.core[0] + 1e-9 < x < cut.core[1] - 1e-9 and abs(v - 1) > 1e-9:
            out["core_ok"] = False
        if not (lo - 1e-9 <= x <= hi + 1e-9) and abs(v) > 1e-9:
            out["support_ok"] = False
        tneg = cut.transitions.get("neg")
        tpos = cut.transitions.get("pos")
        if tneg and tneg[0] + 1e-9 < x < tneg[1] - 1e-9 and d < -1e-7:
            out["sign_ok"] = False
        if tpos and tpos[0] + 1e-9 < x < tpos[1] - 1e-9 and d > 1e-7:
            out["sign_ok"] = False
        bound = cut.slope_bound(x)
        if bound > 0:
            ratio = abs(d) / bound
            out["max_slope_ratio"] = max(out["max_slope_ratio"], ratio)
            if ratio > 1 + 1e-7:
                out["slope_ok"] = False
    return out


def verify_caccioppoli(
    c: CoefficientField,
    v: Trajectory,
    cut: CutoffSequence | PiecewisePoly,
) -> float:
    """Residual of the null-solution energy identity, scale-normalized.

    For v solving the adjoint equation at 0 and a real compactly
    supported phi, Re (phi v, l_adj[phi v]) equals
    int (phi')^2 |v|^2 + 2 int r1 phi' phi |v|^2.  The left side goes
    through the expression applied to the re-fitted product, the right
    side through direct quadrature; their difference is the residual,
    relative to 1 + both magnitudes.  The re-fitted v, phi and r1 are put
    on one mesh with the field's breakpoints first, so no product of v,
    |v|^2 at twice its degree among them, is re-centred.
    """
    phi = cut.phi if isinstance(cut, CutoffSequence) else cut
    if not phi.is_real(1e-9):
        raise NonRealError("cut-off must be real-valued")
    if v.system.side != ADJOINT:
        raise ValueError("the null solution must come from the adjoint system")
    if abs(v.system.lam) > 1e-12:
        raise ValueError("the identity is for null solutions: lambda must be 0")
    lo, hi = phi.support_bounds()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cut-off must be compactly supported")
    if lo < v.a - 1e-9 or hi > v.b + 1e-9:
        raise ValueError("null solution does not cover the cut-off support")
    v_pw, phi, r1 = aligned((v.to_piecewise(0, lo, hi), phi, c.r1), c.breakpoints())
    phiv = phi * v_pw
    expr, atoms = apply_l_atoms(c, ADJOINT, phiv, (lo, hi))
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
