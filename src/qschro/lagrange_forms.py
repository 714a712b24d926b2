"""Lagrange brackets, the integral identity, and the pre-minimal form.

The bracket [u, v](x) = u * conj(v_adj_quasi_deriv) - u_quasi_deriv * conj(v)
plays the role of the Wronskian: its increment over a window equals the
defect between the two integrals of the Green-type identity, and it is
constant along solution pairs whose spectral parameters are conjugate.
Both integrals of the identity go through ``propagate.pair_integral``,
whichever mix of trajectories and piecewise polynomials the data is, and
brackets along a trajectory come from its array evaluator.  The
quadratic form of the compactly supported restriction splits into
kinetic, coupling and potential parts; sampling its normalized values
over a test family gives numerical-range evidence (never a proof) for
accretivity or sector membership.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, PiecewisePoly, _dense, _gauss_legendre, _panels, _stack, _stacked_support
from .errors import OverflowUnrecoverableError, SideMismatchError, UnsupportedTestFunctionError, ZeroNormError
from .propagate import Trajectory, _panel_values, pair_integral
from .quasi import ADJOINT, DIRECT, QuasiState, apply_l_atoms, assemble
from .reports import FAILS, HOLDS_SAMPLE, ConditionReport


@dataclass(frozen=True)
class BracketValue:
    x: float
    value: complex
    logscale: float = 0.0


@dataclass(frozen=True)
class FormValue:
    """Quadratic form split into its three integrals; value is their sum."""

    kinetic: complex
    coupling: complex
    potential: complex

    @property
    def value(self) -> complex:
        return self.kinetic + self.coupling + self.potential


@dataclass(frozen=True)
class Sector:
    """Closed sector of the right half-plane with vertex 0, half-angle theta."""

    half_angle: float

    def __post_init__(self):
        if not 0 < self.half_angle <= math.pi / 2:
            raise ValueError("half-angle must lie in (0, pi/2]")

    def contains(self, w: complex) -> bool:
        """Whether w lies in the sector, to 1e-12 (1 + |w|); never for a value that is not finite."""
        if not cmath.isfinite(w):
            return False
        scale = 1.0 + abs(w)
        if w.real < -1e-12 * scale:
            return False
        if self.half_angle >= math.pi / 2 - 1e-15:
            return True
        return abs(w.imag) <= math.tan(self.half_angle) * w.real + 1e-12 * scale


def bracket(u: QuasiState, v: QuasiState) -> BracketValue:
    """[u, v] at a common point; u direct-side, v adjoint-side."""
    if u.side != DIRECT or v.side != ADJOINT:
        raise SideMismatchError(
            f"bracket needs (direct, adjoint) states, got ({u.side}, {v.side})"
        )
    if abs(u.x - v.x) > 1e-12 * (1.0 + abs(u.x)):
        raise ValueError(f"states live at different points: {u.x} vs {v.x}")
    val = u.y0 * v.y1.conjugate() - u.y1 * v.y0.conjugate()
    return BracketValue(x=u.x, value=val, logscale=u.logscale + v.logscale)


def bracket_constancy_residual(
    u: Trajectory, v: Trajectory, window: tuple[float, float], samples: int = 50
) -> float:
    """Sup of |[u,v](x) - [u,v](a)| over the window, scale-normalized.

    Zero (to solver accuracy) whenever u solves the direct equation at
    lambda and v the adjoint one at conj(lambda).  The scale is the sup of
    the bracket's term magnitudes |u||v_quasi| + |u_quasi||v|: for growing
    solution pairs the bracket is a tiny difference of huge products and
    only that cancellation scale is numerically meaningful.
    """
    if u.system.side != DIRECT or v.system.side != ADJOINT:
        raise SideMismatchError(
            f"bracket needs (direct, adjoint) states, got ({u.system.side}, {v.system.side})"
        )
    xs = np.linspace(float(window[0]), float(window[1]), samples)
    yu, lu = u.sample(xs)
    yv, lv = v.sample(xs)
    vals = yu[:, 0] * yv[:, 1].conj() - yu[:, 1] * yv[:, 0].conj()
    mags = np.abs(yu[:, 0] * yv[:, 1]) + np.abs(yu[:, 1] * yv[:, 0])
    ls = lu + lv
    L = float(np.max(ls))
    w = np.exp(ls - L)
    z = vals * w
    scale = float(np.max(mags * w))
    scale += math.exp(-L) if L > -700 else 0.0
    return float(np.max(np.abs(z - z[0]))) / scale


def _applied(c: CoefficientField, f, side: str, window):
    """(mu, g, atoms) with l[f] = mu * g + sum of atoms on the given side.

    A trajectory solves the equation, so l[f] = lambda * f; a
    PiecewisePoly gets the expression applied exactly.
    """
    if isinstance(f, Trajectory):
        if f.system.side != side:
            raise SideMismatchError(f"expected a {side}-side trajectory, got {f.system.side}")
        return f.system.lam, f, {}
    if isinstance(f, PiecewisePoly):
        expr, atoms = apply_l_atoms(c, side, f, window)
        return 1.0, expr, atoms
    raise TypeError(f"expected Trajectory or PiecewisePoly, got {type(f)!r}")


def _state(c: CoefficientField, f, side: str, x: float, inner: str) -> QuasiState:
    """One-sided state of Trajectory or PiecewisePoly data at x."""
    if isinstance(f, Trajectory):
        y, ls = f.sample([x], inner)
        return QuasiState(x, complex(y[0, 0]), complex(y[0, 1]), side, float(ls[0]))
    g1 = assemble(c, side).a11
    return QuasiState(x, f.eval(x, inner), (f.derivative() - g1 * f).eval(x, inner), side)


def lagrange_residual(
    c: CoefficientField,
    u,
    v,
    window: tuple[float, float],
) -> float:
    """Defect of the integral identity over a window, scale-normalized.

    Computes |int l[u] conj(v) - int u conj(l_adj[v]) - ([u,v](b) - [u,v](a))|
    relative to 1 + the magnitudes of the four terms.  u is direct-side
    data (Trajectory of the direct system, or a PiecewisePoly to which the
    expression is applied exactly); v is the adjoint-side counterpart.
    Both integrals go through pair_integral; for two trajectories they
    share one integral, scaled by u's lambda and by the conjugate of v's.
    Dirac atoms of either expression contribute their point terms.
    """
    a, b = float(window[0]), float(window[1])
    mu_u, lu, atoms_u = _applied(c, u, DIRECT, (a, b))
    mu_v, lv, atoms_v = _applied(c, v, ADJOINT, (a, b))
    i1, L1 = pair_integral(lu, v, a, b)
    i2, L2 = (i1, L1) if lu is u and lv is v else pair_integral(u, lv, a, b)
    terms1 = [(mu_u * i1, L1)]
    terms2 = [(complex(mu_v).conjugate() * i2, L2)]
    # atom contributions: int w*delta_p * conj(v) = w * conj(v(p))
    for p, w in atoms_u.items():
        if a <= p <= b:
            sv = _state(c, v, ADJOINT, p, "right")
            terms1.append((w * sv.y0.conjugate(), sv.logscale))
    for p, w in atoms_v.items():
        if a <= p <= b:
            su = _state(c, u, DIRECT, p, "right")
            terms2.append((su.y0 * w.conjugate(), su.logscale))

    bra = bracket(_state(c, u, DIRECT, a, "right"), _state(c, v, ADJOINT, a, "right"))
    brb = bracket(_state(c, u, DIRECT, b, "left"), _state(c, v, ADJOINT, b, "left"))

    groups = (terms1, terms2, [(brb.value, brb.logscale)], [(bra.value, bra.logscale)])
    L = max(ls for g in groups for _, ls in g)
    z1, z2, zb, za = (sum(m * math.exp(ls - L) for m, ls in g) for g in groups)
    resid = abs(z1 - z2 - (zb - za))
    scale = math.exp(-L) + abs(z1) + abs(z2) + abs(zb) + abs(za) if L > -700 else 1.0
    return resid / scale


def quadratic_form(
    c: CoefficientField,
    u: PiecewisePoly,
    support: tuple[float, float],
) -> FormValue:
    """The pre-minimal form t(u), split into its three parts.

    ``sample_forms`` of the family [u]; u must be continuous, with compact
    support inside ``support``.
    """
    a, b = float(support[0]), float(support[1])
    lo, hi = u.support_bounds()
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise UnsupportedTestFunctionError(
            f"test function supported on [{lo}, {hi}], outside [{a}, {b}]"
        )
    scale = u.coeff_scale() or 1.0
    for p, h in u.jumps.items():
        if abs(h) > 1e-10 * scale:
            raise UnsupportedTestFunctionError(f"test function jumps at x={p}")
    return sample_forms(c, [u])[0][0]


def form_vs_operator_check(
    c: CoefficientField,
    u: PiecewisePoly,
    support: tuple[float, float],
) -> float:
    """|t(u) - int l[u] conj(u)| over 1 + magnitudes.

    Both sides are computed independently: the form by Gauss-Legendre
    quadrature of its three integrals, the operator side by applying the
    expression and integrating against conj(u), Dirac atoms included.
    """
    a, b = float(support[0]), float(support[1])
    form = quadratic_form(c, u, support).value
    expr, atoms = apply_l_atoms(c, DIRECT, u, (a, b))
    op = (expr * u.conj()).integrate(a, b)
    op += sum(w * u.eval(p).conjugate() for p, w in atoms.items() if a <= p <= b)
    return abs(form - op) / (1.0 + abs(form) + abs(op))


def _check_norm(i: int, norm2: float) -> None:
    if norm2 <= 1e-300:
        raise ZeroNormError(f"test function {i} has zero L2 norm")


def _ranks(values, value_owner, queries, query_owner):
    """For each query, the number of values of its owner at or below it:
    ``np.searchsorted(v, q, "right")`` on the values v of each owner, with
    ``value_owner`` sorted and each owner's values sorted."""
    kind = np.concatenate([np.zeros(len(values)), np.ones(len(queries))])
    order = np.lexsort((kind, np.concatenate([values, queries]), np.concatenate([value_owner, query_owner])))
    is_query = order >= len(values)
    out = np.empty(len(queries), dtype=int)
    out[order[is_query] - len(values)] = np.cumsum(~is_query)[is_query]
    return out - np.searchsorted(value_owner, query_owner, "left")


def sample_forms(c: CoefficientField, family) -> list[tuple[FormValue, float]]:
    """(t(u), ||u||^2) for each test function of a family, in one Gauss-Legendre pass.

    t(u) = int |u'|^2 - int (G1 u conj(u)' + G2 u' conj(u)) + int s |u|^2 over the
    support of u, on panels between the breakpoints of u and of the field, where
    floor(d/2) + 1 nodes are exact for d = 2 deg u + max(deg G1, deg G2, deg s).
    The family is one set of arrays: its members' regions are stacked, the
    panels of all members cut at once (``coeffs._panels``), and u and u' evaluated by one
    batched Horner pass for each coefficient width.  A value that is not
    finite raises OverflowUnrecoverableError."""
    if not family:
        raise ValueError("test family must be nonempty")
    field = (c.G1, c.G2, c.s)
    bp, centers, coeffs, first, widths = _stack(family)
    lo, hi = _stacked_support(bp, coeffs, first)
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    if unbounded.any():
        raise UnsupportedTestFunctionError(f"test function {int(unbounded.argmax())} is not compactly supported")
    n = coeffs.shape[1] - 1 + max(f.degree for f in field) // 2 + 1
    nodes, weights = _gauss_legendre(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # each member's panels: its support cut at its own breakpoints and at the field's
        bp_owner = np.repeat(np.arange(len(family)), np.diff(first) - 1)
        left, right, owner = _panels(lo, hi, np.concatenate([f.breakpoints for f in field]), bp, bp_owner)
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        xs = mid[:, None] + half[:, None] * nodes
        # u on each panel: its region at mid, as u._region(mid, "right") finds it
        row = first[owner] + _ranks(bp, bp_owner, mid, owner)
        theta = xs - centers[row, None]
        fu, fdu = np.empty_like(xs, dtype=complex), np.empty_like(xs, dtype=complex)
        groups = np.unique(widths).tolist()
        for w in groups:
            at = widths[owner] == w if len(groups) > 1 else slice(None)
            rows = coeffs[row[at], :w]
            drows = rows[:, 1:] * np.arange(1, w) if w > 1 else np.zeros_like(rows)  # as u.derivative()
            fu[at], fdu[at] = (_dense(r[:, :, None], theta[at]) for r in (rows, drows))
        fg1, fg2, fs = (_panel_values(f, mid, xs)[0] for f in field)
        u2 = (fu * fu.conj()).real
        integrands = [(fdu * fdu.conj()).real, -(fg1 * fu * fdu.conj() + fg2 * fdu * fu.conj()), fs * u2, u2]
        parts = half * (np.array(integrands) @ weights)
        kinetic, coupling, potential, norm2 = (
            np.bincount(owner, p.real, len(family)) + 1j * np.bincount(owner, p.imag, len(family)) for p in parts
        )
    norm2 = norm2.real
    with np.errstate(all="ignore"):
        value = kinetic + coupling + potential
        finite = np.isfinite(np.array([kinetic, coupling, potential, norm2, value.real / norm2, value.imag / norm2]))
    bad = (norm2 <= 1e-300) | ~finite.all(axis=0)
    if bad.any():
        i = int(bad.argmax())
        _check_norm(i, norm2[i])
        raise OverflowUnrecoverableError(f"test function {i}: its form or norm is not finite", index=i)
    columns = (kinetic.tolist(), coupling.tolist(), potential.tolist(), norm2.tolist())
    return [(FormValue(k, cp, p), n2) for k, cp, p, n2 in zip(*columns)]


def range_verdict(forms, sector: Sector | None = None) -> ConditionReport:
    """Verdict on sampled forms, given as ``sample_forms`` returns them.

    Reports min Re w, max |arg w| and per-sample values of
    w(u) = t(u)/||u||^2; ``fails`` carries the witness index and value if
    any w leaves the sector (default sector: the closed right half-plane,
    i.e. accretivity).  A passing verdict is "holds-on-sample", never a
    proof.  A norm as small as ``sample_forms`` refuses raises
    ZeroNormError, and a w that is not finite OverflowUnrecoverableError.
    """
    rows = []
    witness = None
    check_sector = sector or Sector(math.pi / 2)
    for i, (form, norm2) in enumerate(forms):
        _check_norm(i, norm2)
        w = form.value / norm2
        if not cmath.isfinite(w):
            raise OverflowUnrecoverableError(f"test function {i}: w = t(u)/||u||^2 is not finite", index=i)
        inside = check_sector.contains(w)
        rows.append((i, w.real, w.imag, norm2, inside))
        if not inside and witness is None:
            witness = (i, w)
    min_re = min(r[1] for r in rows)
    max_arg = max(
        (abs(math.atan2(r[2], r[1])) for r in rows if (r[1], r[2]) != (0, 0)),
        default=0.0,
    )
    witnesses = {
        "min_re_w": min_re,
        "max_abs_arg_w": max_arg,
        "sector_half_angle": check_sector.half_angle,
    }
    if witness is not None:
        witnesses["witness_index"] = witness[0]
        witnesses["witness_value"] = witness[1]
        verdict = FAILS
    else:
        verdict = HOLDS_SAMPLE
    return ConditionReport(
        check="numerical-range",
        verdict=verdict,
        witnesses=witnesses,
        tables={"samples": rows},
    )

