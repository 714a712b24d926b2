"""Lagrange brackets, the integral identity, and the pre-minimal form.

The bracket [u, v](x) = u * conj(v_adj_quasi_deriv) - u_quasi_deriv * conj(v)
plays the role of the Wronskian: its increment over a window equals the
defect between the two integrals of the Green-type identity, and it is
constant along solution pairs whose spectral parameters are conjugate.
u belongs to the expression of a field c and v to that of ``c.adjoint``;
a trajectory says which by its field, which is checked by identity.
Both integrals of the identity go through ``propagate.pair_integral``,
whichever mix of trajectories and piecewise polynomials the data is, and
brackets along a trajectory come from its array evaluator.  The
quadratic form of the compactly supported restriction splits into
kinetic, coupling and potential parts, one array each over a test family
(``sample_forms``); its normalized values w(u) = t(u)/||u||^2 give
numerical-range evidence (never a proof) for accretivity or sector
membership (``range_verdict``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (
    CoefficientField, PiecewisePoly, _dense, _derivative_rows, _gauss_legendre, _panels, _stack, _stacked_support,
)
from .errors import OverflowUnrecoverableError, UnsupportedTestFunctionError, ZeroNormError
from .propagate import Trajectory, _panel_values, pair_integral
from .quasi import QuasiState, _apply_stacked, _on_field_mesh, _stack_jumps, apply_l_atoms
from .reports import FAILS, HOLDS_SAMPLE, ConditionReport


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


def bracket(u: QuasiState, v: QuasiState) -> tuple[complex, float]:
    """(mantissa, logscale) of [u, v] at a common point, as ``pair_integral``
    gives an integral: u a state of the expression of a field, v one of its
    adjoint's."""
    if abs(u.x - v.x) > 1e-12 * (1.0 + abs(u.x)):
        raise ValueError(f"states live at different points: {u.x} vs {v.x}")
    val = u.y0 * v.y1.conjugate() - u.y1 * v.y0.conjugate()
    return val, u.logscale + v.logscale


def bracket_constancy_residual(
    u: Trajectory, v: Trajectory, window: tuple[float, float], samples: int = 50
) -> float:
    """Sup of |[u,v](x) - [u,v](a)| over the window, scale-normalized.

    Zero (to solver accuracy) whenever u solves l[u] = lambda u for the
    expression of its field c and v the adjoint one at conj(lambda).  The
    scale is the sup of the bracket's term magnitudes |u||v_quasi| +
    |u_quasi||v|: for growing solution pairs the bracket is a tiny
    difference of huge products and only that cancellation scale is
    numerically meaningful.  A v of any field but ``u.field.adjoint``
    raises ValueError.
    """
    if v.field is not u.field.adjoint:
        raise ValueError("v must be a trajectory of u.field.adjoint")
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


def _applied(c: CoefficientField, name: str, f, window):
    """(mu, g, atoms) with l[f] = mu * g + sum of atoms, l the expression
    of c, which ``name`` names.

    A trajectory solves the equation, so l[f] = lambda * f, and one of
    another field raises ValueError; a PiecewisePoly gets the expression
    applied exactly.
    """
    if isinstance(f, Trajectory):
        if f.field is not c:
            raise ValueError(f"expected a trajectory of {name}, got one of another field")
        return f.lam, f, {}
    if isinstance(f, PiecewisePoly):
        expr, atoms = apply_l_atoms(c, f, window)
        return 1.0, expr, atoms
    raise TypeError(f"expected Trajectory or PiecewisePoly, got {type(f)!r}")


def _state(c: CoefficientField, f):
    """The one-sided state (x, "left" or "right") -> QuasiState of Trajectory or
    PiecewisePoly data of the expression of c; a polynomial's
    u^[1] = u' - G1 u is formed once."""
    if isinstance(f, Trajectory):
        return f.state_at
    d = f.derivative() - c.G1 * f
    return lambda x, inner: QuasiState(x, f.eval(x, inner), d.eval(x, inner))


def lagrange_residual(
    c: CoefficientField,
    u,
    v,
    window: tuple[float, float],
) -> float:
    """Defect of the integral identity over a window, scale-normalized.

    Computes |int l[u] conj(v) - int u conj(l_adj[v]) - ([u,v](b) - [u,v](a))|
    relative to 1 + the magnitudes of the four terms.  u is data of the
    expression of c (a Trajectory of c, or a PiecewisePoly to which the
    expression is applied exactly); v is that of ``c.adjoint``.  A
    trajectory of any other field raises ValueError.
    Both integrals go through pair_integral; for two trajectories they
    share one integral, scaled by u's lambda and by the conjugate of v's.
    Dirac atoms of either expression contribute their point terms.
    """
    a, b = float(window[0]), float(window[1])
    mu_u, lu, atoms_u = _applied(c, "c", u, (a, b))
    mu_v, lv, atoms_v = _applied(c.adjoint, "c.adjoint", v, (a, b))
    state_u, state_v = _state(c, u), _state(c.adjoint, v)
    i1, L1 = pair_integral(lu, v, a, b)
    i2, L2 = (i1, L1) if lu is u and lv is v else pair_integral(u, lv, a, b)
    terms1 = [(mu_u * i1, L1)]
    terms2 = [(complex(mu_v).conjugate() * i2, L2)]
    # atom contributions: int w*delta_p * conj(v) = w * conj(v(p))
    for p, w in atoms_u.items():
        if a <= p <= b:
            sv = state_v(p, "right")
            terms1.append((w * sv.y0.conjugate(), sv.logscale))
    for p, w in atoms_v.items():
        if a <= p <= b:
            su = state_u(p, "right")
            terms2.append((su.y0 * w.conjugate(), su.logscale))

    bra = bracket(state_u(a, "right"), state_v(a, "right"))
    brb = bracket(state_u(b, "left"), state_v(b, "left"))

    groups = (terms1, terms2, [brb], [bra])
    L = max(ls for g in groups for _, ls in g)
    z1, z2, zb, za = (sum(m * math.exp(ls - L) for m, ls in g) for g in groups)
    resid = abs(z1 - z2 - (zb - za))
    scale = math.exp(-L) + abs(z1) + abs(z2) + abs(zb) + abs(za) if L > -700 else 1.0
    return resid / scale


def form_vs_operator_check(
    c: CoefficientField,
    family,
    support: tuple[float, float],
) -> list[float]:
    """|t(u) - int l[u] conj(u)| over 1 + magnitudes, for each test function
    of a family.

    Both sides are computed independently: the forms by one Gauss-Legendre
    pass over the family (``sample_forms``, which refuses a test that
    jumps by the rule with which ``apply_l_atoms`` screens it), with t(u)
    the sum of its three parts in Python complex, and the operator side by
    applying the expression to the whole family in one stacked pass
    (``quasi._apply_stacked``) and integrating against conj(u), Dirac atoms
    included.  A test supported outside ``support`` is refused first.
    """
    a, b = float(support[0]), float(support[1])
    for u in family:
        lo, hi = u.support_bounds()
        if lo < a - 1e-12 or hi > b + 1e-12:
            raise UnsupportedTestFunctionError(f"test function supported on [{lo}, {hi}], outside [{a}, {b}]")
    kinetic, coupling, potential, _ = (col.tolist() for col in sample_forms(c, family))
    on, dfs = _on_field_mesh(c, family)
    applied = _apply_stacked([c] * len(family), on, dfs, (a, b))
    out = []
    for u, v, kin, cpl, pot, (expr, atoms) in zip(family, on, kinetic, coupling, potential, applied):
        t = kin + cpl + pot
        op = (expr * v.conj()).integrate(a, b)
        op += sum(w * u.eval(p).conjugate() for p, w in atoms.items() if a <= p <= b)
        out.append(abs(t - op) / (1.0 + abs(t) + abs(op)))
    return out


def _form_columns(c: CoefficientField, stack) -> tuple:
    """The kinetic, coupling and potential parts of t(u) and ||u||^2, one
    array each over a family stacked as ``coeffs._stack`` lays it out.

    t(u) = int |u'|^2 - int (G1 u conj(u)' + G2 u' conj(u)) + int s |u|^2 over the
    support of u, on panels between the breakpoints of u and of the field, where
    floor(d/2) + 1 nodes are exact for d = 2 deg u + max(deg G1, deg G2, deg s).
    The panels of all members are cut at once (``coeffs._panels``), and u and u'
    evaluated at the stack's width, whose padding zeros change at most the sign of
    a zero.  A value that is not finite raises OverflowUnrecoverableError."""
    field = (c.G1, c.G2, c.s)
    bp, centers, coeffs, first, _ = stack
    members = len(first) - 1
    lo, hi, lo_row = _stacked_support(bp, coeffs, first)
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    if unbounded.any():
        raise UnsupportedTestFunctionError(f"test function {int(unbounded.argmax())} is not compactly supported")
    n = coeffs.shape[1] - 1 + max(f.degree for f in field) // 2 + 1
    nodes, weights = _gauss_legendre(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # each member's panels: its support cut at its own breakpoints and at the field's
        bp_owner = np.repeat(np.arange(members), np.diff(first) - 1)
        left, right, owner, before = _panels(lo, hi, np.concatenate([f.breakpoints for f in field]), bp, bp_owner)
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        xs = mid[:, None] + half[:, None] * nodes
        # u on each panel: its first nonzero row, moved on by its breakpoints the cutter passed
        row = lo_row[owner] + before
        theta = xs - centers[row, None]
        rows = coeffs[row]
        fu, fdu = (_dense(r[:, :, None], theta) for r in (rows, _derivative_rows(rows)))
        fg1, fg2, fs = (_panel_values(f, mid, xs)[0] for f in field)
        u2 = (fu * fu.conj()).real
        integrands = [(fdu * fdu.conj()).real, -(fg1 * fu * fdu.conj() + fg2 * fdu * fu.conj()), fs * u2, u2]
        parts = half * (np.array(integrands) @ weights)
        kinetic, coupling, potential, norm2 = (
            np.bincount(owner, p.real, members) + 1j * np.bincount(owner, p.imag, members) for p in parts
        )
    norm2 = norm2.real
    with np.errstate(all="ignore"):
        value = kinetic + coupling + potential
        finite = np.isfinite(np.array([kinetic, coupling, potential, norm2, value.real / norm2, value.imag / norm2]))
    bad = (norm2 <= 1e-300) | ~finite.all(axis=0)
    if bad.any():
        i = int(bad.argmax())
        if norm2[i] <= 1e-300:
            raise ZeroNormError(f"test function {i} has zero L2 norm")
        raise OverflowUnrecoverableError(f"test function {i}: its form or norm is not finite", index=i)
    return kinetic, coupling, potential, norm2


def sample_forms(c: CoefficientField, family) -> tuple:
    """The kinetic, coupling and potential parts of t(u) and ||u||^2, one array
    each over a family, in one Gauss-Legendre pass: ``_form_columns`` of the
    family stacked by ``coeffs._stack``.  Every test must be continuous: after
    what ``_form_columns`` refuses, the first test that jumps is refused by its
    index, by the jump rule of ``apply_l_atoms`` (``quasi._stack_jumps``) on
    the same stack."""
    if not family:
        raise ValueError("test family must be nonempty")
    stack = _stack(family)
    columns = _form_columns(c, stack)
    for i, jumps in enumerate(_stack_jumps(stack, (-math.inf, math.inf))):
        if jumps:
            raise UnsupportedTestFunctionError(f"test function {i} jumps at x={next(iter(jumps))}")
    return columns


def range_verdict(ws, sector: Sector | None = None) -> ConditionReport:
    """Verdict on sampled normalized values w(u) = t(u)/||u||^2, read in one pass.

    Reports min Re w and max |arg w|; ``fails`` carries the witness index
    and value if any w leaves the sector (default sector: the closed right
    half-plane, i.e. accretivity).  A passing verdict is "holds-on-sample",
    never a proof.  A w that is not finite raises OverflowUnrecoverableError,
    and an empty sample ValueError.
    """
    check_sector = sector or Sector(math.pi / 2)
    min_re, max_arg, witness = math.inf, 0.0, None
    for i, w in enumerate(ws):
        if not cmath.isfinite(w):
            raise OverflowUnrecoverableError(f"test function {i}: w = t(u)/||u||^2 is not finite", index=i)
        min_re = min(min_re, w.real)
        if w:
            max_arg = max(max_arg, abs(math.atan2(w.imag, w.real)))
        if witness is None and not check_sector.contains(w):
            witness = (i, w)
    if min_re == math.inf:
        raise ValueError("no sampled value")
    witnesses = {"min_re_w": min_re, "max_abs_arg_w": max_arg, "sector_half_angle": check_sector.half_angle}
    if witness is not None:
        witnesses["witness_index"], witnesses["witness_value"] = witness
    return ConditionReport(
        check="numerical-range",
        verdict=FAILS if witness is not None else HOLDS_SAMPLE,
        witnesses=witnesses,
    )
