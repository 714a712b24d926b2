"""Shin-Zettl first-order systems and quasi-derivative evaluation.

In quasi-derivative coordinates the second-order expression with
distributional coefficients becomes a first-order linear system whose
matrix is locally integrable; the continuous state is (u, u') with the
derivative replaced by u' - G1*u.  The Lagrange-adjoint side uses the
same machinery with (G1, G2, s) replaced by their swapped conjugates.
That swap is made in ``CoefficientField.adjoint_side`` only; ``assemble``'s
matrix is the one representation of the expression, and every operation
below applies it through one quasi-derivative ladder with one jump rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientField, PiecewisePoly, _dense, aligned
from .config import JUMP_TOL
from .errors import DiscontinuousQuasiDerivativeError, NonRealError

DIRECT = "direct"
ADJOINT = "adjoint"


def _check_side(side: str) -> str:
    if side not in (DIRECT, ADJOINT):
        raise ValueError(f"side must be 'direct' or 'adjoint', got {side!r}")
    return side


@dataclass(frozen=True)
class QuasiState:
    """Point state (x, y0, y1): the function value and first quasi-derivative.

    The pair is continuous across coefficient jumps; ``logscale`` is the
    accumulated rescaling exponent, the true state is (y0, y1) * exp(logscale).
    """

    x: float
    y0: complex
    y1: complex
    side: str = DIRECT
    logscale: float = 0.0

    def __post_init__(self):
        _check_side(self.side)


@dataclass(frozen=True)
class ShinZettlSystem:
    """The 2x2 system matrix A(x; lambda), entries as piecewise polynomials.

    Direct side: [[G1, 1], [-G1*G2 + s - lambda, -G2]].  The adjoint side
    is the same matrix built from (conj G2, conj G1, conj s); its solutions
    carry the adjoint quasi-derivative y1 = v' - conj(G2) v.  The spectral
    shift enters entry (2,1) only, stored at lambda = 0 as ``a21_0``.
    ``rows`` holds the pieces of (a11, a21_0, a22) on each region between
    the field's breakpoints, with Python complex coefficients
    (``coeffs._side``).  ``plans`` is the
    field's dict of the side's lambda-free shot plans
    (``propagate._plan``); a system built with rows of its own takes a
    dict of its own, so that it never shares the field's plans.
    """

    field_data: CoefficientField
    side: str
    lam: complex
    a11: PiecewisePoly = field(repr=False)
    a21_0: PiecewisePoly = field(repr=False)
    a22: PiecewisePoly = field(repr=False)
    rows: tuple = field(repr=False, compare=False)
    plans: dict = field(repr=False, compare=False)

    def breakpoints(self) -> np.ndarray:
        return self.field_data.breakpoints()


def assemble(c: CoefficientField, side: str = DIRECT, lam: complex = 0.0) -> ShinZettlSystem:
    """The Shin-Zettl matrix for l - lambda (or its adjoint); its
    lambda-free entries, their rows and the shot plans over them are
    built once per field and side."""
    if _check_side(side) == DIRECT:
        return ShinZettlSystem(c, side, complex(lam), *c.direct_side, c.direct_plans)
    return ShinZettlSystem(c, side, complex(lam), *c.adjoint_side, c.adjoint_plans)


def _jumps(f: PiecewisePoly, window: tuple[float, float]) -> dict[float, complex]:
    """Jumps of f at its breakpoints on the window, above JUMP_TOL * (1 + scale).

    The scale at x is the larger of sum |c_k| |x - center|^k over the two
    adjacent rows: a value that is a sum of large cancelling terms (a
    cut-off's zero times a large solution) is only known to that scale,
    whatever its own size.  Heights are the bits of ``f.jumps``.
    """
    bp = f.breakpoints
    i = np.flatnonzero((bp >= float(window[0])) & (bp <= float(window[1])))
    x = bp[i]
    rows = np.concatenate([i, i + 1])  # the regions left and right of each breakpoint
    t = np.concatenate([x, x]) - f.centers[rows]
    left, right = np.split(_dense(f.coeffs[rows], t), 2)
    scale = np.maximum(*np.split(_dense(np.abs(f.coeffs[rows]), np.abs(t)), 2))
    h = right - left
    keep = np.abs(h) > JUMP_TOL * (1.0 + scale)
    return dict(zip(x[keep].tolist(), h[keep]))


def apply_l_atoms(c: CoefficientField, side: str, u: PiecewisePoly, window: tuple[float, float]):
    """Apply the expression, keeping Dirac atoms explicit.

    Returns (f, atoms): f is the absolutely continuous part of l[u] (or
    the adjoint expression) on the window, atoms maps a location b to the
    weight w of w*delta_b coming from a jump of the first quasi-derivative
    there (w = -jump).  For u in the local domain the atom dict is empty.

    From the system at 0: u^[1] = u' - a11 u and
    l[u] = -(u^[1]' - a22 u^[1] - a21 u).  Raises
    DiscontinuousQuasiDerivativeError where u itself jumps.
    """
    _screen(u, window)
    return _apply(assemble(c, side), u, window)


def _screen(u: PiecewisePoly, window: tuple[float, float]) -> None:
    """Raise DiscontinuousQuasiDerivativeError at the first jump of u on the window."""
    jumps = _jumps(u, window)
    if jumps:
        x = next(iter(jumps))
        raise DiscontinuousQuasiDerivativeError(x, u.eval(x, "left"), u.eval(x, "right"))


def _apply(A: ShinZettlSystem, u: PiecewisePoly, window: tuple[float, float]):
    """``apply_l_atoms`` with the system A of the side, for a u already screened."""
    u1 = u.derivative() - A.a11 * u
    atoms = {x: -h for x, h in _jumps(u1, window).items()}
    return -(u1.derivative() - A.a22 * u1 - A.a21_0 * u), atoms


def product_rule_check(
    c: CoefficientField,
    phi: PiecewisePoly,
    u: PiecewisePoly,
    window: tuple[float, float],
) -> dict[str, float]:
    """Residual of the cut-off product rule on each side, sup-sampled on the window.

    Checks l[phi*u] against phi*l[u] - phi''*u - 2*phi'*u' + (g1-g2)*phi'*u,
    with g1 - g2 = a11 + a22 of the side; a side's residual is the
    sup-norm of the difference over 200 sample points, normalized by 1 +
    the sup of both sides.  Dirac atoms produced by jumps of u^[1] agree
    on both sides and cancel; the comparison is between the absolutely
    continuous parts.  Returns ``{DIRECT: residual, ADJOINT: residual}``.

    phi and u are re-centred once, on the union of their meshes and the
    field's, so every later product and sum is formed on that mesh and
    only the field's entries meet it from elsewhere; the products that do
    not depend on the side (phi*u, phi'*u, phi''*u, phi'*u') are formed
    once for both sides, and both are screened for jumps
    (``apply_l_atoms``) once, in that order.
    """
    a, b = float(window[0]), float(window[1])
    if not phi.is_real(1e-9):
        raise NonRealError("cut-off factor must be real-valued")
    lo, hi = phi.support_bounds()
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise ValueError(
            f"cut-off support [{lo}, {hi}] is not compact inside [{a}, {b}]"
        )
    phi, u = aligned((phi, u), c.breakpoints())
    dphi = phi.derivative()
    ddphi = dphi.derivative()
    phi_u, dphi_u, ddphi_u = phi * u, dphi * u, ddphi * u
    dphi_du = dphi * u.derivative()
    _screen(phi_u, window)
    _screen(u, window)
    out = {}
    for side in (DIRECT, ADJOINT):
        A = assemble(c, side)
        lhs, lhs_atoms = _apply(A, phi_u, window)
        lu, lu_atoms = _apply(A, u, window)
        rhs = phi * lu - ddphi_u - 2.0 * dphi_du + (A.a11 + A.a22) * dphi_u
        diff = lhs - rhs
        skip = set(np.round(diff.breakpoints, 12))
        xs = np.array([x for x in np.linspace(a, b, 200) if round(float(x), 12) not in skip])
        sup_diff = np.max(np.abs(diff.sample(xs)))
        sup_mag = max(np.max(np.abs(lhs.sample(xs))), np.max(np.abs(rhs.sample(xs))), 1.0)
        atom_err = 0.0
        for loc in set(lhs_atoms) | set(lu_atoms):
            want = phi.eval(loc) * lu_atoms.get(loc, 0.0)
            got = lhs_atoms.get(loc, 0.0)
            atom_err = max(atom_err, abs(got - want) / (1.0 + abs(want)))
        out[side] = max(sup_diff / sup_mag, atom_err)
    return out
