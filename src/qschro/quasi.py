"""Shin-Zettl first-order systems and quasi-derivative evaluation.

In quasi-derivative coordinates the second-order expression with
distributional coefficients becomes a first-order linear system whose
matrix is locally integrable; the continuous state is (u, u') with the
derivative replaced by u' - G1*u.  The Lagrange-adjoint side uses the
same machinery with (G1, G2, s) replaced by their swapped conjugates, so
every operation below is written once against side-effective coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientField, PiecewisePoly
from .config import JUMP_TOL
from .errors import DiscontinuousQuasiDerivativeError, NonRealError

DIRECT = "direct"
ADJOINT = "adjoint"


def _check_side(side: str) -> str:
    if side not in (DIRECT, ADJOINT):
        raise ValueError(f"side must be 'direct' or 'adjoint', got {side!r}")
    return side


def effective_coefficients(c: CoefficientField, side: str):
    """(g1, g2, s) entering the system on the requested operator side."""
    _check_side(side)
    if side == DIRECT:
        return c.G1, c.G2, c.s
    return c.G2.conj(), c.G1.conj(), c.s.conj()


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
    shift enters entry (2,1) only.
    """

    field_data: CoefficientField
    side: str
    lam: complex
    a11: PiecewisePoly = field(repr=False)
    a21: PiecewisePoly = field(repr=False)
    a22: PiecewisePoly = field(repr=False)

    @property
    def a12(self) -> PiecewisePoly:
        return PiecewisePoly.constant(1.0)

    def breakpoints(self) -> np.ndarray:
        return self.field_data.breakpoints()


def assemble(c: CoefficientField, side: str = DIRECT, lam: complex = 0.0) -> ShinZettlSystem:
    """Build the Shin-Zettl matrix for l - lambda (or its adjoint)."""
    g1, g2, s = effective_coefficients(c, side)
    a21 = -(g1 * g2) + s - complex(lam)
    return ShinZettlSystem(c, _check_side(side), complex(lam), g1, a21, -g2)


def quasi_derivatives(
    c: CoefficientField,
    side: str,
    u: PiecewisePoly,
    x: float,
    jump_tol: float = JUMP_TOL,
):
    """(u(x), u^[1](x), u^[2](x)) by exact piecewise algebra.

    The expression value at x is -u^[2](x).  Raises
    DiscontinuousQuasiDerivativeError if u or its first quasi-derivative
    jumps at x beyond ``jump_tol`` (scaled); u is then not in the domain
    there and only one-sided values exist.
    """
    g1, g2, s = effective_coefficients(c, side)
    u1 = u.derivative() - g1 * u
    u2 = u1.derivative() + g2 * u1 + (g1 * g2 - s) * u
    scale = 1.0 + max(abs(u.eval(x, "left")), abs(u.eval(x, "right")))
    du = u.eval(x, "right") - u.eval(x, "left")
    if abs(du) > jump_tol * scale:
        raise DiscontinuousQuasiDerivativeError(x, u.eval(x, "left"), u.eval(x, "right"))
    l1, r1_ = u1.eval(x, "left"), u1.eval(x, "right")
    if abs(r1_ - l1) > jump_tol * (1.0 + max(abs(l1), abs(r1_))):
        raise DiscontinuousQuasiDerivativeError(x, l1, r1_)
    return u.eval(x, "right"), r1_, u2.eval(x, "right")


def _eval_scale(u: PiecewisePoly, x: float) -> float:
    """Rounding scale of u's one-sided values at x: sum |c_k| |x - center|^k.

    Taken over the two pieces adjacent to x.  A value that is a sum of
    large cancelling terms (a cut-off's zero times a large solution) is
    only known to this scale, whatever its own size.
    """
    return max(
        float(np.sum(np.abs(c) * abs(x - center) ** np.arange(len(c))))
        for center, c in (u.piece_at(x, "left"), u.piece_at(x, "right"))
    )


def apply_l_atoms(
    c: CoefficientField,
    side: str,
    u: PiecewisePoly,
    window: tuple[float, float],
    jump_tol: float = JUMP_TOL,
):
    """Apply the expression, keeping Dirac atoms explicit.

    Returns (f, atoms): f is the absolutely continuous part of l[u] (or
    the adjoint expression) on the window, atoms maps a location b to the
    weight w of w*delta_b coming from a jump of the first quasi-derivative
    there (w = -jump).  For u in the local domain the atom dict is empty.
    """
    a, b = float(window[0]), float(window[1])
    g1, g2, s = effective_coefficients(c, side)
    for bp, h in u.jumps.items():
        # |u(bp-)| <= the evaluation scale, so the cheap test screens the exact one
        if a <= bp <= b and abs(h) > jump_tol * (1.0 + abs(u.eval(bp, "left"))):
            if abs(h) > jump_tol * (1.0 + _eval_scale(u, bp)):
                raise DiscontinuousQuasiDerivativeError(bp, u.eval(bp, "left"), u.eval(bp, "right"))
    u1 = u.derivative() - g1 * u
    atoms: dict[float, complex] = {}
    for bp, h in u1.jumps.items():
        if a <= bp <= b and abs(h) > jump_tol * (
            1.0 + max(abs(u1.eval(bp, "left")), abs(u1.eval(bp, "right")))
        ):
            atoms[bp] = -h
    u2 = u1.derivative() + g2 * u1 + (g1 * g2 - s) * u
    return -u2, atoms


def apply_l(
    c: CoefficientField,
    side: str,
    u: PiecewisePoly,
    window: tuple[float, float],
    jump_tol: float = JUMP_TOL,
) -> PiecewisePoly:
    """l[u] (direct) or the adjoint expression (adjoint side) on a window.

    Requires u and u^[1] continuous there; a genuine jump of u^[1] means a
    Dirac atom in the result and raises DiscontinuousQuasiDerivativeError
    (use apply_l_atoms to keep the atoms).
    """
    f, atoms = apply_l_atoms(c, side, u, window, jump_tol)
    if atoms:
        loc = next(iter(atoms))
        raise DiscontinuousQuasiDerivativeError(loc, None, atoms[loc])
    return f


def product_rule_check(
    c: CoefficientField,
    phi: PiecewisePoly,
    u: PiecewisePoly,
    window: tuple[float, float],
    side: str = DIRECT,
    n_samples: int = 200,
    jump_tol: float = JUMP_TOL,
) -> float:
    """Residual of the cut-off product rule, sup-sampled on the window.

    Checks l[phi*u] against phi*l[u] - phi''*u - 2*phi'*u' + (g1-g2)*phi'*u
    with side-effective coefficients; returns the sup-norm of the
    difference over a sample grid, normalized by 1 + the sup of both sides.
    Dirac atoms produced by jumps of u^[1] agree on both sides and cancel;
    the comparison is between the absolutely continuous parts.
    """
    a, b = float(window[0]), float(window[1])
    if not phi.is_real(1e-9):
        raise NonRealError("cut-off factor must be real-valued")
    lo, hi = phi.support_bounds()
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise ValueError(
            f"cut-off support [{lo}, {hi}] is not compact inside [{a}, {b}]"
        )
    g1, g2, _ = effective_coefficients(c, side)
    lhs, lhs_atoms = apply_l_atoms(c, side, phi * u, window, jump_tol)
    lu, lu_atoms = apply_l_atoms(c, side, u, window, jump_tol)
    dphi = phi.derivative()
    ddphi = dphi.derivative()
    du = u.derivative()
    rhs = phi * lu - ddphi * u - 2.0 * (dphi * du) + (g1 - g2) * (dphi * u)
    diff = lhs - rhs
    skip = set(np.round(diff.breakpoints, 12))
    xs = np.array([x for x in np.linspace(a, b, n_samples) if round(float(x), 12) not in skip])
    sup_diff = np.max(np.abs(diff.sample(xs)))
    sup_mag = max(np.max(np.abs(lhs.sample(xs))), np.max(np.abs(rhs.sample(xs))), 1.0)
    atom_err = 0.0
    for loc in set(lhs_atoms) | set(lu_atoms):
        want = phi.eval(loc) * lu_atoms.get(loc, 0.0)
        got = lhs_atoms.get(loc, 0.0)
        atom_err = max(atom_err, abs(got - want) / (1.0 + abs(want)))
    return max(sup_diff / sup_mag, atom_err)
