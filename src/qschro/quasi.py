"""Quasi-derivative states and the application of the expression.

In quasi-derivative coordinates the second-order expression with
distributional coefficients becomes a first-order linear system whose
matrix (``CoefficientField.entries``) is locally integrable; the
continuous state is (u, u') with the derivative replaced by u' - G1*u.
A field is the one name of its expression: the Lagrange adjoint of
l[s, Q, r] is l[conj s, conj Q, conj r], the expression of the conjugate
field ``CoefficientField.adjoint``, so every application takes the field
whose expression it applies.  ``_apply`` applies it: the
quasi-derivative ladder formed with the ``PiecewisePoly`` operators on
one mesh, with the one jump rule (``_stack_jumps``) finding its atoms.
The same operators form every other expression (the right-hand side of
the cut-off product rule, and a polynomial's u^[1] in
``lagrange_forms``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, PiecewisePoly, _dense, _stack, aligned
from .config import JUMP_TOL
from .errors import DiscontinuousQuasiDerivativeError, NonRealError


@dataclass(frozen=True)
class QuasiState:
    """Point state (x, y0, y1): the function value and first quasi-derivative.

    The pair is continuous across coefficient jumps; ``logscale`` is the
    accumulated rescaling exponent, the true state is (y0, y1) * exp(logscale).
    Plain numbers: which expression the state belongs to is the field of
    the walk it starts or comes from.
    """

    x: float
    y0: complex
    y1: complex
    logscale: float = 0.0


def _stack_jumps(stack, window: tuple[float, float]) -> list[dict[float, complex]]:
    """The jumps of each function of a stack (laid out as ``coeffs._stack``
    lays it out) at its breakpoints on the window, above JUMP_TOL * (1 +
    scale), in one pass: the one continuity rule, for u and u^[1] here and
    for a weight m (``conditions.WeightFunction``) and a test family
    (``lagrange_forms.sample_forms``).

    The scale at x is the larger of sum |c_k| |x - center|^k over the two
    adjacent rows: a value that is a sum of large cancelling terms (a
    cut-off's zero times a large solution) is only known to that scale,
    whatever its own size.  Heights are the bits of ``f.jumps``: a padding
    zero changes at most the sign of a zero in Horner's rule.
    """
    bp, centers, rows, first = stack
    j = np.flatnonzero((bp >= float(window[0])) & (bp <= float(window[1])))
    if not len(j):
        return [{} for _ in range(len(first) - 1)]
    stop = first[1:] - np.arange(1, len(first))  # one past each function's last breakpoint
    x, n = bp[j], len(j)
    left = j + stop.searchsorted(j, "right")  # the row left of breakpoint j is j plus its owner's index
    beside = np.concatenate([left, left + 1])
    r, t = rows[beside], np.concatenate([x, x]) - centers[beside]
    value, size = _dense(r, t), _dense(np.abs(r), np.abs(t))
    h = value[n:] - value[:n]
    keep = np.abs(h) > JUMP_TOL * (1.0 + np.maximum(size[:n], size[n:]))
    ends = j.searchsorted(stop).tolist()
    return [dict(zip(x[i:k][keep[i:k]].tolist(), h[i:k][keep[i:k]])) for i, k in zip([0] + ends, ends)]


def _screen(fs, window: tuple[float, float]) -> None:
    """Raise DiscontinuousQuasiDerivativeError at the first jump on the window
    of the first of the functions fs that jumps there."""
    for f, jumps in zip(fs, _stack_jumps(_stack(fs), window)):
        if jumps:
            x = next(iter(jumps))
            raise DiscontinuousQuasiDerivativeError(x, f.eval(x, "left"), f.eval(x, "right"))


def _apply(entries, u: PiecewisePoly, du: PiecewisePoly, window: tuple[float, float]):
    """(l[u], atoms) of a field's entries (a11, a21_0, a22), u and u', all on
    one mesh: u^[1] = u' - a11 u and l[u] = -(u^[1]' - a22 u^[1] - a21_0 u),
    formed with the ``PiecewisePoly`` operators.  An atom at a jump h of
    u^[1] on the window has weight -h (``_stack_jumps``)."""
    a11, a21, a22 = entries
    u1 = du - a11 * u
    atoms = {x: -h for x, h in _stack_jumps(_stack([u1]), window)[0].items()}
    return -(u1.derivative() - a22 * u1 - a21 * u), atoms


def _on_field_mesh(c: CoefficientField, u: PiecewisePoly) -> tuple:
    """The operands of ``_apply`` for u and the field c: the field's entries,
    u and u' (formed on u's own mesh), each re-centred on the union of u's
    mesh and the field's."""
    v = aligned((u,), c.breakpoints)[0]
    return [e._on_mesh(v.breakpoints) for e in c.entries], v, u.derivative()._on_mesh(v.breakpoints)


def apply_l_atoms(c: CoefficientField, u: PiecewisePoly, window: tuple[float, float]):
    """Apply the expression of the field c, keeping Dirac atoms explicit;
    the adjoint expression is that of ``c.adjoint``.

    Returns (f, atoms): f is the absolutely continuous part of l[u] on the
    window, atoms maps a location b to the weight w of w*delta_b coming
    from a jump of the first quasi-derivative there (w = -jump).  For u in
    the local domain the atom dict is empty.

    From the entries at 0: u^[1] = u' - a11 u and
    l[u] = -(u^[1]' - a22 u^[1] - a21 u), formed on the union of u's mesh
    and the field's (``_on_field_mesh``).  Raises
    DiscontinuousQuasiDerivativeError where u itself jumps.
    """
    _screen([u], window)
    return _apply(*_on_field_mesh(c, u), window)


def product_rule_check(
    c: CoefficientField,
    phi: PiecewisePoly,
    u: PiecewisePoly,
    window: tuple[float, float],
) -> tuple[float, float]:
    """Residual of the cut-off product rule for the expressions of c and of
    ``c.adjoint``, sup-sampled on the window.

    Checks l[phi*u] against phi*l[u] - phi''*u - 2*phi'*u' + (g1-g2)*phi'*u,
    with g1 - g2 = a11 + a22 of the field; a field's residual is the
    sup-norm of the difference over 200 sample points, normalized by 1 +
    the larger sup of l[phi*u] and of the right-hand expression.  Dirac
    atoms produced by jumps of u^[1] agree in both and cancel; the
    comparison is between the absolutely continuous parts.  Returns the
    residuals of (c, c.adjoint).

    phi and u are re-centred once, on the union of their meshes and the
    field's, and phi u and u are screened for jumps (``apply_l_atoms``)
    once, in that order.  Each field's entries are re-centred on that mesh
    once, for its applications l[phi u] and l[u] (``_apply``); its
    right-hand expression and difference are formed with the
    ``PiecewisePoly`` operators on that mesh, the field's a11 + a22
    re-centred on it once, and each sup is read from ``sample`` on one
    grid.
    """
    a, b = float(window[0]), float(window[1])
    if not phi.is_real():
        raise NonRealError("cut-off factor must be real-valued")
    lo, hi = phi.support_bounds()
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise ValueError(
            f"cut-off support [{lo}, {hi}] is not compact inside [{a}, {b}]"
        )
    phi, u = aligned((phi, u), c.breakpoints)
    dphi, du = phi.derivative(), u.derivative()
    ddphi = dphi.derivative()
    phi_u, dphi_u, ddphi_u = phi * u, dphi * u, ddphi * u
    dphi_du = dphi * du
    _screen([phi_u, u], window)
    operands = ((phi_u, phi_u.derivative()), (u, du))
    xs = np.linspace(a, b, 200)
    out = []
    for f in (c, c.adjoint):
        entries = [e._on_mesh(phi.breakpoints) for e in f.entries]
        (lhs, lhs_atoms), (lu, lu_atoms) = (_apply(entries, g, dg, window) for g, dg in operands)
        rhs = phi * lu - ddphi_u - dphi_du * 2.0 + (f.entries[0] + f.entries[2])._on_mesh(phi.breakpoints) * dphi_u
        sup_lhs, sup_rhs, sup_diff = (np.max(np.abs(g.sample(xs))) for g in (lhs, rhs, lhs - rhs))
        sup_mag = max(sup_lhs, sup_rhs, 1.0)
        atom_err = 0.0
        for loc in set(lhs_atoms) | set(lu_atoms):
            want = phi.eval(loc) * lu_atoms.get(loc, 0.0)
            got = lhs_atoms.get(loc, 0.0)
            atom_err = max(atom_err, abs(got - want) / (1.0 + abs(want)))
        out.append(max(sup_diff / sup_mag, atom_err))
    return tuple(out)
