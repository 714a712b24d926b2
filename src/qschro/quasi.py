"""Quasi-derivative states and the application of the expression.

In quasi-derivative coordinates the second-order expression with
distributional coefficients becomes a first-order linear system whose
matrix (``CoefficientField.entries``) is locally integrable; the
continuous state is (u, u') with the derivative replaced by u' - G1*u.
A field is the one name of its expression: the Lagrange adjoint of
l[s, Q, r] is l[conj s, conj Q, conj r], the expression of the conjugate
field ``CoefficientField.adjoint``, so every application takes the field
whose expression it applies.  ``_apply_stacked`` is the one stacked
application: one quasi-derivative ladder over the rows of a batch of
functions, with one jump rule that finds its atoms.  Every other
expression (the right-hand side of the cut-off product rule, and a
polynomial's u^[1] in ``lagrange_forms``) is formed with the
``PiecewisePoly`` operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import (
    CoefficientField, PiecewisePoly, _dense, _derivative_rows, _poly, _product, _stack, _sum_rows, aligned,
)
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
    bp, centers, rows, first = stack[:4]
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


def _widths(rows: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Each function's width as ``_trim_cols`` leaves it: one past its last
    column with a nonzero row, at least one."""
    nz = rows != 0
    last = np.where(nz.any(axis=1), rows.shape[1] - nz[:, ::-1].argmax(axis=1), 1)
    return np.maximum.reduceat(last, first[:-1])


def _times(p: np.ndarray, wp: np.ndarray, q: np.ndarray, wq: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Rows of p q as ``coeffs._convolve_rows`` forms each function's: the
    widths ``wp`` and ``wq`` are the functions' own, and each function's
    rows go through ``coeffs._product`` looping over the columns of its
    narrower factor (q's at equal widths).  A padding zero adds a zero
    product to a sum that starts at +0, so the rows have the bits of the
    unpadded ones."""
    swap = np.repeat(wp < wq, np.diff(first))
    if not swap.any():
        return _product(p, q)
    if swap.all():
        return _product(q, p)
    out = np.empty((len(p), p.shape[1] + q.shape[1] - 1), dtype=complex)
    out[~swap], out[swap] = _product(p[~swap], q[~swap]), _product(q[swap], p[swap])
    return out


def _apply_stacked(fields, fs, dfs, window) -> list:
    """(l[f], atoms) of each (field, f, f') triple, as ``apply_l_atoms``
    returns them, in one pass over stacked rows: the one stacked
    application of the expression.

    f and f' lie on one mesh with canonical centers, f's, and each field's
    entries are re-centred on it, once per (field, mesh) pair; the rows of
    u^[1] = f' - a11 f and l[f] = -(u^[1]' - a22 u^[1] - a21_0 f) are the
    products, sums and derivatives of the ``PiecewisePoly`` operators, with
    their bits.  An atom at a jump h of u^[1] on the window has weight -h
    (``_stack_jumps``).
    """
    stack = _stack(fs)
    F, first, wf = stack[2:]
    DF = _stack(dfs)[2]
    keys = [(id(c), f.breakpoints.tobytes()) for c, f in zip(fields, fs)]
    pairs = dict(zip(keys, zip(fields, fs)))  # one (field, f) per (field, mesh)
    on = {k: [e._on_mesh(f.breakpoints) for e in c.entries] for k, (c, f) in pairs.items()}
    A11, A21, A22 = (_stack(column)[2::2] for column in zip(*map(on.get, keys)))
    U1 = _sum_rows(DF, _times(*A11, F, wf, first), np.subtract)
    t = _sum_rows(_derivative_rows(U1), _times(*A22, U1, _widths(U1, first), first), np.subtract)
    L = -_sum_rows(t, _times(*A21, F, wf, first), np.subtract)
    atoms = [{x: -h for x, h in jumps.items()} for jumps in _stack_jumps((*stack[:2], U1, first), window)]
    rows = first.tolist()
    return [(_poly(f.breakpoints, f.centers, L[i:j, :w], True), a)
            for f, i, j, w, a in zip(fs, rows, rows[1:], _widths(L, first).tolist(), atoms)]


def _on_field_mesh(c: CoefficientField, fs) -> tuple[list, list]:
    """Each f, and f' formed on f's own mesh, re-centred on the union of f's
    mesh and the field's: the operands of ``_apply_stacked``."""
    mesh = c.breakpoints
    on = [aligned((f,), mesh)[0] for f in fs]
    return on, [f.derivative()._on_mesh(g.breakpoints) for f, g in zip(fs, on)]


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
    return _apply_stacked([c], *_on_field_mesh(c, [u]), window)[0]


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
    field's, and both are screened for jumps (``apply_l_atoms``) once, in
    that order.  The four applications l[phi u] and l[u] of both fields are
    one stacked pass (``_apply_stacked``).  Each field's right-hand
    expression and difference are formed with the ``PiecewisePoly``
    operators on that mesh, the field's a11 + a22 re-centred on it once,
    and each sup is read from ``sample`` on one grid.
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
    fields = (c, c.adjoint)
    applied = _apply_stacked([f for f in fields for _ in range(2)], [phi_u, u] * 2,
                             [phi_u.derivative(), du] * 2, window)  # l[phi u] and l[u], each field
    xs = np.linspace(a, b, 200)
    out = []
    for f, (lhs, lhs_atoms), (lu, lu_atoms) in zip(fields, applied[::2], applied[1::2]):
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
