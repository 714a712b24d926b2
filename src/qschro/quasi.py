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

from .coeffs import (
    CoefficientField, PiecewisePoly, _dense, _derivative_rows, _poly, _product, _stack, _sum_rows, aligned,
)
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
    ``plans`` is the field's dict of the side's lambda-free shot plans
    (``propagate._plan``), which read their rows from these entries; a
    system built with entries of its own takes a dict of its own, so that
    it never shares the field's plans.
    """

    field_data: CoefficientField
    side: str
    lam: complex
    a11: PiecewisePoly = field(repr=False)
    a21_0: PiecewisePoly = field(repr=False)
    a22: PiecewisePoly = field(repr=False)
    plans: dict = field(repr=False, compare=False)

    def breakpoints(self) -> np.ndarray:
        return self.field_data.breakpoints()


def assemble(c: CoefficientField, side: str = DIRECT, lam: complex = 0.0) -> ShinZettlSystem:
    """The Shin-Zettl matrix for l - lambda (or its adjoint); its
    lambda-free entries and the shot plans over them are built once per
    field and side."""
    if _check_side(side) == DIRECT:
        return ShinZettlSystem(c, side, complex(lam), *c.direct_side, c.direct_plans)
    return ShinZettlSystem(c, side, complex(lam), *c.adjoint_side, c.adjoint_plans)


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
    stop = first[1:] - np.arange(1, len(first))  # one past each function's last breakpoint
    j = np.flatnonzero((bp >= float(window[0])) & (bp <= float(window[1])))
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


def _apply_rows(systems, fs, dfs) -> tuple:
    """The rows of u^[1] = f' - a11 f and of l[f] = -(u^[1]' - a22 u^[1] - a21_0 f)
    for each (system, f, f') triple, in one pass over stacked rows.

    f and f' lie on one mesh with canonical centers, f's, and each system's
    entries are re-centred on it, once per (system, mesh) pair; the
    products, sums and derivatives are those of the ``PiecewisePoly``
    operators, with their bits.  Returns (``coeffs._stack`` of the f, u^[1]
    rows, l rows, width of each l).
    """
    stack = _stack(fs)
    F, first, wf = stack[2:]
    DF = _stack(dfs)[2]
    keys = [(id(A), f.breakpoints.tobytes()) for A, f in zip(systems, fs)]
    pairs = dict(zip(keys, zip(systems, fs)))  # one (system, f) per (system, mesh)
    on = {k: [e._on_mesh(f.breakpoints) for e in (A.a11, A.a21_0, A.a22)] for k, (A, f) in pairs.items()}
    A11, A21, A22 = (_stack(column)[2::2] for column in zip(*map(on.get, keys)))
    U1 = _sum_rows(DF, _times(*A11, F, wf, first), np.subtract)
    t = _sum_rows(_derivative_rows(U1), _times(*A22, U1, _widths(U1, first), first), np.subtract)
    L = -_sum_rows(t, _times(*A21, F, wf, first), np.subtract)
    return stack, U1, L, _widths(L, first)


def _apply_stacked(systems, fs, dfs, window) -> list:
    """(l[f], atoms) of each (system, f, f') triple, as ``apply_l_atoms`` returns them."""
    stack, U1, L, wl = _apply_rows(systems, fs, dfs)
    atoms = _stack_jumps((*stack[:2], U1, stack[3]), window)
    first = stack[3].tolist()
    return [(_poly(f.breakpoints, f.centers, L[i:j, :w], True), {x: -h for x, h in a.items()})
            for f, i, j, w, a in zip(fs, first, first[1:], wl.tolist(), atoms)]


def _on_field_mesh(c: CoefficientField, fs) -> tuple[list, list]:
    """Each f, and f' formed on f's own mesh, re-centred on the union of f's
    mesh and the field's: the operands of ``_apply_stacked``."""
    mesh = c.breakpoints()
    on = [aligned((f,), mesh)[0] for f in fs]
    return on, [f.derivative()._on_mesh(g.breakpoints) for f, g in zip(fs, on)]


def apply_l_atoms(c: CoefficientField, side: str, u: PiecewisePoly, window: tuple[float, float]):
    """Apply the expression, keeping Dirac atoms explicit.

    Returns (f, atoms): f is the absolutely continuous part of l[u] (or
    the adjoint expression) on the window, atoms maps a location b to the
    weight w of w*delta_b coming from a jump of the first quasi-derivative
    there (w = -jump).  For u in the local domain the atom dict is empty.

    From the system at 0: u^[1] = u' - a11 u and
    l[u] = -(u^[1]' - a22 u^[1] - a21 u), formed on the union of u's mesh
    and the field's (``_on_field_mesh``).  Raises
    DiscontinuousQuasiDerivativeError where u itself jumps.
    """
    _screen([u], window)
    return _apply_stacked([assemble(c, side)], *_on_field_mesh(c, [u]), window)[0]


def _grid(a: float, b: float, mesh: np.ndarray) -> np.ndarray:
    """200 points from a to b, without those that round to 12 decimals
    (Python's ``round``) as a breakpoint does (numpy's).  Only a point
    within 1e-9 (1 + |x|) of a breakpoint can, so only those are rounded."""
    xs = np.linspace(a, b, 200)
    if not len(mesh):
        return xs
    skip = set(np.round(mesh, 12))
    j = np.clip(mesh.searchsorted(xs), 1, len(mesh))
    gap = np.minimum(np.abs(xs - mesh[j - 1]), np.abs(xs - mesh[np.minimum(j, len(mesh) - 1)]))
    near = (gap <= 1e-9 * (1.0 + np.abs(xs))).nonzero()[0]
    drop = [k for k, x in zip(near.tolist(), xs[near].tolist()) if round(x, 12) in skip]
    return np.delete(xs, drop)


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
    field's, and both are screened for jumps (``apply_l_atoms``) once, in
    that order.  Everything after is formed on that one mesh in stacked
    rows, with the bits of the ``PiecewisePoly`` operators: the four
    applications l[phi u] and l[u] of both sides in one pass
    (``_apply_rows``), then both sides' right-hand sides and differences,
    and the six sampled expressions in one batched Horner pass on one grid.
    """
    a, b = float(window[0]), float(window[1])
    if not phi.is_real():
        raise NonRealError("cut-off factor must be real-valued")
    lo, hi = phi.support_bounds()
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise ValueError(
            f"cut-off support [{lo}, {hi}] is not compact inside [{a}, {b}]"
        )
    phi, u = aligned((phi, u), c.breakpoints())
    dphi, du = phi.derivative(), u.derivative()
    ddphi = dphi.derivative()
    phi_u, dphi_u, ddphi_u = phi * u, dphi * u, ddphi * u
    dphi_du = dphi * du
    _screen([phi_u, u], window)
    systems = [assemble(c, side) for side in (DIRECT, ADJOINT)]
    stack, U1, L, wl = _apply_rows([A for A in systems for _ in range(2)], [phi_u, u] * 2,
                                   [phi_u.derivative(), du] * 2)
    atoms = _stack_jumps((*stack[:2], U1, stack[3]), window)  # of l[phi u] and l[u], each side
    # the right-hand sides phi l[u] - phi'' u - 2 phi' u' + (a11 + a22) phi' u
    # and the differences of both sides, the direct side's rows first
    n = len(phi.coeffs)
    pairs = np.array([0, n, 2 * n])
    phi2, ddphi_u2, dphi_du2, dphi_u2 = (np.concatenate([f.coeffs, f.coeffs]) for f in (phi, ddphi_u, dphi_du, dphi_u))
    lu = np.concatenate([L[n : 2 * n], L[3 * n :]])
    sums = _stack([(A.a11 + A.a22)._on_mesh(phi.breakpoints) for A in systems])[2::2]
    rhs = _sum_rows(
        _sum_rows(_sum_rows(_times(phi2, np.full(2, phi2.shape[1]), lu, wl[1::2], pairs), ddphi_u2, np.subtract),
                  dphi_du2 * complex(2.0), np.subtract),
        _times(*sums, dphi_u2, np.full(2, dphi_u2.shape[1]), pairs))
    lhs = np.concatenate([L[:n], L[2 * n : 3 * n]])
    diff = _sum_rows(lhs, rhs, np.subtract)
    xs = _grid(a, b, phi.breakpoints)
    i = phi._region(xs, "right")
    exprs = [(lhs, 0), (rhs, 0), (diff, 0), (lhs, n), (rhs, n), (diff, n)]
    width = max(e.shape[1] for e, _ in exprs)
    rows = np.zeros((len(exprs) * len(xs), width), dtype=complex)
    for k, (e, at) in enumerate(exprs):
        rows[k * len(xs) : (k + 1) * len(xs), : e.shape[1]] = e[at + i]
    values = np.abs(_dense(rows, np.tile(xs - phi.centers[i], len(exprs)))).reshape(len(exprs), -1)
    out = {}
    for s, side in enumerate((DIRECT, ADJOINT)):
        sup_lhs, sup_rhs, sup_diff = (np.max(v) for v in values[3 * s : 3 * s + 3])
        sup_mag = max(sup_lhs, sup_rhs, 1.0)
        lhs_atoms, lu_atoms = ({x: -h for x, h in jumps.items()} for jumps in atoms[2 * s : 2 * s + 2])
        atom_err = 0.0
        for loc in set(lhs_atoms) | set(lu_atoms):
            want = phi.eval(loc) * lu_atoms.get(loc, 0.0)
            got = lhs_atoms.get(loc, 0.0)
            atom_err = max(atom_err, abs(got - want) / (1.0 + abs(want)))
        out[side] = max(sup_diff / sup_mag, atom_err)
    return out
