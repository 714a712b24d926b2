"""Integrator contract: accuracy, dense output, jumps, rescaling."""

import bisect
import dataclasses
import itertools
import cmath
import math
import os
import subprocess
import sys
from operator import mul

import numpy as np
import pytest

from qschro.coeffs import CoefficientField, PiecewisePoly, _dense, _value, aligned
from qschro.errors import OverflowUnrecoverableError, StepBudgetError, StepUnderflowError
from qschro import propagate
from qschro.propagate import fundamental, integrate, pair_integral
from qschro.quasi import QuasiState
from qschro.spectral import BoundaryCondition, characteristic


FREE = CoefficientField.free()
BC = BoundaryCondition()


def walk_end(c, lam, start, to, derivative=False):
    """(end state, log sup|Y|) at ``to``, and with ``derivative`` dY/dlambda
    there: the walk (``_plan``, ``_walk``) that ``integrate`` takes from
    ``start``, without its rows.  A shot (``characteristic``) is this walk
    from a boundary state at logscale 0."""
    plan = propagate._plan(c, start.x, to)
    y, ls, sup = propagate._walk(plan, complex(lam), (start.y0, start.y1, start.logscale), derivative=derivative)
    end = QuasiState(to, y[0], y[1], ls)
    return (end, sup, QuasiState(to, y[2], y[3], ls)) if derivative else (end, sup)


def _dop853(c, lam, a, b, init, points=65):
    """Reference shot from a to b > a by scipy's DOP853 at rtol 1e-13,
    restarted at every breakpoint of the field: (end state, log of max |Y|
    at ``points`` dense-output points per segment, the (lo, hi, dense
    output) of each segment)."""
    from scipy.integrate import solve_ivp

    nodes = [a, *sorted(float(t) for t in c.breakpoints if a < t < b), b]
    a11, a21_0, a22 = c.entries
    y = np.array(init, dtype=complex)
    sup, segments = -math.inf, []
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        pieces = []
        for f in (a11, a21_0 - complex(lam), a22):
            i = f._region(0.5 * (lo + hi), "right")
            pieces.append((f.coeffs[i], f.centers[i]))

        def rhs(x, y, pieces=pieces):
            a11, a21, a22 = (np.polynomial.polynomial.polyval(x - c0, p) for p, c0 in pieces)
            return [a11 * y[0] + y[1], a21 * y[0] + a22 * y[1]]

        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13, atol=1e-20, dense_output=True)
        assert sol.success
        y = sol.y[:, -1]
        sup = max(sup, float(np.max(np.log(np.max(np.abs(sol.sol(np.linspace(lo, hi, points))), axis=0)))))
        segments.append((lo, hi, sol.sol))
    return y, sup, segments


def test_free_linear_solution():
    t = integrate(FREE, 0.0, QuasiState(0.0, 0.0, 1.0), 2.0)
    s = t.state_at(2.0)
    assert abs(s.y0 - 2.0) <= 1e-9
    assert abs(s.y1 - 1.0) <= 1e-9


def test_free_exponential():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 1.0)
    assert abs(t.state_at(1.0).y0 - math.e) <= 1e-8


def test_delta_well_bound_state_propagation():
    dw = CoefficientField.delta_well(-2.0)
    y0 = math.exp(-8.0)
    t = integrate(dw, -1.0, QuasiState(-8.0, y0, y0), 8.0)
    s = t.state_at(8.0)
    assert abs(s.y0 - math.exp(-8.0)) / math.exp(-8.0) <= 1e-5
    # u^[1] = u' + 2u = e^{-x} on x > 0
    assert abs(s.y1 - math.exp(-8.0)) / math.exp(-8.0) <= 1e-5


def test_delta_jump_law():
    # q = c*delta: u' = y1 + G1*y0 jumps by c*u(0); y1 itself is continuous
    c = -2.0
    dw = CoefficientField.delta_well(c)
    t = integrate(dw, -1.0, QuasiState(-3.0, 1.0, 0.3), 3.0)
    # one dense mesh node sits exactly at 0; evaluate adjacent steps
    y0l, y1l = t.sample([0.0], "left")[0][0]
    y0r, y1r = t.sample([0.0], "right")[0][0]
    assert abs(y0r - y0l) <= 1e-11
    assert abs(y1r - y1l) <= 1e-11
    uprime_l = y1l + dw.G1.eval(0.0, "left") * y0l
    uprime_r = y1r + dw.G1.eval(0.0, "right") * y0r
    assert abs((uprime_r - uprime_l) - c * y0l) <= 1e-8 * (1 + abs(y0l))


def test_fundamental_free_lambda0():
    y1, y2 = fundamental(FREE, 0.0, 0.0, (-2.0, 2.0))
    for x in (-1.5, 0.3, 2.0):
        s1 = y1.state_at(x)
        s2 = y2.state_at(x)
        assert abs(s1.y0 - 1.0) <= 1e-9 and abs(s1.y1) <= 1e-9
        assert abs(s2.y0 - x) <= 1e-9 and abs(s2.y1 - 1.0) <= 1e-9


def test_fundamental_free_hyperbolic():
    y1, _ = fundamental(FREE, -1.0, 0.0, (-1.0, 1.0))
    s = y1.state_at(1.0)
    assert abs(s.y0 - math.cosh(1.0)) <= 1e-9
    assert abs(s.y1 - math.sinh(1.0)) <= 1e-9


def test_linear_drift_self_convergence():
    # r = -i x: no closed form; compare against scipy's DOP853 at rtol 1e-13
    z = PiecewisePoly.zero()
    c = CoefficientField(z, z, PiecewisePoly.from_coeffs([0.0, -1j]))
    s = integrate(c, 0.0, QuasiState(0.0, 1.0, 0.5j), 3.0).state_at(3.0)
    ref, _, _ = _dop853(c, 0.0, 0.0, 3.0, (1.0, 0.5j))
    scale = max(abs(ref[0]), abs(ref[1]), 1.0)
    assert abs(s.y0 * math.exp(s.logscale) - ref[0]) / scale <= 1e-7
    assert abs(s.y1 * math.exp(s.logscale) - ref[1]) / scale <= 1e-7


def test_dense_output_matches_knots():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 1.0)
    knots = t.breakpoints
    for va, vb in zip(t.sample(knots, "left")[0], t.sample(knots, "right")[0]):
        assert abs(va[0] - vb[0]) <= 1e-13 * (1 + abs(va[0]))
        assert abs(va[1] - vb[1]) <= 1e-13 * (1 + abs(va[1]))


def test_breakpoint_transparency():
    z = PiecewisePoly.zero()
    base = CoefficientField(z, PiecewisePoly.constant(0.4), z)
    refined = CoefficientField(
        z, aligned([PiecewisePoly.constant(0.4)], np.array([0.37]))[0], z
    )
    s0 = integrate(base, -1.0, QuasiState(0.0, 1.0, 0.0), 1.0).state_at(1.0)
    s1 = integrate(refined, -1.0, QuasiState(0.0, 1.0, 0.0), 1.0).state_at(1.0)
    assert abs(s0.y0 - s1.y0) <= 10 * 1e-12 + 1e-10 * abs(s0.y0)
    assert abs(s0.y1 - s1.y1) <= 10 * 1e-12 + 1e-10 * abs(s0.y1)


def test_rescaling_long_window():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 300.0)
    s = t.state_at(300.0)
    assert s.logscale > 0
    assert abs(math.log(abs(s.y0)) + s.logscale - 300.0) <= 1e-6 * 300


def _row_value(row, x):
    """Reference dense output of one step: scalar Horner loop."""
    theta = (x - row["x0"]) / row["h"]
    y0 = y1 = 0.0 + 0.0j
    for c0, c1 in row["coef"][::-1]:
        y0 = y0 * theta + c0
        y1 = y1 * theta + c1
    return y0, y1, row["logscale"]


def _pointwise(t, x):
    """Reference lookup: the last step whose span starts at or before x."""
    lo = list(t.knots[:-1])
    return _row_value(t.steps[max(0, min(bisect.bisect_right(lo, x) - 1, len(lo) - 1))], x)


def test_sample_matches_pointwise_across_rescale():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 300.0)
    assert len(set(t.steps["logscale"])) > 1
    xs = np.concatenate([np.linspace(0.0, 300.0, 601), t.knots])
    ys, ls = t.sample(xs)
    for x, y, l in zip(xs, ys, ls):
        y0, y1, lref = _pointwise(t, float(x))
        assert (y[0], y[1], l) == (y0, y1, lref)
        s = t.state_at(float(x))
        assert (s.y0, s.y1, s.logscale) == (y0, y1, lref)


def test_one_sided_values_at_knot_from_adjacent_rows():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 300.0)
    ls = t.steps["logscale"]
    i = int(np.flatnonzero(np.diff(ls))[0])  # the rescale happens at the end of step i
    knot = t.knots[i + 1]
    (yl,), (ll,) = t.sample([knot], "left")
    (yr,), (lr,) = t.sample([knot], "right")
    assert (ll, lr) == (ls[i], ls[i + 1])
    assert tuple(yl) + (ll,) == _row_value(t.steps[i], knot)
    assert tuple(yr) + (lr,) == _row_value(t.steps[i + 1], knot)
    # state_at reads the same rows: the right one by default
    for s, want in ((t.state_at(knot, "left"), (*yl, ll)), (t.state_at(knot), (*yr, lr))):
        assert (s.x, s.y0, s.y1, s.logscale) == (knot, *want)
    # same state, two scales: 1e100-sized mantissa on the left, unit on the right
    assert max(abs(yl)) > 1e100 and max(abs(yr)) == pytest.approx(1.0)
    assert np.allclose(yl * math.exp(ll - lr), yr, rtol=1e-12, atol=0.0)


def test_a_delta_well_solution_is_cut_into_one_panel_per_row():
    # Q = -2 for x > 0 at lambda = -2.5: exact sub-steps on both sides of
    # the mass, where a row's end x0 + h and the next row's start differ
    # by ulps; each boundary is one knot, so no sliver panel lies between
    c = CoefficientField.delta_well()
    t = integrate(c, -2.5, QuasiState(-22.0, 1.0, 0.0), 22.0)
    mid, half, _ = propagate._panels((t,), -22.0, 22.0, np.zeros(1))
    assert len(t.steps) == len(mid) == 70 and 2 * half.min() >= 1e-12
    assert np.array_equal(t.knots[:-1], t.steps["x0"]) and t.knots[-1] == 22.0
    # a window past the end is refused, though no panel is cut at the end
    with pytest.raises(ValueError, match="outside trajectory interval"):
        pair_integral(t, t, 0.0, 22.0 + 1e-9)
    # a backward walk enters each row at its right end; a fundamental pair
    # joins its two halves at the anchor
    back = integrate(c, -2.5, QuasiState(22.0, 1.0, 0.0), -22.0)
    assert back.knots[0] == -22.0 and np.array_equal(back.knots[1:], back.steps["x0"])
    y1, y2 = fundamental(c, -2.5, 0.5, (-22.0, 22.0))
    for f in (back, y1, y2):
        assert len(f.knots) == len(f.steps) + 1 and np.all(np.diff(f.knots) > 0)
    assert 0.5 in y1.knots.tolist() and len(propagate._panels((y1, y2), -22.0, 22.0, np.zeros(1))[0]) == 70


def test_a_self_pair_hands_the_cutter_its_knots_once(monkeypatch):
    # the delta-well solution above has 69 inner knots; pair_integral(t, t)
    # hands the cutter each once, besides the window's ends, and the sum
    # has the bits of a pair of two objects
    c = CoefficientField.delta_well()
    t = integrate(c, -2.5, QuasiState(-22.0, 1.0, 0.0), 22.0)
    twin = dataclasses.replace(t)  # the same rows in another object
    want = pair_integral(t, twin, -22.0, 22.0)
    edges = []
    cut = propagate._cut
    monkeypatch.setattr(propagate, "_cut", lambda lo, hi, shared: edges.append(len(shared)) or cut(lo, hi, shared))
    got = pair_integral(t, t, -22.0, 22.0)
    assert len(t.breakpoints) == 69 and edges == [2 + 69]
    assert got == want


def _stiff_shot(shoot):
    """Shoot the s = 1e30 field from (1, 1) at logscale 2 and return its error."""
    z = PiecewisePoly.zero()
    stiff = CoefficientField(PiecewisePoly.constant(1e30), z, z)
    with pytest.raises(StepUnderflowError, match=r"^step size .* below floor at x=0 \(solution") as err:
        shoot(stiff, 0.0, QuasiState(0.0, 1.0, 1.0, logscale=2.0), 1.0)
    e = err.value
    assert (e.x, e.y0, e.y1, e.logscale) == (0.0, 1.0, 1.0, 2.0)
    assert 0 < e.h < 1e-14
    return e


def test_step_underflow_signaled():
    # growth rate ~1e15 forces steps below the 1e-14*span floor
    _stiff_shot(integrate)


def test_step_underflow_signaled_on_the_exact_path():
    # the same constant field on the exact path: the sub-steps that keep
    # |h mu| <= 1 would be 1e-15 long, so it stops before any product
    assert _stiff_shot(walk_end).h == pytest.approx(1e-15)


def test_pair_integral_exponential_mass():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 1.0)
    val, ls = pair_integral(t, t, 0.0, 1.0)
    want = (math.e**2 - 1) / 2
    assert abs(val * math.exp(ls) - want) <= 1e-9 * want


def test_pair_integral_with_weight():
    # a weight is a PiecewisePoly operand: int u * conj(w * u) for u = x, w = x
    t = integrate(FREE, 0.0, QuasiState(0.0, 0.0, 1.0), 2.0)  # u = x
    wu = PiecewisePoly([1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])  # x^2, spurious breakpoint at 1
    val, ls = pair_integral(t, wu, 0.0, 2.0)
    want = 4.0  # int_0^2 x * x * x dx
    assert abs(val * math.exp(ls) - want) <= 1e-9 * want


def test_pair_integral_with_reversed_bounds_is_minus_the_integral():
    # as PiecewisePoly.integrate has it: int_1^0 (1 + 2x) * 3 dx = -6
    u, v = PiecewisePoly.from_coeffs([1.0, 2.0]), PiecewisePoly.constant(3.0)
    assert (u * v.conj()).integrate(1.0, 0.0) == -6.0
    assert pair_integral(u, v, 1.0, 0.0) == (-6.0, 0.0)
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 1.0)
    val, ls = pair_integral(t, t, 0.25, 1.0)
    assert val != 0
    assert pair_integral(t, t, 1.0, 0.25) == (-val, ls)


def test_to_piecewise_matches_dense_output():
    # a field with jumps and a complex spectral parameter: one re-fitted row
    # per step, equal to the dense output at every step midpoint
    c = CoefficientField(
        PiecewisePoly([-0.5, 0.7], [[0.3, 1.0], [1.0, -0.5, 0.4], [0.2]]),
        PiecewisePoly.step(0.1, 0.0, -1.5),
        PiecewisePoly([0.4], [[0.0, 0.2], [0.3]]),
    )
    t = integrate(c, 2.0 + 0.5j, QuasiState(-2.0, 0.3, 1.0), 2.0)
    pw = t.to_piecewise(t.a, t.b)
    mids = t.steps["x0"] + 0.5 * t.steps["h"]
    y, ls = t.sample(mids)
    want = y[:, 0] * np.exp(ls)
    assert len(pw.breakpoints) == len(t.steps) - 1
    assert np.all(np.abs(pw.sample(mids) - want) <= 1e-12 * np.abs(want))


def test_to_piecewise_roundtrip():
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 1.0)
    pw = t.to_piecewise(t.a, t.b)
    for x in np.linspace(0, 1, 101):
        assert abs(pw.eval(float(x)) - t.state_at(float(x)).y0) <= 1e-13 * math.e


def test_to_piecewise_past_the_float_range_raises():
    # e^(4x) on [0, 240]: the rows carry logscales up to 921, past exp's range
    t = integrate(FREE, -16.0, QuasiState(0.0, 1.0, 4.0), 240.0)
    top = float(np.max(t.steps["logscale"]))
    assert top > 709
    with pytest.raises(OverflowUnrecoverableError, match=f"{top:.6g}"):
        t.to_piecewise(t.a, t.b)


def test_refit_overflow_carries_its_logscale():
    # the error names the logscale that overflows, as an attribute too
    t = integrate(FREE, -16.0, QuasiState(0.0, 1.0, 4.0), 240.0)
    top = float(np.max(t.steps["logscale"]))
    with pytest.raises(OverflowUnrecoverableError) as err:
        t.to_piecewise(t.a, t.b)
    assert str(err.value) == f"re-fit at absolute scale: logscale {top:.6g} overflows"
    assert err.value.logscale == top
    assert err.value.window is None and err.value.index is None


# ----------------------------------------------------------------------
# shots: exact exponentials on constant segments


def _reference_exact_step_dlam(inv, h):
    """d exp(hA)/dlambda of complex invariants as the exact-step kernel once
    formed it, apart from exp(hA): w, sinhc and e^(h tau/2) computed again,
    the series by the one Horner rule."""
    a21, d, tau, mu2 = inv
    w = h * h * mu2
    sh = h * _value(propagate._SINHC, w)
    dch = -h * h * _value(propagate._DCOSH, w)
    dsh = -h * h * h * _value(propagate._DSINHC, w)
    g = cmath.exp(0.5 * h * tau)
    return g * (dch + dsh * d), g * dsh, g * (dsh * a21 - sh), g * (dch - dsh * d)


def _reference_exact_segment(consts, lam, xa, xb, y, ls, sup, h_floor, left, out=None):
    """``propagate._exact_segment`` as it was with one loop for a shot with
    D' and another for a shot or a dense walk: the reference of the one loop."""
    a21_0, d, tau, dd, half_tau_abs = consts
    a21 = a21_0 - lam
    mu2 = dd + a21
    seg_len = xb - xa
    n = abs(seg_len) * max(math.sqrt(abs(mu2)), half_tau_abs)
    if not n * h_floor <= abs(seg_len):
        raise StepUnderflowError(xa, seg_len / n, y[0], y[1], ls)
    n = max(1, math.ceil(n))
    start = (xa, seg_len / n, y[0], y[1], ls)
    if n > left:
        raise StepBudgetError(*start, propagate.MAX_WALK_STEPS)
    e11, e12, e21, e22 = propagate._exact_step((a21, d, tau, mu2), seg_len / n, False)
    if len(y) == 4:
        f11, f12, f21, f22 = _reference_exact_step_dlam((a21, d, tau, mu2), seg_len / n)
        y0, y1, z0, z1 = y
        peak = max(abs(y0), abs(y1))
        for _ in range(n):
            y0, y1, z0, z1 = (e11 * y0 + e12 * y1, e21 * y0 + e22 * y1,
                              e11 * z0 + e12 * z1 + f11 * y0 + f12 * y1,
                              e21 * z0 + e22 * z1 + f21 * y0 + f22 * y1)
            m, m1 = abs(y0), abs(y1)
            if m1 > m:
                m = m1
            if m > peak:
                peak = m
                if m > propagate.RESCALE_THRESHOLD:
                    y0, y1, z0, z1, peak = y0 / m, y1 / m, z0 / m, z1 / m, 1.0
                    ls += math.log(m)
        if not (cmath.isfinite(y0) and cmath.isfinite(y1)):
            raise StepUnderflowError(*start, finite=False)
        return (y0, y1, z0, z1), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup, left - n
    y0, y1 = y
    peak = max(abs(y0), abs(y1))
    starts, logscales = [], [(0, ls)]
    keep = None if out is None else starts.append
    for i in range(n):
        if keep:
            keep(y0)
            keep(y1)
        y0, y1 = e11 * y0 + e12 * y1, e21 * y0 + e22 * y1
        m, m1 = abs(y0), abs(y1)
        if m1 > m:
            m = m1
        if m > peak:
            peak = m
            if m > propagate.RESCALE_THRESHOLD:
                y0, y1, peak = y0 / m, y1 / m, 1.0
                ls += math.log(m)
                logscales.append((i + 1, ls))
    if not (cmath.isfinite(y0) and cmath.isfinite(y1)):
        raise StepUnderflowError(*start, finite=False)
    if out is not None:
        out.append(propagate._exact_rows((a21, d, tau, mu2), xa, xb, seg_len / n, starts, logscales))
    return (y0, y1), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup, left - n


def _bits(value):
    """A nested result as hex strings and arrays' bytes, so -0.0, nan and
    every last bit count."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return value


def _consts(a11, a21_0, a22):
    d, tau = 0.5 * (a11 - a22), a11 + a22
    return (a21_0, d, tau, d * d, 0.5 * abs(tau))


# (a21, d, tau, mu^2) of the three kinds a walk builds: all complex (a
# complex plan), all float (a float walk) and float d and tau with complex
# a21 and mu^2 (a complex walk of a real plan)
@pytest.mark.parametrize("inv", [
    (2.0 + 1j, 0.3 - 0.2j, 0.5j, (0.3 - 0.2j) ** 2 + 2.0 + 1j),
    (-2500.0, 0.0, 0.0, -2500.0),
    (-(0.7j ** 2) + 1e-9, 0.7j, -1.1 + 0j, 1e-9 + 0j),  # mu^2 near 0: sinhc series
    (0.0, 0.0, 0.0, 0.0),  # nilpotent: exp(hA) = I + hA
    (-2500.0 - 3.0j, 0.5, -0.2, 0.25 + (-2500.0 - 3.0j)),
    (0.6 - 1e-9j, -0.8, 0.4, 0.64 + (0.6 - 1e-9j)),
])
def test_exact_step_matches_expm(inv):
    from scipy.linalg import expm

    a21, d, tau, mu2 = inv
    A = np.array([[tau / 2 + d, 1.0], [a21, tau / 2 - d]])
    h = 1.0 / max(abs(mu2) ** 0.5, abs(tau) / 2, 1.0)
    got = np.array(propagate._exact_step(inv, h, False)).reshape(2, 2)
    assert np.allclose(got, expm(h * A), rtol=1e-14, atol=1e-14 * np.abs(expm(h * A)).max())
    # with its derivative: the same exp(hA), and the bits of the kernel of its own
    both = propagate._exact_step(inv, h, True)
    assert _bits(both[:4]) == _bits(propagate._exact_step(inv, h, False))
    # reference: the step of the same invariants all complex, as a walk of
    # complex rows forms it
    forced = tuple(map(complex, inv))
    want, want_dlam = propagate._exact_step(forced, h, True), _reference_exact_step_dlam(forced, h)
    if all(type(v) is float for v in inv):
        # a float walk's step: floats with the bits of the real parts
        assert all(type(v) is float for v in both)
        want, want_dlam = (tuple(z.real for z in x) for x in (want, want_dlam))
    assert _bits(both) == _bits(want)
    assert _bits(both[4:]) == _bits(want_dlam)


# (consts, lam, xa, xb, start state, logscale): a segment that rescales
# many times, one that oscillates backward from a -0.0 state, a complex
# lambda with a drift, and a short one of a single sub-step
SEGMENTS = [
    (_consts(0.0, 0.0, 0.0), -400.0, 0.0, 30.0, (0.3 + 0j, 1.0 + 0j), 0.0),
    (_consts(0.0, 0.0, 0.0), 900.0, 2.0, -1.5, (complex(-0.0, 0.0), complex(1.0, -0.0)), 2.5),
    (_consts(0.7 - 0.2j, 1.5, -0.4), 3.0 + 2.0j, -1.0, 6.0, (1.0 - 2.0j, complex(-0.0, -0.0)), -4.0),
    (_consts(0.1, 0.0, 0.1), 0.5, 0.0, 0.25, (0.2 + 0j, -0.7 + 0.1j), 0.0),
]


@pytest.mark.parametrize("kind", ["shot", "derivative", "dense"])
@pytest.mark.parametrize("segment", SEGMENTS, ids=["rescales", "negative-zero", "complex", "one-substep"])
def test_one_substep_loop_has_the_bits_of_the_two_loops(segment, kind):
    consts, lam, xa, xb, y, ls = segment
    y = (*y, 0j, complex(-0.0, 0.0)) if kind == "derivative" else y
    args = (consts, lam, xa, xb, y, ls, -math.inf, 1e-9 * abs(xb - xa), propagate.MAX_WALK_STEPS)
    got_rows, want_rows = ([] if kind == "dense" else None for _ in range(2))
    got = propagate._exact_segment(*args, got_rows)
    want = _reference_exact_segment(*args, want_rows)
    assert _bits(got) == _bits(want)
    assert _bits(got_rows) == _bits(want_rows)
    if segment is SEGMENTS[0]:  # |Y| grows by e^600: the state was rescaled twice on the way
        assert got[1] > 2 * math.log(propagate.RESCALE_THRESHOLD)


@pytest.mark.parametrize("kind", ["shot", "derivative", "dense"])
def test_one_substep_loop_refuses_a_state_that_is_not_finite_as_the_two_loops_did(kind):
    # a start state near the float range that one growing sub-step takes past it
    y = (1e308 + 0j, 1e308 + 0j)
    y = (*y, 0j, 0j) if kind == "derivative" else y
    args = (_consts(0.0, 0.0, 0.0), -4.0, 0.0, 3.0, y, 0.0, -math.inf, 1e-9, propagate.MAX_WALK_STEPS)
    errors = []
    for segment in (propagate._exact_segment, _reference_exact_segment):
        with pytest.raises(StepUnderflowError, match="state not finite") as err:
            segment(*args, [] if kind == "dense" else None)
        errors.append(err.value)
    got, want = errors
    assert str(got) == str(want)
    assert _bits((got.x, got.h, got.y0, got.y1, got.logscale)) == _bits((want.x, want.h, want.y0, want.y1, want.logscale))


# constant pieces around one linear piece of s and one jump of Q
MIXED = CoefficientField(
    PiecewisePoly([-1.0, 1.0], [[0.5], [0.0, 0.8], [-0.3]]),
    PiecewisePoly.step(1.7, 0.0, -1.5),
    PiecewisePoly.zero(),
)


def test_exact_shot_matches_dormand_prince_on_mixed_field():
    # the linear segment takes Taylor steps, the others are exact
    for lam in (-2.0, 3.0 + 0.5j, 40.0):
        end, esup = walk_end(MIXED, lam, QuasiState(-3.0, 0.0, 1.0), 3.0)
        ref, dsup, _ = _dop853(MIXED, lam, -3.0, 3.0, (0.0, 1.0))
        scale = math.exp(dsup)
        assert abs(end.y0 * math.exp(end.logscale) - ref[0]) <= 1e-9 * scale
        assert abs(end.y1 * math.exp(end.logscale) - ref[1]) <= 1e-9 * scale
        # both sup are sampled, at other points: exact sub-steps turn the
        # phase by at most 1, so they miss a peak by at most a factor cos(1/2)
        assert abs(esup - dsup) <= -math.log(math.cos(0.5))


def test_exact_shot_rescales_like_dormand_prince():
    # e^x growth on [0, 300] passes 1e100 twice; both paths rescale at the
    # threshold and end with the true size, sinh(300)
    end, esup = walk_end(FREE, -1.0, QuasiState(0.0, 0.0, 1.0), 300.0)
    dense = integrate(FREE, -1.0, QuasiState(0.0, 0.0, 1.0), 300.0).state_at(300.0)
    assert end.logscale > 0 and dense.logscale > 0
    want = 300.0 - math.log(2.0)  # log sinh(300) to rounding
    for s in (end, dense):
        assert abs(math.log(abs(s.y0)) + s.logscale - want) <= 1e-12 * want
    assert abs(esup - want) <= 1e-12 * want


IX = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())


def _airy_end(lam, b):
    """(u, u') at b of u'' = (i x - lambda) u, u(0) = 0, u'(0) = 1: a
    combination of Ai and Bi of w (x + i lambda), w = e^(i pi/6)."""
    from scipy.special import airy

    w = cmath.exp(1j * math.pi / 6)

    def pair(x):
        ai, aip, bi, bip = airy(w * (x + 1j * lam))
        return np.array([[ai, bi], [w * aip, w * bip]])

    return pair(b) @ np.linalg.solve(pair(0.0), [0.0, 1.0])


@pytest.mark.parametrize("lam", [2.0, 1.1 + 1.57j])
def test_taylor_shot_matches_the_airy_closed_form(lam):
    # s = i x has no constant segment: the whole shot is Taylor steps.  At
    # larger lambda the Ai/Bi combination cancels, so it is no reference
    end, _ = walk_end(IX, lam, QuasiState(0.0, 0.0, 1.0), math.pi)
    got = np.array([end.y0, end.y1]) * math.exp(end.logscale)
    want = _airy_end(lam, math.pi)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _against_tight_dormand_prince(c, lam, a, b, init=(0.0, 1.0)):
    """A shot against scipy's DOP853 at rtol 1e-13 (``_dop853``): asserts
    the end states agree within 1e-11 of exp(log sup) and returns the (end
    logscale, log sup) of each."""
    end, sup = walk_end(c, lam, QuasiState(a, *init), b)
    ref, ref_sup, _ = _dop853(c, lam, a, b, init)
    for got, want in ((end.y0, ref[0]), (end.y1, ref[1])):
        assert abs(got * math.exp(end.logscale - sup) - want * math.exp(-sup)) <= 1e-11
    return (end.logscale, sup), (0.0, ref_sup)


@pytest.mark.parametrize("lam", [12.0, 100.0, 400.0])
def test_taylor_shot_matches_tight_dormand_prince(lam):
    _against_tight_dormand_prince(IX, lam, 0.0, math.pi)


def test_taylor_shot_on_a_higher_degree_field():
    # degree 3 and 4 entries with jumps: several Taylor segments
    rng = np.random.default_rng(14)

    def poly(deg, bps):
        return PiecewisePoly(bps, [rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                                   for _ in range(len(bps) + 1)])

    c = CoefficientField(poly(4, [-0.7, 1.2]), poly(3, [0.4]), poly(3, []))
    for lam in (0.5, 9.0 + 2j, -4.0):
        (el, esup), (dl, dsup) = _against_tight_dormand_prince(c, lam, -2.0, 2.0, (1.0, 0.3 - 0.2j))
        assert abs(esup - dsup) <= 1e-9 * (1 + abs(dsup))


@pytest.mark.parametrize("deg", [3, 5])
@pytest.mark.parametrize("init", [(0.0, 1.0), (1.0, 0.0)])
def test_taylor_shot_on_a_sparse_series(deg, init):
    # s = x^deg at lambda = 0 from the piece's center: the series of the
    # state holds only every (deg + 2)-th order, so the last two orders of
    # a fixed-order series can both vanish while the solution goes on
    c = CoefficientField(PiecewisePoly([], [[0.0] * deg + [1.0]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    (_, esup), (_, dsup) = _against_tight_dormand_prince(c, 0.0, 0.0, 3.0, init)
    assert abs(esup - dsup) <= 1e-12 * (1 + abs(dsup))


def test_taylor_step_is_exact_when_the_series_ends():
    # a window of orders as long as the recurrence's reach that is all
    # zero ends the series: the step is the whole segment
    u, v = [1.0] + [0.0] * 9, [0.5, 2.0] + [0.0] * 8
    assert propagate._jorba_zou(u, v, 3) == math.inf
    u[6] = 1e-30
    assert propagate._jorba_zou(u, v, 3) == math.inf
    assert propagate._jorba_zou(u, v, 4) == (1e-16 / 1e-30) ** (1 / 6)


def test_long_growing_taylor_segment_rescales_like_dormand_prince():
    # s = x/100 at lambda = -100: the solution grows to about e^300 on one
    # Taylor segment [0, 30], so the shot rescales at least once
    c = CoefficientField(PiecewisePoly([], [[0.0, 0.01]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    (el, esup), (_, dsup) = _against_tight_dormand_prince(c, -100.0, 0.0, 30.0)
    assert el > 230 and dsup > 230
    assert abs(esup - dsup) <= 1e-12 * dsup


def test_taylor_shot_stops_on_coefficients_past_the_float_range():
    # s = 1e300 x: the Taylor coefficients overflow at the first step, which
    # is refused before the state turns to nan
    c = CoefficientField(PiecewisePoly([], [[0.0, 1e300]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    with pytest.raises(StepUnderflowError, match=r"below floor at x=0 ") as err:
        walk_end(c, 2.0, QuasiState(0.0, 1.0, 0.5, logscale=3.0), 1.0)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (0.0, 0.0, 1.0, 0.5, 3.0)


def test_taylor_step_below_the_floor_raises():
    # s = 1e26 + x: the series allows steps of about 2e-13, below the floor
    # 1e-12 of an interval of length 100
    c = CoefficientField(PiecewisePoly([], [[1e26, 1.0]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    with pytest.raises(StepUnderflowError) as err:
        walk_end(c, 0.0, QuasiState(0.0, 1.0, 0.0), 100.0)
    assert err.value.x == 0.0 and 0 < err.value.h < 1e-12


def test_taylor_step_whose_sum_is_not_finite_raises(monkeypatch):
    # a step the length of the segment, 1e300: the series sum overflows
    monkeypatch.setattr(propagate, "_jorba_zou", lambda u, v, window: math.inf)
    with pytest.raises(StepUnderflowError) as err:
        walk_end(IX, 2.0, QuasiState(0.0, 1.0, 0.0), 1e300)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (0.0, 1e300, 1.0, 0.0, 0.0)


def test_taylor_log_sup_samples_step_ends_and_midpoints(monkeypatch):
    # the log sup of a shot is the largest log|Y| at the start, the step
    # ends and the step midpoints, here read from DOP853's dense output; at
    # lambda = 12 the largest is at a midpoint, 0.145 against 0 at the ends
    hs = []
    step = propagate._jorba_zou

    def recorded(u, v, window):
        hs.append(step(u, v, window))
        return hs[-1]

    monkeypatch.setattr(propagate, "_jorba_zou", recorded)
    sup = characteristic(IX, (0.0, math.pi), BC, 12.0).log_sup
    ends = np.minimum(np.cumsum(hs), math.pi)
    starts = np.concatenate([[0.0], ends[:-1]])
    (_, _, dense), = _dop853(IX, 12.0, 0.0, math.pi, (0.0, 1.0))[2]
    y = dense(np.concatenate([starts, ends, 0.5 * (starts + ends)]))
    assert abs(sup - np.max(np.log(np.max(np.abs(y), axis=0)))) <= 1e-10


def test_zero_state_crosses_a_taylor_segment_unchanged():
    end, sup = walk_end(IX, 2.0, QuasiState(0.0, 0.0, 0.0, logscale=1.5), math.pi)
    assert (end.y0, end.y1, end.logscale, sup) == (0.0, 0.0, 1.5, -math.inf)
    # r = i (50 + x/1000) at lambda = 2500: both solutions decay like
    # e^(-50 x), so the state underflows to zero on the way and stays there
    z = PiecewisePoly.zero()
    decay = CoefficientField(z, z, PiecewisePoly([], [[50j, 0.001j]]))
    end, sup = walk_end(decay, 2500.0, QuasiState(0.0, 1.0, 0.0), 20.0)
    assert (end.y0, end.y1, end.logscale, sup) == (0.0, 0.0, 0.0, 0.0)


def test_shots_keep_no_dense_output(monkeypatch):
    # scans, Newton seeds and mixed fields shoot with no dense output
    from qschro import spectral

    dense = propagate.integrate
    integrate_calls = []

    def counted(*args, **kw):
        integrate_calls.append(args)
        return dense(*args, **kw)

    monkeypatch.setattr(propagate, "integrate", counted)
    assert spectral.eigenvalues(IX, (0, math.pi), BC, scan=(0.5, 12), grid=40).refusal is not None
    res = spectral.eigenvalues(IX, (0, math.pi), BC, seeds=[1.2 + 1.6j, 3.9 + 1.5j]).roots
    assert [r.converged for r in res] == [True, True]
    for lam in (-2.0, 3.0 + 0.5j, 40.0):
        characteristic(MIXED, (-3.0, 3.0), BC, lam)
    assert not integrate_calls


def test_dense_shot_keeps_one_row_per_exact_substep(monkeypatch):
    # free field at lambda = 2500: |h mu| <= 1 gives 158 sub-steps on [0, pi],
    # and the dense shot keeps one row per sub-step
    hs = []
    step = propagate._exact_step

    def recorded(inv, h, dlam):
        hs.append(h)
        return step(inv, h, dlam)

    monkeypatch.setattr(propagate, "_exact_step", recorded)
    characteristic(FREE, (0.0, math.pi), BC, 2500.0)
    assert len(hs) == 1
    substeps = round(math.pi / hs[0])
    assert substeps == math.ceil(50 * math.pi)
    assert len(integrate(FREE, 2500.0, QuasiState(0.0, 0.0, 1.0), math.pi).steps) == substeps


# ----------------------------------------------------------------------
# dense output: the rows of the shot's own sub-steps and Taylor steps


@pytest.mark.parametrize("field, lam, a, b", [
    (FREE, -1.0, 0.0, 2.0),
    (FREE, 400.0, 0.0, 2.0),
    (FREE, 2.0 + 1j, 1.0, -2.5),
    (CoefficientField.delta_well(-2.0), -1.0, -8.0, 8.0),
    (MIXED, 3.0 + 0.5j, -3.0, 3.0),
    (IX, 12.0, 0.0, math.pi),
], ids=["free-growth", "free-osc", "free-backward", "delta-well", "mixed", "ix"])
def test_dense_end_state_is_the_shot(field, lam, a, b):
    # integrate crosses the segments as a shot does, so its last row at
    # theta = 1 is the shot's end state to rounding, at the same logscale
    end, _ = walk_end(field, lam, QuasiState(a, 0.3, 1.0), b)
    dense = integrate(field, lam, QuasiState(a, 0.3, 1.0), b).state_at(b)
    assert dense.logscale == end.logscale
    scale = max(abs(end.y0), abs(end.y1))
    assert abs(dense.y0 - end.y0) <= 1e-15 * scale
    assert abs(dense.y1 - end.y1) <= 1e-15 * scale


@pytest.mark.parametrize("lam", [-1.0, 400.0, 3.0 - 2.0j, 0.0])
def test_exact_rows_end_at_the_next_substep_start(lam):
    # each row summed at theta = 1 is exp(hA) times its start state, the
    # start of the next row, to rounding of the largest term it sums
    t = integrate(FREE, lam, QuasiState(0.0, 1.0, 0.5), 3.0)
    assert len(t.steps) == max(1, math.ceil(3.0 * abs(cmath.sqrt(-lam))))
    coef, ls = t.steps["coef"], t.steps["logscale"]
    ends = coef[:-1].sum(axis=1) * np.exp(ls[:-1] - ls[1:])[:, None]
    starts = coef[1:, 0]
    scale = np.max(np.abs(coef[:-1]), axis=(1, 2)) * np.exp(ls[:-1] - ls[1:])
    assert np.all(np.abs(ends - starts) <= 1e-15 * scale[:, None])


def test_dense_interior_matches_closed_forms():
    xs = np.linspace(0.0, 2.0, 53)[1:-1]
    for lam, want in ((-1.0, np.exp(xs)), (400.0, np.cos(20 * xs) + np.sin(20 * xs) / 20)):
        t = integrate(FREE, lam, QuasiState(0.0, 1.0, 1.0), 2.0)
        y, ls = t.sample(xs)
        assert np.all(np.abs(y[:, 0] * np.exp(ls) - want) <= 1e-13 * np.max(np.abs(want)))
    # delta well at lambda = -1: the bound state e^(-|x|)
    dw = CoefficientField.delta_well(-2.0)
    t = integrate(dw, -1.0, QuasiState(-6.0, math.exp(-6.0), math.exp(-6.0)), 6.0)
    xs = np.linspace(-6.0, 6.0, 61)[1:-1]
    y, ls = t.sample(xs)
    assert np.all(np.abs(y[:, 0] * np.exp(ls) - np.exp(-np.abs(xs))) <= 1e-13)


GRAM_PAIRS = ((0, 0), (0, 1), (1, 1))


def adjoint_pair(c, lam, tmax):
    """The adjoint fundamental pair at conj(lam) on [-tmax, tmax], as the probe builds it."""
    return fundamental(c.adjoint, complex(lam).conjugate(), 0.0, (-tmax, tmax))


@pytest.mark.parametrize("c", [FREE, CoefficientField.delta_well(-2.0)], ids=["free", "delta-well"])
@pytest.mark.parametrize("lam", [-1.0, 0.5j])
def test_pair_sums_of_the_half_lines_add_up_to_the_whole_window(c, lam):
    # 0 is a step edge of both halves of a fundamental pair, so the
    # half-line windows cut no whole-line panel
    from qschro.spectral import default_windows

    T = np.array(default_windows(20.0))
    zero = np.zeros_like(T)
    sums, L = propagate._pair_sums(adjoint_pair(c, lam, 20.0), GRAM_PAIRS,
                                   np.concatenate([-T, zero, -T]), np.concatenate([zero, T, T]))
    left, right, whole = np.split(sums, 3)
    l_left, l_right, l_whole = np.split(L, 3)
    halves = left * np.exp(l_left - l_whole)[:, None] + right * np.exp(l_right - l_whole)[:, None]
    # relative to sqrt(|g_ii g_jj|), the Cauchy-Schwarz bound: the free
    # pair is even and odd, so its whole-line g_12 is rounding only
    scale = np.sqrt(np.abs(whole[:, [0, 0, 2]] * whole[:, [0, 2, 2]]))
    assert np.all(np.abs(halves - whole) <= 1e-13 * scale)


@pytest.mark.parametrize("c", [FREE, CoefficientField.delta_well(-2.0)], ids=["free", "delta-well"])
@pytest.mark.parametrize("lam", [-1.0, 0.5j])
def test_pair_sums_over_many_windows_match_pair_integral_window_by_window(c, lam):
    # window ends off the step edges: the batch cuts every window at the
    # others' ends, so its panels differ from pair_integral's
    fs = adjoint_pair(c, lam, 10.0)
    lo, hi = np.array([-9.3, -2.71, 0.123, -0.5]), np.array([1.7, 8.05, 6.6, -0.01])
    sums, L = propagate._pair_sums(fs, GRAM_PAIRS, lo, hi)
    for w in range(len(lo)):
        for k, (i, j) in enumerate(GRAM_PAIRS):
            want, l_want = pair_integral(fs[i], fs[j], lo[w], hi[w])
            got = sums[w, k] * math.exp(L[w] - l_want)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_pair_sums_of_an_empty_window_are_zero_on_logscale_zero():
    u = PiecewisePoly.from_coeffs([1.0, 2.0])
    sums, L = propagate._pair_sums((u,), ((0, 0),), [0.5, 0.0], [0.5, 1.0])
    assert sums[0, 0] == 0 and L[0] == 0.0
    assert abs(sums[1, 0] - 13 / 3) <= 1e-15 * 13 and L[1] == 0.0  # int_0^1 (1 + 2x)^2 dx


def _one_pass_panel_values(f, mid, xs):
    """A trajectory's values at the panel nodes from one copy of every
    panel's row and one Horner pass over all of them."""
    rows = f.steps[f._region(mid, "right")]
    theta = (xs - rows["x0"][:, None]) / rows["h"][:, None]
    return _dense(rows["coef"][:, :, 0, None], theta), rows["logscale"]


@pytest.mark.parametrize("lam", [400.0, -400.0])
def test_pair_sums_over_more_panels_than_a_chunk_are_the_one_pass_sums(monkeypatch, lam):
    # free field: 6000 exact sub-steps on (0, 300), where every panel adds
    # to the sums at lambda = 400, and the state grows like e^(20 x) and
    # is rescaled every few units at lambda = -400
    u = integrate(FREE, lam, QuasiState(0.0, 1.0, 0.0), 300.0)
    v = integrate(FREE, lam, QuasiState(0.0, 0.3, 1.0j), 300.0)
    assert len(u.steps) > propagate._ROWS_CHUNK
    assert len(set(u.steps["logscale"].tolist())) == (1 if lam > 0 else 26)
    args = (u, v), ((0, 0), (0, 1), (1, 1)), [0.0, 10.0, 0.0, 150.0], [300.0, 250.0, 5.0, 150.0]
    got = propagate._pair_sums(*args)
    monkeypatch.setattr(propagate, "_panel_values", _one_pass_panel_values)
    want = propagate._pair_sums(*args)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_pair_integral_of_two_degree_24_rows_is_exact():
    # one row of degree 24 each: 25 Gauss-Legendre nodes integrate the
    # degree-48 product exactly; the reference integrates it term by term
    rng = np.random.default_rng(24)
    rows = []
    for _ in range(2):
        steps = np.zeros(1, propagate._step_dtype(25))
        steps["x0"], steps["h"] = -0.5, 1.5
        steps["coef"] = rng.standard_normal((1, 25, 2)) + 1j * rng.standard_normal((1, 25, 2))
        rows.append(propagate.Trajectory(IX, 0j, -0.5, 1.0, steps))
    u, v = (r.steps["coef"][0, :, 0] for r in rows)
    prod = np.polynomial.polynomial.polymul(u, v.conj())
    want = 1.5 * np.sum(prod / np.arange(1, len(prod) + 1))  # int_0^1 over theta, times h
    val, ls = pair_integral(rows[0], rows[1], -0.5, 1.0)
    assert rows[0].degree == 24 and ls == 0.0
    assert abs(val - want) <= 1e-13 * np.sum(np.abs(prod))


def test_recentred_is_the_array_shift_on_one_row():
    from qschro.coeffs import _shift_rows

    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5, 9, 26):
        row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = float(rng.uniform(-2, 2))
        got = np.array(propagate._recentred(list(row), d), dtype=complex)
        want = _shift_rows(row[None], np.array([d]))[0]
        assert np.array_equal(got.view(float), want.view(float))


# ----------------------------------------------------------------------
# the Taylor recurrence: one generated kernel per entry shape, the bits of
# the list loops it replaced


def _list_recurrence(a11, a21, a22, y0, y1, z=None):
    """The two list loops of the recurrence as ``_taylor_segment`` ran them
    before its kernels, verbatim: the reference of the kernels' bits."""
    window = max(len(a11), len(a21), len(a22))
    order = propagate._TAYLOR_ORDER + window - 2
    u, v = [y0], [y1]
    for k in range(1, order + 1):
        du = v[-1] + sum(map(mul, a11, reversed(u)))
        dv = sum(map(mul, a21, reversed(u))) + sum(map(mul, a22, reversed(v)))
        u.append(du / k)
        v.append(dv / k)
    if z is None:
        return u, v
    p, q = [z[0]], [z[1]]
    for k in range(1, order + 1):
        dp = q[-1] + sum(map(mul, a11, reversed(p)))
        dq = sum(map(mul, a21, reversed(p))) + sum(map(mul, a22, reversed(q))) - u[k - 1]
        p.append(dp / k)
        q.append(dq / k)
    return u, v, p, q


def _list_taylor_segment(rows, xa, xb, y, ls, sup, h_floor, left, out=None):
    """``_taylor_segment`` as it ran with the list loops (``_list_recurrence``),
    without the step budget: it hands ``left`` back unchanged."""
    (c11, p11), (c21, p21), (c22, p22) = rows
    p11, p21, p22 = ([complex(c) for c in p] for p in (p11, p21, p22))
    window = max(len(p11), len(p21), len(p22))
    order = propagate._TAYLOR_ORDER + window - 2
    y0, y1, *z = y
    m = max(abs(y0), abs(y1))
    direction = 1.0 if xb > xa else -1.0
    peak = m
    x = xa
    steps = None if out is None else []
    while m > 0 and (xb - x) * direction > 0:
        a11, a21, a22 = (propagate._recentred(p11, x - c11), propagate._recentred(p21, x - c21),
                         propagate._recentred(p22, x - c22))
        u, v, *pq = _list_recurrence(a11, a21, a22, y0 / m, y1 / m, [z[0] / m, z[1] / m] if z else None)
        h = propagate._jorba_zou(u, v, window)
        if z:
            p, q = pq
            hz = propagate._jorba_zou(p, q, window, max(1.0, abs(p[0]) + abs(q[0])))
            h = min(h, hz) if hz > 0 else h
        if not h >= h_floor:
            raise StepUnderflowError(x, direction * h, y0, y1, ls)
        rest = (xb - x) * direction
        last = h >= rest
        h = direction * (rest if last else h)
        hm = 0.5 * h
        e0 = e1 = f0 = f1 = 0j
        for a, b in zip(reversed(u), reversed(v)):
            e0, e1, f0, f1 = e0 * h + a, e1 * h + b, f0 * hm + a, f1 * hm + b
        if not abs(e0) + abs(e1) + abs(f0) + abs(f1) < math.inf:
            raise StepUnderflowError(x, h, y0, y1, ls)
        if steps is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                coef = np.array([u, v]).T * (m * h ** np.arange(order + 1))[:, None]
            if not np.isfinite(coef).all():
                raise StepUnderflowError(x, h, y0, y1, ls)
            steps.append((x, h, coef, ls))
        if z:
            g0 = g1 = 0j
            for a, b in zip(reversed(p), reversed(q)):
                g0, g1 = g0 * h + a, g1 * h + b
            z = [m * g0, m * g1]
        mid = m * max(abs(f0), abs(f1))
        y0, y1 = m * e0, m * e1
        m = max(abs(y0), abs(y1))
        x = xb if last else x + h
        peak = max(peak, mid, m)
        if m > propagate.RESCALE_THRESHOLD:
            sup = max(sup, math.log(peak) + ls)
            z = [t / m for t in z]
            y0, y1, ls, peak, m = y0 / m, y1 / m, ls + math.log(m), 1.0, 1.0
    if steps is not None:
        if x != xb:
            steps.append((x, xb - x, np.zeros((order + 1, 2)), ls))
        out.append(tuple(map(np.array, zip(*steps))))
    return (y0, y1, *z), ls, max(sup, math.log(peak) + ls) if peak > 0 else sup, left


def _same_bits(got, want):
    # bit patterns, so that -0.0 is not 0.0; any nan matches any nan
    got, want = (np.asarray(x, dtype=complex).view(float) for x in (got, want))
    return got.shape == want.shape and bool(np.all((got.view(np.uint64) == want.view(np.uint64))
                                                   | (np.isnan(got) & np.isnan(want))))


def _kernel_inputs(rng, shape):
    """Rows of the given lengths and a start state: random complex values,
    the same rows as floats (a complex walk of a real plan) and the whole
    input as floats (a float walk), with -0.0 parts, zero rows, and an inf
    and a nan coefficient."""
    def draw(n):
        return [complex(*rng.standard_normal(2)) for _ in range(n)]

    rows, start = [draw(n) for n in shape], draw(4)
    yield rows, start
    real = [[t.real for t in r] for r in rows]
    yield real, start
    yield real, [t.real for t in start]
    signed = [[complex(-0.0 if i % 2 else t.real, -0.0 if i % 3 else t.imag) for i, t in enumerate(r)]
              for r in rows]
    yield signed, [complex(-0.0, t.imag) for t in start]
    yield [[0j] * n for n in shape], start
    # -0.0 + -0.0 is -0.0 and survives the division by k below; a sum
    # that starts at 0 turns it to +0.0
    yield [[complex(-0.0, 0.0)] * n for n in shape], [1 + 1j, complex(-0.0, -1.0)] * 2
    wild = [list(r) for r in rows]
    wild[0][-1], wild[1][0] = complex(math.inf, 1.0), complex(0.5, math.nan)
    yield wild, start


@pytest.mark.parametrize("derivative", [False, True])
def test_taylor_kernel_is_the_list_recurrence_bit_for_bit(derivative):
    # every finite input keeps the bits of the list loops; an inf or nan
    # coefficient times a zero before the start of a series is nan where
    # the list form has no product, so the early orders differ, but both
    # forms are non-finite in each of the last window orders, where
    # _jorba_zou reads them and gives the step 0 either way
    rng = np.random.default_rng(21)
    for shape in itertools.product(range(1, 6), repeat=3):
        kernel = propagate._taylor_kernel(*shape, derivative)
        window = max(shape)
        for rows, start in _kernel_inputs(rng, shape):
            z = start[2:] if derivative else None
            want = _list_recurrence(*rows, *start[:2], z)
            got = kernel(*rows, *start[:2], *(z or ()))
            assert len(got) == len(want)
            if all(map(cmath.isfinite, itertools.chain(*rows))):
                assert all(_same_bits(g, w) for g, w in zip(got, want)), (shape, rows, start)
                continue
            for series in (got, want):
                for u, v in zip(series[::2], series[1::2]):
                    assert not any(abs(a) + abs(b) < math.inf for a, b in zip(u[-window:], v[-window:]))
                    assert propagate._jorba_zou(u, v, window) == 0.0


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("dense", [False, True])
def test_a_row_past_the_float_range_raises_as_the_list_walk_did(derivative, dense):
    # rows of the shape of Q = 1e200 x with a21 = s - G1 G2 past the float
    # range, built by hand as assembly refuses such entries: the kernel
    # walk and the list walk stop at the first step with the same error
    start = (0.3 - 0.1j, 1.0 + 0.2j, *((0.1j, 0j) if derivative else ()))
    for a21 in ([complex(math.inf, 0.0), 1 + 0j, complex(-math.inf, math.nan)],
                [1 + 0j, 0.5 + 0j, complex(math.inf, 0.0)]):
        rows = ((0.0, [0j, 1e200 + 0j]), (0.5, a21), (0.0, [0j, -1e200 + 0j]))
        raised = []
        for segment in (propagate._taylor_segment, _list_taylor_segment):
            with pytest.raises(StepUnderflowError) as e:
                segment(rows, 0.0, 1.0, start, 0.0, -math.inf, 1e-12, 10, [] if dense else None)
            raised.append((str(e.value), e.value.x, e.value.h, e.value.y0, e.value.y1, e.value.logscale))
        assert raised[0] == raised[1]
        assert raised[0][:3] == ("step size 0.000e+00 below floor at x=0 (solution blow-up or coefficient pathology)",
                                 0.0, 0.0)


def test_no_kernel_has_a_list_phase():
    # one loop over every order: no sums over lists, even for wide entries
    for shape in ((1, 2, 1), (2, 3, 2), (9, 17, 9)):
        for derivative in (False, True):
            source = propagate._taylor_source(*shape, derivative)
            assert "sum(map(" not in source and "reversed(" not in source
            assert source.count("for k in range(1, ") == 1


def _degree_8_field():
    rng = np.random.default_rng(8)

    def poly():
        return PiecewisePoly([-0.5], [0.3 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
                                      for _ in range(2)])

    return CoefficientField(poly(), poly(), poly())


def _corpus_field(rng):
    # the recipe of acceptance criterion 03: linear s, jumpy linear Q and r
    def poly(jumpy):
        nbp = int(rng.integers(1, 3)) if jumpy else 0
        bps = np.sort(rng.uniform(-4, 4, nbp))
        while len(bps) > 1 and np.min(np.diff(bps)) < 0.3:
            bps = np.sort(rng.uniform(-4, 4, nbp))
        return PiecewisePoly(bps, [0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                                   for _ in range(nbp + 1)])

    return CoefficientField(poly(False), poly(True), poly(True))


_CORPUS = np.random.default_rng(20240803)
_KERNEL_FIELDS = [
    (IX, 12.0, 0.0, math.pi),
    (CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly([], [[0, -1j]])),
     3.0 - 1.0j, -2.0, 2.0),
    (_corpus_field(_CORPUS), 0.7 + 0.4j, -5.0, 5.0),
    (_corpus_field(_CORPUS), -1.2 + 0.9j, 5.0, -5.0),
    (_degree_8_field(), 2.0 - 0.5j, -1.0, 1.0),
]


def _both_segments(monkeypatch, run):
    """run() with the kernels and then with the list loops."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(propagate, "_taylor_segment", _list_taylor_segment)
        want = run()
    return got, want


def _state_bits(s):
    return [s.x, s.y0, s.y1, s.logscale]


@pytest.mark.parametrize("field, lam, a, b", _KERNEL_FIELDS,
                         ids=["s=ix", "r=-ix", "corpus-0", "corpus-1-backward", "degree-8"])
def test_shots_and_rows_keep_the_bits_of_the_list_recurrence(monkeypatch, field, lam, a, b):
    start = QuasiState(a, 0.3 - 0.1j, 1.0)
    for derivative in (False, True):
        got, want = _both_segments(monkeypatch, lambda: walk_end(field, lam, start, b, derivative=derivative))
        assert _same_bits([t for s in got[::2] for t in _state_bits(s)] + [got[1]],
                          [t for s in want[::2] for t in _state_bits(s)] + [want[1]])
    got, want = _both_segments(monkeypatch, lambda: integrate(field, lam, start, b).steps)
    assert len(got) > 1 and got.dtype == want.dtype
    assert all(_same_bits(got[k], want[k]) for k in got.dtype.names)


def test_degree_100_entries_shoot_through_a_kernel_of_o_window_lines(monkeypatch):
    # degree_cap 100: r of degree 100 makes a21 = s - G1 G2 of degree 200;
    # every sum of its kernel stays flat, so it compiles and keeps the bits
    r = PiecewisePoly([], [[0.0] * 100 + [1e-3j]], degree_cap=100)
    field = CoefficientField(PiecewisePoly([], [[0.0, 1.0]]), PiecewisePoly.zero(), r)
    rows = propagate._plan(field, 0.0, 1.0)[0][0][2]
    assert [len(p) for _, p in rows] == [101, 201, 101]
    got, want = _both_segments(
        monkeypatch, lambda: walk_end(field, 1.0 + 0.5j, QuasiState(0.0, 1.0, 0.2j), 1.0, derivative=True))
    assert _same_bits([t for s in got[::2] for t in _state_bits(s)] + [got[1]],
                      [t for s in want[::2] for t in _state_bits(s)] + [want[1]])
    for shape, window in (((1, 2, 1), 2), ((101, 201, 101), 201)):
        lines = propagate._taylor_source(*shape, True).splitlines()
        assert len(lines) <= 40 + window // 4
    # a sum of 3001 products: past the compiler's nesting limit for one
    # expression, still one flat statement per 32 terms
    compile(propagate._taylor_source(1, 3001, 1, False), "<taylor kernel>", "exec")


def test_a_scan_builds_one_kernel_per_shape_on_first_use():
    from qschro import spectral

    # s = x: a real discriminant, so the scan shoots all 40 nodes and
    # refines its roots with dY/dlambda
    x = CoefficientField(PiecewisePoly([], [[0, 1]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    propagate._taylor_kernel.cache_clear()
    roots = spectral.eigenvalues(x, (0, math.pi), spectral.BoundaryCondition(), scan=(0.5, 12), grid=40).roots
    assert len(roots) == 3 and all(r.converged for r in roots)
    info = propagate._taylor_kernel.cache_info()
    assert info.misses == info.currsize <= 2  # (1, 2, 1), with and without dY/dlambda
    assert info.hits + info.misses >= 40  # one look-up per shot of the scan


def test_importing_the_cli_builds_no_kernel():
    import json
    import os
    import pathlib
    import subprocess
    import sys

    code = ("import json, qschro.cli\n"
            "from qschro.propagate import _taylor_kernel\n"
            "print(json.dumps(_taylor_kernel.cache_info().misses))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == 0


def _sums_inputs(rng, width):
    """Four series of ``width`` coefficients: random complex values, the
    same with -0.0 parts (a top coefficient of -0.0 - 0.0j among them),
    and with an inf and a nan; and the real parts of each as Python
    floats, a float walk's series."""
    series = [[complex(*rng.standard_normal(2)) for _ in range(width)] for _ in range(4)]
    signed = [[complex(-0.0 if (j + k) % 2 else t.real, -0.0 if (j + k) % 3 else t.imag) for k, t in enumerate(x)]
              for j, x in enumerate(series)]
    signed[0][-1] = signed[2][-1] = complex(-0.0, -0.0)
    wild = [list(x) for x in series]
    wild[0][width // 2], wild[3][0] = complex(math.inf, 1.0), complex(0.5, math.nan)
    for case in (series, signed, wild):
        yield case
        yield [[t.real for t in x] for x in case]


def test_step_sums_are_horner_bit_for_bit():
    # every width up to that of degree-200 entries (24 + 201 - 1) and
    # past it, forward and backward steps: the sums of a Taylor step, two
    # series at h and at h/2 by the one scalar Horner rule
    # (``coeffs._value``), against the batched Horner rule of dense output
    # (``_dense``) on arrays of the series; float series sum in floats
    rng = np.random.default_rng(28)
    for width in range(1, 231):
        for series in _sums_inputs(rng, width):
            kind = type(series[0][0])
            for (u, v), h in itertools.product((series[:2], series[2:]), (0.37, -0.37)):
                with np.errstate(all="ignore"):
                    at_h, at_half = (_dense(np.array([u, v]), t).tolist() for t in (h, 0.5 * h))
                sums = [_value(x, t) for t in (h, 0.5 * h) for x in (u, v)]
                assert all(type(x) is kind for x in sums), (width, h)
                assert _same_bits(sums, at_h + at_half), (width, h)


# ----------------------------------------------------------------------
# float walks: real rows, lambda and start walk in Python floats


def _complex_plan(c, x_from, to):
    """The plan of the field c from x_from to ``to`` with every row as Python
    complex, read from the entries at each segment's region of the field
    (its midpoint, or -inf and +inf in the tails) with its trailing zeros
    trimmed, and marked not real: a plan as a walk of complex rows takes it,
    whatever its data."""
    segments, h_floor, width, _ = propagate._build_plan(c, x_from, to)
    bp = c.breakpoints.tolist()
    reps = [-math.inf, *(0.5 * a + 0.5 * b for a, b in zip(bp, bp[1:])), math.inf] if bp else [0.0]
    out = []
    for a, b, _, _ in segments:
        at = reps[bisect.bisect_right(bp, 0.5 * (a + b))]
        rows = []
        for f in c.entries:
            i = int(f._region(at, "right"))
            row = [complex(z) for z in f.coeffs[i]]
            while len(row) > 1 and not row[-1]:
                row.pop()
            rows.append((float(f.centers[i]), tuple(row)))
        out.append(propagate._segment(a, b, tuple(rows)))
    return tuple(out), h_floor, width, False


def _forced_complex(monkeypatch, run):
    """run() as it is, and with every walk forced complex: each plan is
    built by ``_complex_plan``, so its complex rows, lambda and start take
    the complex arithmetic."""
    from qschro import spectral

    got = run()
    with monkeypatch.context() as patch:
        for module in (propagate, spectral):
            patch.setattr(module, "_plan", _complex_plan)
        want = run()
    return got, want


def _assert_one_row_set(c, plan):
    """A plan holds one row set: Python floats with the bits of the real
    parts of the entries' complex rows when none has an imaginary part,
    else the complex rows themselves."""
    segments, h_floor, width, real = plan
    ref, *same = _complex_plan(c, segments[0][0], segments[-1][1])
    assert same == [h_floor, width, False] and type(real) is bool
    assert real == (not any(z.imag for *_, rows, _ in ref for _, p in rows for z in p))
    kind = float if real else complex
    for (a, b, rows, _), (a_ref, b_ref, rows_ref, _) in zip(segments, ref, strict=True):
        assert (a, b) == (a_ref, b_ref) and [c for c, _ in rows] == [c for c, _ in rows_ref]
        assert all(type(z) is kind for _, p in rows for z in p)
        got, want = ([z for _, p in r for z in p] for r in (rows, rows_ref))
        assert _bits(got) == _bits([z.real for z in want] if real else want)


def _real_parts(value):
    """A nested result with each complex number replaced by its real part."""
    if isinstance(value, (tuple, list)):
        return type(value)(_real_parts(v) for v in value)
    if isinstance(value, QuasiState):
        return [value.x, *_real_parts([value.y0, value.y1]), value.logscale]
    return value.real if isinstance(value, complex) else value


def _dense_bits(steps):
    """The rows of dense output bit for bit, their coefficients' real parts apart."""
    return [steps[k].tobytes() for k in ("x0", "h", "logscale")] + [steps["coef"].real.tobytes()]


R_MINUS_IX = CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly([], [[0, -1j]]))
# (field, lambda, interval): exact sub-steps that rescale, a jump
# between exact segments, Taylor steps with zero a11 and a22, and the
# probe's drift r = -i x as its adjoint field at conj(-1), whose
# G1 = x and G2 = -x are real
FLOAT_WALKS = [
    (FREE, -16.0, (0.0, 60.0)),
    (CoefficientField.delta_well(-2.0), -0.7, (-8.0, 8.0)),
    (CoefficientField(PiecewisePoly([], [[0, 0, 1]]), PiecewisePoly.zero(), PiecewisePoly.zero()),
     2.0, (3.5, -3.0)),
    (R_MINUS_IX.adjoint, complex(-1.0).conjugate(), (-6.0, 6.0)),
]


@pytest.mark.parametrize("field, lam, ends", FLOAT_WALKS, ids=["free", "delta-well", "s=x^2", "r=-ix"])
def test_a_float_walk_has_the_bits_of_the_walk_forced_complex(monkeypatch, field, lam, ends):
    start = QuasiState(ends[0], 0.3, -1.0)
    for derivative in (False, True):
        got, want = _forced_complex(monkeypatch, lambda: walk_end(field, lam, start, ends[1], derivative=derivative))
        assert all(type(v) is float for s in got[::2] for v in (s.y0, s.y1))
        assert _bits(_real_parts(got)) == _bits(_real_parts(want))
        assert all(type(v) is complex for s in want[::2] for v in (s.y0, s.y1))
    got, want = _forced_complex(monkeypatch, lambda: integrate(field, lam, start, ends[1]).steps)
    assert len(got) > 1 and _dense_bits(got) == _dense_bits(want)
    assert not got["coef"].imag.any()
    _assert_one_row_set(field, propagate._plan(field, *ends))
    got, want = _forced_complex(monkeypatch, lambda: [y.steps for y in fundamental(field, lam, 0.0, (-3.0, 3.0))])
    assert all(_dense_bits(g) == _dense_bits(w) for g, w in zip(got, want))


# a field whose rows are real on (0, 1) and complex past 1
PART_COMPLEX = CoefficientField(PiecewisePoly([], [[0, 0, 1]]), PiecewisePoly.zero(),
                                PiecewisePoly([1.0], [[0.0], [0.3]]))


@pytest.mark.parametrize("field, lam, y0, b", [
    (FLOAT_WALKS[2][0], 2.0 + 0.5j, 0.3, 3.0),  # a complex lambda
    (FLOAT_WALKS[2][0], 2.0, 0.3 + 0.1j, 3.0),  # a complex start
    (PART_COMPLEX, 2.0, 0.3, 2.0),  # one complex row
], ids=["lambda", "start", "row"])
def test_complex_data_never_take_the_float_segments(monkeypatch, field, lam, y0, b):
    start = QuasiState(-1.0, y0, -1.0)
    plan = propagate._plan(field, start.x, b)
    assert plan[3] is (field is not PART_COMPLEX)
    _assert_one_row_set(field, plan)
    for derivative in (False, True):
        got, want = _forced_complex(monkeypatch, lambda: walk_end(field, lam, start, b, derivative=derivative))
        if lam.imag or y0.imag or field is PART_COMPLEX:
            assert all(type(v) is complex for s in got[::2] for v in (s.y0, s.y1))
        assert _bits([_state_bits(s) for s in got[::2]]) == _bits([_state_bits(s) for s in want[::2]])
    got, want = _forced_complex(monkeypatch, lambda: integrate(field, lam, start, b).steps)
    assert got.tobytes() == want.tobytes()


def test_a_shot_at_a_real_lambda_walks_in_floats(monkeypatch):
    # characteristic takes lambda as given; a lambda whose imaginary part
    # is zero, of either sign, is real
    x2 = FLOAT_WALKS[2][0]
    for lam in (3.0, 3.0 + 0j, complex(3.0, -0.0)):
        got, want = _forced_complex(monkeypatch, lambda: characteristic(x2, (0.0, 2.0), BC, lam, derivative=True))
        assert type(got.value) is float and type(got.slope) is float and type(want.value) is complex
        assert _bits([got.value, got.slope, got.logscale, got.log_sup]) == _bits(
            [want.value.real, want.slope.real, want.logscale, want.log_sup])
    assert type(characteristic(x2, (0.0, 2.0), BC, 3.0 + 1e-300j).value) is complex


# ----------------------------------------------------------------------
# lambda-free shot plans: one per field and interval, bounded


def _counted_plans(monkeypatch):
    """The (id of the field, start, end) of every plan built from here on."""
    built = []
    build = propagate._build_plan

    def counted(c, x_from, to):
        built.append((id(c), x_from, to))
        return build(c, x_from, to)

    monkeypatch.setattr(propagate, "_build_plan", counted)
    return built


def test_a_scan_and_its_roots_dense_shot_share_one_plan(monkeypatch):
    from qschro import spectral

    built = _counted_plans(monkeypatch)
    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    assert spectral.eigenvalues(ix, (0, math.pi), BC, scan=(0.5, 12), grid=40).refusal is not None
    assert built == [(id(ix), 0.0, math.pi)]
    (plan,) = ix.plans.values()
    # Newton shots with D' and the dense shot of the root from the left state read it too
    (root,) = spectral.eigenvalues(ix, (0, math.pi), BC, seeds=[1.2 + 1.5j]).roots
    assert root.converged and abs(root.lam - (1.1090679488224868 + 1.5707963267948712j)) < 1e-9
    dense = integrate(ix, root.lam, QuasiState(0.0, -0.0, 1.0), math.pi)
    assert dense.b == math.pi and len(dense.steps) > 1
    assert built == [(id(ix), 0.0, math.pi)]
    assert list(ix.plans.values()) == [plan] and "adjoint" not in ix.__dict__


def test_another_interval_side_or_field_gets_its_own_plan(monkeypatch):
    built = _counted_plans(monkeypatch)
    z = PiecewisePoly.zero()
    field = CoefficientField(PiecewisePoly([1.0], [[0, 1j], [0.5]]), z, z)
    twin = CoefficientField(field.s, z, z)
    start = QuasiState(0.0, 0.0, 1.0)
    for c, b in ((field, 2.0), (field, 2.0), (field, 3.0), (field.adjoint, 2.0), (twin, 2.0)):
        walk_end(c, 2.0 - 0.5j, start, b)
    assert built == [(id(field), 0.0, 2.0), (id(field), 0.0, 3.0), (id(field.adjoint), 0.0, 2.0), (id(twin), 0.0, 2.0)]
    assert (len(field.plans), len(field.adjoint.plans), len(twin.plans)) == (2, 1, 1)
    # a plan holds no lambda: another lambda shoots through it to the bits
    # of a field of the same data that plans anew (a fresh field per walk)
    lam = 7.0 + 1.0j

    def alone():
        return CoefficientField(field.s, field.Q, field.r)

    for derivative in (False, True):
        got, want = walk_end(field, lam, start, 3.0, derivative), walk_end(alone(), lam, start, 3.0, derivative)
        assert _same_bits([t for s in got[::2] for t in _state_bits(s)] + [got[1]],
                          [t for s in want[::2] for t in _state_bits(s)] + [want[1]])
    assert integrate(field, lam, start, 3.0).steps.tobytes() == integrate(alone(), lam, start, 3.0).steps.tobytes()
    assert len(built) == 4 + 3  # each fresh field planned its walk anew
    # a start at -0.0 does not take the plan of a start at 0.0: its dense
    # rows start at -0.0
    for x0, sign in ((0.0, 1.0), (-0.0, -1.0)):
        back = integrate(field, 2.0, QuasiState(x0, 0.0, 1.0), -1.0)
        assert math.copysign(1.0, back.steps["x0"][-1]) == sign


def test_shooting_many_intervals_keeps_a_bounded_number_of_plans():
    import gc
    import tracemalloc

    field = CoefficientField(PiecewisePoly([0.5, 1.0], [[0.2], [0.3], [0.1]]),
                             PiecewisePoly.step(0.75, 0.0, -1.0), PiecewisePoly.zero())
    start = QuasiState(0.0, 0.0, 1.0)

    def shoot(first, n):
        for k in range(first, first + n):
            for c in (field, field.adjoint):
                walk_end(c, 1.0, start, 1.5 + k / 1000)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    shoot(0, 50)
    tracemalloc.start()
    try:
        held = [shoot(first, 300) for first in (50, 350, 650)]
    finally:
        tracemalloc.stop()
    assert len(field.plans) == len(field.adjoint.plans) == propagate._PLANS
    assert [key[1] for key in field.plans][-1] == 1.5 + 949 / 1000
    # the first round fills the interpreter's free lists; then 600 more
    # plans, which would hold about 1 MB if they were all kept, add next
    # to nothing
    assert held[-1] - held[-2] < 100_000, held


# the StepUnderflowError of the walk before plans: (x, h, y0, y1,
# logscale) from a start (0.3 - 0.1j, 1) at logscale 0.5, raised in a
# later segment than the first, after crossing the earlier ones
_UNDERFLOW_CASES = {
    # an exact segment: s = 1e30 past x = 1 asks for sub-steps of 1e-15
    "exact": ((PiecewisePoly([1.0], [[0.0], [1e30]]), PiecewisePoly.zero()), 2.0 + 0.5j, 0.0, 3.0,
              {None: (1.0, 1e-15, 0.7234485101921629 - 0.13487786162656556j,
                      -0.30196744010410936 - 0.09556642516743351j, 0.5)}),
    # backward across a step of Q and a constant piece of s, then s = 1e30
    "exact-backward": ((PiecewisePoly([-1.0, 1.0], [[1e30], [0.5], [0.0]]), PiecewisePoly.step(0.25, 0.0, -1.5)),
                       -3.0, 2.5, -2.0,
                       {None: (-1.0, -1e-15, -2.881000076889406 - 30.643256933385068j,
                               5.325758369437134 + 56.611793726810426j, 0.5)}),
    # Taylor steps of s = i x, then s = 1e22 + x: a step of 6.3e-12 below
    # the floor 1e-11 of (0, 1000)
    "taylor-floor": ((PiecewisePoly([0.5], [[0, 1j], [1e22, 1.0]]), PiecewisePoly.zero()), 3.0 - 1.0j, 0.0, 1000.0,
                     {None: (0.5, 6.317470694927815e-12, 0.6455140195748377 - 0.001979673865088516j,
                             0.28702287157867756 + 0.42492834709596494j, 0.5)}),
    # Taylor steps of s = i x, then s = 1e300 x: a series past the float range
    "taylor-overflow": ((PiecewisePoly([1.0], [[0, 1j], [0, 1e300]]), PiecewisePoly.zero()), 2.0, 0.0, 2.0,
                        {None: (1.0, 0.0, 0.7529181029619902 + 0.08464802314629463j,
                                -0.26028343907062607 + 0.44816869068930165j, 0.5),
                         "D'": (1.0, 0.0, 0.7529181029619902 + 0.0846480231462946j,
                                -0.26028343907062573 + 0.4481686906893016j, 0.5)}),
}


@pytest.mark.parametrize("case", list(_UNDERFLOW_CASES))
def test_a_planned_segment_raises_the_step_underflow_of_the_walk_before_plans(case):
    (s, q), lam, a, b, want = _UNDERFLOW_CASES[case]
    c = CoefficientField(s, q, PiecewisePoly.zero())
    start = QuasiState(a, 0.3 - 0.1j, 1.0, logscale=0.5)
    for kind, run in ((None, lambda: walk_end(c, lam, start, b)),
                      ("D'", lambda: walk_end(c, lam, start, b, derivative=True)),
                      (None, lambda: integrate(c, lam, start, b))):
        for _ in range(2):  # the walk that builds the plan and one that reuses it
            with pytest.raises(StepUnderflowError) as err:
                run()
            e = err.value
            assert (e.x, e.h, e.y0, e.y1, e.logscale) == want.get(kind, want[None]), (case, kind)


# ----------------------------------------------------------------------
# the rows of a Taylor segment: built in one array pass at its end


def test_taylor_rows_have_the_bits_of_one_row_at_a_time():
    rng = np.random.default_rng(23)
    steps = []
    for x, h, m in ((0.0, 0.4, 2.0), (0.4, 0.3, 1e-30), (0.7, -0.25, 7e99), (0.45, 1.5, 1.0)):
        u, v = (list(rng.standard_normal(5) + 1j * rng.standard_normal(5)) for _ in range(2))
        u[1], v[4] = complex(-0.0, 0.0), 0j
        steps.append(((x, h, 0.3j, 1.0, 2.5), m, (u, v)))
    x0, h, coef, ls = propagate._taylor_rows(steps, 5)
    assert list(x0) == [s[0][0] for s in steps] and list(h) == [s[0][1] for s in steps]
    assert list(ls) == [2.5] * 4
    for row, ((_, step, *_), m, (u, v)) in zip(coef, steps):
        # the row as the Taylor loop built it per step
        want = np.array([u, v]).T * (m * step ** np.arange(5))[:, None]
        assert _same_bits(np.ascontiguousarray(row), np.ascontiguousarray(want))


def test_taylor_rows_raise_with_the_start_of_the_first_row_that_is_not_finite():
    finite = ([1.0 + 0j, 0.5, 0.25], [0j, 1.0, 0.5j])
    steps = [((0.0, 0.5, 1.0 + 0j, 0.5j, 0.0), 1.0, finite),
             # 1e300 * 1e10 * 0.5 is past the float range
             ((0.5, 0.5, 1e300 + 0j, 0j, 0.0), 1e300, ([1.0 + 0j, 1e10, 0j], [0j, 0j, 0j])),
             ((1.0, 0.5, 1.0 + 0j, 2.0 + 0j, 7.0), 2.0, ([1.0 + 0j, complex(math.nan, 0.0), 0j], finite[1]))]
    with pytest.raises(StepUnderflowError) as err:
        propagate._taylor_rows(steps, 3)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (0.5, 0.5, 1e300, 0j, 0.0)
    with pytest.raises(StepUnderflowError) as err:
        propagate._taylor_rows(steps[2:], 3)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (1.0, 0.5, 1.0, 2.0, 7.0)


def test_a_row_that_is_not_finite_raises_before_a_later_error_of_the_walk(monkeypatch):
    # s = i x at lambda = 2 from a state of size 1e99: a first step of 1e9
    # sums to about 1e201, a finite end state, but its row m Y_k h^k passes
    # the float range; the second step is refused.  The row's error is
    # the one raised, as when each row was checked at its own step.
    hs = iter([1e9, 0.0])
    monkeypatch.setattr(propagate, "_jorba_zou", lambda u, v, window: next(hs))
    with pytest.raises(StepUnderflowError) as err:
        integrate(IX, 2.0, QuasiState(0.0, 1e99, 0.0), 2e9)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (0.0, 1e9, 1e99, 0.0, 0.0)
    # the shot keeps no rows: it stops at the refused second step
    hs = iter([1e9, 0.0])
    with pytest.raises(StepUnderflowError) as err:
        walk_end(IX, 2.0, QuasiState(0.0, 1e99, 0.0), 2e9)
    assert (err.value.x, err.value.h) == (1e9, 0.0)


def test_dense_taylor_walk_stops_on_coefficients_past_the_float_range():
    # the dense twin of the shot's test: s = 1e300 x overflows the series
    # at the first step, with the same error
    c = CoefficientField(PiecewisePoly([], [[0.0, 1e300]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    with pytest.raises(StepUnderflowError, match=r"below floor at x=0 ") as err:
        integrate(c, 2.0, QuasiState(0.0, 1.0, 0.5, logscale=3.0), 1.0)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (0.0, 0.0, 1.0, 0.5, 3.0)


def test_a_zero_state_keeps_a_zero_row_to_the_segment_end():
    t = integrate(IX, 2.0, QuasiState(0.0, 0.0, 0.0, logscale=1.5), math.pi)
    assert len(t.steps) == 1
    assert (t.steps["x0"][0], t.steps["h"][0], t.steps["logscale"][0]) == (0.0, math.pi, 1.5)
    assert not np.any(t.steps["coef"])
    # r = i (50 + x/1000) at lambda = 2500: the state underflows to zero on
    # the way, and one zero row covers the rest of the segment
    z = PiecewisePoly.zero()
    decay = CoefficientField(z, z, PiecewisePoly([], [[50j, 0.001j]]))
    t = integrate(decay, 2500.0, QuasiState(0.0, 1.0, 0.0), 20.0)
    x0, h = t.steps["x0"], t.steps["h"]
    assert t.knots[0] == 0.0 and np.array_equal(t.knots[:-1], x0) and t.knots[-1] == 20.0
    assert np.array_equal(t.knots[1:], x0 + h)  # each Taylor step ends where the next starts
    assert np.any(t.steps["coef"][-2]) and not np.any(t.steps["coef"][-1])
    end = t.state_at(20.0)
    assert (end.y0, end.y1) == (0.0, 0.0)


@pytest.mark.parametrize("lam, b", [(cmath.exp(0.7j), 22.0), (cmath.exp(2.5j), -22.0), (-1.0, 22.0)])
def test_dense_log_sup_is_the_shots_log_sup_on_the_drift_field(lam, b):
    # the dense walk does not track the log sup; its rows at the points the
    # shot samples, each step's ends and midpoint, give the shot's
    drift = CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly([], [[0, -1j]]))
    sup = characteristic(drift, (0.0, b), BC, lam).log_sup
    t = integrate(drift, lam, QuasiState(0.0, -0.0, 1.0), b)
    y, ls = t.sample((t.steps["x0"][:, None] + np.array([0.0, 0.5, 1.0]) * t.steps["h"][:, None]).ravel())
    m = np.max(np.abs(y), axis=1)
    dense = float(np.max(np.log(m[m > 0]) + ls[m > 0]))
    assert sup > 10.0
    assert abs(dense - sup) <= 1e-12 * sup


# ----------------------------------------------------------------------
# one step budget per walk


def _budget_walks(c, lam, start, b):
    """Each walk of a field: the shot, the shot with D' and the dense walk."""
    return (lambda: walk_end(c, lam, start, b), lambda: walk_end(c, lam, start, b, derivative=True),
            lambda: integrate(c, lam, start, b))


def test_exact_segments_share_the_step_budget_of_their_walk(monkeypatch):
    # delta well at lambda = -1: |h mu| <= 1 takes 5 sub-steps on each of
    # (-5, 0) and (0, 5), 10 in all
    c = CoefficientField.delta_well(-2.0)
    start = QuasiState(-5.0, 1.0, 0.5j, logscale=0.25)
    assert len(integrate(c, -1.0, start, 5.0).steps) == 10
    full = [run() for run in _budget_walks(c, -1.0, start, 5.0)]
    monkeypatch.setattr(propagate, "MAX_WALK_STEPS", 10)
    for run, want in zip(_budget_walks(c, -1.0, start, 5.0), full):
        got = run()
        if isinstance(got, tuple):
            assert _same_bits([t for s in got[::2] for t in _state_bits(s)] + [got[1]],
                              [t for s in want[::2] for t in _state_bits(s)] + [want[1]])
        else:
            assert got.steps.tobytes() == want.steps.tobytes()
    # one fewer: the second segment is refused before its first sub-step,
    # with the state the first one left at 0
    half, _ = walk_end(c, -1.0, start, 0.0)
    monkeypatch.setattr(propagate, "MAX_WALK_STEPS", 9)
    for run in _budget_walks(c, -1.0, start, 5.0):
        with pytest.raises(StepBudgetError, match="walk needs more than 9 steps") as err:
            run()
        e = err.value
        assert (e.x, e.h, e.y0, e.y1, e.logscale, e.budget) == (0.0, 1.0, half.y0, half.y1, half.logscale, 9)


def test_taylor_steps_count_against_the_step_budget(monkeypatch):
    # s = i x on (0, pi) at lambda = 5: a walk of n Taylor steps passes a
    # budget of n and is refused at its last step under n - 1, with the
    # same position, step and state by the shot and the dense walk
    start = QuasiState(0.0, 0.3 - 0.1j, 1.0)
    rows = integrate(IX, 5.0, start, math.pi).steps
    n = len(rows)
    assert n > 3
    monkeypatch.setattr(propagate, "MAX_WALK_STEPS", n)
    assert integrate(IX, 5.0, start, math.pi).steps.tobytes() == rows.tobytes()
    walk_end(IX, 5.0, start, math.pi, derivative=True)
    monkeypatch.setattr(propagate, "MAX_WALK_STEPS", n - 1)
    raised = []
    for run in _budget_walks(IX, 5.0, start, math.pi):
        with pytest.raises(StepBudgetError) as err:
            run()
        e = err.value
        raised.append((e.x, e.h, e.y0, e.y1, e.logscale))
    assert raised[0] == raised[2] and raised[0][:2] == (rows["x0"][-1], rows["h"][-1])
    # with D' the steps may be shorter, never fewer
    assert raised[1][0] <= raised[0][0]


def test_a_walk_past_the_default_budget_stops_before_its_first_sub_step():
    # 1e6 long at lambda = 1: a million sub-steps, whose rows would take
    # about 750 MB; the walk is refused before the first
    start = QuasiState(0.0, 1.0, 0.0)
    for run in _budget_walks(FREE, 1.0, start, 1e6):
        with pytest.raises(StepBudgetError) as err:
            run()
        e = err.value
        assert (e.x, e.h, e.y0, e.y1, e.logscale, e.budget) == (0.0, 1.0, 1.0, 0.0, 0.0, 100_000)


# A dense walk at the step budget's scale: its rows are the only large
# array it keeps.  The child reports its peak RSS before and after the walk
# as VmHWM, which starts afresh at exec; ru_maxrss would carry the parent's
# RSS at fork across the exec, and the test process may be far larger.
_LONG_DENSE_WALK = """
import sys
from qschro import CoefficientField
from qschro.propagate import integrate
from qschro.quasi import QuasiState
def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
before = peak_mb()
t = integrate(CoefficientField.free(), 1.0, QuasiState(0.0, 1.0, 0.0), float(sys.argv[1]))
print(len(t.steps), t.steps.nbytes / 2**20, before, peak_mb())
"""


@pytest.mark.parametrize("to", [49_000.0, -49_000.0])
def test_a_long_dense_walk_keeps_about_one_copy_of_its_rows(to):
    # 49 000 exact sub-steps take 37 MB of rows; the walk once held them
    # three times over (147 MB at peak on a 30 MB interpreter), now once
    # plus the start states (76 MB)
    import qschro

    src = os.path.dirname(os.path.dirname(os.path.abspath(qschro.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LONG_DENSE_WALK, repr(to)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"), timeout=60)
    n, rows_mb, before_mb, after_mb = proc.stdout.split()
    assert int(n) == 49_000
    assert float(after_mb) - float(before_mb) < 1.5 * float(rows_mb), proc.stdout
