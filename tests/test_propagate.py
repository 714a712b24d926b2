"""Integrator contract: accuracy, dense output, jumps, rescaling."""

import bisect
import cmath
import math

import numpy as np
import pytest

from qschro.coeffs import CoefficientField, PiecewisePoly
from qschro.errors import OverflowUnrecoverableError, StepUnderflowError
from qschro import propagate
from qschro.propagate import endpoint, fundamental, integrate, pair_integral
from qschro.quasi import QuasiState, assemble


FREE = CoefficientField.free()


def _dop853(c, lam, a, b, init, points=65):
    """Reference shot from a to b > a by scipy's DOP853 at rtol 1e-13,
    restarted at every breakpoint of the field: (end state, log of max |Y|
    at ``points`` dense-output points per segment, the (lo, hi, dense
    output) of each segment)."""
    from scipy.integrate import solve_ivp

    sys = assemble(c, "direct", lam)
    nodes = [a, *sorted(float(t) for t in sys.breakpoints() if a < t < b), b]
    y = np.array(init, dtype=complex)
    sup, segments = -math.inf, []
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        pieces = []
        for f in (sys.a11, sys.a21, sys.a22):
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
    t = integrate(assemble(FREE, "direct", 0.0), QuasiState(0.0, 0.0, 1.0), 2.0)
    s = t.state_at(2.0)
    assert abs(s.y0 - 2.0) <= 1e-9
    assert abs(s.y1 - 1.0) <= 1e-9


def test_free_exponential():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 1.0)
    assert abs(t.state_at(1.0).y0 - math.e) <= 1e-8


def test_delta_well_bound_state_propagation():
    dw = CoefficientField.delta_well(-2.0)
    y0 = math.exp(-8.0)
    t = integrate(assemble(dw, "direct", -1.0), QuasiState(-8.0, y0, y0), 8.0)
    s = t.state_at(8.0)
    assert abs(s.y0 - math.exp(-8.0)) / math.exp(-8.0) <= 1e-5
    # u^[1] = u' + 2u = e^{-x} on x > 0
    assert abs(s.y1 - math.exp(-8.0)) / math.exp(-8.0) <= 1e-5


def test_delta_jump_law():
    # q = c*delta: u' = y1 + G1*y0 jumps by c*u(0); y1 itself is continuous
    c = -2.0
    dw = CoefficientField.delta_well(c)
    sys = assemble(dw, "direct", -1.0)
    t = integrate(sys, QuasiState(-3.0, 1.0, 0.3), 3.0)
    # one dense mesh node sits exactly at 0; evaluate adjacent steps
    y0l, y1l = t.sample([0.0], "left")[0][0]
    y0r, y1r = t.sample([0.0], "right")[0][0]
    assert abs(y0r - y0l) <= 1e-11
    assert abs(y1r - y1l) <= 1e-11
    uprime_l = y1l + dw.G1.eval(0.0, "left") * y0l
    uprime_r = y1r + dw.G1.eval(0.0, "right") * y0r
    assert abs((uprime_r - uprime_l) - c * y0l) <= 1e-8 * (1 + abs(y0l))


def test_fundamental_free_lambda0():
    fs = fundamental(assemble(FREE, "direct", 0.0), 0.0, (-2.0, 2.0))
    for x in (-1.5, 0.3, 2.0):
        s1 = fs.y1.state_at(x)
        s2 = fs.y2.state_at(x)
        assert abs(s1.y0 - 1.0) <= 1e-9 and abs(s1.y1) <= 1e-9
        assert abs(s2.y0 - x) <= 1e-9 and abs(s2.y1 - 1.0) <= 1e-9


def test_fundamental_free_hyperbolic():
    fs = fundamental(assemble(FREE, "direct", -1.0), 0.0, (-1.0, 1.0))
    s = fs.y1.state_at(1.0)
    assert abs(s.y0 - math.cosh(1.0)) <= 1e-9
    assert abs(s.y1 - math.sinh(1.0)) <= 1e-9


def test_linear_drift_self_convergence():
    # r = -i x: no closed form; compare against scipy's DOP853 at rtol 1e-13
    z = PiecewisePoly.zero()
    c = CoefficientField(z, z, PiecewisePoly.from_coeffs([0.0, -1j]))
    s = integrate(assemble(c, "direct", 0.0), QuasiState(0.0, 1.0, 0.5j), 3.0).state_at(3.0)
    ref, _, _ = _dop853(c, 0.0, 0.0, 3.0, (1.0, 0.5j))
    scale = max(abs(ref[0]), abs(ref[1]), 1.0)
    assert abs(s.y0 * math.exp(s.logscale) - ref[0]) / scale <= 1e-7
    assert abs(s.y1 * math.exp(s.logscale) - ref[1]) / scale <= 1e-7


def test_dense_output_matches_knots():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 1.0)
    knots = t.edges()[1][:-1]
    for va, vb in zip(t.sample(knots, "left")[0], t.sample(knots, "right")[0]):
        assert abs(va[0] - vb[0]) <= 1e-13 * (1 + abs(va[0]))
        assert abs(va[1] - vb[1]) <= 1e-13 * (1 + abs(va[1]))


def test_breakpoint_transparency():
    z = PiecewisePoly.zero()
    base = CoefficientField(z, PiecewisePoly.constant(0.4), z)
    refined = CoefficientField(
        z, PiecewisePoly.constant(0.4).with_breakpoints([0.37]), z
    )
    s0 = integrate(assemble(base, "direct", -1.0), QuasiState(0.0, 1.0, 0.0), 1.0).state_at(1.0)
    s1 = integrate(assemble(refined, "direct", -1.0), QuasiState(0.0, 1.0, 0.0), 1.0).state_at(1.0)
    assert abs(s0.y0 - s1.y0) <= 10 * 1e-12 + 1e-10 * abs(s0.y0)
    assert abs(s0.y1 - s1.y1) <= 10 * 1e-12 + 1e-10 * abs(s0.y1)


def test_rescaling_long_window():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 300.0)
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
    """Reference lookup: the last step starting at or before x."""
    lo = list(t.edges()[0])
    return _row_value(t.steps[max(0, min(bisect.bisect_right(lo, x) - 1, len(lo) - 1))], x)


def test_sample_matches_pointwise_across_rescale():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 300.0)
    assert len(set(t.steps["logscale"])) > 1
    xs = np.concatenate([np.linspace(0.0, 300.0, 601), t.edges()[0]])
    ys, ls = t.sample(xs)
    for x, y, l in zip(xs, ys, ls):
        y0, y1, lref = _pointwise(t, float(x))
        assert (y[0], y[1], l) == (y0, y1, lref)
        s = t.state_at(float(x))
        assert (s.y0, s.y1, s.logscale) == (y0, y1, lref)


def test_one_sided_values_at_knot_from_adjacent_rows():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 300.0)
    ls = t.steps["logscale"]
    i = int(np.flatnonzero(np.diff(ls))[0])  # the rescale happens at the end of step i
    knot = t.edges()[1][i]
    (yl,), (ll,) = t.sample([knot], "left")
    (yr,), (lr,) = t.sample([knot], "right")
    assert (ll, lr) == (ls[i], ls[i + 1])
    assert tuple(yl) + (ll,) == _row_value(t.steps[i], knot)
    assert tuple(yr) + (lr,) == _row_value(t.steps[i + 1], knot)
    # same state, two scales: 1e100-sized mantissa on the left, unit on the right
    assert max(abs(yl)) > 1e100 and max(abs(yr)) == pytest.approx(1.0)
    assert np.allclose(yl * math.exp(ll - lr), yr, rtol=1e-12, atol=0.0)


def _stiff_shot(shoot):
    """Shoot the s = 1e30 field from (1, 1) at logscale 2 and return its error."""
    z = PiecewisePoly.zero()
    stiff = CoefficientField(PiecewisePoly.constant(1e30), z, z)
    sys = assemble(stiff, "direct", 0.0)
    with pytest.raises(StepUnderflowError, match=r"^step size .* below floor at x=0 \(solution") as err:
        shoot(sys, QuasiState(0.0, 1.0, 1.0, logscale=2.0), 1.0)
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
    assert _stiff_shot(endpoint).h == pytest.approx(1e-15)


def test_pair_integral_exponential_mass():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 1.0)
    val, ls = pair_integral(t, t, 0.0, 1.0)
    want = (math.e**2 - 1) / 2
    assert abs(val * math.exp(ls) - want) <= 1e-9 * want


def test_pair_integral_with_weight():
    # a weight is a PiecewisePoly operand: int u * conj(w * u) for u = x, w = x
    t = integrate(assemble(FREE, "direct", 0.0), QuasiState(0.0, 0.0, 1.0), 2.0)  # u = x
    wu = PiecewisePoly([1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])  # x^2, spurious breakpoint at 1
    val, ls = pair_integral(t, wu, 0.0, 2.0)
    want = 4.0  # int_0^2 x * x * x dx
    assert abs(val * math.exp(ls) - want) <= 1e-9 * want


def test_to_piecewise_matches_dense_output():
    # a field with jumps and a complex spectral parameter: one re-fitted row
    # per step, equal to the dense output at every step midpoint
    c = CoefficientField(
        PiecewisePoly([-0.5, 0.7], [[0.3, 1.0], [1.0, -0.5, 0.4], [0.2]]),
        PiecewisePoly.heaviside(-1.5, 0.1),
        PiecewisePoly([0.4], [[0.0, 0.2], [0.3]]),
    )
    t = integrate(assemble(c, "direct", 2.0 + 0.5j), QuasiState(-2.0, 0.3, 1.0), 2.0)
    pw = t.to_piecewise(0)
    mids = t.steps["x0"] + 0.5 * t.steps["h"]
    y, ls = t.sample(mids)
    want = y[:, 0] * np.exp(ls)
    assert len(pw.breakpoints) == len(t.steps) - 1
    assert np.all(np.abs(pw.sample(mids) - want) <= 1e-12 * np.abs(want))


def test_to_piecewise_roundtrip():
    t = integrate(assemble(FREE, "direct", -1.0), QuasiState(0.0, 1.0, 1.0), 1.0)
    pw = t.to_piecewise(0)
    for x in np.linspace(0, 1, 101):
        assert abs(pw.eval(float(x)) - t.state_at(float(x)).y0) <= 1e-13 * math.e


def test_to_piecewise_past_the_float_range_raises():
    # e^(4x) on [0, 240]: the rows carry logscales up to 921, past exp's range
    t = integrate(assemble(FREE, "direct", -16.0), QuasiState(0.0, 1.0, 4.0), 240.0)
    top = float(np.max(t.steps["logscale"]))
    assert top > 709
    with pytest.raises(OverflowUnrecoverableError, match=f"{top:.6g}"):
        t.to_piecewise(0)


def test_refit_overflow_carries_its_logscale():
    # the error names the logscale that overflows, as an attribute too
    t = integrate(assemble(FREE, "direct", -16.0), QuasiState(0.0, 1.0, 4.0), 240.0)
    top = float(np.max(t.steps["logscale"]))
    with pytest.raises(OverflowUnrecoverableError) as err:
        t.to_piecewise(0)
    assert str(err.value) == f"re-fit at absolute scale: logscale {top:.6g} overflows"
    assert err.value.logscale == top
    assert err.value.window is None and err.value.index is None


# ----------------------------------------------------------------------
# endpoint shots: exact exponentials on constant segments


@pytest.mark.parametrize("inv", [
    (2.0 + 1j, 0.3 - 0.2j, 0.5j, (0.3 - 0.2j) ** 2 + 2.0 + 1j),  # a21, d, tau, mu^2
    (-2500.0, 0.0, 0.0, -2500.0),
    (-(0.7j ** 2) + 1e-9, 0.7j, -1.1, 1e-9),  # mu^2 near 0: sinhc series
    (0.0, 0.0, 0.0, 0.0),  # nilpotent: exp(hA) = I + hA
])
def test_exact_step_matches_expm(inv):
    from scipy.linalg import expm

    a21, d, tau, mu2 = inv
    A = np.array([[tau / 2 + d, 1.0], [a21, tau / 2 - d]])
    h = 1.0 / max(abs(mu2) ** 0.5, abs(tau) / 2, 1.0)
    got = np.array(propagate._exact_step(inv, h)).reshape(2, 2)
    assert np.allclose(got, expm(h * A), rtol=1e-14, atol=1e-14 * np.abs(expm(h * A)).max())


# constant pieces around one linear piece of s and one jump of Q
MIXED = CoefficientField(
    PiecewisePoly([-1.0, 1.0], [[0.5], [0.0, 0.8], [-0.3]]),
    PiecewisePoly.heaviside(-1.5, 1.7),
    PiecewisePoly.zero(),
)


def test_exact_shot_matches_dormand_prince_on_mixed_field():
    # the linear segment takes Taylor steps, the others are exact
    for lam in (-2.0, 3.0 + 0.5j, 40.0):
        end, esup = endpoint(assemble(MIXED, "direct", lam), QuasiState(-3.0, 0.0, 1.0), 3.0)
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
    sys = assemble(FREE, "direct", -1.0)
    end, esup = endpoint(sys, QuasiState(0.0, 0.0, 1.0), 300.0)
    dense = integrate(sys, QuasiState(0.0, 0.0, 1.0), 300.0).state_at(300.0)
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
    end, _ = endpoint(assemble(IX, "direct", lam), QuasiState(0.0, 0.0, 1.0), math.pi)
    got = np.array([end.y0, end.y1]) * math.exp(end.logscale)
    want = _airy_end(lam, math.pi)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _against_tight_dormand_prince(c, lam, a, b, init=(0.0, 1.0)):
    """endpoint against scipy's DOP853 at rtol 1e-13 (``_dop853``): asserts
    the end states agree within 1e-11 of exp(log sup) and returns the (end
    logscale, log sup) of each."""
    end, sup = endpoint(assemble(c, "direct", lam), QuasiState(a, *init), b)
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
        endpoint(assemble(c, "direct", 2.0), QuasiState(0.0, 1.0, 0.5, logscale=3.0), 1.0)
    e = err.value
    assert (e.x, e.h, e.y0, e.y1, e.logscale) == (0.0, 0.0, 1.0, 0.5, 3.0)


def test_taylor_step_below_the_floor_raises():
    # s = 1e26 + x: the series allows steps of about 2e-13, below the floor
    # 1e-12 of an interval of length 100
    c = CoefficientField(PiecewisePoly([], [[1e26, 1.0]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    with pytest.raises(StepUnderflowError) as err:
        endpoint(assemble(c, "direct", 0.0), QuasiState(0.0, 1.0, 0.0), 100.0)
    assert err.value.x == 0.0 and 0 < err.value.h < 1e-12


def test_taylor_step_whose_sum_is_not_finite_raises(monkeypatch):
    # a step the length of the segment, 1e300: the series sum overflows
    monkeypatch.setattr(propagate, "_jorba_zou", lambda u, v, window: math.inf)
    with pytest.raises(StepUnderflowError) as err:
        endpoint(assemble(IX, "direct", 2.0), QuasiState(0.0, 1.0, 0.0), 1e300)
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
    sys = assemble(IX, "direct", 12.0)
    _, sup = endpoint(sys, QuasiState(0.0, 0.0, 1.0), math.pi)
    ends = np.minimum(np.cumsum(hs), math.pi)
    starts = np.concatenate([[0.0], ends[:-1]])
    (_, _, dense), = _dop853(IX, 12.0, 0.0, math.pi, (0.0, 1.0))[2]
    y = dense(np.concatenate([starts, ends, 0.5 * (starts + ends)]))
    assert abs(sup - np.max(np.log(np.max(np.abs(y), axis=0)))) <= 1e-10


def test_zero_state_crosses_a_taylor_segment_unchanged():
    end, sup = endpoint(assemble(IX, "direct", 2.0), QuasiState(0.0, 0.0, 0.0, logscale=1.5), math.pi)
    assert (end.y0, end.y1, end.logscale, sup) == (0.0, 0.0, 1.5, -math.inf)
    # r = i (50 + x/1000) at lambda = 2500: both solutions decay like
    # e^(-50 x), so the state underflows to zero on the way and stays there
    z = PiecewisePoly.zero()
    decay = CoefficientField(z, z, PiecewisePoly([], [[50j, 0.001j]]))
    end, sup = endpoint(assemble(decay, "direct", 2500.0), QuasiState(0.0, 1.0, 0.0), 20.0)
    assert (end.y0, end.y1, end.logscale, sup) == (0.0, 0.0, 0.0, 0.0)


def test_shots_keep_no_dense_output(monkeypatch):
    # scans, Newton seeds and mixed fields shoot with no dense output; the
    # dense shot runs once, when a root's trajectory is read
    from qschro import spectral
    from qschro.errors import NonRealScanError

    dense = spectral.integrate
    integrate_calls = []

    def counted(*args, **kw):
        integrate_calls.append(args)
        return dense(*args, **kw)

    monkeypatch.setattr(spectral, "integrate", counted)
    bc = spectral.BoundaryCondition.dirichlet()
    with pytest.raises(NonRealScanError):
        spectral.eigenvalues(IX, (0, math.pi), bc, scan=(0.5, 12), grid=40)
    res = spectral.eigenvalues(IX, (0, math.pi), bc, seeds=[1.2 + 1.6j, 3.9 + 1.5j])
    assert [r.converged for r in res] == [True, True]
    for lam in (-2.0, 3.0 + 0.5j, 40.0):
        endpoint(assemble(MIXED, "direct", lam), QuasiState(-3.0, 0.0, 1.0), 3.0)
    assert not integrate_calls
    traj = res[0].trajectory
    assert res[0].trajectory is traj and len(integrate_calls) == 1


def test_dense_shot_keeps_one_row_per_exact_substep(monkeypatch):
    # free field at lambda = 2500: |h mu| <= 1 gives 158 sub-steps on [0, pi],
    # and the dense shot keeps one row per sub-step
    hs = []
    step = propagate._exact_step

    def recorded(inv, h):
        hs.append(h)
        return step(inv, h)

    monkeypatch.setattr(propagate, "_exact_step", recorded)
    sys = assemble(FREE, "direct", 2500.0)
    endpoint(sys, QuasiState(0.0, 0.0, 1.0), math.pi)
    assert len(hs) == 1
    substeps = round(math.pi / hs[0])
    assert substeps == math.ceil(50 * math.pi)
    assert len(integrate(sys, QuasiState(0.0, 0.0, 1.0), math.pi).steps) == substeps


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
    # integrate crosses the segments as endpoint does, so its last row at
    # theta = 1 is the shot's end state to rounding, at the same logscale
    sys = assemble(field, "direct", lam)
    end, _ = endpoint(sys, QuasiState(a, 0.3, 1.0), b)
    dense = integrate(sys, QuasiState(a, 0.3, 1.0), b).state_at(b)
    assert dense.logscale == end.logscale
    scale = max(abs(end.y0), abs(end.y1))
    assert abs(dense.y0 - end.y0) <= 1e-15 * scale
    assert abs(dense.y1 - end.y1) <= 1e-15 * scale


@pytest.mark.parametrize("lam", [-1.0, 400.0, 3.0 - 2.0j, 0.0])
def test_exact_rows_end_at_the_next_substep_start(lam):
    # each row summed at theta = 1 is exp(hA) times its start state, the
    # start of the next row, to rounding of the largest term it sums
    t = integrate(assemble(FREE, "direct", lam), QuasiState(0.0, 1.0, 0.5), 3.0)
    assert len(t.steps) == max(1, math.ceil(3.0 * abs(cmath.sqrt(-lam))))
    coef, ls = t.steps["coef"], t.steps["logscale"]
    ends = coef[:-1].sum(axis=1) * np.exp(ls[:-1] - ls[1:])[:, None]
    starts = coef[1:, 0]
    scale = np.max(np.abs(coef[:-1]), axis=(1, 2)) * np.exp(ls[:-1] - ls[1:])
    assert np.all(np.abs(ends - starts) <= 1e-15 * scale[:, None])


def test_dense_interior_matches_closed_forms():
    xs = np.linspace(0.0, 2.0, 53)[1:-1]
    for lam, want in ((-1.0, np.exp(xs)), (400.0, np.cos(20 * xs) + np.sin(20 * xs) / 20)):
        t = integrate(assemble(FREE, "direct", lam), QuasiState(0.0, 1.0, 1.0), 2.0)
        y, ls = t.sample(xs)
        assert np.all(np.abs(y[:, 0] * np.exp(ls) - want) <= 1e-13 * np.max(np.abs(want)))
    # delta well at lambda = -1: the bound state e^(-|x|)
    dw = CoefficientField.delta_well(-2.0)
    t = integrate(assemble(dw, "direct", -1.0), QuasiState(-6.0, math.exp(-6.0), math.exp(-6.0)), 6.0)
    xs = np.linspace(-6.0, 6.0, 61)[1:-1]
    y, ls = t.sample(xs)
    assert np.all(np.abs(y[:, 0] * np.exp(ls) - np.exp(-np.abs(xs))) <= 1e-13)


def test_pair_integral_of_two_degree_24_rows_is_exact():
    # one row of degree 24 each: 25 Gauss-Legendre nodes integrate the
    # degree-48 product exactly; the reference integrates it term by term
    rng = np.random.default_rng(24)
    sys = assemble(IX, "direct", 0.0)
    rows = []
    for _ in range(2):
        steps = np.zeros(1, propagate._step_dtype(25))
        steps["x0"], steps["h"] = -0.5, 1.5
        steps["coef"] = rng.standard_normal((1, 25, 2)) + 1j * rng.standard_normal((1, 25, 2))
        rows.append(propagate.Trajectory(sys, -0.5, 1.0, steps))
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
