"""Integrator contract: accuracy, dense output, jumps, rescaling."""

import bisect
import math

import numpy as np
import pytest

from qschro.coeffs import CoefficientField, PiecewisePoly
from qschro.errors import OverflowUnrecoverableError, StepUnderflowError
from qschro import propagate
from qschro.propagate import endpoint, fundamental, integrate, pair_integral
from qschro.quasi import QuasiState, assemble


FREE = CoefficientField.free()


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
    assert abs(y0r - y0l) <= 10 * t.atol
    assert abs(y1r - y1l) <= 10 * t.atol
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
    # r = -i x: no closed form; compare against a 10x tighter reference
    z = PiecewisePoly.zero()
    c = CoefficientField(z, z, PiecewisePoly.from_coeffs([0.0, -1j]))
    sys = assemble(c, "direct", 0.0)
    t = integrate(sys, QuasiState(0.0, 1.0, 0.5j), 3.0, tol=(1e-10, 1e-8))
    ref = integrate(sys, QuasiState(0.0, 1.0, 0.5j), 3.0, tol=(1e-12, 1e-10))
    s, sr = t.state_at(3.0), ref.state_at(3.0)
    scale = max(abs(sr.y0), abs(sr.y1), 1.0)
    assert abs(s.y0 - sr.y0) / scale <= 1e-7
    assert abs(s.y1 - sr.y1) / scale <= 1e-7


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


def test_tolerance_convergence_order():
    # u'' = u benchmark: error vs exact e^x as rtol tightens
    sys = assemble(FREE, "direct", -1.0)
    errs = []
    hbars = []
    for rtol in (1e-6, 1e-8, 1e-10):
        t = integrate(sys, QuasiState(0.0, 1.0, 1.0), 2.0, tol=(1e-14, rtol))
        errs.append(abs(t.state_at(2.0).y0 - math.exp(2.0)))
        hbars.append(2.0 / len(t.steps))
    assert errs[0] > errs[1] > errs[2]
    order = (math.log(errs[0]) - math.log(errs[2])) / (math.log(hbars[0]) - math.log(hbars[2]))
    assert order >= 4.0


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


# ----------------------------------------------------------------------
# endpoint shots: exact exponentials on constant segments


def _shot_pair(c, lam, a, b, init=(0.0, 1.0)):
    """(endpoint, integrate) of the same shot, each as (y, logscale, log_sup)."""
    sys = assemble(c, "direct", lam)
    start = QuasiState(a, *init)
    end, sup = endpoint(sys, start, b)
    t = integrate(sys, start, b)
    dense = t.state_at(b)
    return (end.y0, end.y1, end.logscale, sup), (dense.y0, dense.y1, dense.logscale, t.log_sup())


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


def test_exact_shot_matches_dormand_prince_on_mixed_field():
    # constant pieces around one linear piece of s and one jump of Q: the
    # linear segment runs Dormand-Prince, the others are exact
    c = CoefficientField(
        PiecewisePoly([-1.0, 1.0], [[0.5], [0.0, 0.8], [-0.3]]),
        PiecewisePoly.heaviside(-1.5, 1.7),
        PiecewisePoly.zero(),
    )
    for lam in (-2.0, 3.0 + 0.5j, 40.0):
        (e0, e1, el, esup), (d0, d1, dl, dsup) = _shot_pair(c, lam, -3.0, 3.0)
        scale = math.exp(dsup)
        assert abs(e0 * math.exp(el) - d0 * math.exp(dl)) <= 1e-9 * scale
        assert abs(e1 * math.exp(el) - d1 * math.exp(dl)) <= 1e-9 * scale
        # both sup are sampled, at other points: exact sub-steps turn the
        # phase by at most 1, so they miss a peak by at most a factor cos(1/2)
        assert abs(esup - dsup) <= -math.log(math.cos(0.5))


def test_exact_shot_rescales_like_dormand_prince():
    # e^x growth on [0, 300] passes 1e100 twice; the exact path rescales at
    # the same threshold and ends with the true size, sinh(300)
    (e0, _, el, esup), (_, _, dl, _) = _shot_pair(FREE, -1.0, 0.0, 300.0)
    assert el > 0 and dl > 0
    want = 300.0 - math.log(2.0)  # log sinh(300) to rounding
    assert abs(math.log(abs(e0)) + el - want) <= 1e-12 * want
    assert abs(esup - want) <= 1e-12 * want


def test_non_constant_shot_is_the_dormand_prince_shot():
    # s = i x has no constant segment: endpoint runs the same steps as
    # integrate and reads the end state and log sup the same way, bit for bit
    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    for lam in (1.0, 3.7, 8.0 + 1j):
        e, d = _shot_pair(ix, lam, 0.0, math.pi)
        assert e == d


def test_exact_substeps_are_fewer_than_dormand_prince_steps(monkeypatch):
    # free field at lambda = 2500: |h mu| <= 1 gives 158 sub-steps on [0, pi]
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
    assert substeps <= len(integrate(sys, QuasiState(0.0, 0.0, 1.0), math.pi).steps)
