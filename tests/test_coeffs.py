"""Piecewise polynomial algebra: closure, jumps, parts, antiderivatives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschro.coeffs import (
    CoefficientField,
    PiecewisePoly,
    bump,
    from_callable,
    pos_neg_parts,
    smoothstep,
)
from qschro.errors import NonRealError

RNG = np.random.default_rng(20240811)


def random_pw(rng, max_bp=3, max_deg=3, allow_jumps=True):
    nbp = rng.integers(0, max_bp + 1)
    bps = np.sort(rng.uniform(-4, 4, nbp))
    while len(bps) > 1 and np.min(np.diff(bps)) < 1e-3:
        bps = np.sort(rng.uniform(-4, 4, nbp))
    pieces = []
    for _ in range(nbp + 1):
        deg = rng.integers(0, max_deg + 1)
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        pieces.append(c)
    f = PiecewisePoly(bps, pieces)
    if not allow_jumps and len(bps):
        # stitch pieces to be continuous at every breakpoint
        g = [np.asarray(pieces[0], dtype=complex)]
        for i, b in enumerate(bps):
            cur = PiecewisePoly([], [g[-1]], degree_cap=None)
            nxt = PiecewisePoly([], [pieces[i + 1]], degree_cap=None)
            offset = cur.eval(b) - nxt.eval(b)
            adj = np.asarray(pieces[i + 1], dtype=complex).copy()
            adj[0] += offset
            g.append(adj)
        f = PiecewisePoly(bps, g)
    return f


def test_eval_sides_step():
    f = PiecewisePoly.heaviside(-2.0)
    assert f.eval(0, "left") == 0
    assert f.eval(0, "right") == -2
    assert f.eval(-1) == 0
    assert f.eval(1) == -2


def test_eval_global_piece():
    f = PiecewisePoly.from_coeffs([0, 0, 1])
    assert f.eval(3, "right") == pytest.approx(9)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PiecewisePoly([1.0, 0.5], [[0], [1], [2]])


def test_breakpoints_near_the_float_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = PiecewisePoly([-1.5e308, 1.5e308], [[0], [1], [0]])
        assert f.jumps == {-1.5e308: 1, 1.5e308: -1}
        assert len((f + f).breakpoints) == 2
        g = PiecewisePoly([1e308, 1.5e308], [[0], [1], [0]])
        assert g.centers.tolist() == [1e308, 1.25e308, 1.5e308]
        with pytest.raises(ValueError, match="float range"):
            PiecewisePoly([-1.5e308, 1.5e308], [[0, 2], [1], [0]])
        with pytest.raises(ValueError, match="increasing"):
            PiecewisePoly([1.5e308, -1.5e308], [[0], [1], [0]])
    # halves added: the bits of the midpoint wherever the halves are normal
    rng = np.random.default_rng(3)
    bp = np.sort(rng.standard_normal(50) * 10.0 ** rng.uniform(-300, 300, 50))
    assert PiecewisePoly(bp, [[1.0]] * 51).centers[1:-1].tobytes() == (0.5 * (bp[:-1] + bp[1:])).tobytes()


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        PiecewisePoly([], [np.ones(12)])
    PiecewisePoly([], [np.ones(12)], degree_cap=None)  # explicit opt-out


def test_algebra_roundtrips_random_points():
    # closure under +, *, conj, re/im: evaluate both routes at random points;
    # the batched sampler equals the pointwise values exactly, on both sides
    # of every breakpoint
    for _ in range(12):
        f = random_pw(RNG)
        g = random_pw(RNG)
        xs = RNG.uniform(-5, 5, 100)
        fg = f * g
        fpg = f + g
        at = np.concatenate([xs, f.breakpoints, g.breakpoints])
        for h in (f, g, fg, fpg):
            for side in ("left", "right"):
                pointwise = [h.eval(float(x), side) for x in at]
                assert np.array_equal(h.sample(at, side), pointwise)
        for x in xs:
            x = float(x)
            a, b = f.eval(x), g.eval(x)
            scale = 1 + abs(a) + abs(b) + abs(a * b)
            assert abs(fg.eval(x) - a * b) <= 1e-12 * scale
            assert abs(fpg.eval(x) - (a + b)) <= 1e-12 * scale
            assert abs(f.conj().eval(x) - np.conj(a)) <= 1e-12 * scale
            assert abs(f.real.eval(x) - a.real) <= 1e-12 * scale
            assert abs(f.imag.eval(x) - a.imag) <= 1e-12 * scale


def test_jump_bookkeeping_matches_one_sided_values():
    for _ in range(10):
        f = random_pw(RNG)
        for b, h in f.jumps.items():
            assert f.eval(b, "right") - f.eval(b, "left") == h


@settings(max_examples=40, deadline=None)
@given(
    height=st.floats(-5, 5, allow_nan=False),
    loc=st.floats(-3, 3, allow_nan=False),
    x=st.floats(-4, 4, allow_nan=False),
)
def test_step_jump_invariant(height, loc, x):
    f = PiecewisePoly.step(loc, 0.0, height)
    assert f.eval(loc, "right") - f.eval(loc, "left") == pytest.approx(height)
    expected = 0.0 if x < loc else height
    if x != loc:
        assert f.eval(x) == pytest.approx(expected)


def test_G1_G2_constant_r():
    z = PiecewisePoly.zero()
    field = CoefficientField(z, z, PiecewisePoly.constant(1.0))
    G1, G2 = field.G1, field.G2
    assert G1.eval(0.3) == pytest.approx(1j)
    assert G2.eval(0.3) == pytest.approx(-1j)


def test_G1_G2_step_Q():
    field = CoefficientField.delta_well(-2.0)
    G1, G2 = field.G1, field.G2
    for x in (-1.0, 1.0):
        expected = 0.0 if x < 0 else -2.0
        assert G1.eval(x) == pytest.approx(expected)
        assert G2.eval(x) == pytest.approx(expected)


def test_G1_G2_imaginary_r():
    z = PiecewisePoly.zero()
    r = PiecewisePoly.from_coeffs([0, -1j])  # r = -i x
    field = CoefficientField(z, z, r)
    G1, G2 = field.G1, field.G2
    assert G1.eval(2.0) == pytest.approx(2.0)  # i * (-i x) = x
    assert G2.eval(2.0) == pytest.approx(-2.0)


def test_pos_neg_parts_linear():
    f = PiecewisePoly.from_coeffs([0, -1.0])  # -x
    xs, plus, minus = pos_neg_parts(f, (-1, 1), 0.125)
    at = dict(zip(xs, plus))
    atm = dict(zip(xs, minus))
    assert at[-1.0] == pytest.approx(1.0)
    assert atm[1.0] == pytest.approx(1.0)
    assert at[1.0] == 0.0
    np.testing.assert_allclose(plus - minus, [f.eval(x).real for x in xs], atol=1e-14)
    assert np.max(np.minimum(plus, minus)) == 0.0


def test_pos_neg_parts_zero():
    xs, plus, minus = pos_neg_parts(PiecewisePoly.zero(), (-1, 1), 0.5)
    assert np.all(plus == 0) and np.all(minus == 0)


def test_pos_neg_parts_crossing_refined():
    f = PiecewisePoly.from_coeffs([-1, 0, 1])  # x^2 - 1, crossing at 1
    xs, plus, minus = pos_neg_parts(f, (0, 2), 0.3)
    assert min(abs(x - 1.0) for x in xs) <= 1e-12
    assert all(p == 0 for x, p in zip(xs, plus) if x < 1)
    assert all(m == 0 for x, m in zip(xs, minus) if x > 1)


def test_pos_neg_rejects_complex():
    with pytest.raises(NonRealError):
        pos_neg_parts(PiecewisePoly.constant(1j), (0, 1), 0.5)


def test_antiderivative_constant():
    F = PiecewisePoly.constant(1.0).antiderivative(anchor=0.5)
    assert F.eval(0.5) == pytest.approx(0.0)
    assert F.eval(2.0) == pytest.approx(1.5)


def test_antiderivative_heaviside_is_ramp():
    F = PiecewisePoly.heaviside().antiderivative()
    assert F.eval(-3) == pytest.approx(0.0)
    assert F.eval(2) == pytest.approx(2.0)
    assert F.eval(0) == pytest.approx(0.0)


def test_antiderivative_cubic():
    F = PiecewisePoly.from_coeffs([0, 0, 3]).antiderivative()
    assert F.eval(1.0) == pytest.approx(1.0)


def test_antiderivative_continuous_with_jumpy_integrand():
    for _ in range(6):
        f = random_pw(RNG)
        F = f.antiderivative()
        for b in F.breakpoints:
            dv = abs(F.eval(b, "right") - F.eval(b, "left"))
            assert dv <= 1e-11 * (1 + F.coeff_scale())


def test_integrate_matches_antiderivative():
    for _ in range(6):
        f = random_pw(RNG)
        F = f.antiderivative()
        a, b = sorted(RNG.uniform(-5, 5, 2))
        want = F.eval(b) - F.eval(a)
        scale = 1 + abs(want)
        assert abs(f.integrate(a, b) - want) <= 1e-11 * scale


def test_spurious_breakpoint_transparent():
    f = random_pw(RNG)
    g = f.with_breakpoints([0.123456])
    xs = RNG.uniform(-5, 5, 50)
    for x in xs:
        assert abs(f.eval(float(x)) - g.eval(float(x))) <= 1e-12 * (1 + abs(f.eval(float(x))))
    assert abs(g.jumps.get(0.123456, 0.0)) <= 1e-12 * (1 + f.coeff_scale())


def test_smoothstep_slope_bound():
    s = smoothstep(2.0, 3.5)
    v, x = s.derivative().extreme_on(2.0, 3.5, "max")
    assert v == pytest.approx(1.5 / 1.5)
    assert x == pytest.approx(2.75)


def test_bump_shape_and_support():
    b = bump(1.0, 2.0, 0.5)
    assert b.support_bounds() == (-0.5, 2.5)
    assert b.eval(1.0) == pytest.approx(1.0)
    assert b.eval(0.0) == pytest.approx(1.0)
    assert b.eval(3.0) == 0.0
    # continuous with continuous derivative
    for bp in b.breakpoints:
        assert abs(b.eval(bp, "right") - b.eval(bp, "left")) <= 1e-14
        d = b.derivative()
        assert abs(d.eval(bp, "right") - d.eval(bp, "left")) <= 1e-13


def test_from_callable_certified():
    p = from_callable(np.exp, (0.0, 1.0))
    xs = np.linspace(1e-9, 1 - 1e-9, 301)
    assert max(abs(p.eval(float(x)) - np.exp(x)) for x in xs) < 1e-10 * np.e


def test_from_callable_kink():
    p = from_callable(lambda x: np.exp(-abs(x)), (-1, 1), kinks=[0.0])
    xs = np.linspace(-0.999, 0.999, 301)
    assert max(abs(p.eval(float(x)) - np.exp(-abs(x))) for x in xs) < 1e-10
    d = p.derivative()
    assert d.eval(0, "right") - d.eval(0, "left") == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("zero_outside", [True, False])
def test_from_callable_with_an_identically_zero_piece(zero_outside):
    # the fit on the left piece is exactly zero, so its monomial row is shorter
    p = from_callable(lambda x: max(x, 0.0), (-1, 1), kinks=[0.0], zero_outside=zero_outside)
    assert p.coeffs.ndim == 2
    xs = np.linspace(-0.999, 0.999, 301)
    assert max(abs(p.eval(float(x)) - max(x, 0.0)) for x in xs) < 1e-10
    assert p.eval(-0.5) == 0.0
    tail = p.eval(2.0)
    assert tail == 0.0 if zero_outside else tail == pytest.approx(2.0, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    center=st.floats(-10, 10, allow_nan=False),
    plateau=st.floats(0.1, 5, allow_nan=False),
    ramp=st.floats(0.1, 3, allow_nan=False),
)
def test_bump_invariants_property(center, plateau, ramp):
    b = bump(center, plateau, ramp)
    lo, hi = b.support_bounds()
    assert lo == pytest.approx(center - plateau / 2 - ramp)
    assert hi == pytest.approx(center + plateau / 2 + ramp)
    v, _ = b.extreme_on(lo - 1, hi + 1, "max")
    assert v <= 1 + 1e-12
    w, _ = b.extreme_on(lo - 1, hi + 1, "min")
    assert w >= -1e-12
    dmax, _ = b.derivative().extreme_on(lo, hi, "max")
    assert dmax <= 1.5 / ramp * (1 + 1e-10)


def test_real_roots_and_extreme():
    f = PiecewisePoly.from_coeffs([-1, 0, 1])
    roots = f.real_roots(-2, 2)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-1.0, abs=1e-12)
    assert roots[1] == pytest.approx(1.0, abs=1e-12)
    v, x = f.extreme_on(-2, 2, "min")
    assert v == pytest.approx(-1.0)
    assert x == pytest.approx(0.0, abs=1e-12)
