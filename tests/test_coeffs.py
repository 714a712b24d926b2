"""Piecewise polynomial algebra: closure, jumps, parts, antiderivatives."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschro.coeffs import (
    CoefficientField,
    PiecewisePoly,
    _canonical_centers,
    _shift_rows,
    bump,
    bumps,
    from_callable,
    pos_neg_parts,
    smoothstep,
)
from qschro.errors import FamilyMemberError, NonRealError

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


def _exact_row_values(f, xs):
    """Real part of each stored row at x - center, in exact rationals."""
    out = []
    for x in xs:
        i = int(np.searchsorted(f.breakpoints, x, side="right"))
        t = Fraction(float(x)) - Fraction(float(f.centers[i]))
        out.append(sum(Fraction(float(c.real)) * t**k for k, c in enumerate(f.coeffs[i])))
    return out


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        # 1 + (x - 500)^2 in powers of x: the terms cancel from 2.5e5 to 1
        (PiecewisePoly([], [[250001.0, -1000.0, 1.0]]), 499.0, 501.0),
        # (x + 0.8)^2 + 1/30 on a region centred at 1.1, where x - center is not exact
        (PiecewisePoly([-1.0, 3.2], [[1.0], [0.64 + 1 / 30, 1.6, 1.0], [1.0]]), -1.0, -0.6),
        # no cancellation: plain Horner's rule and its bound
        (PiecewisePoly([0.0], [[2.0, -1.5], [2.0, 1.5]]), -50.0, 50.0),
    ],
)
def test_sample_bounded_is_within_its_bound(f, lo, hi):
    xs = np.random.default_rng(5).uniform(lo, hi, 200)
    vals, bound = f.sample_bounded(xs)
    exact = _exact_row_values(f, xs)
    for v, b, e in zip(vals, bound, exact):
        assert abs(Fraction(float(v)) - e) <= Fraction(float(b))
        assert b <= 8 * np.finfo(float).eps * abs(v)


def test_sample_bounded_beats_plain_horner_under_cancellation():
    hump = PiecewisePoly([], [[250001.0, -1000.0, 1.0]])
    xs = np.random.default_rng(6).uniform(499.0, 501.0, 200)
    exact = np.array([float(e) for e in _exact_row_values(hump, xs)])
    plain = np.max(np.abs(hump.sample(xs).real - exact) / exact)
    bounded = np.max(np.abs(hump.sample_bounded(xs)[0] - exact) / exact)
    assert plain > 1e-13 and bounded <= 2 * np.finfo(float).eps


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


def _scalar_smoothstep(a, b, rising=True):
    """The scalar smoothstep that bump was built from, kept as a reference."""
    if not b > a:
        raise ValueError("smoothstep needs a < b")
    L = b - a
    c = 0.5 * (a + b)
    t0 = 0.5
    s0 = 3 * t0**2 - 2 * t0**3
    s1 = (6 * t0 - 6 * t0**2) / L
    try:
        s2 = (6 - 12 * t0) / (2 * L**2)
        s3 = -12 / (6 * L**3)
    except (OverflowError, ZeroDivisionError):
        s2 = s3 = math.inf
    ramp = np.array([s0, s1, s2, s3], dtype=complex)
    if not (math.isfinite(L) and np.all(np.isfinite(ramp))):
        raise ValueError(f"smoothstep ramp of width {L!r} has coefficients outside the float range")
    lo, hi = (0.0, 1.0) if rising else (1.0, 0.0)
    if not rising:
        ramp = np.array([1.0, 0, 0, 0], dtype=complex) - ramp
    rows = np.zeros((3, 4), dtype=complex)
    rows[0, 0], rows[1], rows[2, 0] = lo, ramp, hi
    return PiecewisePoly._from_local(np.array([a, b], dtype=float), np.array([a, c, b], dtype=float), rows)


def _two_smoothstep_bump(center, plateau, ramp):
    """bump as two smoothstep objects, one row taken from each: the reference."""
    if ramp <= 0:
        raise ValueError("ramp width must be positive")
    if plateau < 0:
        raise ValueError("plateau width must be nonnegative")
    x0 = center - plateau / 2 - ramp
    x1 = center - plateau / 2
    x2 = center + plateau / 2
    x3 = center + plateau / 2 + ramp
    up = _scalar_smoothstep(x0, x1, rising=True)
    down = _scalar_smoothstep(x2, x3, rising=False)
    mesh = np.array([x0, x1, x3]) if plateau == 0 else np.array([x0, x1, x2, x3])
    centers = _canonical_centers(mesh)
    rows = np.zeros((len(mesh) + 1, 4), dtype=complex)
    rows[[1, -2]] = _shift_rows(
        np.array([up.coeffs[1], down.coeffs[1]]),
        np.array([centers[1] - up.centers[1], centers[-2] - down.centers[1]]),
    )
    if plateau != 0:
        rows[2, 0] = 1.0
    return PiecewisePoly._from_local(mesh, centers, rows)


def _bump_triples(rng, n):
    """(center, plateau, ramp) with ramps from 2e-103 to 3e102 and zero plateaus of both signs."""
    triples = [(0.0, 0.0, 2e-103), (-0.0, -0.0, 3e102), (1.0, 0.0, 2e-103), (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0)]
    for _ in range(n - len(triples)):
        center = float(rng.uniform(-10, 10)) * 10.0 ** float(rng.choice([0, 0, 3, 20, 110, 200]))
        plateau = float(rng.choice([0.0, -0.0, rng.uniform(0, 3), 10.0 ** rng.uniform(-120, 120)]))
        ramp = float(rng.choice([rng.uniform(0.1, 2), 10.0 ** rng.uniform(np.log10(2e-103), np.log10(3e102))]))
        triples.append((center, plateau, ramp))
    return triples


def _same_build(build, reference) -> bool:
    """Whether reference() builds; if it does, build() gives the same arrays
    bit for bit, and if it refuses, build() refuses with the same message."""
    try:
        want = reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == str(exc)
        return False
    got = build()
    for name in ("breakpoints", "centers", "coeffs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
    return True


def test_bump_is_the_two_smoothstep_construction_bit_for_bit():
    built = [_same_build(lambda: bump(*t), lambda: _two_smoothstep_bump(*t))
             for t in _bump_triples(np.random.default_rng(18), 500)]
    assert 100 < sum(built) < 500


def test_smoothstep_is_the_scalar_construction_bit_for_bit():
    rng = np.random.default_rng(19)
    built = []
    for _ in range(200):
        a = float(rng.uniform(-10, 10)) * 10.0 ** float(rng.choice([0, 50, -50]))
        b = a + float(rng.choice([rng.uniform(0.01, 3), 10.0 ** rng.uniform(-103, 102)]))
        for rising in (True, False):
            built.append(_same_build(lambda: smoothstep(a, b, rising), lambda: _scalar_smoothstep(a, b, rising)))
    assert 100 < sum(built) < 400


def test_ramp_whose_cubic_term_overflows_is_refused():
    # 6 L^3 overflows between widths of about 3.1e102 and 5.6e102: the scalar
    # construction's cubic term became -0.0 and the ramp a line
    assert _scalar_smoothstep(0.0, 5e102).degree == 1
    for width in (3.2e102, 5e102, 5.5e102):
        with pytest.raises(ValueError, match=re.escape(f"width {width!r} has coefficients outside the float range")):
            smoothstep(0.0, width)
        with pytest.raises(ValueError, match="outside the float range"):
            bump(0.0, 1.0, width)
    assert smoothstep(0.0, 3e102).degree == 3


def test_bump_family_is_its_members():
    triples = _bump_triples(np.random.default_rng(20), 300)
    usable = []
    for t in triples:
        try:
            bump(*t)
        except ValueError:
            continue
        usable.append(t)
    family = bumps(*zip(*usable))
    assert len(family) == len(usable) and bumps([], [], []) == []
    for got, t in zip(family, usable):
        want = bump(*t)
        for name in ("breakpoints", "centers", "coeffs"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("triples, index, message", [
    ([(0, 1, 1), (0, 1, -1), (0, -1, 1)], 1, "ramp width must be positive"),
    ([(0, 1, 1), (0, -1, -1)], 1, "ramp width must be positive"),
    ([(0, -1, 1), (0, 1, 0)], 0, "plateau width must be nonnegative"),
    ([(0, 1, 1), (1e20, 1, 1)], 1, "smoothstep needs a < b"),
    ([(0, 1, 1), (0, 1, 1), (0, 0, 1e200)], 2,
     "smoothstep ramp of width 1e+200 has coefficients outside the float range"),
    ([(0, 0, 1e-200), (0, -1, 1)], 0, "smoothstep ramp of width 1e-200 has coefficients outside the float range"),
])
def test_bump_family_names_its_first_refused_member(triples, index, message):
    with pytest.raises(FamilyMemberError) as err:
        bumps(*zip(*triples))
    assert (err.value.index, str(err.value)) == (index, message)
    with pytest.raises(ValueError, match=re.escape(message)):
        bump(*triples[index])


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


# ----------------------------------------------------------------------
# Taylor shift and mesh alignment


def _shift_rows_nested(coeffs, delta):
    """The synthetic division of ``_shift_rows`` as the plain nested loop."""
    moved = delta.nonzero()[0]
    if not len(moved):
        return coeffs
    out = coeffs.copy()
    b, d = out[moved], delta[moved]
    n = b.shape[1]
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            b[:, k] += d * b[:, k + 1]
    out[moved] = b
    return out


def test_wavefront_shift_is_the_nested_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    for trial in range(400):
        n, rows = int(rng.integers(1, 61)), int(rng.integers(1, 9))
        c = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        c *= 10.0 ** rng.integers(-8, 9, (rows, n))
        exponent = rng.integers(-300, 301, rows) if trial % 4 == 0 else rng.integers(-3, 4, rows)
        d = rng.standard_normal(rows) * 10.0**exponent
        d[rng.random(rows) < 0.3] = 0.0
        with np.errstate(all="ignore"):
            got, want = _shift_rows(c, d), _shift_rows_nested(c, d)
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)


def _exact_shift(row, d):
    """Exact coefficients of sum_j row[j] (t + d)^j in powers of t."""
    n = len(row)
    return [sum(row[j] * math.comb(j, k) * d ** (j - k) for j in range(k, n)) for k in range(n)]


def _shift_errors(got, row, d):
    """|error| of each shifted coefficient (real plus imaginary part) against
    the exact shift of the float row by the float d."""
    d = Fraction(float(d))
    re = _exact_shift([Fraction(float(v.real)) for v in row], d)
    im = _exact_shift([Fraction(float(v.imag)) for v in row], d)
    return [abs(Fraction(float(g.real)) - r) + abs(Fraction(float(g.imag)) - i) for g, r, i in zip(got, re, im)]


def test_shift_is_as_accurate_as_the_nested_loop():
    # Taylor rows of size O(1) on a region of width w, shifted by up to w:
    # against exact rational arithmetic, the shift's error is no larger
    # than the nested loop's, and within 2n eps of the shift of |c| by |d|
    rng = np.random.default_rng(6)
    eps = Fraction(float(np.finfo(float).eps))
    for n in (2, 8, 24, 51):
        w = 10.0 ** rng.uniform(-3, 1)
        c = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) / w ** np.arange(n)
        d = rng.uniform(-w, w, 3)
        got, old = _shift_rows(c, d), _shift_rows_nested(c, d)
        for i in range(3):
            err = _shift_errors(got[i], c[i], d[i])
            assert all(e <= o for e, o in zip(err, _shift_errors(old[i], c[i], d[i])))
            size = _exact_shift([abs(Fraction(v.real)) + abs(Fraction(v.imag)) for v in c[i]], abs(Fraction(d[i])))
            assert all(e <= 2 * n * eps * s for e, s in zip(err, size))


def test_alignment_to_an_equal_mesh_is_kept():
    f = random_pw(np.random.default_rng(3), max_bp=3, max_deg=4)
    mesh = np.array([-2.5, -0.5, 1.0, 3.0])
    first = f._on_mesh(mesh)
    assert f._on_mesh(mesh.copy()) is first
    # a zero of the other sign, or one ulp, is another mesh
    assert f._on_mesh(np.array([-2.5, -0.0, 1.0, 3.0])) is not f._on_mesh(np.array([-2.5, 0.0, 1.0, 3.0]))
    second = f._on_mesh(np.nextafter(mesh, np.inf))
    assert second is not f._on_mesh(mesh)
    assert np.array_equal(f._on_mesh(mesh).coeffs, first.coeffs)


def test_product_rule_factors_re_centre_u_once(monkeypatch):
    from qschro import coeffs

    phi = bump(0.5, 1.0, 0.75)
    u = PiecewisePoly([-1.3, 0.2, 0.9, 2.2], [np.arange(1.0, 7.0) * (k + 1) for k in range(5)], degree_cap=None)
    dphi = phi.derivative()
    ddphi = dphi.derivative()
    phi * u
    widths = []

    def counting(rows, delta):
        widths.append(rows.shape[1])
        return _shift_rows(rows, delta)

    monkeypatch.setattr(coeffs, "_shift_rows", counting)
    ddphi * u
    dphi * u
    assert widths and u.coeffs.shape[1] not in widths  # only the factors' rows moved


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        # cancels near x = 500 only, so an array mixes both kinds of point
        (PiecewisePoly([], [[250001.0, -1000.0, 1.0]]), -1000.0, 2000.0),
        # no cancellation anywhere
        (PiecewisePoly([0.0], [[2.0, -1.5], [2.0, 1.5]]), -50.0, 50.0),
    ],
)
def test_sample_bounded_gives_each_point_its_own_bits(f, lo, hi):
    rng = np.random.default_rng(8)
    xs = np.concatenate([rng.uniform(lo, hi, 100), rng.uniform(499.0, 501.0, 20)])
    vals, bound = f.sample_bounded(xs)
    grid, grid_bound = f.sample_bounded(xs.reshape(6, 20))
    assert np.array_equal(grid.ravel(), vals) and np.array_equal(grid_bound.ravel(), bound)
    for i, x in enumerate(xs):
        one, one_bound = f.sample_bounded(xs[i : i + 1])
        assert one[0].hex() == vals[i].hex() and one_bound[0].hex() == bound[i].hex()


# ----------------------------------------------------------------------
# mesh merges


def _loop_merge_breakpoints(a, b):
    """``_merge_breakpoints`` as it ran with a loop over every close pair,
    verbatim: the reference of the merge's bits."""
    from qschro.coeffs import _BP_MERGE_TOL

    merged = np.sort(np.concatenate([a, b]))
    keep = np.ones(len(merged), dtype=bool)
    with np.errstate(over="ignore"):  # a gap past the float range is not close
        close = merged[1:] - merged[:-1] <= _BP_MERGE_TOL * (1.0 + np.abs(merged[1:]))
    for j in close.nonzero()[0] + 1:
        last = j - 1
        while not keep[last]:
            last -= 1
        keep[j] = merged[j] - merged[last] > _BP_MERGE_TOL * (1.0 + abs(merged[j]))
    return merged[keep]


def _random_meshes(rng):
    """Pairs of sorted meshes: spread points, chains of points 0.4e-12 to
    0.9e-12 apart (relative to 1 + |x|), shared points, signed zeros,
    points past 1e307 and empty meshes."""
    def mesh(n):
        base = rng.uniform(-5, 5, n) * 10.0 ** rng.integers(-14, 3, n)
        parts = [base]
        for x in rng.choice(base, min(n, 3)) if n else ():
            steps = rng.uniform(0.4e-12, 0.9e-12, rng.integers(1, 6)) * (1.0 + abs(x))
            parts.append(x + np.cumsum(steps))
        if rng.random() < 0.3:
            parts.append([rng.choice([-0.0, 0.0])])
        if rng.random() < 0.1:
            parts.append([1.5e308, -1.6e308])
        return np.sort(np.concatenate(parts))

    for _ in range(300):
        a, b = mesh(int(rng.integers(0, 8))), mesh(int(rng.integers(0, 8)))
        yield a, b
        shared = np.sort(np.concatenate([b[: len(b) // 2], a]))
        yield a, shared
        yield a, a.copy()
    yield np.array([]), np.array([])
    yield np.array([-0.0, 1.0]), np.array([0.0, 1.0 + 1e-13])
    yield np.array([1.0, 1.0 + 6e-13, 1.0 + 1.2e-12, 1.0 + 1.8e-12]), np.array([1.0 + 1e-12])


def test_merged_meshes_have_the_bits_of_the_loop_over_close_pairs():
    from qschro.coeffs import _merge_breakpoints

    chains = 0
    for a, b in _random_meshes(np.random.default_rng(23)):
        got, want = _merge_breakpoints(a, b), _loop_merge_breakpoints(a, b)
        assert got.tobytes() == want.tobytes(), (a.tolist(), b.tolist())
        merged = np.sort(np.concatenate([a, b]))
        with np.errstate(over="ignore"):
            close = merged[1:] - merged[:-1] <= 1e-12 * (1.0 + np.abs(merged[1:]))
        chains += bool(np.any(close[1:] & close[:-1]))
    assert chains > 100


def test_a_mesh_merged_with_its_copy_is_the_mesh():
    from qschro.coeffs import _merge_breakpoints, aligned

    f = random_pw(np.random.default_rng(5), max_bp=4)
    mesh = _merge_breakpoints(f.breakpoints, f.breakpoints.copy())
    assert mesh.tobytes() == f.breakpoints.tobytes()
    a, b = aligned((f, f))
    assert a is f and b is f


def test_own_mesh_alignment_returns_the_function_when_its_centers_are_canonical():
    f = PiecewisePoly([-1.0, 0.5, 2.0], [[1, 2], [0.5j], [3, 0, 1], [1]])
    assert f._on_mesh(f.breakpoints.copy()) is f
    # the same mesh with other centers is re-centred on the canonical ones
    g = PiecewisePoly._from_local(f.breakpoints, f.centers + 0.25, f.coeffs)
    h = g._on_mesh(g.breakpoints.copy())
    assert h is not g and h.centers.tobytes() == f.centers.tobytes()
    xs = np.linspace(-3, 4, 29)
    assert np.allclose(h(xs), g(xs), rtol=1e-13, atol=1e-13)


def test_breakpoints_closer_than_the_merge_tolerance_are_refused():
    # the merge would keep one of them: p + 0.0 read 2 at 5e-14 where p is 1
    with pytest.raises(ValueError, match=r"breakpoints 0\.0 and 1e-13 are closer than the merge tolerance"):
        PiecewisePoly([0, 1e-13], [[0], [1], [2]])
    with pytest.raises(ValueError, match=r"breakpoints 2\.0 and 2\.0000000000015"):
        PiecewisePoly([-1.0, 2.0, 2.0 + 1.5e-12], [[0], [1], [1], [0, 1]])
    # one polynomial around the pair: the merge loses nothing
    f = PiecewisePoly([0, 1e-13, 3.0], [[1, 2], [1, 2], [1, 2], [0]])
    assert abs((f + 0.0)(5e-14) - (1 + 1e-13)) <= 1e-15 and abs(f(5e-14) - (1 + 1e-13)) <= 1e-15
