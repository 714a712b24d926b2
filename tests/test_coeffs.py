"""Piecewise polynomial algebra: closure, jumps, parts, integrals."""

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
    _bump_stack,
    _canonical_centers,
    _shift_rows,
    _stack,
    aligned,
    bump,
    bumps,
)
from qschro.errors import FamilyMemberError

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
    f = PiecewisePoly.step(0.0, 0.0, -2.0)
    assert f.eval(0, "left") == 0
    assert f.eval(0, "right") == -2
    assert f.eval(-1) == 0
    assert f.eval(1) == -2


def test_eval_global_piece():
    f = PiecewisePoly.from_coeffs([0, 0, 1])
    assert f.eval(3, "right") == pytest.approx(9)


def test_eval_has_the_bits_of_sample_at_every_point():
    # one Horner rule, from the top coefficient: zero values of either
    # sign included, at region centers (t = 0), breakpoints and random points
    cases = [(PiecewisePoly([], [[-0.0]]), [1.0]),
             (PiecewisePoly([0.0], [[0.0], [complex(-0.0, -0.0), 0.0]]), [0.5])]
    rng = np.random.default_rng(47)
    for _ in range(30):
        bps = np.sort(rng.uniform(-3, 3, rng.integers(0, 3)))
        pieces = []
        for _ in range(len(bps) + 1):
            p = (rng.standard_normal(4) + 1j * rng.standard_normal(4))[: rng.integers(1, 5)]
            p[rng.random(len(p)) < 0.5] = complex(-0.0, -0.0) if rng.random() < 0.5 else complex(0.0, -0.0)
            pieces.append(p)
        f = PiecewisePoly(bps, pieces)
        cases.append((f, [*f.centers[np.isfinite(f.centers)], *bps, *rng.uniform(-4, 4, 5)]))
    for f, xs in cases:
        for x in xs:
            for side in ("left", "right"):
                got = np.array([f.eval(float(x), side)], dtype=complex)
                assert got.tobytes() == f.sample([float(x)], side).tobytes(), (f.coeffs, x, side)


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
            assert np.array(f.sample([b], "right") - f.sample([b], "left")).tobytes() == np.array([h]).tobytes()


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


def test_integrate_matches_antiderivative():
    # each region's row integrated by numpy, differenced over the pieces of
    # [a, b] between breakpoints
    for _ in range(6):
        f = random_pw(RNG)
        a, b = sorted(RNG.uniform(-5, 5, 2))
        cuts = [a, *(t for t in f.breakpoints.tolist() if a < t < b), b]
        want = 0j
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            i = f._region(0.5 * (lo + hi), "right")
            F, c = np.polynomial.Polynomial(f.coeffs[i]).integ(), f.centers[i]
            want += F(hi - c) - F(lo - c)
        scale = 1 + abs(want)
        assert abs(f.integrate(a, b) - want) <= 1e-11 * scale


def test_spurious_breakpoint_transparent():
    f = random_pw(RNG)
    g = aligned([f], np.array([0.123456]))[0]
    xs = RNG.uniform(-5, 5, 50)
    for x in xs:
        assert abs(f.eval(float(x)) - g.eval(float(x))) <= 1e-12 * (1 + abs(f.eval(float(x))))
    assert abs(g.jumps.get(0.123456, 0.0)) <= 1e-12 * (1 + f.coeff_scale())


def test_smoothstep_slope_bound():
    s = bump(4.5, 2.0, 1.5)  # rising ramp on (2.0, 3.5)
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


def test_ramp_whose_cubic_term_overflows_is_refused():
    # 6 L^3 overflows between widths of about 3.1e102 and 5.6e102: the scalar
    # construction's cubic term became -0.0 and the ramp a line
    assert _scalar_smoothstep(0.0, 5e102).degree == 1
    for width in (3.2e102, 5e102, 5.5e102):
        with pytest.raises(ValueError, match=re.escape(f"width {width!r} has coefficients outside the float range")):
            bump(0.0, 0.0, width)
        with pytest.raises(ValueError, match="outside the float range"):
            bump(0.0, 1.0, width)
    assert bump(0.0, 0.0, 3e102).degree == 3


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


def test_bump_stack_is_the_stacked_members_bit_for_bit():
    usable = []
    for t in _bump_triples(np.random.default_rng(21), 300):
        try:
            bump(*t)
        except ValueError:
            continue
        usable.append(t)
    families = {
        "mixed": usable,
        "with plateaus": [t for t in usable if t[1] != 0],
        "without plateaus": [t for t in usable if t[1] == 0],
        "one member": usable[:1],
    }
    assert len(families["with plateaus"]) > 20 and len(families["without plateaus"]) > 20
    for name, family in families.items():
        got, want = _bump_stack(*zip(*family)), _stack(bumps(*zip(*family)))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name


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
    for build in (bumps, _bump_stack):
        with pytest.raises(FamilyMemberError) as err:
            build(*zip(*triples))
        assert (err.value.index, str(err.value)) == (index, message)
    with pytest.raises(ValueError, match=re.escape(message)):
        bump(*triples[index])


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


def test_product_rule_check_re_centres_u_once_and_each_sides_entries_once_per_mesh(monkeypatch):
    # phi u and u lie on one mesh, so each side's entries are re-centred on
    # it once, not once per function
    from qschro import coeffs
    from qschro.quasi import product_rule_check

    c = CoefficientField(
        PiecewisePoly([-0.4, 1.3], [[0.5, 0.2], [1.0, -0.3, 0.1], [0.7]]),
        PiecewisePoly([0.2], [[0.0, 0.4], [1.1, -0.2]]),
        PiecewisePoly([0.9], [[0.3, 0.1j], [0.2 + 0.5j]]),
    )
    phi = bump(0.5, 1.0, 0.75)
    u = PiecewisePoly([0.2, 0.9], [[1.0, 2.0, 0.5, 0.3], [0.7, 3.5, 0.5, 0.3], [1.33, 2.8, 0.5, 0.3]])  # kinks only
    entries = [*c.entries, *c.adjoint.entries]
    moved = []
    recentre = coeffs._recentre

    def counting(f, rows, mesh, centers):
        out = recentre(f, rows, mesh, centers)
        if out is not rows:
            moved.append((f, mesh.tobytes()))  # f is kept, so no id is reused
        return out

    monkeypatch.setattr(coeffs, "_recentre", counting)
    product_rule_check(c, phi, u, (-3.0, 3.0))
    keys = [(id(f), mesh) for f, mesh in moved]
    assert len(keys) == len(set(keys))  # no function twice on one mesh
    assert sum(f is u for f, _ in moved) == 1
    assert all(sum(f is e for f, _ in moved) == 1 for e in entries)
    assert len({mesh for _, mesh in moved}) == 1


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
    assert np.allclose(h.sample(xs), g.sample(xs), rtol=1e-13, atol=1e-13)


def test_breakpoints_closer_than_the_merge_tolerance_are_refused():
    # the merge would keep one of them: p + 0.0 read 2 at 5e-14 where p is 1
    with pytest.raises(ValueError, match=r"breakpoints 0\.0 and 1e-13 are closer than the merge tolerance"):
        PiecewisePoly([0, 1e-13], [[0], [1], [2]])
    with pytest.raises(ValueError, match=r"breakpoints 2\.0 and 2\.0000000000015"):
        PiecewisePoly([-1.0, 2.0, 2.0 + 1.5e-12], [[0], [1], [1], [0, 1]])
    # one polynomial around the pair: the merge loses nothing
    f = PiecewisePoly([0, 1e-13, 3.0], [[1, 2], [1, 2], [1, 2], [0]])
    assert abs((f + 0.0).eval(5e-14) - (1 + 1e-13)) <= 1e-15 and abs(f.eval(5e-14) - (1 + 1e-13)) <= 1e-15


# ----------------------------------------------------------------------
# panels: one cutter for every quadrature, with the bits of the four it replaced


def _unique_panels(fs, a, b, nodes, cuts=()):
    """``propagate._panels`` as it cut with ``np.unique``, at the breakpoints
    of fs (a trajectory's inner knots)."""
    ks = np.unique(np.concatenate([np.asarray([a, b, *cuts], dtype=float), *(f.breakpoints for f in fs)]))
    ks = ks[(ks >= a) & (ks <= b)]
    mid = 0.5 * (ks[:-1] + ks[1:])
    half = 0.5 * (ks[1:] - ks[:-1])
    return mid, half, mid[:, None] + half[:, None] * nodes


def _lexsort_panels(lo, hi, bp, first, field_breakpoints):
    """The panel block of ``sample_forms`` as it sorted every member's edges
    itself, verbatim apart from its inputs and return."""
    members = np.arange(len(lo))
    bp_owner = np.repeat(members, np.diff(first) - 1)
    inside = (bp >= lo[bp_owner]) & (bp <= hi[bp_owner])
    fbp = np.unique(np.concatenate(field_breakpoints))
    f_lo = np.searchsorted(fbp, lo, "left")
    f_count = np.maximum(np.searchsorted(fbp, hi, "right") - f_lo, 0)
    f_owner = np.repeat(members, f_count)
    f_at = np.arange(len(f_owner)) + np.repeat(f_lo - (np.cumsum(f_count) - f_count), f_count)
    edges = np.concatenate([lo, hi, bp[inside], fbp[f_at]])
    edge_owner = np.concatenate([members, members, bp_owner[inside], f_owner])
    order = np.lexsort((edges, edge_owner))
    edges, edge_owner = edges[order], edge_owner[order]
    distinct = np.ones(len(edges), dtype=bool)
    distinct[1:] = (edges[1:] != edges[:-1]) | (edge_owner[1:] != edge_owner[:-1])
    edges, edge_owner = edges[distinct], edge_owner[distinct]
    panel = edge_owner[1:] == edge_owner[:-1]
    return edges[:-1][panel], edges[1:][panel], edge_owner[:-1][panel]


def _region_panels(ends, bps):
    """The panels of ``conditions._inv_m_integrals`` as its region arithmetic
    cut them, verbatim apart from its inputs and return."""
    lo, hi = ends[:, 0], ends[:, 1]
    flip = lo > hi
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    first = np.searchsorted(bps, lo, side="right")
    inner = np.where(lo < hi, np.searchsorted(bps, hi, side="left") - first, 0)
    count = np.where(lo == hi, 0, inner + 1)
    tag = np.repeat(np.arange(len(ends)), count)
    j = np.arange(len(tag)) - np.repeat(np.cumsum(count) - count, count)
    k = first[tag] + j
    padded = np.append(bps, 0.0)
    lo, hi = (
        np.where(j == 0, lo[tag], padded[k - 1]),
        np.where(j == inner[tag], hi[tag], padded[k]),
    )
    return lo, hi, tag


def _integrate_cuts(bp, a, b):
    """The cuts of ``PiecewisePoly.integrate`` for a < b, verbatim."""
    cuts = np.concatenate([[a], bp[(bp > a) & (bp < b)], [b]])
    return cuts[:-1], cuts[1:]


# a coarse grid with both zeros, so that edges fall on interval ends, on
# each other and on zeros of either sign
_GRID = np.array([-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0])


def _edges(rng, n):
    return np.where(rng.random(n) < 0.6, rng.choice(_GRID, n), rng.uniform(-2.5, 2.5, n))


def _same_panels(left, right, want_left, want_right):
    """Equal edges, and the bits of every midpoint and half-width.  Where two
    edges are equal zeros of opposite sign, the cutters may keep either, and
    no midpoint or half-width of a nonempty panel depends on which."""
    assert np.array_equal(left, want_left) and np.array_equal(right, want_right)
    assert (0.5 * (left + right)).tobytes() == (0.5 * (want_left + want_right)).tobytes()
    assert (0.5 * (right - left)).tobytes() == (0.5 * (want_right - want_left)).tobytes()


def test_panels_cut_each_interval_at_shared_and_its_own_edges():
    from qschro.coeffs import _panels

    left, right, owner, before = _panels([0.0, 1.0, 5.0, 2.0], [2.0, 3.0, 5.0, 1.0], [1.5, 1.0, 1.5, 9.0],
                                         [0.5, 1.5, 2.5, 4.0, 1.2], [0, 0, 1, 1, 3])
    assert left.tolist() == [0.0, 0.5, 1.0, 1.5, 1.0, 1.5, 2.5]
    assert right.tolist() == [0.5, 1.0, 1.5, 2.0, 1.5, 2.5, 3.0]
    assert owner.tolist() == [0, 0, 0, 0, 1, 1, 1]  # lo == hi and hi < lo: no panel
    assert before.tolist() == [0, 1, 1, 2, 0, 0, 1]  # 4.0 lies outside interval 1
    # the ends are lo and hi themselves; an edge strictly inside keeps its bits
    left, right, _, before = _panels([0.0, -1.0], [1.0, -0.0], [-0.0, 0.5])
    assert [x.hex() for x in left] == ["0x0.0p+0", "0x1.0000000000000p-1", "-0x1.0000000000000p+0"]
    assert [x.hex() for x in right] == ["0x1.0000000000000p-1", "0x1.0000000000000p+0", "-0x0.0p+0"]
    assert not before.any()  # no owned edges
    left, right, _, before = _panels([0.0], [1.0], (), [-0.0, 1.0], [0, 0])
    assert [x.hex() for x in left] == ["0x0.0p+0"] and right.tolist() == [1.0] and before.tolist() == [0]
    left, right, owner, before = _panels([0.0], [1.0])
    assert (left.tolist(), right.tolist(), owner.tolist(), before.tolist()) == ([0.0], [1.0], [0], [0])


def test_panels_have_the_bits_of_the_unique_cutter_of_propagate():
    from types import SimpleNamespace

    from qschro.propagate import _gauss_legendre, _panels, integrate
    from qschro.quasi import QuasiState

    rng = np.random.default_rng(25)
    nodes = _gauss_legendre(3)[0]
    zero = PiecewisePoly.zero()
    field = CoefficientField(PiecewisePoly([0.5], [[0.0], [2.0]]), zero, zero)
    traj = integrate(field, -1.0, QuasiState(-2.0, 1.0, 0.0), 2.0)
    empty = 0
    for case in range(400):
        a, b = _edges(rng, 2)
        fs = [SimpleNamespace(breakpoints=np.sort(_edges(rng, int(rng.integers(0, 12))))) for _ in range(2)]
        if case % 8 == 0:
            fs.append(traj)
        cuts = _edges(rng, int(rng.integers(0, 4)))
        got = _panels(fs, a, b, nodes, cuts)
        want = _unique_panels(fs, a, b, nodes, cuts)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (a, b)
        empty += not len(got[0])
    assert empty > 50  # a == b and b < a among them


def test_panels_have_the_bits_of_the_lexsort_block_of_sample_forms():
    from qschro.coeffs import _panels

    rng = np.random.default_rng(26)
    no_edge_inside = owned_and_shared = no_panel = negative_zero = 0
    for _ in range(300):
        n = int(rng.integers(1, 8))
        lo = _edges(rng, n)
        hi = lo + rng.choice([0.0, 0.5, 1.0, 3.0], n)  # supports: lo <= hi
        counts = rng.integers(0, 5, n)
        bp = _edges(rng, int(counts.sum()))
        first = np.concatenate([[0], np.cumsum(counts + 1)])
        field = [_edges(rng, int(rng.integers(0, 6))) for _ in range(3)]
        bp_owner = np.repeat(np.arange(n), counts)
        left, right, owner, before = _panels(lo, hi, np.concatenate(field), bp, bp_owner)
        want_left, want_right, want_owner = _lexsort_panels(lo, hi, bp, first, field)
        _same_panels(left, right, want_left, want_right)
        assert np.array_equal(owner, want_owner)
        # a member's region at a panel's midpoint: its breakpoints at or below lo
        # (the first nonzero row of a stacked test) and those the cutter passed since
        own = [np.sort(bp[bp_owner == i]) for i in range(n)]
        at_lo = np.array([b.searchsorted(x, "right") for b, x in zip(own, lo)], dtype=int)
        mid = 0.5 * (left + right)
        want_row = [own[i].searchsorted(x, "right") for i, x in zip(owner.tolist(), mid.tolist())]
        assert (at_lo[owner] + before).tolist() == want_row
        no_edge_inside += int(np.sum(np.bincount(owner, minlength=n) == 1))
        owned_and_shared += bool(np.isin(bp, np.concatenate(field)).any())
        no_panel += int(np.sum(np.bincount(owner, minlength=n) == 0))
        negative_zero += bool(np.any(np.signbit(lo) & (lo == 0)) or np.any(np.signbit(bp) & (bp == 0)))
    assert no_edge_inside > 100 and owned_and_shared > 100 and no_panel > 100 and negative_zero > 50


def test_panels_have_the_bits_of_the_region_arithmetic_of_inv_m_integrals():
    from qschro.coeffs import _panels

    rng = np.random.default_rng(27)
    for _ in range(300):
        ends = _edges(rng, 2 * int(rng.integers(1, 8))).reshape(-1, 2)
        bps = np.unique(_edges(rng, int(rng.integers(0, 12))))
        lo, hi = ends[:, 0], ends[:, 1]
        flip = lo > hi
        got = _panels(np.where(flip, hi, lo), np.where(flip, lo, hi), bps)
        want = _region_panels(ends, bps)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (ends.tolist(), bps.tolist())


def test_panels_have_the_bits_of_the_cuts_of_integrate():
    from qschro.coeffs import _panels

    rng = np.random.default_rng(28)
    for _ in range(400):
        a, b = _edges(rng, 2)
        bp = np.unique(_edges(rng, int(rng.integers(0, 12))))
        left, right, owner, before = _panels([a], [b], bp)
        if a < b:
            want_left, want_right = _integrate_cuts(bp, a, b)
            assert left.tobytes() == want_left.tobytes() and right.tobytes() == want_right.tobytes()
            assert not owner.any() and not before.any()
        else:  # integrate returns before it cuts
            assert len(left) == len(right) == len(owner) == 0
