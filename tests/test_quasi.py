"""System assembly, quasi-derivatives, expression application, product rule."""

import numpy as np
import pytest

from qschro import coeffs
from qschro.coeffs import (
    CoefficientField,
    PiecewisePoly,
    _canonical_centers,
    _dense,
    _trim,
    bump,
    region_pieces,
)
from qschro.conditions import verify_caccioppoli
from qschro.config import JUMP_TOL
from qschro.errors import DiscontinuousQuasiDerivativeError
from qschro.propagate import endpoint, integrate
from qschro.quasi import (
    ADJOINT,
    DIRECT,
    QuasiState,
    ShinZettlSystem,
    apply_l_atoms,
    assemble,
    _jumps,
    product_rule_check,
)

RNG = np.random.default_rng(7)
# e^{-|x|} to third order on each side: u(0) = 1 and u'(0+-) = -+1, so
# u' jumps by -2 u(0), the jump rule of the delta well of strength -2
KINK = PiecewisePoly([0.0], [[1.0, 1.0, 0.5, 1 / 6], [1.0, -1.0, 0.5, -1 / 6]])


def const_field(s=0.0, Q=0.0, r=0.0):
    return CoefficientField(
        PiecewisePoly.constant(s), PiecewisePoly.constant(Q), PiecewisePoly.constant(r)
    )


def random_field(rng, real=False):
    def poly(deg, jumpy):
        nbp = rng.integers(0, 3) if jumpy else 0
        bps = np.sort(rng.uniform(-3, 3, nbp))
        while len(bps) > 1 and np.min(np.diff(bps)) < 0.1:
            bps = np.sort(rng.uniform(-3, 3, nbp))
        pieces = []
        for _ in range(nbp + 1):
            c = rng.standard_normal(deg + 1)
            if not real:
                c = c + 1j * rng.standard_normal(deg + 1)
            pieces.append(c)
        return PiecewisePoly(bps, pieces)

    return CoefficientField(poly(1, False), poly(2, True), poly(1, True))


def test_assemble_free():
    A = assemble(CoefficientField.free(), DIRECT, 0.0)
    for x in (-1.0, 0.5):
        assert A.a11.eval(x) == 0
        assert A.a21.eval(x) == 0
        assert A.a22.eval(x) == 0
        assert A.a12.eval(x) == 1


def test_assemble_shift_only():
    A = assemble(CoefficientField.free(), DIRECT, -1.0)
    assert A.a21.eval(0.7) == pytest.approx(1.0)
    assert A.a11.eval(0.7) == 0


def test_assemble_delta_well_entries():
    A = assemble(CoefficientField.delta_well(-2.0), DIRECT, 0.0)
    assert A.a11.eval(1.0) == pytest.approx(-2.0)
    assert A.a21.eval(1.0) == pytest.approx(-4.0)  # -G1*G2 = -4 H
    assert A.a22.eval(1.0) == pytest.approx(2.0)
    assert A.a11.eval(-1.0) == 0
    assert A.a21.eval(-1.0) == 0


def test_adjoint_entries_are_conjugate_swapped_direct():
    for _ in range(5):
        c = random_field(RNG)
        lam = complex(RNG.standard_normal(), RNG.standard_normal())
        adj = assemble(c, ADJOINT, lam)
        swapped = assemble(c.conjugated(), DIRECT, lam)
        xs = RNG.uniform(-4, 4, 100)
        for x in xs:
            x = float(x)
            for e in ("a11", "a21", "a22"):
                va = getattr(adj, e).eval(x)
                vs = getattr(swapped, e).eval(x)
                assert abs(va - vs) <= 1e-12 * (1 + abs(va))


def test_real_field_self_adjoint_system():
    for _ in range(3):
        c = random_field(RNG, real=True)
        d = assemble(c, DIRECT, 0.5)
        a = assemble(c, ADJOINT, 0.5)
        for x in RNG.uniform(-4, 4, 50):
            x = float(x)
            assert abs(d.a11.eval(x) - a.a11.eval(x)) <= 1e-12 * (1 + abs(d.a11.eval(x)))
            assert abs(d.a21.eval(x) - a.a21.eval(x)) <= 1e-12 * (1 + abs(d.a21.eval(x)))
            assert abs(d.a22.eval(x) - a.a22.eval(x)) <= 1e-12 * (1 + abs(d.a22.eval(x)))


def quasi_ladder(c, side, u, x):
    """(u(x), u^[1](x), u^[2](x)) with u^[1] = u' - a11 u and u^[2] = -l[u],
    for u whose first quasi-derivative does not jump at x."""
    lu, atoms = apply_l_atoms(c, side, u, (x, x))
    assert atoms == {}
    u1 = u.derivative() - assemble(c, side).a11 * u
    return u.eval(x, "right"), u1.eval(x, "right"), -lu.eval(x, "right")


def test_quasi_ladder_free_linear():
    y0, y1, y2 = quasi_ladder(CoefficientField.free(), DIRECT, PiecewisePoly.identity(), 2.0)
    assert (y0, y1, y2) == (2.0, 1.0, 0.0)


def test_quasi_ladder_constant_r():
    c = const_field(r=1.0)
    y0, y1, _ = quasi_ladder(c, DIRECT, PiecewisePoly.identity(), 2.0)
    assert y0 == pytest.approx(2.0)
    assert y1 == pytest.approx(1.0 - 2.0j)  # u' - i*x at 2


def test_quasi_ladder_delta_well_bound_state():
    # e^{-|x|}: u' jumps by -2*u(0) at 0 but u^[1] stays continuous
    c = CoefficientField.delta_well(-2.0)
    u = KINK
    y0, y1, y2 = quasi_ladder(c, DIRECT, u, 0.0)
    assert y0 == pytest.approx(1.0, abs=1e-10)
    assert y1 == pytest.approx(1.0, abs=1e-8)
    du = u.derivative()
    jump = du.eval(0, "right") - du.eval(0, "left")
    assert jump == pytest.approx(-2.0 * y0, abs=1e-9)
    # l[u] = -u^[2] = -u for the bound state at lambda=-1
    assert -y2 == pytest.approx(-y0, abs=1e-8)


def test_apply_l_free_quadratic():
    out, atoms = apply_l_atoms(CoefficientField.free(), DIRECT, PiecewisePoly.from_coeffs([0, 0, 1]), (-1, 1))
    assert atoms == {}
    for x in (-0.5, 0.0, 0.9):
        assert out.eval(x) == pytest.approx(-2.0)


def test_apply_l_potential_only():
    c = const_field(s=1.0)
    out, atoms = apply_l_atoms(c, DIRECT, PiecewisePoly.constant(1.0), (-1, 1))
    assert atoms == {}
    assert out.eval(0.2) == pytest.approx(1.0)


def test_apply_l_matches_classical_fd_smooth_coefficients():
    # smooth polynomial field (no jumps): classical formula via finite
    # differences, -u'' + (s+Q')u + i[(ru)' + ru'], step 1e-4
    s = PiecewisePoly.from_coeffs([1.0, 0.5])
    Q = PiecewisePoly.from_coeffs([0.0, 0.0, 0.2])
    r = PiecewisePoly.from_coeffs([0.0, -0.3 + 0.2j])
    c = CoefficientField(s, Q, r)
    u = PiecewisePoly.from_coeffs([1.0, 1.0, 0.5, -0.25])
    out, atoms = apply_l_atoms(c, DIRECT, u, (-2, 2))
    assert atoms == {}
    h = 1e-4
    q = s + Q.derivative()
    for x in np.linspace(-1.5, 1.5, 11):
        x = float(x)
        upp = (u.eval(x + h) - 2 * u.eval(x) + u.eval(x - h)) / h**2
        up = (u.eval(x + h) - u.eval(x - h)) / (2 * h)
        ru = r * u
        rup = (ru.eval(x + h) - ru.eval(x - h)) / (2 * h)
        classical = -upp + q.eval(x) * u.eval(x) + 1j * (rup + r.eval(x) * up)
        assert abs(out.eval(x) - classical) <= 1e-6 * (1 + abs(classical))


def test_apply_l_atoms_delta_well_bump():
    # bump with u(0) != 0: the expression carries the atom c*u(0)*delta_0
    c = CoefficientField.delta_well(-2.0)
    u = bump(0.0, 1.0, 1.0)
    _, atoms = apply_l_atoms(c, DIRECT, u, (-2, 2))
    assert set(atoms) == {0.0}
    assert atoms[0.0] == pytest.approx(-2.0 * u.eval(0.0))


def test_apply_l_atoms_refuses_a_jump_of_u():
    # a jump of u itself is no atom: u is not in the domain there
    u = PiecewisePoly.step(0.5, left=1.0, right=3.0)
    with pytest.raises(DiscontinuousQuasiDerivativeError) as err:
        apply_l_atoms(CoefficientField.free(), DIRECT, u, (-1, 1))
    assert (err.value.location, err.value.left, err.value.right) == (0.5, 1.0, 3.0)
    assert apply_l_atoms(CoefficientField.free(), DIRECT, u, (-1, 0.25))[1] == {}


def test_product_rule_free_bump():
    phi = bump(0.0, 1.0, 1.0)
    res = product_rule_check(CoefficientField.free(), phi, phi, (-3, 3))[DIRECT]
    assert res <= 1e-9


def test_product_rule_delta_well_proxy():
    c = CoefficientField.delta_well(-2.0)
    u = KINK
    phi = bump(0.0, 1.0, 0.4)
    assert product_rule_check(c, phi, u, (-1, 1))[DIRECT] <= 1e-9


def test_product_rule_adjoint_side():
    c = CoefficientField.delta_well(-2.0)
    u = KINK
    phi = bump(0.0, 1.0, 0.4)
    assert product_rule_check(c, phi, u, (-1, 1))[ADJOINT] <= 1e-9


def test_product_rule_random_fields_both_sides():
    for _ in range(6):
        c = random_field(RNG)
        u = PiecewisePoly.from_coeffs(RNG.standard_normal(3) + 1j * RNG.standard_normal(3))
        phi = bump(float(RNG.uniform(-1, 1)), float(RNG.uniform(0.5, 1.5)), float(RNG.uniform(0.3, 1.0)))
        for side in (DIRECT, ADJOINT):
            assert product_rule_check(c, phi, u, (-5, 5))[side] <= 1e-9


def growing_fit(side):
    """Re-fitted solution of -u'' + 6u = 0 on [-5, 5]: it grows like e^{2.45 x}."""
    c = CoefficientField(PiecewisePoly.constant(6), PiecewisePoly.zero(), PiecewisePoly.zero())
    u = integrate(assemble(c, side, 0), QuasiState(-5, 1, 0.1, side), 5).to_piecewise(0, -5, 5)
    return c, u


@pytest.mark.parametrize("side", [DIRECT, ADJOINT])
@pytest.mark.parametrize("n", [3, 4])
def test_cutoff_zero_times_large_solution_has_no_atom(side, n):
    # phi*u jumps in u^[1] at the end of phi's support (x = n + 1) only by
    # rounding of phi's zero times a large u; the jump rule of u, scaled by
    # the evaluation magnitude, applies to u^[1] too, so no atom is recorded
    c, u = growing_fit(side)
    phi = bump(0.0, 2.0 * n, 1.0)
    _, atoms = apply_l_atoms(c, side, phi * u, (-5, 5))
    assert atoms == {}
    assert product_rule_check(c, phi, u, (-5, 5))[side] <= 1e-9


@pytest.mark.parametrize("side", [DIRECT, ADJOINT])
def test_quasi_ladder_at_the_end_of_a_cutoff_support(side):
    c, u = growing_fit(side)
    phi = bump(0.0, 2.0 * 4, 1.0)  # support [-5, 5]
    assert quasi_ladder(c, side, phi * u, 5.0) == (0, 0, 0)


def _bits(*values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


@pytest.mark.parametrize("side", [DIRECT, ADJOINT])
def test_lambda_as_a_scalar_shoots_the_bits_of_the_full_entry(side):
    # reference: a system at lambda = 0 whose lambda-free entry (2,1) is
    # the whole polynomial -g1*g2 + s - lambda; random fields take Taylor
    # steps, the delta well the exact exponentials
    rng = np.random.default_rng(5)
    fields = [random_field(rng), random_field(rng), CoefficientField.delta_well(-2.0)]
    for c in fields:
        if side == DIRECT:
            g1, g2, s = c.G1, c.G2, c.s
        else:
            g1, g2, s = c.G2.conj(), c.G1.conj(), c.s.conj()
        y0 = QuasiState(-2.0, 1.0, 0.2 + 0.1j, side)
        for lam in (0, -1, 2 + 1j, 400):
            sys = assemble(c, side, lam)
            entries = (g1, -(g1 * g2) + s - complex(lam), -g2)
            ref = ShinZettlSystem(c, side, 0j, *entries, region_pieces(entries, c.breakpoints()))
            (end, sup), (end_ref, sup_ref) = endpoint(sys, y0, 2.0), endpoint(ref, y0, 2.0)
            assert _bits(end.y0, end.y1, end.logscale, sup) == _bits(
                end_ref.y0, end_ref.y1, end_ref.logscale, sup_ref)
            assert integrate(sys, y0, 2.0).steps.tobytes() == integrate(ref, y0, 2.0).steps.tobytes()


def reference_jumps(f: PiecewisePoly, window) -> dict:
    """The jump rule one breakpoint at a time: |f(x-)| screens, then the
    rounding scale sum |c_k| |x - center|^k of the two adjacent pieces."""
    def scale(x):
        out = []
        for side in ("left", "right"):
            i = np.searchsorted(f.breakpoints, x, side)
            c = _trim(f.coeffs[i])
            out.append(float(np.sum(np.abs(c) * abs(x - f.centers[i]) ** np.arange(len(c)))))
        return max(out)
    a, b = float(window[0]), float(window[1])
    return {
        x: h for x, h in f.jumps.items()
        if a <= x <= b and abs(h) > JUMP_TOL * (1.0 + abs(f.eval(x, "left")))
        and abs(h) > JUMP_TOL * (1.0 + scale(x))
    }


def corpus_field(rng):
    """A field as acceptance criterion 03 draws them: linear pieces, with
    one or two jumps in Q and in r."""
    def poly(jumpy):
        bps = np.sort(rng.uniform(-4, 4, int(rng.integers(1, 3)) if jumpy else 0))
        return PiecewisePoly(bps, [0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                                   for _ in range(len(bps) + 1)])
    return CoefficientField(poly(False), poly(True), poly(True))


def jump_rule_inputs(rng):
    """Functions the jump rule sees: u and u^[1] of re-fitted solutions on
    criterion-03 fields and of a cut-off bump on the delta well, and random
    continuous polynomials with jumps from rounding level to order one."""
    for _ in range(6):
        c = corpus_field(rng)
        for side in (DIRECT, ADJOINT):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            u = integrate(assemble(c, side, lam), QuasiState(-5.0, 1.0, 0.4 + 0.2j, side), 5.0)
            u = u.to_piecewise(0, -5, 5)
            yield u
            yield u.derivative() - assemble(c, side).a11 * u
    delta = CoefficientField.delta_well(-2.0, 0.3)
    for side in (DIRECT, ADJOINT):
        u = bump(0.1, 0.5, 0.6) * PiecewisePoly.from_coeffs([1e6, 2e5j, -3e4])
        yield u
        yield u.derivative() - assemble(delta, side).a11 * u
    for _ in range(20):
        bps = np.sort(rng.uniform(-4, 4, 4))
        size = 10.0 ** rng.uniform(-4, 8)
        smooth = PiecewisePoly.from_coeffs(size * rng.standard_normal(5))
        heights = max(size, 1.0) * 10.0 ** rng.uniform(-10, -2, len(bps)) * rng.standard_normal(len(bps))
        steps = sum(PiecewisePoly.step(x, 0.0, h) for x, h in zip(bps, heights))
        yield (smooth + steps).with_breakpoints(rng.uniform(-4, 4, 2))


def test_jump_rule_matches_the_rule_one_breakpoint_at_a_time():
    rng = np.random.default_rng(12)
    found = missed = 0
    for f in jump_rule_inputs(rng):
        bp = f.breakpoints
        windows = [(-5.0, 5.0), (-1.0, 1.0)]
        if len(bp):
            windows += [(bp[0], bp[0]), (bp[0], bp[-1])]
        for window in windows:
            got, want = _jumps(f, window), reference_jumps(f, window)
            assert list(got) == list(want)
            assert _bits(*got.values()) == _bits(*want.values())
            found += len(got)
            missed += int(np.sum((bp >= window[0]) & (bp <= window[1]))) - len(got)
    assert found > 50 and missed > 50


def four_call_jumps(f: PiecewisePoly, window) -> dict:
    """The jump rule with one ``_dense`` call per side and quantity."""
    bp = f.breakpoints
    i = np.flatnonzero((bp >= float(window[0])) & (bp <= float(window[1])))
    x = bp[i]
    rows = (i, i + 1)  # the regions left and right of each breakpoint
    left, right = (_dense(f.coeffs[r], x - f.centers[r]) for r in rows)
    scale = np.maximum(*(_dense(np.abs(f.coeffs[r]), np.abs(x - f.centers[r])) for r in rows))
    h = right - left
    keep = np.abs(h) > JUMP_TOL * (1.0 + scale)
    return dict(zip(x[keep].tolist(), h[keep]))


def signed_zero_input() -> PiecewisePoly:
    """Signed zeros in the breakpoints and coefficients, and a zero row."""
    bp = np.array([-1.0, -0.0, 2.0])
    rows = np.array([[-0.0, 1.0, -0.0], [0.0, 0.0, 0.0], [-0.0, -0.0, 3.0], [1e-9, -0.0, 0.0]], dtype=complex)
    rows.imag[[0, 2]] = -0.0
    return PiecewisePoly._from_local(bp, _canonical_centers(bp), rows)


def test_jump_rule_keeps_the_bits_of_one_dense_call_per_side_and_quantity():
    rng = np.random.default_rng(13)
    checked = 0
    for f in [signed_zero_input(), *jump_rule_inputs(rng)]:
        bp = f.breakpoints
        windows = [(-5.0, 5.0), (0.0, 0.0), (5.0, 6.0)]
        if len(bp):
            windows += [(bp[0], bp[0]), (bp[0], bp[-1]), (bp[-1], 5.0), (-0.0, bp[-1])]
        for window in windows:
            got, want = _jumps(f, window), four_call_jumps(f, window)
            assert np.array(list(got)).tobytes() == np.array(list(want)).tobytes()
            assert _bits(*got.values()) == _bits(*want.values())
            checked += len(got)
    assert checked > 100


def wide_recentrings(monkeypatch) -> list:
    """The widths of the coefficient arrays of >= 8 columns whose rows
    ``coeffs._shift_rows`` moves, appended as it moves them."""
    widths = []
    shift = coeffs._shift_rows

    def counting(rows, delta):
        if rows.shape[1] >= 8 and np.any(delta):
            widths.append(rows.shape[1])
        return shift(rows, delta)

    monkeypatch.setattr(coeffs, "_shift_rows", counting)
    return widths


def test_product_rule_check_recentres_the_refit_once_for_both_sides(monkeypatch):
    # u goes onto the union of the meshes of u, phi and the field once; every
    # product of u is formed on that mesh, and only the field's entries
    # (a few columns) are re-centred after it
    rng = np.random.default_rng(17)
    phi = bump(0.0, 2.5, 1.25)
    widths = wide_recentrings(monkeypatch)
    for _ in range(3):
        c = corpus_field(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        u = integrate(assemble(c, DIRECT, lam), QuasiState(-5.0, 0.3, 1.0), 5.0).to_piecewise(0, -5, 5)
        assert u.degree >= 7
        widths.clear()
        res = product_rule_check(c, phi, u, (-5, 5))
        assert len(widths) <= 1
        assert set(res) == {DIRECT, ADJOINT} and max(res.values()) <= 1e-9


def test_caccioppoli_recentres_the_refit_once(monkeypatch):
    # v, phi and r1 go onto one mesh with the field's breakpoints, so |v|^2
    # (twice v's degree) is never re-centred
    rng = np.random.default_rng(19)
    widths = wide_recentrings(monkeypatch)
    for _ in range(3):
        c = corpus_field(rng)
        v = integrate(assemble(c, ADJOINT, 0.0), QuasiState(-5.0, 1.0, 0.1, ADJOINT), 5.0)
        widths.clear()
        assert verify_caccioppoli(c, v, bump(0.0, 2.0 * 3, 1.0)) <= 1e-7
        assert len(widths) <= 1
