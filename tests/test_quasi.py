"""System entries, quasi-derivatives, expression application, product rule."""

import numpy as np
import pytest

from qschro import coeffs, propagate
from qschro.coeffs import (
    CoefficientField,
    PiecewisePoly,
    _canonical_centers,
    _dense,
    _shift_rows,
    _stack,
    aligned,
    bump,
)
from qschro.conditions import verify_caccioppoli
from qschro.config import JUMP_TOL
from qschro.errors import DiscontinuousQuasiDerivativeError
from qschro.propagate import integrate
from qschro.quasi import (
    QuasiState,
    apply_l_atoms,
    _stack_jumps,
    product_rule_check,
)

RNG = np.random.default_rng(7)
# each expression of a field: its own, and the Lagrange adjoint's of the conjugate field
EXPRESSIONS = pytest.mark.parametrize("expr", [lambda c: c, lambda c: c.adjoint], ids=["direct", "adjoint"])


def _trim(row: np.ndarray) -> np.ndarray:
    """One coefficient row without its trailing zeros, keeping at least one."""
    nz = row.nonzero()[0]
    return row[: nz[-1] + 1 if len(nz) else 1]
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


def a21(c, lam):
    """Entry (2, 1) of the Shin-Zettl matrix of the field c at lambda."""
    return c.entries[1] - complex(lam)


def test_assemble_free():
    c = CoefficientField.free()
    a11, _, a22 = c.entries
    for x in (-1.0, 0.5):
        assert a11.eval(x) == 0
        assert a21(c, 0.0).eval(x) == 0
        assert a22.eval(x) == 0


def test_assemble_shift_only():
    c = CoefficientField.free()
    assert a21(c, -1.0).eval(0.7) == pytest.approx(1.0)
    assert c.entries[0].eval(0.7) == 0


def test_assemble_delta_well_entries():
    c = CoefficientField.delta_well(-2.0)
    a11, _, a22 = c.entries
    assert a11.eval(1.0) == pytest.approx(-2.0)
    assert a21(c, 0.0).eval(1.0) == pytest.approx(-4.0)  # -G1*G2 = -4 H
    assert a22.eval(1.0) == pytest.approx(2.0)
    assert a11.eval(-1.0) == 0
    assert a21(c, 0.0).eval(-1.0) == 0


@EXPRESSIONS
def test_assemble_refuses_entries_past_the_float_range(expr):
    # Q = 1e200 x: G1 = G2 = 1e200 x are finite, a21 = s - G1 G2 is not,
    # on the field and on its conjugate
    z = PiecewisePoly.zero()
    steep = CoefficientField(z, PiecewisePoly([], [[0.0, 1e200]]), z)
    with pytest.raises(ValueError, match="^entry a21 = s - G1 G2 has coefficients outside"):
        expr(steep).entries
    # G1 = Q + i r = 2e308 past the float range, G2 = 0; the conjugate
    # field's G2 = conj G1 overflows.  s = 1e300 x alone stays finite
    wide = CoefficientField(z, PiecewisePoly([], [[1e308]]), PiecewisePoly([], [[-1e308j]]))
    entry = "G1 = Q [+] i r" if expr(wide) is wide else "G2 = Q - i r"
    with pytest.raises(ValueError, match=f"^entry {entry} has coefficients outside"):
        expr(wide).entries
    expr(CoefficientField(PiecewisePoly([], [[0.0, 1e300]]), z, z)).entries


def test_the_adjoint_side_is_the_direct_side_of_the_conjugate_field():
    # one set of entries and one plan dict per field: the adjoint's are the
    # conjugate field's, built once, and a walk of it reads nothing of c
    for c in (random_field(RNG), CoefficientField.delta_well(-2.0)):
        conj = c.adjoint
        assert c.adjoint is conj
        for f, g in zip((conj.s, conj.Q, conj.r), (c.s.conj(), c.Q.conj(), c.r.conj())):
            assert _poly_bits(f) == _poly_bits(g)
        for lam in (0.0, 1.5 - 0.5j):
            t = integrate(conj, lam, QuasiState(-1.0, 1.0, 0.0), 1.0)
            assert t.field is conj and t.lam == lam and type(t.lam) is complex
        assert len(conj.plans) == 1 and "entries" not in c.__dict__ and "plans" not in c.__dict__


@pytest.mark.parametrize("c", [
    CoefficientField.delta_well(-2.0),
    CoefficientField(PiecewisePoly.from_coeffs([0.0, 1j]), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0.3, 0.2j])),
], ids=["delta-well", "complex"])
def test_the_adjoint_of_the_adjoint_is_the_field(c):
    # l++ = l: the chain of adjoints is two fields, each with its own
    # entries and plans, not a new field at every step
    conj = c.adjoint
    assert conj is not c and conj.adjoint is c and c.adjoint.adjoint.adjoint is conj
    integrate(conj.adjoint, -1.0, QuasiState(-1.0, 1.0, 0.0), 1.0)
    assert len(c.plans) == 1 and "plans" not in conj.__dict__


def test_adjoint_entries_are_conjugate_swapped_direct():
    # the adjoint field shoots, with and without D', and walks with dense
    # output to the bits of a conjugate field built anew, with entries and
    # plans of its own
    rng = np.random.default_rng(17)
    for c in (random_field(rng), random_field(rng), CoefficientField.delta_well(-2.0, 0.3)):
        twin = CoefficientField(c.s.conj(), c.Q.conj(), c.r.conj())
        assert c.adjoint.plans is not twin.plans
        for lam in (0.0, -1.0, 2.0 + 1.0j):
            for derivative in (False, True):
                ends = [propagate._walk(propagate._plan(f, -2.0, 2.0), complex(lam),
                                        (1.0, 0.2 + 0.1j, 0.0), derivative=derivative) for f in (c.adjoint, twin)]
                assert _bits(*ends[0][0], *ends[0][1:]) == _bits(*ends[1][0], *ends[1][1:])
            got = integrate(c.adjoint, lam, QuasiState(-2.0, 1.0, 0.2 + 0.1j), 2.0)
            want = integrate(twin, lam, QuasiState(-2.0, 1.0, 0.2 + 0.1j), 2.0)
            assert got.steps.tobytes() == want.steps.tobytes() and len(got.steps) > 1


def test_real_field_self_adjoint_system():
    for _ in range(3):
        c = random_field(RNG, real=True)
        (d11, _, d22), (a11, _, a22) = c.entries, c.adjoint.entries
        d21, a21_ = a21(c, 0.5), a21(c.adjoint, 0.5)
        for x in RNG.uniform(-4, 4, 50):
            x = float(x)
            assert abs(d11.eval(x) - a11.eval(x)) <= 1e-12 * (1 + abs(d11.eval(x)))
            assert abs(d21.eval(x) - a21_.eval(x)) <= 1e-12 * (1 + abs(d21.eval(x)))
            assert abs(d22.eval(x) - a22.eval(x)) <= 1e-12 * (1 + abs(d22.eval(x)))


def quasi_ladder(c, u, x):
    """(u(x), u^[1](x), u^[2](x)) with u^[1] = u' - G1 u and u^[2] = -l[u],
    l the expression of c, for u whose first quasi-derivative does not jump
    at x."""
    lu, atoms = apply_l_atoms(c, u, (x, x))
    assert atoms == {}
    u1 = u.derivative() - c.G1 * u
    return u.eval(x, "right"), u1.eval(x, "right"), -lu.eval(x, "right")


def test_quasi_ladder_free_linear():
    y0, y1, y2 = quasi_ladder(CoefficientField.free(), PiecewisePoly.from_coeffs([0, 1]), 2.0)
    assert (y0, y1, y2) == (2.0, 1.0, 0.0)


def test_quasi_ladder_constant_r():
    c = const_field(r=1.0)
    y0, y1, _ = quasi_ladder(c, PiecewisePoly.from_coeffs([0, 1]), 2.0)
    assert y0 == pytest.approx(2.0)
    assert y1 == pytest.approx(1.0 - 2.0j)  # u' - i*x at 2


def test_quasi_ladder_delta_well_bound_state():
    # e^{-|x|}: u' jumps by -2*u(0) at 0 but u^[1] stays continuous
    c = CoefficientField.delta_well(-2.0)
    u = KINK
    y0, y1, y2 = quasi_ladder(c, u, 0.0)
    assert y0 == pytest.approx(1.0, abs=1e-10)
    assert y1 == pytest.approx(1.0, abs=1e-8)
    du = u.derivative()
    jump = du.eval(0, "right") - du.eval(0, "left")
    assert jump == pytest.approx(-2.0 * y0, abs=1e-9)
    # l[u] = -u^[2] = -u for the bound state at lambda=-1
    assert -y2 == pytest.approx(-y0, abs=1e-8)


def test_apply_l_free_quadratic():
    out, atoms = apply_l_atoms(CoefficientField.free(), PiecewisePoly.from_coeffs([0, 0, 1]), (-1, 1))
    assert atoms == {}
    for x in (-0.5, 0.0, 0.9):
        assert out.eval(x) == pytest.approx(-2.0)


def test_apply_l_potential_only():
    c = const_field(s=1.0)
    out, atoms = apply_l_atoms(c, PiecewisePoly.constant(1.0), (-1, 1))
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
    out, atoms = apply_l_atoms(c, u, (-2, 2))
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
    _, atoms = apply_l_atoms(c, u, (-2, 2))
    assert set(atoms) == {0.0}
    assert atoms[0.0] == pytest.approx(-2.0 * u.eval(0.0))


def test_apply_l_atoms_refuses_a_jump_of_u():
    # a jump of u itself is no atom: u is not in the domain there
    u = PiecewisePoly.step(0.5, left=1.0, right=3.0)
    with pytest.raises(DiscontinuousQuasiDerivativeError) as err:
        apply_l_atoms(CoefficientField.free(), u, (-1, 1))
    assert (err.value.location, err.value.left, err.value.right) == (0.5, 1.0, 3.0)
    assert apply_l_atoms(CoefficientField.free(), u, (-1, 0.25))[1] == {}


def test_product_rule_free_bump():
    phi = bump(0.0, 1.0, 1.0)
    res = product_rule_check(CoefficientField.free(), phi, phi, (-3, 3))[0]
    assert res <= 1e-9


def test_product_rule_delta_well_proxy():
    c = CoefficientField.delta_well(-2.0)
    u = KINK
    phi = bump(0.0, 1.0, 0.4)
    assert product_rule_check(c, phi, u, (-1, 1))[0] <= 1e-9


def test_product_rule_adjoint_side():
    c = CoefficientField.delta_well(-2.0)
    u = KINK
    phi = bump(0.0, 1.0, 0.4)
    assert product_rule_check(c, phi, u, (-1, 1))[1] <= 1e-9


def test_product_rule_random_fields_both_sides():
    for _ in range(6):
        c = random_field(RNG)
        u = PiecewisePoly.from_coeffs(RNG.standard_normal(3) + 1j * RNG.standard_normal(3))
        phi = bump(float(RNG.uniform(-1, 1)), float(RNG.uniform(0.5, 1.5)), float(RNG.uniform(0.3, 1.0)))
        assert max(product_rule_check(c, phi, u, (-5, 5))) <= 1e-9


def growing_fit(expr):
    """The field expr(c) of -u'' + 6u and the re-fitted solution of its
    expression on [-5, 5]: it grows like e^{2.45 x}."""
    c = expr(CoefficientField(PiecewisePoly.constant(6), PiecewisePoly.zero(), PiecewisePoly.zero()))
    u = integrate(c, 0, QuasiState(-5, 1, 0.1), 5).to_piecewise(-5, 5)
    return c, u


@EXPRESSIONS
@pytest.mark.parametrize("n", [3, 4])
def test_cutoff_zero_times_large_solution_has_no_atom(expr, n):
    # phi*u jumps in u^[1] at the end of phi's support (x = n + 1) only by
    # rounding of phi's zero times a large u; the jump rule of u, scaled by
    # the evaluation magnitude, applies to u^[1] too, so no atom is recorded
    c, u = growing_fit(expr)
    phi = bump(0.0, 2.0 * n, 1.0)
    _, atoms = apply_l_atoms(c, phi * u, (-5, 5))
    assert atoms == {}
    assert product_rule_check(c, phi, u, (-5, 5))[0] <= 1e-9


@EXPRESSIONS
def test_quasi_ladder_at_the_end_of_a_cutoff_support(expr):
    c, u = growing_fit(expr)
    phi = bump(0.0, 2.0 * 4, 1.0)  # support [-5, 5]
    assert quasi_ladder(c, phi * u, 5.0) == (0, 0, 0)


def _bits(*values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def _shot_end(c, lam, start, to):
    """(y0, y1, logscale, log sup) at ``to`` of the walk of the plan of the
    field c at lambda from ``start`` without dense output, as a shot takes it."""
    plan = propagate._plan(c, start.x, to)
    (y0, y1), ls, sup = propagate._walk(plan, complex(lam), (start.y0, start.y1, start.logscale))
    return y0, y1, ls, sup


def region_rows(fs, breakpoints) -> tuple:
    """Reference rows: per region between the breakpoints (both tails
    included) and per f, the (center, trimmed local coefficients as Python
    complex) of f's piece at the region's midpoint, or at -inf and +inf."""
    bp = np.asarray(breakpoints, dtype=float)
    reps = np.concatenate([[-np.inf], 0.5 * bp[:-1] + 0.5 * bp[1:], [np.inf]]) if len(bp) else np.zeros(1)
    per_f = []
    for f in fs:
        i = f._region(reps, "right")
        per_f.append([(c, tuple(map(complex, _trim(row)))) for c, row in zip(f.centers[i].tolist(), f.coeffs[i])])
    return tuple(zip(*per_f))


def operator_entries(c) -> tuple:
    """Reference entries (a11, a21_0, a22) of a field by the PiecewisePoly
    operators."""
    G1, G2 = c.Q + 1j * c.r, c.Q - 1j * c.r
    return G1, -(G1 * G2) + c.s, -G2


def _poly_bits(f) -> tuple:
    return f.breakpoints.tobytes(), f.centers.tobytes(), f.coeffs.shape, f.coeffs.tobytes()


def _rows_bits(plan, want) -> tuple:
    """Every center and coefficient of a plan's rows and of the reference
    rows ``want`` (Python complex), bit for bit.  A plan holds one row set:
    when no coefficient of ``want`` has an imaginary part it is real and
    holds floats, compared with the real parts of ``want``; else it holds
    the complex rows themselves."""
    rows, real = plan
    assert real is (not any(z.imag for region in want for _, p in region for z in p))
    kind = float if real else complex
    assert all(type(z) is kind for region in rows for _, p in region for z in p)
    if real:
        want = [[(c, tuple(z.real for z in p)) for c, p in region] for region in want]
    return tuple(np.array([z for region in r for c, p in region for z in (c, *p)], dtype=kind).tobytes()
                 for r in (rows, want))


def plan_rows(c) -> tuple:
    """The rows of each segment of a plan of the field c over every
    region of it, in order, and whether the plan is real."""
    bp = c.breakpoints
    ends = (float(bp[0]) - 1.0, float(bp[-1]) + 1.0) if len(bp) else (-1.0, 1.0)
    segments, _, _, real = propagate._build_plan(c, *ends)
    assert len(segments) == len(bp) + 1
    return [rows for _, _, rows, _ in segments], real


def reference_echo(f, pieces) -> dict:
    """The echo of one function: its breakpoints, the pieces it was built
    from without their trailing zeros, and ``jumps``."""
    return {
        "breakpoints": [float(b) for b in f.breakpoints],
        "pieces": [[[float(v.real), float(v.imag)] for v in _trim(np.asarray(p))] for p in pieces],
        "jumps": [[float(b), [float(h.real), float(h.imag)]] for b, h in sorted(f.jumps.items())],
    }


def _field_with_breakpoints(rng, s_bp, Q_bp, r_bp) -> tuple:
    """Complex pieces of degree 0 to 3, some of them holding zeros of either
    sign: (the field, {name: (breakpoints, pieces)})."""
    def pieces(bps):
        out = []
        for _ in range(len(bps) + 1):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c[rng.integers(0, 4)] = complex(-0.0, 0.0) if rng.random() < 0.5 else complex(0.0, -0.0)
            out.append(c[: rng.integers(1, 5)])
        return bps, out
    data = dict(zip("sQr", map(pieces, (s_bp, Q_bp, r_bp))))
    return CoefficientField(*(PiecewisePoly(*d) for d in data.values())), data


ONE_PASS_FIELDS = {
    "s-only": ([-1.0, 0.5], [], []),
    "Q-only": ([], [-0.25, 1.5], []),
    "r-only": ([], [], [0.75]),
    "distinct": ([-2.0, 1.0], [-0.5], [0.25, 2.5]),
    # within the merge tolerance of each other: which point a merge keeps
    # depends on the order of the merges
    "close-pair": ([1.0], [0.5, 1.0 + 0.9e-12], [0.5 + 4e-13, 1.0 + 1.8e-12]),
    "minus-zero": ([0.0], [-0.0, 1.0], [-0.0]),
    "minus-zero-first": ([-0.0], [0.0], [0.0, 2.0]),
    "minus-zero-Q-zero-r": ([], [-0.0], [0.0]),
}


@pytest.mark.parametrize("case", list(ONE_PASS_FIELDS))
def test_one_pass_entries_rows_and_echo_have_the_bits_of_the_operators(case):
    # reference: the PiecewisePoly operators, region_rows on their entries
    # for the rows of each field's plans, and for the echo the pieces as read
    # and jumps, as in test_lambda_as_a_scalar_shoots_the_bits_of_the_full_entry
    import json

    from qschro.cli import _functions, normalize_problem

    rng = np.random.default_rng(list(ONE_PASS_FIELDS).index(case))
    for _ in range(4):
        c, data = _field_with_breakpoints(rng, *ONE_PASS_FIELDS[case])
        assert _poly_bits(c.G1) == _poly_bits(c.Q + 1j * c.r)
        assert _poly_bits(c.G2) == _poly_bits(c.Q - 1j * c.r)
        for f in (c, c.adjoint):
            want = operator_entries(f)
            for got, ref in zip(f.entries, want):
                assert _poly_bits(got) == _poly_bits(ref)
            got, ref = _rows_bits(plan_rows(f), region_rows(want, c.breakpoints))
            assert got == ref
        spec = {k: {"breakpoints": list(bps), "pieces": [[[v.real, v.imag] for v in p] for p in ps]}
                for k, (bps, ps) in data.items()}
        functions, _ = _functions(json.loads(json.dumps(spec)), "coefficients")
        for (f, _), g in zip(functions.values(), (c.s, c.Q, c.r)):
            assert _poly_bits(f) == _poly_bits(g)
        ref = {k: reference_echo(f, data[k][1]) for k, f in zip("sQr", (c.s, c.Q, c.r))}
        got = normalize_problem({"task": "eig", "coefficients": spec}, functions)["coefficients"]
        assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)


def test_the_list_constructor_has_the_bits_of_the_array_shift():
    # pieces re-centred by _shift_rows on the canonical centers, zero-padded
    # to the widest trimmed piece, as the constructor built them before
    rng = np.random.default_rng(11)
    for _ in range(40):
        bps = np.sort(rng.uniform(-5, 5, rng.integers(0, 4)))
        pieces = [complex(1, 0) * a + 1j * b for a, b in
                  (rng.standard_normal((2, rng.integers(1, 6))) for _ in range(len(bps) + 1))]
        for p in pieces:  # zeros of either sign below the top coefficient
            p[: rng.integers(0, len(p))] = complex(-0.0, -0.0) if rng.random() < 0.5 else complex(0.0, -0.0)
        rows = [_trim(np.asarray(p, dtype=complex)) for p in pieces]
        glob = np.zeros((len(rows), max(map(len, rows))), dtype=complex)
        for i, row in enumerate(rows):
            glob[i, :len(row)] = row
        want = _shift_rows(glob, _canonical_centers(bps))
        f = PiecewisePoly(bps, pieces)
        assert f.coeffs.tobytes() == want.tobytes() and f.coeffs.shape == want.shape
        assert f.centers.tobytes() == _canonical_centers(bps).tobytes()


def test_each_side_of_the_free_field_creates_only_its_entries(monkeypatch):
    # the field makes G1, G2, a21_0 and a22 (a11 is G1); its adjoint the
    # conjugate field's s, Q and r and its own four; no intermediate
    # function is built
    made = []
    new, init = coeffs._poly, PiecewisePoly.__init__

    def counted_poly(*args):
        made.append(new(*args))
        return made[-1]

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    c = CoefficientField.free()
    monkeypatch.setattr(coeffs, "_poly", counted_poly)
    monkeypatch.setattr(PiecewisePoly, "__init__", counted_init)
    direct = c.entries
    assert [id(f) for f in made] == [id(f) for f in (c.G1, c.G2, *direct[1:])]
    assert direct[0] is c.G1
    del made[:]
    conj = c.adjoint
    adjoint = conj.entries
    assert [id(f) for f in made] == [id(f) for f in (conj.s, conj.Q, conj.r, conj.G1, conj.G2, *adjoint[1:])]
    assert adjoint[0] is conj.G1


def with_entries(c, entries):
    """A field of c's data whose entries are ``entries``, with plans of its own."""
    fake = CoefficientField(c.s, c.Q, c.r)
    fake.__dict__["entries"] = entries
    return fake


@EXPRESSIONS
def test_lambda_as_a_scalar_shoots_the_bits_of_the_full_entry(expr):
    # reference: a field at lambda = 0 whose lambda-free entry (2,1) is
    # the whole polynomial -g1*g2 + s - lambda; random fields take Taylor
    # steps, the delta well the exact exponentials
    rng = np.random.default_rng(5)
    fields = [random_field(rng), random_field(rng), CoefficientField.delta_well(-2.0)]
    for c in fields:
        f = expr(c)
        if f is c:
            g1, g2, s = c.G1, c.G2, c.s
        else:
            g1, g2, s = c.G2.conj(), c.G1.conj(), c.s.conj()
        y0 = QuasiState(-2.0, 1.0, 0.2 + 0.1j)
        for lam in (0, -1, 2 + 1j, 400):
            entries = (g1, -(g1 * g2) + s - complex(lam), -g2)
            ref = with_entries(f, entries)
            got, want = _rows_bits(plan_rows(ref), region_rows(entries, c.breakpoints))
            assert got == want
            assert _bits(*_shot_end(f, lam, y0, 2.0)) == _bits(*_shot_end(ref, 0j, y0, 2.0))
            assert integrate(f, lam, y0, 2.0).steps.tobytes() == integrate(ref, 0j, y0, 2.0).steps.tobytes()


def _jumps(f: PiecewisePoly, window) -> dict:
    """The jump rule on one function."""
    return _stack_jumps(_stack([f]), window)[0]


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
        for f in (c, c.adjoint):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            u = integrate(f, lam, QuasiState(-5.0, 1.0, 0.4 + 0.2j), 5.0)
            u = u.to_piecewise(-5, 5)
            yield u
            yield u.derivative() - f.G1 * u
    delta = CoefficientField.delta_well(-2.0, 0.3)
    for f in (delta, delta.adjoint):
        u = bump(0.1, 0.5, 0.6) * PiecewisePoly.from_coeffs([1e6, 2e5j, -3e4])
        yield u
        yield u.derivative() - f.G1 * u
    for _ in range(20):
        bps = np.sort(rng.uniform(-4, 4, 4))
        size = 10.0 ** rng.uniform(-4, 8)
        smooth = PiecewisePoly.from_coeffs(size * rng.standard_normal(5))
        heights = max(size, 1.0) * 10.0 ** rng.uniform(-10, -2, len(bps)) * rng.standard_normal(len(bps))
        steps = sum(PiecewisePoly.step(x, 0.0, h) for x, h in zip(bps, heights))
        yield aligned([smooth + steps], np.sort(rng.uniform(-4, 4, 2)))[0]


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
        u = integrate(c, lam, QuasiState(-5.0, 0.3, 1.0), 5.0).to_piecewise(-5, 5)
        assert u.degree >= 7
        widths.clear()
        res = product_rule_check(c, phi, u, (-5, 5))
        assert len(widths) <= 1
        assert len(res) == 2 and max(res) <= 1e-9


def test_caccioppoli_recentres_the_refit_once(monkeypatch):
    # v, phi and r1 go onto one mesh with the field's breakpoints, so |v|^2
    # (twice v's degree) is never re-centred
    rng = np.random.default_rng(19)
    widths = wide_recentrings(monkeypatch)
    for _ in range(3):
        c = corpus_field(rng)
        v = integrate(c.adjoint, 0.0, QuasiState(-5.0, 1.0, 0.1), 5.0)
        widths.clear()
        assert verify_caccioppoli(c, v, bump(0.0, 2.0 * 3, 1.0)) <= 1e-7
        assert len(widths) <= 1


def test_product_rule_check_screens_u_and_phi_u_for_jumps_once(monkeypatch):
    # u and phi*u do not depend on the field: both are screened for jumps in
    # one pass, then each application scans its own u^[1] for atoms: phi*u
    # and u, of c and then of c.adjoint
    from qschro import quasi

    screened = []
    jumps = quasi._stack_jumps

    def counted(stack, window):
        screened.append(len(stack[3]) - 1)
        return jumps(stack, window)

    monkeypatch.setattr(quasi, "_stack_jumps", counted)
    c = CoefficientField.delta_well(-2.0)
    phi = bump(0.0, 1.0, 0.4)
    res = product_rule_check(c, phi, KINK, (-1, 1))
    assert max(res) <= 1e-9
    assert screened == [2, 1, 1, 1, 1]
    # phi*u is screened first, as apply_l_atoms of c does: a
    # jump of u on phi's ramp is refused with the values of phi*u
    u = PiecewisePoly.step(0.7, left=1.0, right=3.0)
    p = phi.eval(0.7)
    assert 0 < p < 1
    screened.clear()
    with pytest.raises(DiscontinuousQuasiDerivativeError) as err:
        product_rule_check(c, phi, u, (-1, 1))
    e = err.value
    assert e.location == 0.7 and abs(e.left - p) <= 1e-14 and abs(e.right - 3 * p) <= 1e-14
    assert len(screened) == 1


def test_the_apply_pass_returns_the_atoms_of_a_scan_of_u1():
    # apply_l_atoms scans u^[1] = f' - a11 f for jumps itself: its atoms are
    # the jump rule's heights on u^[1], formed by the PiecewisePoly
    # operators, negated, with their bits
    from qschro.quasi import _on_field_mesh

    rng = np.random.default_rng(44)
    window = (-4.0, 4.0)
    seen = 0
    for c in (CoefficientField.delta_well(-2.0), corpus_field(rng)):
        fs = [bump(0.0, 2.0, 0.5), bump(-1.0, 3.0, 1.5), KINK * bump(0.0, 1.0, 0.5)]
        for e in (c, c.adjoint):
            atoms = [apply_l_atoms(e, f, window)[1] for f in fs]
            u1 = []
            for f in fs:
                (a11, _, _), v, dv = _on_field_mesh(e, f)
                u1.append(dv - a11 * v)
            want = [{x: -h for x, h in jumps.items()} for jumps in _stack_jumps(_stack(u1), window)]
            assert atoms == want
            assert [_jumps(f, window) for f in u1] == [{x: -h for x, h in a.items()} for a in atoms]
            seen += sum(map(len, atoms))
    assert seen >= 8
