"""Brackets, the integral identity, quadratic forms, numerical range."""

import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from qschro.cli import run_problem
from qschro.coeffs import CoefficientField, PiecewisePoly, aligned, bump, bumps
from qschro.errors import (
    DiscontinuousQuasiDerivativeError,
    OverflowUnrecoverableError,
    UnsupportedTestFunctionError,
    ZeroNormError,
)
from qschro.lagrange_forms import (
    Sector,
    bracket,
    bracket_constancy_residual,
    form_vs_operator_check,
    lagrange_residual,
    range_verdict,
    sample_forms,
)
from qschro.propagate import _gauss_legendre, _panel_values, integrate
from qschro.quasi import QuasiState, apply_l_atoms

FREE = CoefficientField.free()
RNG = np.random.default_rng(99)
# e^{-|x|} to third order on each side: u(0) = 1 and u'(0+-) = -+1, so
# u' jumps by -2 u(0), the jump rule of the delta well of strength -2
KINK = PiecewisePoly([0.0], [[1.0, 1.0, 0.5, 1 / 6], [1.0, -1.0, 0.5, -1 / 6]])
# x (pi - x) on [0, pi], zero outside
ARCH = PiecewisePoly([0.0, math.pi], [[0.0], [0.0, math.pi, -1.0], [0.0]])


def on_interval(coeffs, a, b):
    """The polynomial with ascending ``coeffs`` on [a, b], zero outside."""
    return PiecewisePoly([a, b], [[0.0], list(coeffs), [0.0]])


def random_jumpy_field(rng, scale=0.6):
    def poly(deg, jumpy=True):
        nbp = rng.integers(1, 3) if jumpy else 0
        bps = np.sort(rng.uniform(-2.5, 2.5, nbp))
        while len(bps) > 1 and np.min(np.diff(bps)) < 0.2:
            bps = np.sort(rng.uniform(-2.5, 2.5, nbp))
        pieces = [
            scale * (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            for _ in range(nbp + 1)
        ]
        return PiecewisePoly(bps, pieces)

    return CoefficientField(poly(1, False), poly(2), poly(1))


def test_bracket_constant_against_linear():
    u = QuasiState(0.5, 1.0, 0.0)
    v = QuasiState(0.5, 0.5, 1.0)  # v = x, v^{1} = 1 at x=0.5
    assert bracket(u, v) == (pytest.approx(1.0), 0.0)


def test_bracket_selfpair_vanishes():
    u = QuasiState(0.0, 1.0, 0.0)
    v = QuasiState(0.0, 1.0, 0.0)
    assert bracket(u, v) == (0, 0.0)


def test_bracket_hyperbolic_pair_constant():
    # u = e^x, v = e^{-x}: [u,v](x) = -2 for all x
    ut = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 3.0)
    vt = integrate(FREE.adjoint, -1.0, QuasiState(0.0, 1.0, -1.0), 3.0)
    for x in (0.5, 1.7, 3.0):
        value, logscale = bracket(ut.state_at(x), vt.state_at(x))
        assert value * math.exp(logscale) == pytest.approx(-2.0, rel=1e-8)
    assert bracket_constancy_residual(ut, vt, (0, 3)) <= 1e-8


def test_lagrange_identity_solutions():
    ut = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 3.0)
    vt = integrate(FREE.adjoint, -1.0, QuasiState(0.0, 1.0, -1.0), 3.0)
    assert lagrange_residual(FREE, ut, vt, (0.2, 2.7)) <= 1e-9


def test_lagrange_identity_nonsolutions_by_hand():
    # q=r=0, u=x^2, v=x: int(-2)x dx - 0 = [u,v] increment with [u,v] = -x^2
    u = PiecewisePoly.from_coeffs([0, 0, 1])
    v = PiecewisePoly.from_coeffs([0, 1])
    assert lagrange_residual(FREE, u, v, (-1, 2)) <= 1e-9


def test_lagrange_identity_with_dirac_masses():
    dw = CoefficientField.delta_well(-2.0)
    v = integrate(dw.adjoint, 0.3 + 0.2j, QuasiState(-1.0, 0.7, 0.1j), 1.0)
    assert lagrange_residual(dw, KINK, v, (-0.9, 0.9)) <= 1e-8


def test_a_polynomial_pair_keeps_its_residual_with_one_quasi_derivative_each(monkeypatch):
    # bumps against the delta well at 0.3: l[u] and the adjoint l+[v] carry
    # an atom there, and a window that ends on it reads one-sided states.
    # Each polynomial's u^[1] = u' - G1 u is formed once, however many atoms
    # and ends read it: two derivatives for its application (u' and u^[1]')
    # and one for u^[1], six per residual; the residuals keep their bits
    dw = CoefficientField.delta_well(-2.0, 0.3)
    u, v = bump(0.0, 1.0, 1.0), bump(0.4, 1.5, 0.7) * (1 + 0.5j)
    assert set(apply_l_atoms(dw, u, (-3, 3))[1]) == {0.3} == set(apply_l_atoms(dw.adjoint, v, (-3, 3))[1])
    derivatives = []
    derivative = PiecewisePoly.derivative
    monkeypatch.setattr(PiecewisePoly, "derivative", lambda f: derivatives.append(f) or derivative(f))
    got = [lagrange_residual(dw, u, v, w) for w in ((-3.0, 3.0), (-1.0, 0.3), (0.3, 2.0), (-0.5, 1.0))]
    assert len(derivatives) == 4 * 6
    want = [4.356443014522612e-16, 1.914845223904916e-16, 5.2197556506094823e-17, 1.8146728616851145e-16]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_a_trajectory_of_another_field_is_refused():
    # a trajectory's slot is checked by the identity of its field: u of c
    # and v of c.adjoint.  A delta-well trajectory given with the free field,
    # or a pair the other way round, is refused, naming the field expected
    from qschro.conditions import verify_caccioppoli

    dw = CoefficientField.delta_well(-2.0)
    u = integrate(dw, -1.0, QuasiState(-3.0, 1.0, 1.0), 3.0)
    v = integrate(dw.adjoint, -1.0, QuasiState(-3.0, 1.0, -1.0), 3.0)
    free_v = integrate(FREE.adjoint, -1.0, QuasiState(-3.0, 1.0, -1.0), 3.0)
    null = integrate(dw.adjoint, 0.0, QuasiState(-3.0, 1.0, 0.1), 3.0)
    phi = bump(0.0, 2.0, 0.5)
    cases = [
        ("^expected a trajectory of c, got one of another field$", lambda: lagrange_residual(FREE, u, free_v, (-3, 3))),
        ("^expected a trajectory of c.adjoint, got one", lambda: lagrange_residual(FREE, ARCH, v, (-3, 3))),
        ("^expected a trajectory of c.adjoint, got one", lambda: lagrange_residual(dw, u, u, (-3, 3))),
        ("^expected a trajectory of c, got one", lambda: lagrange_residual(dw, v, v, (-3, 3))),
        ("^v must be a trajectory of u.field.adjoint$", lambda: bracket_constancy_residual(u, free_v, (-3, 3))),
        ("^v must be a trajectory of u.field.adjoint$", lambda: bracket_constancy_residual(u, u, (-3, 3))),
        ("^the null solution must be a trajectory of c.adjoint$", lambda: verify_caccioppoli(FREE, null, phi)),
    ]
    for message, call in cases:
        with pytest.raises(ValueError, match=message):
            call()
    assert lagrange_residual(dw, u, v, (-3, 3)) <= 1e-8
    assert bracket_constancy_residual(u, v, (-3, 3)) <= 1e-8
    assert verify_caccioppoli(dw, null, phi) <= 1e-7


def test_a_pair_of_the_adjoint_field_is_the_pair_of_its_adjoint():
    # l++ = l: v of c.adjoint and u of c are a pair for the field c.adjoint,
    # so the identities taken the other way round accept them
    c = CoefficientField.delta_well(-2.0)
    u = integrate(c, -1.0, QuasiState(-5.0, 0.3, 1.0), 5.0)
    v = integrate(c.adjoint, -1.0, QuasiState(-5.0, 1.0, -0.2), 5.0)
    assert bracket_constancy_residual(v, u, (-5, 5)) <= 1e-14
    assert lagrange_residual(c.adjoint, v, u, (-5, 5)) <= 1e-14


def test_lagrange_identity_random_fields():
    for _ in range(5):
        c = random_jumpy_field(RNG)
        lam = complex(RNG.standard_normal(), RNG.standard_normal())
        mu = complex(RNG.standard_normal(), RNG.standard_normal())
        ut = integrate(c, lam, QuasiState(-3.0, 1.0, 0.5 + 0.1j), 3.0)
        vt = integrate(c.adjoint, mu, QuasiState(-3.0, 0.3j, 1.0), 3.0)
        assert lagrange_residual(c, ut, vt, (-3, 3)) <= 1e-8


def test_bracket_constancy_conjugate_pairs_random():
    for _ in range(4):
        c = random_jumpy_field(RNG)
        lam = complex(RNG.standard_normal(), RNG.standard_normal())
        ut = integrate(c, lam, QuasiState(-3.0, 1.0, 0.2), 3.0)
        vt = integrate(c.adjoint, lam.conjugate(), QuasiState(-3.0, 0.5, 1.0), 3.0)
        assert bracket_constancy_residual(ut, vt, (-3, 3)) <= 1e-8


def form_of(c, u):
    """(t(u), kinetic, coupling, potential) of one test, t(u) summed in Python complex."""
    kinetic, coupling, potential, _ = (col[0] for col in sample_forms(c, [u]))
    return complex(kinetic + coupling + potential), kinetic, coupling, potential


def test_quadratic_form_kinetic_only():
    value, _, coupling, potential = form_of(FREE, ARCH)
    assert value == pytest.approx(math.pi**3 / 3, abs=1e-8)  # int (pi - 2x)^2
    assert coupling == 0
    assert potential == 0


def test_quadratic_form_with_potential():
    c = CoefficientField(
        PiecewisePoly.constant(1.0), PiecewisePoly.zero(), PiecewisePoly.zero()
    )
    # int (pi - 2x)^2 + int x^2 (pi - x)^2
    want = math.pi**3 / 3 + math.pi**5 / 30
    assert form_of(c, ARCH)[0] == pytest.approx(want, abs=1e-8)


def test_quadratic_form_real_r_real_u_no_coupling():
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.constant(1.0)
    )
    value, kinetic, coupling, _ = form_of(c, bump(0.0, 1.0, 0.7))
    assert abs(coupling) <= 1e-12
    assert value == pytest.approx(kinetic)


def test_quadratic_form_parts_sum_identity():
    # the form task's t(u) is the sum of the three parts of sample_forms in
    # Python complex, bit for bit, on a field with jumps in Q and r
    field = {"s": {"pieces": [[0.4, 0.1]]}, "Q": {"breakpoints": [0.5], "pieces": [[0.2], [1.1, -0.3]]},
             "r": {"breakpoints": [-0.7], "pieces": [[0.0, 0.3], [0.5, -0.2]]}}
    shapes = [(0.3, 1.2, 0.8), (-1.0, 0.0, 0.5)]
    _, text, _ = run_problem({"task": "form", "coefficients": field,
                              "params": {"tests": [dict(zip(("center", "plateau", "ramp"), t)) for t in shapes]}})
    lines = text.splitlines()
    top = lines.index("[table form_values]  (source: gauss-legendre-quadrature)")
    rows = [row.split(",") for row in lines[top + 2 : lines.index("[/table]", top)]]
    c = CoefficientField(PiecewisePoly([], [[0.4, 0.1]]), PiecewisePoly([0.5], [[0.2], [1.1, -0.3]]),
                         PiecewisePoly([-0.7], [[0.0, 0.3], [0.5, -0.2]]))
    for row, k, cp, p in zip(rows, *(col.tolist() for col in sample_forms(c, [bump(*t) for t in shapes])[:3])):
        value = k + cp + p
        assert row[6:8] == [repr(value.real), repr(value.imag)]


def test_quadratic_form_hermitian_real_data():
    # real s, Q, r and real u: form value is real
    c = CoefficientField(
        PiecewisePoly.from_coeffs([0.5, 0.2]),
        PiecewisePoly.step(0.0, 0.0, 1.5),
        PiecewisePoly.from_coeffs([0.0, 0.3]),
    )
    value = form_of(c, bump(0.0, 2.0, 1.0))[0]
    assert abs(value.imag) <= 1e-10 * (1 + abs(value))


def test_quadratic_form_rejects_unsupported():
    u = PiecewisePoly.constant(1.0)
    with pytest.raises(UnsupportedTestFunctionError):
        sample_forms(FREE, [u])


def test_sample_forms_refuses_a_test_that_jumps():
    # 1 on [0, 1] and 0 outside: its pieces give t = 0 and ||u||^2 = 1, so
    # the form of a jumping test would pass any sector
    jump = PiecewisePoly([0.0, 1.0], [[0], [1], [0]])
    with pytest.raises(UnsupportedTestFunctionError, match=r"^test function 1 jumps at x=0\.0$"):
        sample_forms(FREE, [bump(3.0, 1.0, 1.0), jump])
    # a jump below JUMP_TOL (1 + the values beside it) is rounding
    nearly = PiecewisePoly([0.0, 1.0], [[0.0], [1e-11, 1.0, -1.0], [0.0]])
    assert sample_forms(FREE, [nearly])[3][0] > 0


@pytest.mark.parametrize("h, jumps", [(5e-9, False), (1e-6, True)], ids=["rounding", "jump"])
def test_sample_forms_and_apply_l_atoms_refuse_the_same_tests(h, jumps):
    # a bump of height 1 times a step from 1 to 1 + h at 0.3: one jump rule
    # for both, where sample_forms once refused h = 5e-9 (above 1e-10 of
    # its largest coefficient) and apply_l_atoms took it as rounding
    u = bumps([0.0], [2.0], [1.0])[0] * PiecewisePoly.step(0.3, 1.0, 1.0 + h)
    if jumps:
        with pytest.raises(UnsupportedTestFunctionError, match=r"^test function 0 jumps at x=0\.3$"):
            sample_forms(FREE, [u])
        with pytest.raises(DiscontinuousQuasiDerivativeError):
            apply_l_atoms(FREE, u, (-2.0, 2.0))
    else:
        assert sample_forms(FREE, [u])[3][0] > 0
        apply_l_atoms(FREE, u, (-2.0, 2.0))


def exact_forms(c, u):
    """(kinetic, coupling, potential), ||u||^2 by coefficient algebra:
    exact products of piecewise polynomials and their exact integrals."""
    lo, hi = u.support_bounds()
    du = u.derivative()
    kinetic = (du * du.conj()).integrate(lo, hi)
    coupling = -((c.G1 * u * du.conj()) + (c.G2 * du * u.conj())).integrate(lo, hi)
    potential = (c.s * u * u.conj()).integrate(lo, hi)
    return (kinetic, coupling, potential), (u * u.conj()).integrate(lo, hi).real


def high_degree_field(rng, degree=16):
    def poly():
        pieces = [
            rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            for _ in range(3)
        ]
        return PiecewisePoly([-2.0, 2.0], pieces, degree_cap=None)

    return CoefficientField(poly(), poly(), poly())


def form_cases():
    rng = np.random.default_rng(2024)
    bumps = [bump(0.3, 1.2, 0.8), bump(-1.0, 0.0, 0.5), bump(1.7, 2.5, 0.3)]
    for k in range(4):
        yield pytest.param(random_jumpy_field(rng), bumps, id=f"jumpy-{k}")
    # one degree-8 piece on (-1.5, 1.5), inside one piece of a degree-16
    # field: the integrands have degree 2 * 8 + 16 = 32 on a panel of width
    # 3, far beyond the degree 23 that 12 nodes integrate exactly
    # (2.25 - x^2) (1 + 0.5i x - 0.3 x^3 + 0.1i x^5 - 0.05 x^6)
    u = on_interval(P.polymul([2.25, 0, -1], [1, 0.5j, 0, -0.3, 0, 0.1j, -0.05]), -1.5, 1.5)
    yield pytest.param(high_degree_field(rng), [u, bump(0.0, 0.5, 1.0)], id="degree-16-field")
    yield pytest.param(CoefficientField.delta_well(-2.0), bumps, id="bumps-delta-well")
    yield pytest.param(FREE, bumps, id="bumps-free")


@pytest.mark.parametrize("c, family", form_cases())
def test_sample_forms_match_the_exact_algebra(c, family):
    for *got, norm2, u in zip(*sample_forms(c, family), family):
        parts, exact_norm2 = exact_forms(c, u)
        scale = sum(map(abs, parts))
        for g, want in zip(got, parts):
            assert abs(g - want) <= 1e-13 * scale
        assert abs(norm2 - exact_norm2) <= 1e-13 * exact_norm2


def unique_panels(fs, a, b, nodes, cuts=()):
    """``propagate._panels`` as it cut with ``np.unique``, at the breakpoints
    of fs (a trajectory's inner knots): the reference shares no cutter with
    ``sample_forms``."""
    ks = np.unique(np.concatenate([np.asarray([a, b, *cuts], dtype=float), *(f.breakpoints for f in fs)]))
    ks = ks[(ks >= a) & (ks <= b)]
    mid = 0.5 * (ks[:-1] + ks[1:])
    half = 0.5 * (ks[1:] - ks[:-1])
    return mid, half, mid[:, None] + half[:, None] * nodes


def looped_forms(c, family):
    """sample_forms one test at a time: each test's panels from unique_panels,
    u and u.derivative() through _panel_values; the reference."""
    field = (c.G1, c.G2, c.s)
    n = max(u.degree for u in family) + max(f.degree for f in field) // 2 + 1
    nodes, weights = _gauss_legendre(n)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for u in family:
            mid, half, xs = unique_panels((u, *field), *u.support_bounds(), nodes)
            fu, fdu, fg1, fg2, fs = (_panel_values(f, mid, xs)[0] for f in (u, u.derivative(), *field))
            u2 = (fu * fu.conj()).real
            integrands = [(fdu * fdu.conj()).real, -(fg1 * fu * fdu.conj() + fg2 * fdu * fu.conj()), fs * u2, u2]
            parts = half * (np.array(integrands) @ weights)
            k, cp, p, n2 = (complex(np.bincount(np.zeros(len(mid), int), q.real, 1)[0]
                                    + 1j * np.bincount(np.zeros(len(mid), int), q.imag, 1)[0]) for q in parts)
            out.append((k, cp, p, n2.real))
    return np.array(out).T


def form_bits(forms):
    return np.array(forms, dtype=complex).T.tobytes()


def batched_form_cases():
    rng = np.random.default_rng(18)
    mixed = [bump(float(rng.uniform(-3, 3)), float(p), float(rng.uniform(0.3, 1.5)))
             for p in rng.choice([0.0, 0.7, 1.9], 12)]
    # field breakpoints at 1.0, 3.0 and 0.0: the first bump's edges x0 = 1 and
    # x2 = 3 fall on two of them, the next has edges at -0.0 and 0.0, and the
    # last one's support holds no field breakpoint
    on_edges = CoefficientField(
        PiecewisePoly([0.0, 3.0], [[0.5], [1.0 + 0.2j], [-0.3]]),
        PiecewisePoly([1.0], [[0.1, 0.2], [0.4j]]),
        PiecewisePoly([1.0, 3.0], [[0.0], [0.3, -0.1], [0.2]]),
    )
    edges = [bump(2.5, 1.0, 1.0), bump(-0.0, 0.0, 1.0), bump(0.0, -0.0, 0.5), bump(20.0, 1.0, 0.5)]
    # (1 - x^2) (1 + 0.3i x - 0.2 x^3 + 0.05 x^6) on five pieces of [-1, 1]
    smooth = on_interval(P.polymul([1, 0, -1], [1, 0.3j, 0, -0.2, 0, 0, 0.05]), -1.0, 1.0)
    smooth = aligned([smooth], np.array([-0.6, -0.2, 0.2, 0.6]))[0]
    yield pytest.param(random_jumpy_field(rng), mixed, id="plateaus-with-and-without")
    yield pytest.param(on_edges, edges, id="edges-on-field-breakpoints")
    yield pytest.param(random_jumpy_field(rng), [*mixed[:5], smooth, *edges], id="with-a-degree-8-test")
    yield pytest.param(CoefficientField.delta_well(-2.0, location=-0.0), [*edges, *mixed],
                       id="delta-well-at-minus-zero")


@pytest.mark.parametrize("c, family", batched_form_cases())
def test_batched_forms_are_the_per_test_loop_bit_for_bit(c, family):
    assert form_bits(sample_forms(c, family)) == form_bits(looped_forms(c, family))
    if len({u.degree for u in family}) == 1:  # the same nodes for a one-member family
        for k, u in enumerate(family):
            assert form_bits(sample_forms(c, [u])) == form_bits([col[k : k + 1] for col in sample_forms(c, family)])


@pytest.mark.parametrize("k", [0, 2, 5])
def test_batched_forms_name_the_member_without_compact_support(k):
    family = [bump(float(i), 0.5, 0.5) for i in range(6)]
    family[k] = family[k] + PiecewisePoly.step(float(k) + 3.0)
    family[-1] = family[-1] + PiecewisePoly.step(-9.0, 1.0, 0.0)  # a second one, later or the same
    with pytest.raises(UnsupportedTestFunctionError, match=f"^test function {k} is not compactly supported$"):
        sample_forms(FREE, family)


@pytest.mark.parametrize("k", [0, 3, 5])
def test_batched_forms_name_the_member_that_overflows(k):
    c = CoefficientField(PiecewisePoly.constant(-1e308), PiecewisePoly.zero(), PiecewisePoly.zero())
    family = [bump(float(i), 0.0, 0.1) for i in range(6)]
    family[k] = bump(float(k), 4.0, 1.0)  # its potential part is about -4e308
    with pytest.raises(OverflowUnrecoverableError, match=f"^test function {k}: its form or norm is not finite$") as err:
        sample_forms(c, family)
    assert err.value.index == k


def test_batched_forms_name_a_zero_member_among_others():
    family = [bump(0.0, 1.0, 1.0), PiecewisePoly.zero(), bump(1.0, 0.0, 0.5)]
    with pytest.raises(ZeroNormError, match="^test function 1 has zero L2 norm$"):
        sample_forms(FREE, family)


def test_form_past_the_float_range_is_an_overflow_error():
    c = CoefficientField(
        PiecewisePoly.constant(-1e308), PiecewisePoly.zero(), PiecewisePoly.zero()
    )
    # w = t(u)/||u||^2 is about -1e308 on the narrow bump, but the form of
    # the wide one, about -4e308, is not a float
    with pytest.raises(OverflowUnrecoverableError, match="test function 1") as err:
        sample_forms(c, [bump(0.0, 0.0, 0.1), bump(0.0, 4.0, 1.0)])
    assert err.value.index == 1


def test_form_vs_operator_free():
    assert form_vs_operator_check(FREE, [bump(0, 1, 1)], (-3, 3))[0] <= 1e-9


def test_form_vs_operator_delta_well():
    # u(0) != 0: the atom c*|u(0)|^2 is matched by the coupling integral
    dw = CoefficientField.delta_well(-2.0)
    assert form_vs_operator_check(dw, [bump(0, 1, 1)], (-3, 3))[0] <= 1e-8


def test_form_vs_operator_linear_drift():
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0.0, -1j])
    )
    assert form_vs_operator_check(c, [bump(0, 1, 1)], (-3, 3))[0] <= 1e-8


def normalized(forms):
    """w(u) = t(u)/||u||^2 of ``sample_forms`` columns, in Python complex."""
    return [(k + cp + p) / n2 for k, cp, p, n2 in zip(*(col.tolist() for col in forms))]


def test_numerical_range_free_accretive():
    rep = range_verdict(normalized(sample_forms(FREE, [bump(0, 1, 1), bump(1, 2, 0.5)])))
    assert rep.verdict == "holds-on-sample"
    assert rep.witnesses["min_re_w"] >= 0
    assert rep.witnesses["max_abs_arg_w"] <= 1e-12


def test_numerical_range_negative_potential_witness():
    c = CoefficientField(
        PiecewisePoly.constant(-1.0), PiecewisePoly.zero(), PiecewisePoly.zero()
    )
    rep = range_verdict(normalized(sample_forms(c, [bump(0, 20, 3)])))
    assert rep.verdict == "fails"
    assert rep.witnesses["witness_value"].real < 0


def test_numerical_range_sector_report():
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0.0, -1j])
    )
    shapes = [(0, 1, 1), (0.5, 2, 1), (-1, 3, 2)]
    forms = sample_forms(c, [bump(*t) for t in shapes])
    rep = range_verdict(normalized(forms), sector=Sector(math.pi / 4))
    assert rep.verdict in ("holds-on-sample", "fails")
    # the samples are the rows of the form task's report, one norm2 each
    # and no table of their own
    assert rep.tables == {}
    problem = {
        "task": "form",
        "coefficients": {"r": {"pieces": [[0, [0, -1]]]}},
        "params": {"tests": [dict(zip(("center", "plateau", "ramp"), t)) for t in shapes], "sector": math.pi / 4},
    }
    _, text, _ = run_problem(problem)
    lines = text.splitlines()
    top = lines.index("[table form_values]  (source: gauss-legendre-quadrature)")
    rows = [row.split(",") for row in lines[top + 2 : lines.index("[/table]", top)]]
    assert [float(row[-1]) for row in rows] == forms[3].tolist()
    assert f"range.verdict: {rep.verdict}" in lines and "[table range.samples]" not in text


def test_zero_norm_rejected():
    with pytest.raises(ZeroNormError):
        sample_forms(FREE, [PiecewisePoly.zero()])


def test_sector_membership():
    s = Sector(math.pi / 4)
    assert s.contains(1.0 + 0.5j)
    assert not s.contains(1.0 + 1.5j)
    assert not s.contains(-0.1 + 0.0j)
    assert Sector(math.pi / 2).contains(0.0 + 5.0j)
    for w in (complex("nan"), complex(1.0, math.nan), complex(math.inf, 0.0)):
        assert not Sector(math.pi / 2).contains(w)
        assert not s.contains(w)


def test_range_verdict_takes_the_argument_of_w_where_atan2_underflows():
    # the w of a form fuzz example: cmath.phase raises OverflowError on it
    w = complex(2.69e192, -1.94e-317)
    rep = range_verdict([w])
    assert rep.verdict == "holds-on-sample"
    assert rep.witnesses["max_abs_arg_w"] == 0.0


@pytest.mark.parametrize("w", [complex("nan"), complex(1.0, math.nan), complex(math.inf, 0.0)])
def test_range_verdict_refuses_a_value_that_is_not_finite(w):
    with pytest.raises(OverflowUnrecoverableError, match="test function 1") as err:
        range_verdict([1.0, w])
    assert err.value.index == 1
