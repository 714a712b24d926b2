"""The verify battery in stacked passes against its per-side operator formulas.

The oracle below is the battery as it was written one operator at a time:
every sum, difference and product goes through ``aligned`` (``o_add``,
``o_sub``, ``o_mul``), each of the fields c and c.adjoint applies its
expression to phi u and u on its own, and every function is sampled on its own.  The stacked passes of
``quasi.product_rule_check`` and ``lagrange_forms.form_vs_operator_check``
must give the same floats, bit for bit; so must the same-mesh fast path of
the ``PiecewisePoly`` operators against ``aligned``.
"""

import numpy as np
import pytest

from qschro.coeffs import (
    CoefficientField,
    PiecewisePoly,
    _canonical_centers,
    _convolve_rows,
    _dense,
    aligned,
    bump,
    bumps,
)
from qschro.config import JUMP_TOL
from qschro.errors import DiscontinuousQuasiDerivativeError
from qschro.lagrange_forms import form_vs_operator_check, sample_forms
from qschro.propagate import integrate
from qschro.quasi import QuasiState, product_rule_check


def o_add(a, b):
    a, b = aligned((a, b))
    total = np.zeros((len(a.coeffs), max(a.degree, b.degree) + 1), dtype=complex)
    total[:, : a.degree + 1] += a.coeffs
    total[:, : b.degree + 1] += b.coeffs
    return PiecewisePoly._from_local(a.breakpoints, a.centers, total)


def o_neg(a):
    return PiecewisePoly._from_local(a.breakpoints, a.centers, -a.coeffs)


def o_sub(a, b):
    return o_add(a, o_neg(b))


def o_mul(a, b):
    a, b = aligned((a, b))
    return PiecewisePoly._from_local(a.breakpoints, a.centers, _convolve_rows(a.coeffs, b.coeffs))


def o_scale(a, s):
    return PiecewisePoly._from_local(a.breakpoints, a.centers, a.coeffs * complex(s))


def o_jumps(f, window):
    bp = f.breakpoints
    i = np.flatnonzero((bp >= float(window[0])) & (bp <= float(window[1])))
    x = bp[i]
    rows = np.concatenate([i, i + 1])
    t = np.concatenate([x, x]) - f.centers[rows]
    left, right = np.split(_dense(f.coeffs[rows], t), 2)
    scale = np.maximum(*np.split(_dense(np.abs(f.coeffs[rows]), np.abs(t)), 2))
    h = right - left
    keep = np.abs(h) > JUMP_TOL * (1.0 + scale)
    return dict(zip(x[keep].tolist(), h[keep]))


def o_screen(u, window):
    jumps = o_jumps(u, window)
    if jumps:
        x = next(iter(jumps))
        raise DiscontinuousQuasiDerivativeError(x, u.eval(x, "left"), u.eval(x, "right"))


def o_apply(c, u, window):
    a11, a21_0, a22 = c.entries
    u1 = o_sub(u.derivative(), o_mul(a11, u))
    atoms = {x: -h for x, h in o_jumps(u1, window).items()}
    return o_neg(o_sub(o_sub(u1.derivative(), o_mul(a22, u1)), o_mul(a21_0, u))), atoms


def o_product_rule(c, phi, u, window):
    a, b = float(window[0]), float(window[1])
    phi, u = aligned((phi, u), c.breakpoints)
    dphi = phi.derivative()
    ddphi = dphi.derivative()
    phi_u, dphi_u, ddphi_u = o_mul(phi, u), o_mul(dphi, u), o_mul(ddphi, u)
    dphi_du = o_mul(dphi, u.derivative())
    o_screen(phi_u, window)
    o_screen(u, window)
    out = []
    for f in (c, c.adjoint):
        lhs, lhs_atoms = o_apply(f, phi_u, window)
        lu, lu_atoms = o_apply(f, u, window)
        rhs = o_add(o_sub(o_sub(o_mul(phi, lu), ddphi_u), o_scale(dphi_du, 2.0)),
                    o_mul(o_add(f.entries[0], f.entries[2]), dphi_u))
        diff = o_sub(lhs, rhs)
        xs = np.linspace(a, b, 200)
        sup_diff = np.max(np.abs(diff.sample(xs)))
        sup_mag = max(np.max(np.abs(lhs.sample(xs))), np.max(np.abs(rhs.sample(xs))), 1.0)
        atom_err = 0.0
        for loc in set(lhs_atoms) | set(lu_atoms):
            want = phi.eval(loc) * lu_atoms.get(loc, 0.0)
            got = lhs_atoms.get(loc, 0.0)
            atom_err = max(atom_err, abs(got - want) / (1.0 + abs(want)))
        out.append(max(sup_diff / sup_mag, atom_err))
    return tuple(out)


def o_form_vs_operator(c, u, support):
    a, b = float(support[0]), float(support[1])
    kinetic, coupling, potential, _ = (col.tolist()[0] for col in sample_forms(c, [u]))
    form = kinetic + coupling + potential
    o_screen(u, (a, b))
    expr, atoms = o_apply(c, u, (a, b))
    op = o_mul(expr, u.conj()).integrate(a, b)
    op += sum(w * u.eval(p).conjugate() for p, w in atoms.items() if a <= p <= b)
    return abs(form - op) / (1.0 + abs(form) + abs(op))


def corpus_field(rng):
    """A criterion-03 field: linear pieces, smooth s, one or two jumps in Q and in r."""
    def poly(jumpy):
        bps = np.sort(rng.uniform(-4, 4, int(rng.integers(1, 3)) if jumpy else 0))
        return PiecewisePoly(bps, [0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                                   for _ in range(len(bps) + 1)])
    return CoefficientField(poly(False), poly(True), poly(True))


def battery_fields():
    rng = np.random.default_rng(32)
    z = PiecewisePoly.zero()
    yield pytest.param(CoefficientField.free(), id="free")
    yield pytest.param(CoefficientField.delta_well(-2.0), id="delta-well")
    for k in range(3):
        yield pytest.param(corpus_field(rng), id=f"corpus-{k}")
    r_jumps = PiecewisePoly([-1.5, 0.7], [[0.3, 0.2], [1.1 + 0.4j, -0.5], [0.2j]])
    yield pytest.param(CoefficientField(PiecewisePoly.from_coeffs([0.5, 0.1]), z, r_jumps), id="r-jumps")


def verify_functions(c, lam, window=(-5.0, 5.0)):
    """run_verify's re-fitted solution, cut-off and two form tests."""
    a, b = window
    u = integrate(c, lam, QuasiState(a, 0.3, 1.0), b).to_piecewise(a, b)
    mid = 0.5 * (a + b)
    phi, second = bumps([mid, mid - (b - a) / 8], [(b - a) / 4, (b - a) / 6], [(b - a) / 8] * 2)
    return u, phi, second


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("c", battery_fields())
@pytest.mark.parametrize("lam", [0.25 + 0.1j, -1.0 + 0.7j])
def test_stacked_battery_has_the_bits_of_the_per_side_operators(c, lam):
    u, phi, second = verify_functions(c, lam)
    got, want = product_rule_check(c, phi, u, (-5, 5)), o_product_rule(c, phi, u, (-5, 5))
    assert len(got) == 2 == len(want)
    assert bits(got) == bits(want)
    family = [phi, second, bump(0.3, 0.5, 0.75)]
    got = form_vs_operator_check(c, family, (-5, 5))
    assert bits(got) == bits([o_form_vs_operator(c, v, (-5, 5)) for v in family])


def test_the_product_rule_samples_the_breakpoints_on_its_grid():
    # the grid of (0, 199) is the integers: every breakpoint of the field, the
    # cut-off and u lies on it, and the adjoint residual's bits change when
    # the points on breakpoints are left out
    c = CoefficientField(PiecewisePoly.from_coeffs([0.5, 0.01]),
                         PiecewisePoly([40, 150], [[0.2], [5.0, -0.02], [0.1j]]),
                         PiecewisePoly([60, 120], [[0.3, 0.002], [1.1 + 0.4j, -0.005], [0.2j]]))
    phi = bump(100, 100, 40)
    u = PiecewisePoly.from_coeffs([0.3 + 1j, 0.01, -2e-4]) * bump(95, 60, 30) + PiecewisePoly.from_coeffs([0.5, 0.1j])
    grid = set(np.linspace(0, 199, 200).tolist())
    assert {10, 40, 50, 60, 120, 125, 150, 190} <= set(aligned((phi, u), c.breakpoints)[0].breakpoints.tolist()) <= grid
    got, want = product_rule_check(c, phi, u, (0, 199)), o_product_rule(c, phi, u, (0, 199))
    assert bits(got) == bits(want)
    assert max(got) < 1e-12


def test_stacked_product_rule_refuses_the_jump_the_oracle_refuses():
    c = CoefficientField.delta_well(-2.0)
    phi = bump(0.0, 1.0, 0.4)
    u = PiecewisePoly.step(0.7, left=1.0, right=3.0)
    with pytest.raises(DiscontinuousQuasiDerivativeError) as want:
        o_product_rule(c, phi, u, (-1, 1))
    with pytest.raises(DiscontinuousQuasiDerivativeError) as got:
        product_rule_check(c, phi, u, (-1, 1))
    assert str(got.value) == str(want.value)


def signed_zero_rows(rng, n_rows, width):
    rows = rng.standard_normal((n_rows, width)) + 1j * rng.standard_normal((n_rows, width))
    rows[rng.random((n_rows, width)) < 0.3] = 0.0
    rows.real[rng.random((n_rows, width)) < 0.2] = -0.0
    rows.imag[rng.random((n_rows, width)) < 0.2] = -0.0
    rows[:, -1] = 1.0  # no trailing zero column
    return rows


def on_one_mesh(rng, mesh, count):
    """Functions on ``mesh`` with its canonical centers, put there by ``aligned``."""
    fs = [PiecewisePoly._from_local(mesh, _canonical_centers(mesh),
                                    signed_zero_rows(rng, len(mesh) + 1, int(rng.integers(1, 6))))
          for _ in range(count)]
    return aligned(fs, mesh)


def same(f, g) -> bool:
    return all(x.tobytes() == y.tobytes() and x.shape == y.shape
               for x, y in ((f.breakpoints, g.breakpoints), (f.centers, g.centers), (f.coeffs, g.coeffs)))


@pytest.mark.parametrize("mesh", [[], [-0.0], [-1.0, -0.0, 2.5], [0.0, 1e-13, 1.0], [-2.0, 1.0, 1.0 + 5e-13, 3.0]],
                         ids=["none", "minus-zero", "minus-zero-inside", "close-pair", "close-pair-inside"])
def test_same_mesh_sums_and_products_have_the_bits_of_aligned(mesh):
    rng = np.random.default_rng(len(mesh))
    mesh = np.array(mesh, dtype=float)
    for _ in range(10):
        # a, b on one mesh, marked by aligned; c on the same mesh unmarked,
        # with its close pair kept, which aligned drops
        a, b = on_one_mesh(rng, mesh, 2)
        c = PiecewisePoly._from_local(mesh, _canonical_centers(mesh), signed_zero_rows(rng, len(mesh) + 1, 3))
        for f, g in ((a, b), (b, a), (a, a), (a, c), (c, a), (c, c), (a.derivative(), -b), (a.conj(), b * 2.0)):
            assert same(f + g, o_add(f, g))
            assert same(f - g, o_sub(f, g))
            assert same(f * g, o_mul(f, g))
    # an equal mesh of other bytes is merged, as aligned merges it
    other = np.where(mesh == 0, 0.0, mesh)
    if other.tobytes() != mesh.tobytes():
        (b,) = on_one_mesh(rng, other, 1)
        assert same(a + b, o_add(a, b)) and same(a * b, o_mul(a, b))
