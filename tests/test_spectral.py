"""Shooting spectra and the null-space growth probe."""

import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qschro import propagate, spectral
from qschro.coeffs import CoefficientField, PiecewisePoly
from qschro.errors import QschroError
from qschro.propagate import fundamental, integrate, pair_integral
from qschro.quasi import QuasiState, apply_l_atoms
from qschro.spectral import (
    BoundaryCondition,
    characteristic,
    default_windows,
    eigenvalues,
    null_probe,
)

FREE = CoefficientField.free()
BC = BoundaryCondition()


def fd_drift_eigenvalues(n_mesh=4000, k=5):
    """Dense finite-difference oracle for -u'' + 2u' on [0, pi], Dirichlet.

    Second-order central differences on n_mesh interior points; the k
    eigenvalues nearest zero via shift-invert Arnoldi.
    """
    h = math.pi / (n_mesh + 1)
    main = np.full(n_mesh, 2.0 / h**2)
    upper = np.full(n_mesh - 1, -1.0 / h**2 + 1.0 / h)
    lower = np.full(n_mesh - 1, -1.0 / h**2 - 1.0 / h)
    A = sp.diags([lower, main, upper], [-1, 0, 1], format="csc")
    vals = spla.eigs(A, k=k, sigma=0.0, return_eigenvectors=False)
    return np.sort_complex(vals)


def test_characteristic_free_eigenvalue():
    cv = characteristic(FREE, (0, math.pi), BC, 4.0)
    assert cv.residual <= 1e-9


def test_characteristic_free_off_eigenvalue():
    # normalization u^[1](0) = 1: D(lam) = sin(sqrt(lam) pi)/sqrt(lam)
    cv = characteristic(FREE, (0, math.pi), BC, 2.0)
    want = math.sin(math.sqrt(2) * math.pi) / math.sqrt(2)
    assert cv.value * math.exp(cv.logscale) == pytest.approx(want, abs=1e-8)


def _dense_d(c, interval, lam):
    """D(lambda) e^logscale from the shot with dense output."""
    end = integrate(c, lam, QuasiState(interval[0], 0.0, 1.0), interval[1]).state_at(interval[1])
    return end.y0 * math.exp(end.logscale)


@pytest.mark.parametrize("lam", [1.0, 25.0, 400.0, 2500.0, 3 + 0.5j])
def test_characteristic_free_matches_closed_form(lam):
    # constant field: exact exponentials, accurate to rounding at any lambda
    cv = characteristic(FREE, (0, math.pi), BC, lam)
    got = cv.value * math.exp(cv.logscale)
    k = cmath.sqrt(lam)
    assert abs(got - cmath.sin(k * math.pi) / k) <= 1e-12
    assert abs(got - _dense_d(FREE, (0, math.pi), lam)) <= 1e-9


@pytest.mark.parametrize("lam", [-1.0, 2 + 1j])
def test_characteristic_delta_well_matches_closed_form(lam):
    # u = sin(k(x + L))/k left of the well; u' drops by 2u(0) there, so
    # D = u(L) = 2 sin(kL) cos(kL)/k - 2 sin(kL)^2/k^2
    L = 5.0
    dw = CoefficientField.delta_well(-2.0)
    cv = characteristic(dw, (-L, L), BC, lam)
    got = cv.value * math.exp(cv.logscale)
    k = cmath.sqrt(lam)
    sn, cs = cmath.sin(k * L) / k, cmath.cos(k * L)
    scale = math.exp(cv.log_sup)  # the cancellation scale of the shot
    assert abs(got - (2 * sn * cs - 2 * sn * sn)) <= 1e-12 * scale
    assert abs(got - _dense_d(dw, (-L, L), lam)) <= 1e-9 * scale


def _counting_integrate(monkeypatch):
    calls = []
    run = propagate.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(propagate, "integrate", counted)
    return calls


def test_scan_of_constant_field_keeps_no_dense_output(monkeypatch):
    # the scan and the bracket refinements are shots without dense output
    calls = _counting_integrate(monkeypatch)
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60).roots
    assert len(res) == 5 and not calls


def test_characteristic_delta_well_truncated_bound_state():
    dw = CoefficientField.delta_well(-2.0)
    cv = characteristic(dw, (-20, 20), BC, -1.0)
    assert cv.residual <= 1e-6


def test_free_spectrum_scan():
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60).roots
    good = [r for r in res if r.converged]
    assert [round(r.lam.real) for r in good] == [1, 4, 9, 16, 25]
    for r in good:
        n2 = round(r.lam.real)
        assert abs(r.lam.real - n2) <= 1e-6 * n2
        assert abs(r.lam.imag) <= 1e-8


def _counting_shots(monkeypatch):
    shots = []
    shoot = spectral.characteristic

    def counted(*args, **kwargs):
        shots.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(spectral, "characteristic", counted)
    return shots


def test_free_spectrum_scan_shot_budget(monkeypatch):
    # 60 grid shots, then one shot with D' per Newton iterate of each root:
    # 5 for the five roots, where Brent's method took 10 and bisection 285
    shots = _counting_shots(monkeypatch)
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60).roots
    assert [round(r.lam.real) for r in res if r.converged] == [1, 4, 9, 16, 25]
    assert len(shots) <= 120


def test_scan_refinement_rescales_the_bracket(monkeypatch):
    # delta well alpha = 20, ground state -100: the shots in this one-cell
    # bracket rescale by logscales that differ by up to 0.23, so mantissas
    # alone are off by up to 25 percent; D varies like e^(-3 lambda) over
    # the cell, so Newton needs bisections of the bracket to start
    shots = _counting_shots(monkeypatch)
    dw = CoefficientField.delta_well(-20.0)
    res = eigenvalues(dw, (-25, 25), BC, scan=(-110, -94), grid=2).roots
    assert len(res) == 1 and res[0].converged and res[0].method == "shooting-scan-bracket"
    assert abs(res[0].lam + 100) <= 1e-12 * 100
    assert len(shots) <= 14


@pytest.mark.parametrize("lam", [2.0, 25.0, 400.0, -3.0, 3 + 0.5j])
def test_derivative_of_free_box_matches_closed_form(lam):
    # D = sin(k L)/k with k^2 = lambda: D' = L cos(kL)/(2 lambda) - sin(kL)/(2 lambda k)
    L = math.pi
    cv = characteristic(FREE, (0, L), BC, lam, derivative=True)
    k = cmath.sqrt(lam)
    want = L * cmath.cos(k * L) / (2 * lam) - cmath.sin(k * L) / (2 * lam * k)
    assert abs(cv.slope * math.exp(cv.logscale) - want) <= 1e-13 * abs(want)
    plain = characteristic(FREE, (0, L), BC, lam)
    assert plain.slope is None and (plain.value, plain.logscale) == (cv.value, cv.logscale)


def _central_difference(c, interval, lam, h):
    """(D'(lam), its central difference) on the logscale of the shot at lam."""
    cv = characteristic(c, interval, BC, lam, derivative=True)
    up, down = (characteristic(c, interval, BC, lam + d) for d in (h, -h))
    fd = (up.value * math.exp(up.logscale - cv.logscale) - down.value * math.exp(down.logscale - cv.logscale)) / (2 * h)
    return cv.slope, fd


def _random_polynomial_field(rng):
    def poly(degree):
        return PiecewisePoly.from_coeffs(list(0.6 * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))))

    return CoefficientField(poly(2), poly(1), poly(1))


@pytest.mark.parametrize("seed", range(4))
def test_derivative_on_polynomial_fields_matches_central_difference(seed):
    # complex s, Q and r of degree 2, 1, 1: every segment takes Taylor steps
    rng = np.random.default_rng(seed)
    c = _random_polynomial_field(rng)
    for lam in (complex(rng.uniform(-5, 20), rng.uniform(-2, 2)), float(rng.uniform(0, 10))):
        slope, fd = _central_difference(c, (-1.0, 1.5), lam, 1e-5)
        assert abs(slope - fd) <= 1e-7 * abs(slope)


@pytest.mark.parametrize("lam", [-1.0, -0.3, 2.0 + 1.0j, 6.0])
def test_derivative_on_the_delta_well_matches_central_difference(lam):
    # constant segments on both sides of the well: exact sub-steps
    slope, fd = _central_difference(CoefficientField.delta_well(-2.0), (-5.0, 5.0), lam, 1e-5)
    assert abs(slope - fd) <= 1e-7 * abs(slope)


def test_delta_well_root_is_accepted_at_its_noise_floor():
    # on (-20, 20) the solution grows by e^20 to the well and falls back:
    # rounding lambda moves D by about |D'| eps, 10 times CHAR_TOL here, so
    # the root is accepted on its printed floor, not on a solver flag
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-2, -0.5), grid=16).roots
    assert len(res) == 1
    r = res[0]
    assert r.lam == -1.0 and r.converged and r.method == "shooting-scan-bracket"
    assert spectral.config.CHAR_TOL < r.residual <= r.floor
    assert r.shots == r.iterations >= 1


def test_bracket_root_shots_add_up(monkeypatch):
    # every shot past the grid belongs to one root: the Newton seed's root
    # merges into the bracket root and adds its shots, a node has none
    shots = _counting_shots(monkeypatch)
    neumann = BoundaryCondition((0, 1), (0, 1))
    res = eigenvalues(FREE, (0, 3), neumann, scan=(-1, 5), grid=7, seeds=[4.5 + 0.2j]).roots
    assert [r.method for r in res] == ["shooting-scan-node"] + ["shooting-scan-bracket"] * 2
    assert len(shots) == 7 + sum(r.shots for r in res)
    assert (res[0].shots, res[0].floor) == (0, None)


def test_bracket_root_bisects_where_the_slope_is_not_finite(monkeypatch):
    # a D' that is not finite gives no Newton step and no noise floor: the
    # bracket is bisected, and the root is converged on CHAR_TOL alone
    shoot = spectral.characteristic

    def infinite_slope(*args, derivative=False, **kwargs):
        cv = shoot(*args, derivative=derivative, **kwargs)
        return replace(cv, slope=complex(math.inf)) if derivative else cv

    monkeypatch.setattr(spectral, "characteristic", infinite_slope)
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 1.7), grid=2).roots
    assert len(res) == 1
    r = res[0]
    assert r.floor is None and r.iterations > 1
    assert r.converged and r.residual <= spectral.config.CHAR_TOL
    assert abs(r.lam - 1) <= 1e-8


def test_real_scan_refuses_a_complex_discriminant():
    # s = i x: the eigenvalues are 1.109, 3.966, 8.981, each + 1.571i.  Re D
    # changes sign on the real axis, and refining it would report false
    # roots near 3.61 and 8.80 as converged.
    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    run = eigenvalues(ix, (0, math.pi), BC, scan=(0.5, 12), grid=40)
    # the first node, lambda = 0.5, already refuses the scan
    v = characteristic(ix, (0, math.pi), BC, 0.5).value
    assert run.refusal == (0.5, abs(v.imag) / abs(v))
    assert (run.roots, run.shots) == ([], 1)


def test_a_real_r_makes_the_real_scan_refuse_at_its_first_node():
    # r = 0.7 is real and the data formally symmetric, but D = e^(i int r)
    # times a real number at real lambda (ROADMAP item 14): |Im D|/|D| is
    # |sin(0.7 pi)| = 0.809, and the scan refuses at its first node.  Real
    # s and Q with r = 0 give exactly 0 there.
    drift = CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.constant(0.7))
    v = characteristic(drift, (0, math.pi), BC, 2.0).value
    ratio = abs(v.imag) / abs(v)
    assert abs(ratio - abs(math.sin(0.7 * math.pi))) <= 1e-12 and round(ratio, 3) == 0.809
    run = eigenvalues(drift, (0, math.pi), BC, scan=(2.0, 12), grid=40)
    assert (run.refusal, run.roots, run.shots) == ((2.0, ratio), [], 1)
    real = CoefficientField(PiecewisePoly([], [[0, 0, 0.5]]), PiecewisePoly([], [[0, 1]]), PiecewisePoly.zero())
    assert characteristic(real, (0, math.pi), BC, 2.0).value.imag == 0
    assert eigenvalues(real, (0, math.pi), BC, scan=(2.0, 12), grid=40).refusal is None


def test_real_scan_stops_at_its_first_node_that_is_not_real(monkeypatch):
    # nodes 1-3 are real and node 4 is not: four shots, node 4's ratio,
    # however many nodes follow and whatever they hold
    values = iter([1.0 + 0j, -2.0 + 0j, 0j, 3.0 - 4.0j] + [1e-3j] * 16)
    shot = []

    def stub(c, interval, bc, lam, derivative=False):
        shot.append(lam)
        return spectral.CharValue(next(values), 0.0, 0.0)

    monkeypatch.setattr(spectral, "characteristic", stub)
    run = eigenvalues(FREE, (0, 1), BC, scan=(0, 19), grid=20)
    assert shot == [0.0, 1.0, 2.0, 3.0]
    assert (run.refusal, run.roots, run.shots) == ((3.0, 0.8), [], 4)


def test_a_refused_scan_runs_its_seeds_in_the_same_call():
    # s = i x: the node lambda = 0.5 refuses the scan, and the seed near
    # 1.109 + 1.571i is still refined; the run's shots are that node's one
    # and the root's
    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    run = eigenvalues(ix, (0, math.pi), BC, scan=(0.5, 12), seeds=[1.2 + 1.5j], grid=40)
    v = characteristic(ix, (0, math.pi), BC, 0.5).value
    assert run.refusal == (0.5, abs(v.imag) / abs(v))
    (root,) = run.roots
    assert root.converged and abs(root.lam - (1.109 + 1.571j)) < 1e-3
    assert run.shots == 1 + root.shots


@pytest.mark.parametrize("field, interval, bc, kwargs", [
    # a node root at 0, two bracket roots and a seed that merges into one
    (FREE, (0, 3), BoundaryCondition((0, 1), (0, 1)), {"scan": (-1, 5), "grid": 7, "seeds": [4.5 + 0.2j]}),
    # a scan refused at its first node, and two seeds
    (CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero()), (0, math.pi), BC,
     {"scan": (0.5, 12), "grid": 40, "seeds": [1.2 + 1.5j, 3.9 + 1.5j]}),
], ids=["accepted", "refused"])
def test_a_run_counts_every_shot_it_takes(monkeypatch, field, interval, bc, kwargs):
    shots = _counting_shots(monkeypatch)
    run = eigenvalues(field, interval, bc, **kwargs)
    assert run.shots == len(shots) > len(run.roots)


def test_an_accepted_scan_shoots_every_grid_node_first_in_order(monkeypatch):
    # free field on (0, pi), roots 1, 4, 9 in the scan: the 60 grid nodes
    # are shot before any refinement, each once and in grid order
    shot = []

    def recorded(*args, **kw):
        shot.append((args[3], kw.get("derivative", False)))
        return characteristic(*args, **kw)

    monkeypatch.setattr(spectral, "characteristic", recorded)
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 10), grid=60).roots
    assert [round(r.lam.real, 9) for r in res if r.converged] == [1.0, 4.0, 9.0]
    assert shot[:60] == [(t, False) for t in np.linspace(0.5, 10, 60).tolist()]
    assert len(shot) > 60 and all(derivative for _, derivative in shot[60:])


def test_root_on_a_scan_node_is_kept():
    # Neumann free field on [0, 3]: D(0) is exactly 0 at the middle node of
    # the grid -1, 0, 1, with no sign change on either side of it
    # (exactly 0 on the exact path too: exp(hA) = I + hA at lambda = 0)
    neumann = BoundaryCondition((0, 1), (0, 1))
    res = eigenvalues(FREE, (0, 3), neumann, scan=(-1, 1), grid=3).roots
    assert [(r.lam, r.converged, r.method) for r in res] == [(0j, True, "shooting-scan-node")]
    assert res[0].residual == 0.0


def test_delta_well_ground_state():
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-2, -0.5), grid=16).roots
    good = [r for r in res if r.converged]
    assert len(good) == 1
    assert good[0].lam.real == pytest.approx(-1.0, abs=1e-6)


def test_delta_well_truncation_convergence():
    dw = CoefficientField.delta_well(-2.0)
    errs = []
    for L in (10.0, 20.0):
        res = eigenvalues(dw, (-L, L), BC, scan=(-1.3, -0.7), grid=10).roots
        lam = [r for r in res if r.converged][0].lam.real
        errs.append(abs(lam + 1.0))
    assert errs[0] <= 5.0 * math.exp(-20.0)
    assert errs[0] / max(errs[1], 1e-300) >= 1e4


def _eigenfunction(c, interval, lam):
    """The dense shot at lam from the Dirichlet left state, as a shot starts it."""
    return integrate(c, lam, QuasiState(float(interval[0]), -0.0, 1.0), float(interval[1]))


def test_delta_well_eigenfunction_matches_exponential():
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-1.3, -0.7), grid=10).roots
    r = [t for t in res if t.converged][0]
    u = _eigenfunction(dw, (-20, 20), r.lam)
    u0 = u.state_at(0.0).y0
    worst = 0.0
    for x in np.linspace(-5, 5, 101):
        got = u.state_at(float(x)).y0 / u0
        want = math.exp(-abs(float(x)))
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-4


def test_delta_well_eigenfunction_refit_solves_the_equation_in_l2():
    # the re-fitted trajectory u: ||l[u] - lambda u|| / ||u|| / (1 + |lambda|)
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-1.3, -0.7), grid=10).roots
    r = [t for t in res if t.converged][0]
    u = _eigenfunction(dw, (-20, 20), r.lam).to_piecewise(-20, 20)
    lu, atoms = apply_l_atoms(dw, u, (-20, 20))
    assert atoms == {}
    diff = lu - r.lam * u
    num = (diff * diff.conj()).integrate(-20, 20).real
    den = (u * u.conj()).integrate(-20, 20).real
    assert math.sqrt(max(num, 0.0) / den) / (1 + abs(r.lam)) <= 1e-6


def test_newton_complex_drift_vs_fd_oracle():
    # r = -i constant: the expression acts as -u'' + 2u'; eigenvalues are
    # n^2 + 1 (similarity u = e^x w), confirmed against the FD oracle
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.constant(-1j)
    )
    res = eigenvalues(c, (0, math.pi), BC, seeds=[1.0, 4.0, 9.0, 16.0, 25.0]).roots
    good = sorted((r for r in res if r.converged), key=lambda r: r.lam.real)
    assert len(good) == 5
    oracle = fd_drift_eigenvalues()
    for r, ref in zip(good, oracle):
        assert abs(r.lam - ref) <= 1e-4 * (1 + abs(ref))
        assert r.lam.real == pytest.approx(round(r.lam.real), abs=1e-6)


FREE_SEEDS = [1.03 + 0.2j, 3.9 - 0.15j, 9.2 + 0.1j, 15.6 - 0.2j]


def test_newton_roots_reach_rounding():
    # Newton steps on the exact D' stop at the noise floor or one step
    # past CHAR_TOL, and every root keeps the floor of its shot
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=FREE_SEEDS).roots
    assert [r.converged for r in res] == [True] * 4
    for n, r in enumerate(res, 1):
        assert abs(r.lam - n * n) <= 1e-14 * n * n
        assert abs(r.lam.imag) <= 1e-14
        assert math.isfinite(r.floor)
    drift = CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.constant(-1j))
    res = eigenvalues(drift, (0, math.pi), BC, seeds=[2.1, 5.2, 9.8, 17.3]).roots
    assert [r.converged for r in res] == [True] * 4
    for n, r in enumerate(res, 1):
        assert abs(r.lam - (n * n + 1)) <= 1e-14 * (n * n + 1)
        assert math.isfinite(r.floor)


def test_delta_well_seed_is_accepted_at_its_noise_floor():
    # the complex seed reaches the bound state -1 of the scan test above;
    # its residual is above CHAR_TOL but within the floor its D' shot gives
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, seeds=[-1.1 + 0.05j]).roots
    assert len(res) == 1
    r = res[0]
    assert r.converged and r.method == "shooting-newton"
    assert abs(r.lam + 1) <= 1e-15
    assert spectral.config.CHAR_TOL < r.residual <= r.floor
    assert r.shots == r.iterations >= 1


def test_duplicate_roots_merge_into_the_first_found():
    # two seeds on the root 4 from either side of the real axis: the first
    # seed's root is kept, whatever the sign of its imaginary part, and
    # counts the other's shots
    for seeds in ([4.2 + 0.3j, 3.9 - 0.2j], [3.9 - 0.2j, 4.2 + 0.3j]):
        alone = eigenvalues(FREE, (0, math.pi), BC, seeds=seeds[:1]).roots
        other = eigenvalues(FREE, (0, math.pi), BC, seeds=seeds[1:]).roots
        (r,) = eigenvalues(FREE, (0, math.pi), BC, seeds=seeds).roots
        assert (r.lam, r.iterations) == (alone[0].lam, alone[0].iterations)
        assert r.shots == alone[0].shots + other[0].shots


def test_descending_scan_range_is_refused():
    # lambda = 1 lies in the range, but a bracket assumes lo < hi
    for scan in ((1.7, 0.5), (1.0, 1.0)):
        with pytest.raises(ValueError, match="lo < hi"):
            eigenvalues(FREE, (0, math.pi), BC, scan=scan)


def test_newton_spends_one_shot_per_iterate(monkeypatch):
    # Newton steps on the exact D': one shot per iterate, the seed's
    # included (21 shots here); centred differences took 43
    shots = _counting_shots(monkeypatch)
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=FREE_SEEDS).roots
    assert [round(r.lam.real) for r in res if r.converged] == [1, 4, 9, 16]
    assert len(shots) <= 32


def test_scan_builds_the_system_once_per_field(monkeypatch):
    # lambda is a scalar of the shot: the product g1*g2 of entry (2,1) is
    # formed once per field, not once per shot
    products = []
    mul = PiecewisePoly.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(PiecewisePoly, "__mul__", counted)
    counts = []
    for grid in (8, 32):
        products.clear()
        res = eigenvalues(CoefficientField.delta_well(-2.0), (-20, 20), BC, scan=(-2, -0.5), grid=grid).roots
        assert [round(r.lam.real) for r in res if r.converged] == [-1]
        counts.append(len(products))
    assert counts[0] == counts[1]


def test_scan_reads_the_segment_rows_once_per_field(monkeypatch):
    # the pieces of the entries on each segment are read once per field
    # and interval, when the plan is built, not once per shot
    builds = []
    build = propagate._build_plan

    def counted(c, x_from, to):
        builds.append((x_from, to))
        return build(c, x_from, to)

    monkeypatch.setattr(propagate, "_build_plan", counted)
    counts = []
    for grid in (8, 32):
        builds.clear()
        res = eigenvalues(CoefficientField.delta_well(-2.0), (-20, 20), BC, scan=(-2, -0.5), grid=grid).roots
        assert [round(r.lam.real) for r in res if r.converged] == [-1]
        counts.append(builds[:])
    assert counts == [[(-20.0, 20.0)]] * 2


def test_newton_real_seed_stays_real():
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=[4.2 + 0.3j]).roots
    good = [r for r in res if r.converged]
    assert len(good) == 1
    assert good[0].lam.real == pytest.approx(4.0, abs=1e-8)
    assert abs(good[0].lam.imag) <= 1e-8


def test_newton_duplicate_seeds_merge():
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=[3.9, 4.1]).roots
    good = [r for r in res if r.converged]
    assert len(good) == 1


def test_probe_free_lambda0():
    rep = null_probe(FREE, 0.0, 40.0)
    assert rep.classification == "grows"
    assert rep.monotone
    # the constant direction dominates: N(T) ~ 2T
    for T, n in zip(rep.windows, rep.N):
        if T >= 5.0:
            assert n / (2 * T) <= 2.0 and n / (2 * T) >= 0.5


def test_probe_free_lambda_minus1():
    rep = null_probe(FREE, -1.0, 40.0)
    assert rep.classification == "grows"
    assert rep.monotone
    for T, logn in zip(rep.windows, rep.log_N):
        if T >= 5.0:
            want = math.log(math.sinh(2 * T) / 2 - T)
            assert abs(logn - want) <= math.log(2.0)


def test_probe_linear_drift_grows():
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0, -1j])
    )
    rep = null_probe(c, 0.0, 40.0)
    assert rep.classification == "grows"
    assert rep.monotone


def test_probe_limit_circle_not_growing():
    # s = -x^4 is limit-circle at both ends: every solution is L2, so the
    # probe must not report growth (saturation or inconclusive at worst)
    c = CoefficientField(
        PiecewisePoly.from_coeffs([0, 0, 0, 0, -1.0]),
        PiecewisePoly.zero(),
        PiecewisePoly.zero(),
    )
    rep = null_probe(c, 0.0, 10.0)
    assert rep.classification in ("bounded", "inconclusive")
    assert rep.tail_ratio < 1.05


def _drift(sign: int, p: int) -> CoefficientField:
    """r = sign i x^p, s = Q = 0."""
    z = PiecewisePoly.zero()
    return CoefficientField(z, z, PiecewisePoly.from_coeffs([0] * p + [sign * 1j]))


def test_probe_ratios_past_the_float_range_are_inf_not_a_traceback():
    # r = i x^3 at lambda = -1: N(10)/N(5) = e^9370.  The ratio was
    # math.exp of the log difference, an OverflowError; every window is
    # resolved (the Gram's eigenvalues stay within a factor 0.8)
    rep = null_probe(_drift(1, 3), -1.0, 10.0)
    assert rep.tail_ratio == math.inf
    assert all(math.isfinite(v) for v in rep.log_N)
    assert rep.monotone and rep.classification == "grows"
    assert not any("unresolved" in note for note in rep.notes)


def test_probe_classifies_only_the_windows_below_the_first_unresolved_one():
    # r = -i x^2 at lambda = -1: the pair is parallel to rounding from T = 5
    # on (N(5)/lambda_max = 2.3e-16, and N(10) = 0.0); the old rule called
    # it "bounded" from 1 - N(5)/N(10) = -inf
    c, windows = _drift(-1, 2), spectral.default_windows(10.0)
    rep = null_probe(c, -1.0, 10.0)
    assert rep.N[-1] == 0.0 and not rep.monotone
    assert rep.classification != "bounded"
    assert rep.notes[0].startswith("N(5.0) is below its rounding floor")
    # the seven resolved windows alone give the same classification; they
    # reach T = 2.5 only, short of tmax/2, so their growth is no "grows"
    alone = null_probe(c, -1.0, 10.0, windows=windows[:7])
    assert not any("unresolved" in note for note in alone.notes)
    assert rep.classification == alone.classification == "inconclusive"
    assert rep.notes[1:] == alone.notes
    # fewer than three resolved windows give no classification
    few = null_probe(c, -1.0, 10.0, windows=(1.25, 2.5, 5.0, 10.0))
    assert few.classification == "inconclusive"
    assert few.notes == (rep.notes[0],)


@pytest.mark.parametrize("windows", [
    (1.25, 2.5, 5.0, 10.0),
    (1.25, 2.5, 5.0, 10.0, 10.0),  # the last two windows coincide
    (1.25, 2.5, 5.0, 9.999, 10.0),  # or nearly
])
def test_probe_judges_its_last_window_against_the_one_a_doubling_back(windows):
    # free field at lambda = -1: N rises by e^18 over the ladder, and the
    # last window is read against T = 5, not against its neighbour
    rep = null_probe(FREE, -1.0, 10.0, windows=windows)
    assert rep.classification == "grows"
    assert rep.tail_ratio == math.exp(rep.log_N[-1] - rep.log_N[2])


def test_probe_of_a_bound_state_saturates_against_the_window_a_doubling_back():
    # delta well q = -2 delta at its bound state lambda = -1
    rep = null_probe(CoefficientField.delta_well(-2.0), -1.0, 10.0, windows=(2.5, 5.0, 9.999, 10.0))
    assert rep.classification == "bounded"
    assert rep.notes[-1] == "Gram mass saturates: an L2 null direction is not excluded"


def test_probe_without_a_window_a_doubling_back_is_inconclusive():
    rep = null_probe(FREE, -1.0, 10.0, windows=(6.0, 8.0, 10.0))
    assert rep.classification == "inconclusive"
    assert rep.notes == ("no resolved window is at most half of T=10.0: "
                         "saturation and growth need a window one doubling back",)
    assert rep.tail_ratio == math.inf


@pytest.mark.parametrize("tmax", [10, 20])
@pytest.mark.parametrize("lam", [-1, [-0.5, 0.5]], ids=["-1", "-0.5+0.5i"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1], ids=["+i", "-i"])
def test_probe_of_a_polynomial_drift_ends_with_a_documented_exit_code(tmp_path, capsys, sign, p, lam, tmax):
    import json

    from qschro.cli import main

    problem = {"task": "probe", "coefficients": {"r": {"pieces": [[0] * p + [[0, sign]]]}},
               "params": {"lambda": lam, "tmax": tmax}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code = main(["probe", "--input", str(path), "--out", str(tmp_path)])
    # 0 grows, 2 bounded or inconclusive, 70 a numeric error (README)
    assert code in (0, 2, 70), capsys.readouterr().err
    report = (tmp_path / "report.txt").read_text()
    verdict = {"grows": 0, "bounded": 2, "inconclusive": 2}
    assert code == verdict[report.split("verdict: ")[1].split()[0]]


def test_probe_gram_nesting():
    rep = null_probe(FREE, 0.5, 20.0)
    assert rep.monotone


def test_probe_rejects_bad_shift():
    with pytest.raises(ValueError):
        null_probe(FREE, 1.5, 40.0)
    with pytest.raises(ValueError):
        null_probe(FREE, 0.0, 5.0)
    for windows in ([0.0, 5.0, 10.0], [-1.0, 10.0], [math.nan, 5.0]):
        with pytest.raises(ValueError, match="positive"):
            null_probe(FREE, 0.0, 10.0, windows=windows)


def test_probe_overflow_carries_its_window(monkeypatch):
    # a Gram matrix that is not finite names its window, as an attribute too
    grams = spectral._window_grams

    def broken(fs, windows):
        M, L = grams(fs, windows)
        M[3] = np.nan
        return M, L

    monkeypatch.setattr(spectral, "_window_grams", broken)
    T = default_windows(40.0)[3]
    with pytest.raises(spectral.OverflowUnrecoverableError) as err:
        null_probe(FREE, 0.0, 40.0)
    assert str(err.value) == f"Gram renormalization failed on window T={T}"
    assert err.value.window == T
    assert err.value.logscale is None and err.value.index is None


def test_default_windows_ladder():
    ws = default_windows(40.0)
    assert len(ws) == 9
    assert ws[-1] == 40.0
    assert ws[0] == pytest.approx(40.0 / 256)


def reference_window_grams(pair, windows):
    """The Gram matrices window by window: three pair_integral calls each,
    put on the largest of their logscales and symmetrised."""
    (y1, y2), grams, scales = pair, [], []
    for T in windows:
        g11, l11 = pair_integral(y1, y1, -T, T)
        g22, l22 = pair_integral(y2, y2, -T, T)
        g12, l12 = pair_integral(y1, y2, -T, T)
        L = max(l11, l22, l12)
        m12 = g12 * math.exp(l12 - L)
        M = np.array([[g11 * math.exp(l11 - L), m12.conjugate()], [m12, g22 * math.exp(l22 - L)]])
        grams.append(0.5 * (M + M.conj().T))
        scales.append(L)
    return np.array(grams), np.array(scales)


DRIFT = CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0, -1j]))


@pytest.mark.parametrize("c", [FREE, CoefficientField.delta_well(-2.0), DRIFT], ids=["free", "delta", "drift"])
@pytest.mark.parametrize("lam, tmax, windows", [
    (-1.0, 12.0, None),
    (0.5j, 15.0, (0.5, 3.0, 3.0, 7.5, 15.0)),  # a duplicate window and one at tmax
])
def test_probe_grams_match_the_windows_one_at_a_time(monkeypatch, c, lam, tmax, windows):
    ws = tuple(sorted(windows)) if windows else default_windows(tmax)
    pair = fundamental(c.adjoint, complex(lam).conjugate(), 0.0, (-tmax, tmax))
    M, L = spectral._window_grams(pair, ws)
    M_ref, L_ref = reference_window_grams(pair, ws)
    for T, m, m_ref, l, l_ref in zip(ws, M, M_ref, L, L_ref):
        assert l == l_ref, T  # the largest logscale of the steps inside the window
        assert np.max(np.abs(m - m_ref)) <= 1e-13 * np.max(np.abs(m_ref)), T
    got = null_probe(c, lam, tmax, windows)
    monkeypatch.setattr(spectral, "_window_grams", reference_window_grams)
    want = null_probe(c, lam, tmax, windows)
    assert (got.classification, got.monotone) == (want.classification, want.monotone)


# ----------------------------------------------------------------------
# a shot is the walk of its plan: the bits of a walk from a start state


def _bits(x):
    """Bit patterns of a float or complex (None as is), so that -0.0 is not 0.0."""
    if x is None:
        return None
    z = complex(x)
    return np.array([z.real, z.imag]).view(np.uint64).tolist()


def _endpoint_shot(c, interval, bc, lam, derivative):
    """The shot through a start state and the walk of the field's plan, as
    a CharValue was formed before shots walked their plans from a plain
    start."""
    al, be = bc.left
    start = QuasiState(float(interval[0]), -be, al)
    plan = propagate._plan(c, start.x, float(interval[1]))
    y, ls, log_sup = propagate._walk(plan, complex(lam), (start.y0, start.y1, start.logscale), derivative=derivative)
    ar, br = bc.right
    slope = ar * y[2] + br * y[3] if derivative else None
    return ar * y[0] + br * y[1], ls, log_sup, slope


def _jumpy():
    return CoefficientField(PiecewisePoly([-1.0, 0.5], [[0.2], [0.3 + 0.1j, 0.4], [-0.1]]),
                            PiecewisePoly.step(0.25, 0.0, -1.5),
                            PiecewisePoly([-0.5], [[0.0], [0.2, 0.1]]))


_SHOT_FIELDS = {
    "free": (CoefficientField.free, (0.0, math.pi), [5.0, -2.0, 3.0 + 0.5j]),
    "delta-well": (lambda: CoefficientField.delta_well(-2.0), (-7.0, 7.0), [-0.9, -1.0 + 0.2j]),
    "jumpy": (_jumpy, (-2.0, 2.5), [1.5, -0.5 + 0.7j]),
    "s=ix": (lambda: CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero()),
             (-0.0, math.pi), [5.0, 1.1 + 1.5j]),
}
_SHOT_BCS = {"dirichlet": BC, "robin": BoundaryCondition((0.3 - 0.2j, 1.0), (1.0, -0.5)),
             "neumann-robin": BoundaryCondition((0.0, 1.0), (2.0 + 1.0j, 1.0))}


@pytest.mark.parametrize("name", list(_SHOT_FIELDS))
def test_a_shot_has_the_bits_of_the_endpoint_shot(name):
    make, interval, lams = _SHOT_FIELDS[name]
    for adjoint, bc, lam, derivative in itertools.product((False, True), _SHOT_BCS.values(), lams, (False, True)):
        # the shot first, on a fresh field, so that it builds the plan
        c = make().adjoint if adjoint else make()
        got = characteristic(c, interval, bc, lam, derivative=derivative)
        want = _endpoint_shot(c, interval, bc, lam, derivative)
        assert list(map(_bits, (got.value, got.logscale, got.log_sup, got.slope))) == list(map(_bits, want)), (
            name, adjoint, bc, lam, derivative)
        assert (got.slope is None) == (not derivative)


def test_a_shot_from_minus_zero_walks_its_own_plan():
    # -0.0 and 0.0 start the same walk, each under its own plan key; the
    # shot from -0.0 keeps the bits of the endpoint shot from -0.0
    c = _SHOT_FIELDS["s=ix"][0]()
    for a in (-0.0, 0.0, -0.0):
        got = characteristic(c, (a, 2.0), BC, 3.0 - 0.5j, derivative=True)
        want = _endpoint_shot(c, (a, 2.0), BC, 3.0 - 0.5j, True)
        assert list(map(_bits, (got.value, got.logscale, got.log_sup, got.slope))) == list(map(_bits, want))
    assert len(c.plans) == 2


@pytest.mark.parametrize("coeffs, interval, lam, error", [
    # the exact sub-steps past x = 1 would be 1e-15 long, below the floor
    ((PiecewisePoly([1.0], [[0.0], [1e30]]), PiecewisePoly.zero()), (0.0, 3.0), 2.0 + 0.5j, "StepUnderflowError"),
    # s = 1e300 x past x = 1: a Taylor series past the float range
    ((PiecewisePoly([1.0], [[0, 1j], [0, 1e300]]), PiecewisePoly.zero()), (0.0, 2.0), 2.0, "StepUnderflowError"),
    # 1e9 long at lambda 2: about 1.4e9 exact sub-steps, past the step budget
    ((PiecewisePoly.zero(), PiecewisePoly.step(1.0, 0.0, -1.0)), (0.0, 1e9), 2.0, "StepBudgetError"),
], ids=["exact-floor", "taylor-overflow", "budget"])
def test_a_refused_shot_raises_the_error_of_the_endpoint_shot(coeffs, interval, lam, error):
    c = CoefficientField(*coeffs, PiecewisePoly.zero())
    bc = BoundaryCondition((0.3 - 0.1j, 1.0), (1.0, 0.0))
    for derivative in (False, True):
        raised = []
        for shoot in (lambda: characteristic(c, interval, bc, lam, derivative=derivative),
                      lambda: _endpoint_shot(c, interval, bc, lam, derivative)):
            with pytest.raises(QschroError) as err:
                shoot()
            e = err.value
            raised.append((type(e).__name__, e.x, e.h, e.y0, e.y1, e.logscale))
        assert raised[0][0] == error
        assert list(map(_bits, raised[0][1:])) == list(map(_bits, raised[1][1:])), raised


def test_a_scan_assembles_a_system_once_per_field_and_side(monkeypatch):
    # a shot reads the plan of its interval from the field; only the
    # first shot of a field and interval builds one, c's and c.adjoint's apart
    built = []
    build = propagate._build_plan

    def counted(c, x_from, to):
        built.append(id(c))
        return build(c, x_from, to)

    monkeypatch.setattr(propagate, "_build_plan", counted)
    c = CoefficientField.delta_well(-2.0)
    for f in (c, c.adjoint):
        res = eigenvalues(f, (-20, 20), BC, scan=(-2, -0.5), grid=60).roots
        assert [round(r.lam.real) for r in res if r.converged] == [-1]
        assert res[0].shots > 0
    assert built == [id(c), id(c.adjoint)]
    res = eigenvalues(c, (-20, 20), BC, scan=(-2, -0.5), grid=60, seeds=[-0.9 + 0.1j]).roots
    assert built == [id(c), id(c.adjoint)]


# s, Q and r complex, Q with a step at 1, and complex boundary pairs
COMPLEX_FIELD = (PiecewisePoly([], [[0.4 + 0.3j, 0.2 - 0.1j]]),
                 PiecewisePoly([1.0], [[0.3 + 0.2j], [0.1, 0.3 + 0.2j]]),
                 PiecewisePoly([], [[0.2 + 0.1j]]))
COMPLEX_PAIRS = ((1.0, 0.5 + 0.2j), (0.7 - 0.3j, 1.0))


def test_the_adjoint_side_under_the_conjugated_pairs_has_the_conjugate_roots():
    # the adjoint field solves l[conj s, conj Q, conj r] - lambda under the
    # conditions it is given; the adjoint operator's conditions are the
    # conjugated pairs, and its eigenvalues the conjugates of the direct ones
    c = CoefficientField(*COMPLEX_FIELD)
    conjugated = BoundaryCondition(*(tuple(z.conjugate() for z in pair) for pair in COMPLEX_PAIRS))
    seeds = (1.5, 4.5, 9.5)
    direct = eigenvalues(c, (0, math.pi), BoundaryCondition(*COMPLEX_PAIRS), seeds=seeds).roots
    adjoint = eigenvalues(c.adjoint, (0, math.pi), conjugated, seeds=seeds).roots
    same = eigenvalues(c.adjoint, (0, math.pi), BoundaryCondition(*COMPLEX_PAIRS), seeds=seeds).roots
    assert len(direct) == len(adjoint) == len(same) == 3
    assert all(r.converged for r in direct + adjoint + same)
    assert all(abs(d.lam.imag) > 0.05 for d in direct)
    for d, a, s in zip(direct, adjoint, same):
        assert abs(a.lam - d.lam.conjugate()) <= 1e-12 * (1 + abs(d.lam))
        assert abs(s.lam - d.lam.conjugate()) > 0.05


def _roots(results) -> list:
    return [(r.lam, r.residual, r.floor, r.iterations, r.converged, r.method, r.shots) for r in results]


def test_a_boundary_pair_is_only_a_direction():
    # a tiny right pair is not a small D: (1e-12, 0) finds the root that
    # (1, 0) finds from the seed 2, not a "converged" -15.6 of residual
    # 2.5e-13; a subnormal left pair overflows no residual
    assert list(map(_bits, BoundaryCondition((1 + 0j, 0j)).left)) == [_bits(1.0), _bits(0.0)]
    assert BoundaryCondition((2 + 1j, 1.0)).left == (1 + 0.5j, 0.5)
    assert BoundaryCondition(right=(0j, 1e308 - 1e308j)).right == (0, 1 - 1j)
    box = (0.0, math.pi)
    want = eigenvalues(FREE, box, BC, seeds=[2.0]).roots
    assert want[0].converged and abs(want[0].lam - 1) <= 1e-15
    assert _roots(eigenvalues(FREE, box, BoundaryCondition(right=(1e-12, 0.0)), seeds=[2.0]).roots) == _roots(want)
    neumann = eigenvalues(FREE, box, BoundaryCondition(left=(0.0, 1.0)), seeds=[1.1]).roots
    assert neumann[0].converged and neumann[0].lam == 6.25
    assert _roots(eigenvalues(FREE, box, BoundaryCondition(left=(0.0, 1e-310)), seeds=[1.1]).roots) == _roots(neumann)


@pytest.mark.parametrize("factor", [1e-300, 1e-12, 1e12, 1e300])
def test_a_scaled_boundary_pair_moves_no_root_residual_or_floor(factor):
    # a delta-well scan with a Newton seed, a Robin right end: either pair
    # or both scaled by a power of ten give the roots of the pairs as given
    dw = CoefficientField.delta_well(-2.0)
    left, right = (1.0, 0.0), (2.0, -1.0)
    scaled = (factor * left[0], factor * left[1]), (factor * right[0], factor * right[1])

    def run(bc):
        return _roots(eigenvalues(dw, (-20, 20), bc, scan=(-2, -0.5), grid=16, seeds=[-1.1 + 0.05j]).roots)

    want = run(BoundaryCondition(left, right))
    assert want and all(r[4] for r in want)
    for bc in (BoundaryCondition(scaled[0], right), BoundaryCondition(left, scaled[1]), BoundaryCondition(*scaled)):
        assert run(bc) == want
