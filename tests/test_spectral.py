"""Shooting spectra and the null-space growth probe."""

import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qschro import spectral
from qschro.coeffs import CoefficientField, PiecewisePoly
from qschro.errors import NonRealScanError
from qschro.propagate import fundamental, integrate, pair_integral
from qschro.quasi import ADJOINT, QuasiState, assemble
from qschro.spectral import (
    BoundaryCondition,
    characteristic,
    default_windows,
    eigenfunction_residual,
    eigenvalues,
    null_probe,
)

FREE = CoefficientField.free()
BC = BoundaryCondition.dirichlet()


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
    """D(lambda) e^logscale from a Dormand-Prince shot with dense output."""
    end = integrate(assemble(c, "direct", lam), QuasiState(interval[0], 0.0, 1.0), interval[1]).state_at(interval[1])
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
    run = spectral.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(spectral, "integrate", counted)
    return calls


def test_scan_of_constant_field_keeps_no_dense_output(monkeypatch):
    # the scan and Brent's shots are exact endpoint shots; the dense shot
    # is run once, when the eigenfunction is first read, and then kept
    calls = _counting_integrate(monkeypatch)
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60)
    assert len(res) == 5 and not calls
    r = res[1]
    traj = r.trajectory
    assert len(calls) == 1
    assert r.trajectory is traj and len(calls) == 1
    want = integrate(assemble(FREE, "direct", r.lam), QuasiState(0.0, -0.0, 1.0), math.pi)
    assert np.array_equal(traj.steps, want.steps)


def test_characteristic_delta_well_truncated_bound_state():
    dw = CoefficientField.delta_well(-2.0)
    cv = characteristic(dw, (-20, 20), BC, -1.0)
    assert cv.residual <= 1e-6


def test_free_spectrum_scan():
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60)
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
    # 60 grid shots, then Brent's method and one final shot per root; the
    # bisection this replaced needed 285 shots for the five roots
    shots = _counting_shots(monkeypatch)
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60)
    assert [round(r.lam.real) for r in res if r.converged] == [1, 4, 9, 16, 25]
    assert len(shots) <= 120


def test_scan_refinement_rescales_the_bracket(monkeypatch):
    # delta well alpha = 20, ground state -100: the shots in this one-cell
    # bracket rescale by logscales that differ by up to 0.23, so mantissas
    # alone are off by up to 25 percent and slow Brent's interpolation
    shots = _counting_shots(monkeypatch)
    dw = CoefficientField.delta_well(-20.0)
    res = eigenvalues(dw, (-25, 25), BC, scan=(-110, -94), grid=2, tol=(1e-8, 1e-6))
    assert len(res) == 1 and res[0].converged and res[0].method == "shooting-scan-brent"
    assert abs(res[0].lam + 100) <= 1e-12 * 100
    assert len(shots) <= 14


def test_real_scan_refuses_a_complex_discriminant():
    # s = i x: the eigenvalues are 1.109, 3.966, 8.981, each + 1.571i.  Re D
    # changes sign on the real axis, and refining it would report false
    # roots near 3.61 and 8.80 as converged.
    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    with pytest.raises(NonRealScanError) as err:
        eigenvalues(ix, (0, math.pi), BC, scan=(0.5, 12), grid=40)
    assert err.value.ratio > 0.99


def test_root_on_a_scan_node_is_kept():
    # Neumann free field on [0, 3]: D(0) is exactly 0 at the middle node of
    # the grid -1, 0, 1, with no sign change on either side of it
    # (exactly 0 on the exact path too: exp(hA) = I + hA at lambda = 0)
    neumann = BoundaryCondition((0, 1), (0, 1))
    res = eigenvalues(FREE, (0, 3), neumann, scan=(-1, 1), grid=3)
    assert [(r.lam, r.converged, r.method) for r in res] == [(0j, True, "shooting-scan-node")]
    assert res[0].residual == 0.0 and res[0].trajectory is not None


def test_delta_well_ground_state():
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-2, -0.5), grid=16)
    good = [r for r in res if r.converged]
    assert len(good) == 1
    assert good[0].lam.real == pytest.approx(-1.0, abs=1e-6)


def test_delta_well_truncation_convergence():
    dw = CoefficientField.delta_well(-2.0)
    errs = []
    for L in (10.0, 20.0):
        res = eigenvalues(dw, (-L, L), BC, scan=(-1.3, -0.7), grid=10)
        lam = [r for r in res if r.converged][0].lam.real
        errs.append(abs(lam + 1.0))
    assert errs[0] <= 5.0 * math.exp(-20.0)
    assert errs[0] / max(errs[1], 1e-300) >= 1e4


def test_delta_well_eigenfunction_matches_exponential():
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-1.3, -0.7), grid=10)
    r = [t for t in res if t.converged][0]
    u0 = r.trajectory.state_at(0.0).y0
    worst = 0.0
    for x in np.linspace(-5, 5, 101):
        got = r.trajectory.state_at(float(x)).y0 / u0
        want = math.exp(-abs(float(x)))
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-4


def test_eigenfunction_residual_in_l2():
    dw = CoefficientField.delta_well(-2.0)
    res = eigenvalues(dw, (-20, 20), BC, scan=(-1.3, -0.7), grid=10)
    r = [t for t in res if t.converged][0]
    assert eigenfunction_residual(dw, r, (-20, 20)) <= 1e-6


def test_newton_complex_drift_vs_fd_oracle():
    # r = -i constant: the expression acts as -u'' + 2u'; eigenvalues are
    # n^2 + 1 (similarity u = e^x w), confirmed against the FD oracle
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.constant(-1j)
    )
    res = eigenvalues(c, (0, math.pi), BC, seeds=[1.0, 4.0, 9.0, 16.0, 25.0])
    good = sorted((r for r in res if r.converged), key=lambda r: r.lam.real)
    assert len(good) == 5
    oracle = fd_drift_eigenvalues()
    for r, ref in zip(good, oracle):
        assert abs(r.lam - ref) <= 1e-4 * (1 + abs(ref))
        assert r.lam.real == pytest.approx(round(r.lam.real), abs=1e-6)


FREE_SEEDS = [1.03 + 0.2j, 3.9 - 0.15j, 9.2 + 0.1j, 15.6 - 0.2j]


def test_newton_roots_are_polished_to_rounding():
    # the first iterate under CHAR_TOL is still about 1e-10 off the root;
    # one more secant step brings it to rounding
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=FREE_SEEDS)
    assert [r.converged for r in res] == [True] * 4
    for n, r in enumerate(res, 1):
        assert abs(r.lam - n * n) <= 1e-14 * n * n
        assert abs(r.lam.imag) <= 1e-14
    drift = CoefficientField(PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.constant(-1j))
    res = eigenvalues(drift, (0, math.pi), BC, seeds=[2.1, 5.2, 9.8, 17.3])
    assert [r.converged for r in res] == [True] * 4
    for n, r in enumerate(res, 1):
        assert abs(r.lam - (n * n + 1)) <= 1e-14 * (n * n + 1)


def test_newton_spends_one_shot_per_iterate(monkeypatch):
    # secant steps: two shots to start each seed, then one per iterate;
    # centred differences took three per iterate, 43 shots here
    shots = _counting_shots(monkeypatch)
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=FREE_SEEDS)
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
        res = eigenvalues(CoefficientField.delta_well(-2.0), (-20, 20), BC, scan=(-2, -0.5), grid=grid)
        assert [round(r.lam.real) for r in res if r.converged] == [-1]
        counts.append(len(products))
    assert counts[0] == counts[1]


def test_newton_real_seed_stays_real():
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=[4.2 + 0.3j])
    good = [r for r in res if r.converged]
    assert len(good) == 1
    assert good[0].lam.real == pytest.approx(4.0, abs=1e-8)
    assert abs(good[0].lam.imag) <= 1e-8


def test_newton_duplicate_seeds_merge():
    res = eigenvalues(FREE, (0, math.pi), BC, seeds=[3.9, 4.1])
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
    rep = null_probe(c, 0.0, 10.0, tol=(1e-9, 1e-7))
    assert rep.classification in ("bounded", "inconclusive")
    assert rep.tail_ratio < 1.05


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


def test_default_windows_ladder():
    ws = default_windows(40.0)
    assert len(ws) == 9
    assert ws[-1] == 40.0
    assert ws[0] == pytest.approx(40.0 / 256)


def reference_window_grams(fs, windows):
    """The Gram matrices window by window: three pair_integral calls each,
    put on the largest of their logscales and symmetrised."""
    grams, scales = [], []
    for T in windows:
        g11, l11 = pair_integral(fs.y1, fs.y1, -T, T)
        g22, l22 = pair_integral(fs.y2, fs.y2, -T, T)
        g12, l12 = pair_integral(fs.y1, fs.y2, -T, T)
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
    fs = fundamental(assemble(c, ADJOINT, complex(lam).conjugate()), 0.0, (-tmax, tmax))
    M, L = spectral._window_grams(fs, ws)
    M_ref, L_ref = reference_window_grams(fs, ws)
    for T, m, m_ref, l, l_ref in zip(ws, M, M_ref, L, L_ref):
        assert l == l_ref, T  # the largest logscale of the steps inside the window
        assert np.max(np.abs(m - m_ref)) <= 1e-13 * np.max(np.abs(m_ref)), T
    got = null_probe(c, lam, tmax, windows)
    monkeypatch.setattr(spectral, "_window_grams", reference_window_grams)
    want = null_probe(c, lam, tmax, windows)
    assert (got.classification, got.monotone) == (want.classification, want.monotone)
