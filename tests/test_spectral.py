"""Shooting spectra and the null-space growth probe."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qschro import spectral
from qschro.coeffs import CoefficientField, PiecewisePoly
from qschro.errors import NonRealScanError
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


def test_default_windows_ladder():
    ws = default_windows(40.0)
    assert len(ws) == 9
    assert ws[-1] == 40.0
    assert ws[0] == pytest.approx(40.0 / 256)
