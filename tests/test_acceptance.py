"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are frozen from independent oracles: closed-form
eigenfunctions, hand integration, closed-form Gram matrices, and a dense
finite-difference eigensolver; never from the code paths under test.
"""

import json
import math
import sys

import numpy as np
import pytest

from qschro.cli import load_problem, run_problem
from qschro.coeffs import CoefficientField, PiecewisePoly, bump
from qschro.conditions import (
    IntervalScheme,
    WeightFunction,
    check_growth,
    check_intervals,
    check_m,
    verify_caccioppoli,
)
from qschro.lagrange_forms import (
    bracket_constancy_residual,
    form_vs_operator_check,
    lagrange_residual,
)
from qschro.propagate import integrate
from qschro.quasi import QuasiState, product_rule_check
from qschro.spectral import BoundaryCondition, eigenvalues, null_probe

FREE = CoefficientField.free()
DELTA = CoefficientField.delta_well(-2.0)
DRIFT = CoefficientField(
    PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0.0, -1j])
)
BC = BoundaryCondition()


def report(n, ok, msg):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {msg}"
    print(line, file=sys.stderr)
    assert ok, line


def random_corpus_field(rng, jump_Q=True, jump_r=True, scale=0.4):
    def poly(deg, jumpy):
        nbp = int(rng.integers(1, 3)) if jumpy else 0
        bps = np.sort(rng.uniform(-4, 4, nbp))
        while len(bps) > 1 and np.min(np.diff(bps)) < 0.3:
            bps = np.sort(rng.uniform(-4, 4, nbp))
        pieces = [
            scale * (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            for _ in range(nbp + 1)
        ]
        return PiecewisePoly(bps, pieces)

    return CoefficientField(poly(1, False), poly(1, jump_Q), poly(1, jump_r))


def test_criterion_01_free_spectrum_oracle():
    # oracle: u = sin(n x) solves -u'' = n^2 u with Dirichlet walls at 0, pi
    res = eigenvalues(FREE, (0, math.pi), BC, scan=(0.5, 30), grid=60).roots
    good = [r for r in res if r.converged]
    expected = [1.0, 4.0, 9.0, 16.0, 25.0]
    ok = len(good) == 5 and all(
        abs(r.lam.real - e) <= 1e-6 * e and abs(r.lam.imag) <= 1e-8
        for r, e in zip(good, expected)
    )
    report(1, ok, f"free spectrum {[round(r.lam.real, 9) for r in good]} vs {expected}")


def test_criterion_02_delta_measure_oracle():
    res = eigenvalues(DELTA, (-20, 20), BC, scan=(-2, -0.5), grid=16).roots
    good = [r for r in res if r.converged]
    ok = len(good) == 1 and abs(good[0].lam.real + 1.0) <= 1e-6
    msgs = [f"ground={good[0].lam.real!r}"]

    # eigenfunction vs e^{-|x|}, normalized at 0: the dense shot at the
    # root from the left state (-beta, alpha) = (-0.0, 1.0)
    traj = integrate(DELTA, good[0].lam, QuasiState(-20.0, -0.0, 1.0), 20.0)
    u0 = traj.state_at(0.0).y0
    sup = max(
        abs(traj.state_at(float(x)).y0 / u0 - math.exp(-abs(float(x))))
        / math.exp(-abs(float(x)))
        for x in np.linspace(-5, 5, 201)
    )
    ok = ok and sup <= 1e-4
    msgs.append(f"eigenfunction sup-dev={sup:.2e}")

    # u' jumps by -2 u(0); the quasi-derivative does not
    y0l, y1l = traj.sample([0.0], "left")[0][0]
    y0r, y1r = traj.sample([0.0], "right")[0][0]
    upl = y1l + DELTA.G1.eval(0.0, "left") * y0l
    upr = y1r + DELTA.G1.eval(0.0, "right") * y0r
    scale = 1 + abs(y0l)
    jump_ok = abs((upr - upl) - (-2.0) * y0l) <= 1e-8 * scale
    cont_ok = abs(y1r - y1l) <= 1e-8 * (1 + abs(y1l))
    ok = ok and jump_ok and cont_ok
    msgs.append(f"u' jump ok={jump_ok}, quasi-derivative continuous={cont_ok}")
    report(2, ok, "; ".join(msgs))


def test_criterion_03_lagrange_identity_suite():
    rng = np.random.default_rng(20240803)
    worst_resid = 0.0
    worst_const = 0.0
    for _ in range(20):
        c = random_corpus_field(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        mu = complex(rng.standard_normal(), rng.standard_normal())
        u = integrate(c, lam, QuasiState(-5.0, 1.0, 0.4 + 0.2j), 5.0)
        v = integrate(c.adjoint, mu, QuasiState(-5.0, 0.8, 0.3j), 5.0)
        worst_resid = max(worst_resid, lagrange_residual(c, u, v, (-5, 5)))
        vpair = integrate(c.adjoint, lam.conjugate(), QuasiState(-5.0, 0.8, 0.3j), 5.0)
        worst_const = max(worst_const, bracket_constancy_residual(u, vpair, (-5, 5)))
    ok = worst_resid <= 1e-8 and worst_const <= 1e-8
    report(3, ok, f"identity residual<={worst_resid:.2e}, constancy<={worst_const:.2e} over 20 random jumpy problems")


def test_criterion_04_product_rule_suite():
    rng = np.random.default_rng(20240804)
    worst = 0.0
    for k in range(20):
        adjoint = k % 2  # the residual of c on even k, of c.adjoint on odd
        phi = bump(
            float(rng.uniform(-1.5, 1.5)),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.4, 1.2)),
        )
        if k < 10:
            # smooth polynomial u against a jumpy field
            c = random_corpus_field(rng)
            u = PiecewisePoly.from_coeffs(
                0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            )
        else:
            # u from a propagated solution: quasi-derivative continuous
            c = random_corpus_field(rng)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            traj = integrate(c.adjoint if adjoint else c, lam, QuasiState(-5.0, 1.0, 0.2), 5.0)
            u = traj.to_piecewise(-5, 5)
        worst = max(worst, product_rule_check(c, phi, u, (-5, 5))[adjoint])
    ok = worst <= 1e-9
    report(4, ok, f"product-rule residual<={worst:.2e} over 20 triples, both sides")


def test_criterion_05_form_consistency():
    rng = np.random.default_rng(20240805)
    corpus = [FREE, DELTA, DRIFT] + [random_corpus_field(rng) for _ in range(3)]
    worst = 0.0
    for k in range(20):
        c = corpus[k % len(corpus)]
        u = bump(
            float(rng.uniform(-1.5, 1.5)),
            float(rng.uniform(0.5, 2.5)),
            float(rng.uniform(0.4, 1.5)),
        )
        worst = max(worst, *form_vs_operator_check(c, [u], (-6, 6)))
    ok = worst <= 1e-8
    report(5, ok, f"form-vs-operator residual<={worst:.2e} over 20 bumps")


def test_criterion_06_caccioppoli_identity():
    worst = 0.0
    for c in (FREE, DELTA, DRIFT):
        v = integrate(c.adjoint, 0.0, QuasiState(-4.0, 1.0, 0.15), 4.0)
        for n in (1, 2):
            worst = max(worst, verify_caccioppoli(c, v, bump(0.0, 2.0 * n, 1.0)))
    ok = worst <= 1e-7
    report(6, ok, f"null-solution energy identity residual<={worst:.2e} (free, delta, drift)")


def test_criterion_07_condition_checkers():
    msgs = []
    m_abs = PiecewisePoly([0.0], [[1.0, -1.0], [1.0, 1.0]])
    w = WeightFunction(m_abs, 60.0)

    # (i) r1 = -x against m = 1+|x|
    rep_m = check_m(w, probe_points=[math.e**4 - 1])
    key = next(k for k in rep_m.witnesses if k.startswith("I("))
    rep_g = check_growth(PiecewisePoly.from_coeffs([0.0, -1.0]), w)
    ok_i = (
        rep_g.verdict == "holds-on-horizon"
        and rep_g.witnesses["C"] <= 1.01
        and rep_m.verdict == "holds-on-horizon"
        and abs(rep_m.witnesses[key] - 4.0) <= 1e-6
    )
    msgs.append(f"(i) C={rep_g.witnesses['C']:.4f}, I(e^4-1)={rep_m.witnesses[key]!r}")

    # (ii) r1 = -x^3 fails with a witness
    rep_c = check_growth(PiecewisePoly.from_coeffs([0, 0, 0, -1.0]), w)
    ok_ii = rep_c.verdict == "fails" and "witness_x" in rep_c.witnesses
    msgs.append(f"(ii) cubic verdict={rep_c.verdict}, witness x={rep_c.witnesses.get('witness_x')}")

    # (iii) m = 1+x^2 saturates at pi/2
    rep_q = check_m(WeightFunction(PiecewisePoly.from_coeffs([1.0, 0.0, 1.0]), 2e6))
    ok_iii = (
        rep_q.verdict == "inconclusive"
        and abs(rep_q.witnesses["I_right"] - math.pi / 2) <= 1e-6
        and abs(rep_q.witnesses["I_left"] - math.pi / 2) <= 1e-6
    )
    msgs.append(f"(iii) verdict={rep_q.verdict}, I={rep_q.witnesses['I_right']!r}")

    # (iv) r1 = 0 on unit intervals, unbounded spikes between them
    scheme = IntervalScheme.unit_intervals(5)
    bps = sorted(b for iv in scheme.intervals.values() for b in iv)
    pieces = []
    for i in range(len(bps) + 1):
        inside = i % 2 == 1
        pieces.append([0.0] if inside else [1e7, 0.0, 1e5])
    spiky = PiecewisePoly(bps, pieces, degree_cap=None)
    rep_b = check_intervals(spiky, scheme)
    ok_iv = rep_b.verdict == "holds-on-horizon" and rep_b.witnesses["C"] == 0.0
    msgs.append(f"(iv) verdict={rep_b.verdict}, C={rep_b.witnesses['C']}")

    report(7, ok_i and ok_ii and ok_iii and ok_iv, "; ".join(msgs))


def test_criterion_08_uniqueness_probes():
    msgs = []
    p0 = null_probe(FREE, 0.0, 40.0)
    trend0 = all(
        0.5 <= n / (2 * T) <= 2.0 for T, n in zip(p0.windows, p0.N) if T >= 5.0
    )
    ok0 = p0.classification == "grows" and trend0
    msgs.append(f"lam=0: {p0.classification}, 2T-trend within x2={trend0}")

    pm = null_probe(FREE, -1.0, 40.0)
    trendm = all(
        abs(logn - math.log(math.sinh(2 * T) / 2 - T)) <= math.log(2.0)
        for T, logn in zip(pm.windows, pm.log_N)
        if T >= 5.0
    )
    okm = pm.classification == "grows" and trendm
    msgs.append(f"lam=-1: {pm.classification}, e^2T-trend within x2={trendm}")

    pd = null_probe(DRIFT, 0.0, 40.0)
    okd = pd.classification == "grows"
    msgs.append(f"r=-ix: {pd.classification}")
    report(8, ok0 and okm and okd, "; ".join(msgs))


def test_criterion_09_solver_convergence():
    # u'' = u, exact solution e^x on [0, 2]; and u'' = (i x - 2) u, u(0) = 0,
    # u'(0) = 1 on [0, pi], a combination of Ai and Bi of w (x + 2i) with
    # w = e^(i pi/6).  Relative error at the end and at 50 interior points
    from scipy.special import airy

    xs = np.linspace(0.0, 2.0, 52)[1:]
    t = integrate(FREE, -1.0, QuasiState(0.0, 1.0, 1.0), 2.0)
    y, ls = t.sample(xs)
    err_free = float(np.max(np.abs(y[:, 0] * np.exp(ls) - np.exp(xs)) / np.exp(xs)))

    w = np.exp(1j * math.pi / 6)

    def airy_pair(x):
        ai, aip, bi, bip = airy(w * (x + 2j))
        return np.array([[ai, bi], [w * aip, w * bip]])

    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    ab = np.linalg.solve(airy_pair(0.0), [0.0, 1.0])
    xs = np.linspace(0.0, math.pi, 52)[1:]
    want = np.array([(airy_pair(x) @ ab)[0] for x in xs])
    t = integrate(ix, 2.0, QuasiState(0.0, 0.0, 1.0), math.pi)
    y, ls = t.sample(xs)
    err_ix = float(np.max(np.abs(y[:, 0] * np.exp(ls) - want)) / np.max(np.abs(want)))
    ok = err_free <= 1e-13 and err_ix <= 1e-13
    report(9, ok, f"relative errors {err_free:.1e} (u'' = u) and {err_ix:.1e} (s = i x) <= 1e-13")


def test_criterion_10_cli_determinism(tmp_path):
    problems = [
        {
            "task": "eig",
            "coefficients": {
                "s": {"breakpoints": [], "pieces": [["0"]]},
                "Q": {"breakpoints": ["0"], "pieces": [["0"], ["-2"]]},
                "r": {"breakpoints": [], "pieces": [["0"]]},
            },
            "params": {"interval": [-20, 20], "scan": [-2, -0.5], "grid": 12},
        },
        {
            "task": "check-a",
            "coefficients": {
                "s": {"breakpoints": [], "pieces": [["0"]]},
                "Q": {"breakpoints": [], "pieces": [["0"]]},
                "r": {"breakpoints": [], "pieces": [[["0", "0"], ["0", "-1"]]]},
            },
            "params": {
                "horizon": 60,
                "m": {"breakpoints": [0], "pieces": [[1, -1], [1, 1]]},
                "probe_points": [53.598150033144236],
            },
        },
        {
            "task": "probe",
            "coefficients": {
                "s": {"breakpoints": [], "pieces": [["0"]]},
                "Q": {"breakpoints": [], "pieces": [["0"]]},
                "r": {"breakpoints": [], "pieces": [["0"]]},
            },
            "params": {"lambda": 0, "tmax": 20},
        },
        {
            "task": "verify",
            "coefficients": {
                "s": {"breakpoints": [], "pieces": [["0"]]},
                "Q": {"breakpoints": ["0"], "pieces": [["0"], ["-2"]]},
                "r": {"breakpoints": [], "pieces": [["0"]]},
            },
            "params": {"window": [-5, 5], "lambda": [0.25, 0.1]},
        },
    ]

    def strip_meta(text):
        out, skip = [], False
        for line in text.splitlines():
            if line == "[metadata]":
                skip = True
            elif line == "[/metadata]":
                skip = False
            elif not skip:
                out.append(line)
        return "\n".join(out)

    identical = True
    for i, prob in enumerate(problems):
        p = tmp_path / f"p{i}.json"
        p.write_text(json.dumps(prob))
        raw = load_problem(str(p))
        _, t1, _ = run_problem(raw, argv=["run1"])
        _, t2, _ = run_problem(raw, argv=["run2"])
        if strip_meta(t1) != strip_meta(t2):
            identical = False
    report(10, identical, f"{len(problems)} CLI tasks byte-identical modulo metadata block")
