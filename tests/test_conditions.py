"""Weight checks, interval schemes, the null-energy identity."""

import math
import warnings

import numpy as np
import pytest

from qschro import conditions
from qschro.coeffs import CoefficientField, PiecewisePoly, bump
from qschro.conditions import (
    IntervalScheme,
    WeightFunction,
    _inv_m_integrals,
    check_growth,
    check_intervals,
    check_m,
    verify_caccioppoli,
)
from qschro.errors import BadSchemeError, NonRealError
from qschro.propagate import integrate
from qschro.quasi import QuasiState, assemble

M_ABS = PiecewisePoly([0.0], [[1.0, -1.0], [1.0, 1.0]])  # 1 + |x|


def test_check_m_constant():
    rep = check_m(WeightFunction(PiecewisePoly.constant(1.0), 60.0))
    assert rep.verdict == "holds-on-horizon"
    assert rep.witnesses["I_right"] == pytest.approx(60.0, abs=1e-9)


def test_check_m_logarithmic_divergence():
    w = WeightFunction(M_ABS, 60.0)
    rep = check_m(w, probe_points=[math.e**4 - 1])
    assert rep.verdict == "holds-on-horizon"
    key = next(k for k in rep.witnesses if k.startswith("I("))
    assert rep.witnesses[key] == pytest.approx(4.0, abs=1e-6)


def test_check_m_saturating_quadratic():
    w = WeightFunction(PiecewisePoly.from_coeffs([1.0, 0.0, 1.0]), 2e6)
    rep = check_m(w)
    assert rep.verdict == "inconclusive"
    assert rep.witnesses["I_right"] == pytest.approx(math.pi / 2, abs=1e-6)


def test_check_m_below_one_fails_with_witness():
    w = WeightFunction(PiecewisePoly.from_coeffs([0.5, 0.0, 0.01]), 10.0)
    rep = check_m(w)
    assert rep.verdict == "fails"
    assert rep.witnesses["witness_value"] < 1.0
    assert "witness_x" in rep.witnesses


def test_weight_function_refuses_a_step_that_is_small_only_against_its_largest_coefficient():
    # a step of 5e-5 where m is about 1 passed as rounding while the rule was
    # 1e-10 of the largest coefficient (1e6); the jump rule scales by the
    # values beside the breakpoint
    m = PiecewisePoly([0.0], [[1, 0, 1e6], [1 + 5e-5, 0, 1e6]])
    with pytest.raises(ValueError, match=r"^weight function jumps at x=0\.0$"):
        WeightFunction(m, 60.0)


def test_weight_function_rejects_complex():
    with pytest.raises(NonRealError):
        WeightFunction(PiecewisePoly.constant(1 + 1j), 10.0)


def test_check_growth_linear_r1_holds():
    w = WeightFunction(M_ABS, 60.0)
    rep = check_growth(PiecewisePoly.from_coeffs([0.0, -1.0]), w)
    assert rep.verdict == "holds-on-horizon"
    assert rep.witnesses["C"] <= 1.01


def test_check_growth_signs_give_zero_constant():
    # r1 = x: the positive part vanishes toward -inf, negative toward +inf
    w = WeightFunction(PiecewisePoly.constant(1.0), 40.0)
    rep = check_growth(PiecewisePoly.from_coeffs([0.0, 1.0]), w)
    assert rep.verdict == "holds-on-horizon"
    assert rep.witnesses["C"] == 0.0


def test_check_growth_cubic_fails_at_horizon():
    w = WeightFunction(M_ABS, 60.0)
    rep = check_growth(PiecewisePoly.from_coeffs([0, 0, 0, -1.0]), w)
    assert rep.verdict == "fails"
    assert abs(rep.witnesses["witness_x"]) == pytest.approx(60.0, rel=0.2)


def test_check_growth_fails_monotone_in_horizon():
    # extending the horizon never flips a failure back to holds
    r1 = PiecewisePoly.from_coeffs([0, 0, 0, -1.0])
    for X in (20.0, 40.0, 80.0):
        m = PiecewisePoly([0.0], [[1.0, -1.0], [1.0, 1.0]])
        rep = check_growth(r1, WeightFunction(m, X))
        assert rep.verdict == "fails"


def _growth_envelope_by_block(r1, w):
    """Reference: the envelope rows and worst point of ``check_growth``,
    sampled block by block and side by side."""
    X, nb = w.horizon, 8
    edges = [X * k / nb for k in range(nb + 1)]
    rows, worst = [], (0.0, 0.0)
    bps = np.concatenate([r1.breakpoints, w.m.breakpoints])
    for k in range(nb):
        lo, hi = edges[k], edges[k + 1]
        for side, sgn in (("left", -1.0), ("right", 1.0)):
            a, b = sorted((sgn * lo, sgn * hi))
            xs = np.concatenate([np.linspace(a, b, 64), bps[(bps > a) & (bps < b)]])
            r = r1.sample(xs).real
            ratio = np.maximum(r if side == "left" else -r, 0.0) / w.m.sample(xs).real
            j = int(np.argmax(np.where(ratio > 0, ratio, 0.0)))
            best, best_x = (float(ratio[j]), float(xs[j])) if ratio[j] > 0 else (0.0, a)
            rows.append((side, lo, hi, best, best_x))
            if best > worst[0]:
                worst = (best, best_x)
    return rows, worst


@pytest.mark.parametrize("r1, m, X", [
    # breakpoints of r1 and m inside blocks, one of them shared
    (PiecewisePoly([-37.3, -5.1, 2.2, 19.7], [[2.0, 0.1], [-1.0, 0.0, 0.05], [3.0], [0.5, -2.0], [-4.0, 0.01]]),
     PiecewisePoly([-11.1, 0.0, 19.7], [[1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0]]), 60.0),
    # r1 = x: no block has a positive ratio, every maximum falls back to a
    (PiecewisePoly.from_coeffs([0.0, 1.0]), PiecewisePoly.constant(1.0), 40.0),
    # r1 = 1: the right blocks fall back, the first left one peaks at its end -0.0
    (PiecewisePoly.constant(1.0), M_ABS, 33.3),
    # r1 = -2 against m = 1: every point of a right block ties, the first is a
    (PiecewisePoly([3.1, 7.0], [[-2.0], [-2.0], [-2.0]]), PiecewisePoly.constant(1.0), 10.0),
    # r1 and m of 1e160 on the outer blocks, still inside the float range
    # (past it, check_growth refuses them: see the test below)
    (PiecewisePoly.from_coeffs([0.0, 0.0, -1e140]), PiecewisePoly.from_coeffs([1.0, 0.0, 1e140]), 1e10),
    # the check-a-cubic field of the algebra workload, seed 1
    (PiecewisePoly.from_coeffs([0, 0, 0, -1.54447810110904]), M_ABS, 64.11065803048879),
])
def test_check_growth_matches_block_by_block_sampling(r1, m, X):
    w = WeightFunction(m, X)
    rep = check_growth(r1, w)
    rows, worst = _growth_envelope_by_block(r1, w)
    assert repr(rep.tables["envelope"]) == repr(rows)
    if rep.verdict == "fails":
        assert repr((rep.witnesses["witness_ratio"], rep.witnesses["witness_x"])) == repr(worst)


@pytest.mark.parametrize("r1, m, X, said", [
    (PiecewisePoly.from_coeffs([0.0, 0.0, -1e300]), PiecewisePoly.from_coeffs([1.0, 0.0, 1e300]), 1e10,
     "weight function takes values past the float range"),
    (PiecewisePoly.from_coeffs([0.0, 0.0, -1e300]), PiecewisePoly.from_coeffs([1.0, 0.0, 1.0]), 1e10,
     "r1 takes values past the float range"),
    # only the far end of the right tail leaves the range
    (PiecewisePoly([1e3], [[0.0], [0.0, 0.0, 0.0, 0.0, -1e100]]), PiecewisePoly.constant(1.0), 1e60,
     "r1 takes values past the float range"),
    (PiecewisePoly.from_coeffs([0.0, -1.0]), M_ABS, 3e307, "puts the edges of the 8 envelope blocks past the float range"),
], ids=["m", "r1", "r1-tail", "horizon"])
def test_check_growth_refuses_values_past_the_float_range(r1, m, X, said):
    # an envelope of inf and nan once held, with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=said):
            check_growth(r1, WeightFunction(m, X))


def test_values_inside_the_float_range_are_not_refused():
    # the largest values of x^2 and of a tail bound on the horizon are finite
    assert not conditions._past_float_range(PiecewisePoly.from_coeffs([0.0, 0.0, 1.0]), 1e154)
    assert conditions._past_float_range(PiecewisePoly.from_coeffs([0.0, 0.0, 1.0]), 1e155)
    # a region outside the horizon is not read, however large
    far = PiecewisePoly([-100.0, 100.0], [[1e300, 0.0, 1e300], [1.0], [0.0, 1e300, 1e300]])
    assert not conditions._past_float_range(far, 60.0)
    assert conditions._past_float_range(far, 1e300)


def _n0_by_search(seq):
    """Reference: N0 as a search over starts, the first start before the
    last block from which every later pair of blocks is non-increasing
    within the slack."""
    tol = conditions.config.ENVELOPE_GROWTH_TOL
    for start in range(len(seq) - 1):
        if all(seq[j + 1] <= seq[j] * (1 + tol) + 1e-12 for j in range(start, len(seq) - 1)):
            return start
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_n0_is_the_first_start_of_a_non_increasing_tail(n):
    rng = np.random.default_rng(n)
    # ties, zeros, values at and around the slack, NaN and inf
    values = np.array([0.0, 1e-12, 1.0, 1.05, 1.0500000000011, 1.06, 2.0, np.nan, np.inf])
    cases = [[1.0] * n, [0.0] * n, [np.nan] * n, [float(k) for k in range(n)], [float(n - k) for k in range(n)],
             [1.06**k for k in range(n)], [1.04**k for k in range(n)]]
    cases += [rng.choice(values, n).tolist() for _ in range(4000)]
    cases += [rng.exponential(size=n).tolist() for _ in range(1000)]
    for seq in cases:
        assert conditions._n0(seq) == _n0_by_search(seq), seq


def test_check_growth_envelope_reaches_minus_zero():
    rep = check_growth(PiecewisePoly.constant(1.0), WeightFunction(M_ABS, 33.3))
    rows = rep.tables["envelope"]
    assert repr(rows[0][4]) == "-0.0" and rows[0][3] == 1.0
    assert all(row[3] == 0.0 and row[4] == row[1] for row in rows[1::2])


def test_inverse_weight_integral_over_long_horizons():
    # closed forms: log(1 + X) for 1 + |x|, atan(sqrt(a) X)/sqrt(a) for 1 + a x^2
    for X in (1e-3, 1.0, 60.0, 1e6):
        assert abs(_inv_m_integrals(M_ABS, [(-X, 0.0)])[0] - math.log1p(X)) <= 1e-15 * math.log1p(X)
    for a in (1e-4, 1.7191, 1e4):
        m = PiecewisePoly.from_coeffs([1.0, 0.0, a])
        for X in (0.5, 714701.1779933694):
            want = math.atan(math.sqrt(a) * X) / math.sqrt(a)
            assert abs(_inv_m_integrals(m, [(0.0, X)])[0] - want) <= 1e-14 * want
            assert _inv_m_integrals(m, [(X, 0.0)])[0] == -_inv_m_integrals(m, [(0.0, X)])[0]


# 1 + (x - 500)^2 kept in powers of x: Horner's rule cancels 2.5e5 down to 1
HUMP = PiecewisePoly([], [[250001.0, -1000.0, 1.0]])


def test_inverse_weight_integral_of_a_hump_far_from_its_center():
    # sampled plainly, 1/m carries noise of about 1e-11 near x = 500, where
    # no panel agrees with its halves to 1e-15; closed forms are differences
    # of atan(x - 500)
    right, left = 2 * math.atan(500.0), math.atan(1000.0 / 750001.0)
    assert abs(_inv_m_integrals(HUMP, [(0.0, 1000.0)])[0] - right) <= 1e-14 * right
    assert abs(_inv_m_integrals(HUMP, [(-1000.0, 0.0)])[0] - left) <= 1e-14 * left
    rep = check_m(WeightFunction(HUMP, 1000.0), probe_points=[1000.0])
    assert abs(rep.witnesses["I_right"] - right) <= 1e-12 * right
    assert abs(rep.witnesses["I_left"] - left) <= 1e-12 * left
    key = next(k for k in rep.witnesses if k.startswith("I("))
    assert abs(rep.witnesses[key] - right) <= 1e-14 * right
    for x in (499.7, 500.0, 612.5):
        want = math.atan(x - 500.0) + math.atan(500.0)
        assert abs(_inv_m_integrals(HUMP, [(0.0, x)])[0] - want) <= 1e-13 * want


def test_inverse_weight_integral_stops_at_its_panel_budget(monkeypatch):
    # values noisier than their bound never let a panel agree with its
    # halves; the halving stops at 4096 panels of 16 nodes
    from qschro import conditions

    rng = np.random.default_rng(3)
    sample = PiecewisePoly.sample_bounded
    nodes = []

    def noisy(self, xs):
        vals, _ = sample(self, xs)
        nodes.append(vals.size)
        return vals * (1 + 1e-12 * rng.standard_normal(vals.shape)), np.zeros(vals.shape)

    monkeypatch.setattr(PiecewisePoly, "sample_bounded", noisy)
    m = PiecewisePoly.from_coeffs([1.0, 0.0, 1.0])
    assert abs(conditions._inv_m_integrals(m, [(0.0, 10.0)])[0] - math.atan(10.0)) <= 1e-11
    assert sum(nodes) <= 16 * conditions._INV_M_PANELS


def test_cutoff_thmA():
    # the cut-off of verify: 1 on [-n, n], unit ramps, slope bound 3/2
    phi = bump(0.0, 2.0 * 3, 1.0)
    assert phi.support_bounds() == (-4.0, 4.0)
    assert phi.eval(0.0) == pytest.approx(1.0)
    assert phi.eval(3.0) == pytest.approx(1.0)
    assert phi.eval(4.0) == 0.0
    v, x_at = phi.derivative().extreme_on(3.0, 4.0, "min")
    assert v == pytest.approx(-1.5)


def test_cutoff_bad_scheme():
    with pytest.raises(BadSchemeError):
        IntervalScheme({1: (0.0, 1.0), 2: (0.5, 1.5)}, delta=1.0)


def test_check_intervals_zero_r1_ignores_spikes():
    # r1 = 0 on the intervals, arbitrary growth between them: C = 0
    scheme = IntervalScheme.unit_intervals(5)
    pieces = []
    bps = []
    for n in sorted(scheme.intervals):
        a, b = scheme.intervals[n]
        bps.extend([a, b])
    bps = sorted(bps)
    # huge quadratic bumps off the intervals, zero on them
    prev = None
    for i in range(len(bps) + 1):
        inside = i % 2 == 1
        pieces.append([0.0] if inside else [1e6, 0, 1e4])
    r1 = PiecewisePoly(bps, pieces, degree_cap=None)
    rep = check_intervals(r1, scheme)
    assert rep.verdict == "holds-on-horizon"
    assert rep.witnesses["C"] == 0.0


def test_check_intervals_growing_constants_fail():
    scheme = IntervalScheme.unit_intervals(5)
    rep = check_intervals(PiecewisePoly.from_coeffs([0.0, -1.0]), scheme)
    assert rep.verdict == "fails"
    assert rep.witnesses["witness_constant"] > 0


def test_check_intervals_proportional_lengths_hold():
    # geometric intervals [2^n, 2^n + 2^n]: sup r1^- / length stays ~2
    iv = {}
    for n in range(1, 6):
        iv[n] = (2.0**n, 2.0**n + 2.0**n)
        iv[-n] = (-(2.0**n) - 2.0**n, -(2.0**n))
    scheme = IntervalScheme(iv, delta=2.0)
    rep = check_intervals(PiecewisePoly.from_coeffs([0.0, -1.0]), scheme)
    assert rep.verdict == "holds-on-horizon"
    assert rep.witnesses["C"] == pytest.approx(2.0, abs=0.01)


def test_check_intervals_length_bound():
    scheme = IntervalScheme.unit_intervals(3)
    bad = IntervalScheme(dict(scheme.intervals), delta=1.5)
    rep = check_intervals(PiecewisePoly.zero(), bad)
    assert rep.verdict == "fails"
    assert "witness_length" in rep.witnesses


def test_caccioppoli_free_constant():
    free = CoefficientField.free()
    v = integrate(assemble(free, "adjoint", 0.0), QuasiState(-4.0, 1.0, 0.0), 4.0)
    assert verify_caccioppoli(free, v, bump(0.0, 2.0 * 2, 1.0)) <= 1e-9


def test_caccioppoli_free_linear():
    free = CoefficientField.free()
    v = integrate(assemble(free, "adjoint", 0.0), QuasiState(-4.0, -4.0, 1.0), 4.0)
    assert verify_caccioppoli(free, v, bump(0.0, 2.0 * 2, 1.0)) <= 1e-8


def test_caccioppoli_delta_well():
    dw = CoefficientField.delta_well(-2.0)
    v = integrate(assemble(dw, "adjoint", 0.0), QuasiState(-4.0, 1.0, 0.2), 4.0)
    assert verify_caccioppoli(dw, v, bump(0.0, 2.0 * 2, 1.0)) <= 1e-7


def test_caccioppoli_linear_drift():
    c = CoefficientField(
        PiecewisePoly.zero(), PiecewisePoly.zero(), PiecewisePoly.from_coeffs([0, -1j])
    )
    v = integrate(assemble(c, "adjoint", 0.0), QuasiState(-4.0, 1.0, 0.1), 4.0)
    assert verify_caccioppoli(c, v, bump(0.0, 2.0 * 2, 1.0)) <= 1e-7


def test_caccioppoli_large_solution_at_support_end():
    # |v| ~ e^{2.4*5} at the cut-off's support end x = 5: phi*v vanishes
    # there only up to the rounding of its pieces, which is no jump
    c = CoefficientField(
        PiecewisePoly.constant(6.0), PiecewisePoly.zero(), PiecewisePoly.zero()
    )
    v = integrate(assemble(c, "adjoint", 0.0), QuasiState(-5.0, 1.0, 0.1, "adjoint"), 5.0)
    assert verify_caccioppoli(c, v, bump(0.0, 2.0 * 4, 1.0)) <= 1e-7


def test_caccioppoli_rejects_direct_side():
    free = CoefficientField.free()
    v = integrate(assemble(free, "direct", 0.0), QuasiState(-4.0, 1.0, 0.0), 4.0)
    with pytest.raises(ValueError):
        verify_caccioppoli(free, v, bump(0.0, 2.0 * 2, 1.0))


def test_energy_inequality_audit_normalized_instance():
    # s = 1 shifts the numerical range: Re(L u, u) >= ||u||^2, so for any
    # null solution the identity right side dominates the core mass
    c = CoefficientField(
        PiecewisePoly.constant(1.0), PiecewisePoly.zero(), PiecewisePoly.zero()
    )
    v = integrate(assemble(c, "adjoint", 0.0), QuasiState(-4.0, 1.0, 1.0), 4.0)
    for n in (1, 2, 3):
        phi = bump(0.0, 2.0 * n, 1.0)
        lo, hi = phi.support_bounds()
        v_pw = v.to_piecewise(lo, hi)
        vv = v_pw * v_pw.conj()
        dphi = phi.derivative()
        lhs = ((phi * phi) * vv).integrate(lo, hi).real
        rhs = ((dphi * dphi) * vv).integrate(lo, hi).real
        rhs += 2.0 * ((c.r1 * dphi * phi) * vv).integrate(lo, hi).real
        assert lhs <= rhs * (1 + 1e-9)


def _per_integral_loop(m, a, b):
    """The per-integral loop that ``_inv_m_integrals`` replaced, verbatim
    apart from its name and the imports it needs."""
    from qschro.conditions import _INV_M_NODES, _INV_M_PANELS, _INV_M_RTOL
    from qschro.propagate import _gauss_legendre

    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    cuts = np.array([a] + [float(t) for t in m.breakpoints if a < t < b] + [b])
    nodes, weights = _gauss_legendre(_INV_M_NODES)

    def panel_sums(lo, hi):
        half = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
        vals, bound = m.sample_bounded(xs)
        inv = 1.0 / vals
        return half * (inv @ weights), half * ((bound * inv**2) @ weights)

    lo, hi = cuts[:-1], cuts[1:]
    whole, noise = panel_sums(lo, hi)
    parts, evaluated = [], len(lo)
    while True:
        # the left halves of all panels, then their right halves
        n, mid = len(lo), 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        sums, noises = panel_sums(lo, hi)
        evaluated += 2 * n
        halves = sums[:n] + sums[n:]
        done = np.abs(halves - whole) <= _INV_M_RTOL * halves + noise + noises[:n] + noises[n:]
        if evaluated + 4 * (~done).sum() > _INV_M_PANELS:
            done[:] = True
        parts.extend(sums[np.concatenate([done, done])].tolist())
        if done.all():
            return sign * math.fsum(parts)
        keep = np.concatenate([~done, ~done])
        lo, hi, whole, noise = lo[keep], hi[keep], sums[keep], noises[keep]


# weights and intervals for the batch: linear, quadratic and piecewise m,
# the cancelling hump, breakpoints inside an interval, a > b and a == b
BATCH_CASES = [
    (
        PiecewisePoly.from_coeffs([3.0, 0.25]),
        [(-4.0, 100.0), (0.0, 1.0), (7.5, 2.5), (5.0, 5.0), (-4.0, -3.9)],
    ),
    (
        PiecewisePoly.from_coeffs([1.0, 0.0, 1.7191]),
        [(0.0, 714701.1779933694), (-0.5, 0.5), (60.0, -60.0), (0.0, 0.0), (1e-3, 2e-3)],
    ),
    (
        M_ABS,
        [(-60.0, 0.0), (0.0, 60.0), (-60.0, 60.0), (60.0, -60.0), (-0.0, -7.5), (0.0, 0.0), (-1e6, 1e6)],
    ),
    (
        PiecewisePoly([-2.0, 0.5, 3.0], [[2.0, -1.0], [4.0, 0.0, 1.0], [4.25, 0.0, 0.0, 1.0], [31.25]]),
        [(-5.0, 5.0), (-2.0, 0.5), (0.5, -2.0), (-2.0, -2.0), (0.5, 3.0), (-10.0, -2.0), (1.0, 2.0)],
    ),
    (
        HUMP,
        # its terms cancel on about (86, 2914) only
        [(0.0, 1000.0), (-1000.0, 0.0), (499.5, 500.5), (1000.0, 0.0), (500.0, 500.0), (0.0, 612.5),
         (-1000.0, 50.0), (3000.0, 5000.0)],
    ),
]


@pytest.mark.parametrize("m, ends", BATCH_CASES)
def test_inverse_weight_integrals_have_the_bits_of_each_integral_alone(m, ends):
    solo = [_inv_m_integrals(m, [e])[0].hex() for e in ends]
    assert [v.hex() for v in _inv_m_integrals(m, ends)] == solo
    rng = np.random.default_rng(11)
    for _ in range(5):
        pick = rng.choice(len(ends), size=int(rng.integers(1, 2 * len(ends))))
        got = _inv_m_integrals(m, [ends[i] for i in pick])
        assert [v.hex() for v in got] == [solo[i] for i in pick]
    assert _inv_m_integrals(m, []) == []


@pytest.mark.parametrize("m, ends", BATCH_CASES)
def test_inverse_weight_integrals_match_the_per_integral_loop(m, ends):
    for (a, b), got in zip(ends, _inv_m_integrals(m, ends)):
        want = _per_integral_loop(m, a, b)
        if a == b:
            assert got == want == 0.0
        else:
            assert math.copysign(1.0, got) == math.copysign(1.0, want) == math.copysign(1.0, b - a)
            assert abs(got - want) <= 1e-15 * abs(want)


def test_inverse_weight_integrals_keep_a_panel_budget_each(monkeypatch):
    # values on [0, 10] noisier than their bound never let a panel agree
    # with its halves; that integral stops at its own 4096 panels, and the
    # smooth integrals beside it keep their panels and their bits (the
    # second halves 20 levels deep, past the level where the noisy one stops)
    from qschro import conditions

    m = PiecewisePoly.from_coeffs([1.0, 0.0, 1.0])
    smooth = [(20.0, 30.0), (-1e6, -1.0)]
    alone = [conditions._inv_m_integrals(m, [e])[0] for e in smooth]
    rng = np.random.default_rng(3)
    sample = PiecewisePoly.sample_bounded
    nodes = {"noisy": 0, "smooth": 0}

    def noisy(self, xs):
        vals, bound = sample(self, xs)
        inside = (xs >= 0.0) & (xs <= 10.0)
        nodes["noisy"] += int(inside.sum())
        nodes["smooth"] += int((~inside).sum())
        shake = 1 + 1e-12 * rng.standard_normal(vals.shape)
        return np.where(inside, vals * shake, vals), np.where(inside, 0.0, bound)

    monkeypatch.setattr(PiecewisePoly, "sample_bounded", noisy)
    for e in smooth:
        conditions._inv_m_integrals(m, [e])
    used_alone, nodes["smooth"] = nodes["smooth"], 0
    got = conditions._inv_m_integrals(m, [smooth[0], (0.0, 10.0), smooth[1]])
    assert abs(got[1] - math.atan(10.0)) <= 1e-11
    assert nodes["noisy"] <= 16 * conditions._INV_M_PANELS
    assert nodes["noisy"] > 16 * conditions._INV_M_PANELS // 2
    assert nodes["smooth"] == used_alone
    assert [got[0], got[2]] == alone
    # two noisy integrals in one batch: each stops at its own budget
    nodes["noisy"] = 0
    got = conditions._inv_m_integrals(m, [(0.0, 10.0), (10.0, 0.0)])
    assert abs(got[0] - math.atan(10.0)) <= 1e-11 and abs(got[1] + math.atan(10.0)) <= 1e-11
    assert nodes["noisy"] <= 2 * 16 * conditions._INV_M_PANELS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    w = WeightFunction(M_ABS, 60.0)
    with pytest.raises(ValueError, match="not finite"):
        check_m(w, [1.0, bad])
