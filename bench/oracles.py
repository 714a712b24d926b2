"""Independent references for the benchmark's correctness checks.

Nothing here imports qschro: every expected value comes from a closed
form, a transcendental equation solved with scipy, a Chebyshev collocation
eigensolver, or Gauss-Legendre quadrature of the test functions written
out by hand.  All of it runs before timing starts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# ----------------------------------------------------------------------
# spectra


def free_box_eigenvalues(length: float, lo: float, hi: float) -> list[float]:
    """Dirichlet eigenvalues (n pi / L)^2 of -u'' on [0, L] inside (lo, hi)."""
    out = []
    n = 1
    while (n * math.pi / length) ** 2 < hi:
        lam = (n * math.pi / length) ** 2
        if lam > lo:
            out.append(lam)
        n += 1
    return out


def delta_well_ground_state(alpha: float, half_width: float) -> float:
    """Bound state of -u'' - alpha*delta on [-L, L] with Dirichlet walls.

    The even state sinh(k (L - |x|)) satisfies the jump condition when
    2k = alpha tanh(k L); lambda = -k^2 tends to -alpha^2/4 as L grows.
    """
    f = lambda k: 2.0 * k - alpha * math.tanh(k * half_width)
    return -brentq(f, 1e-9, alpha, xtol=1e-15, rtol=1e-15) ** 2


def _cheb(n: int):
    """Trefethen's Chebyshev differentiation matrix and nodes on [-1, 1]."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def collocation_eigenvalues(s_coeffs, a: float, b: float, count: int) -> list[complex]:
    """Lowest eigenvalues of -u'' + s(x) u on [a, b] with Dirichlet walls.

    ``s_coeffs`` are ascending global polynomial coefficients of a smooth
    potential.  Spectral collocation converges geometrically, so the low
    modes are accurate far below the 1e-6 relative check tolerance.
    """
    d, t = _cheb(64)
    scale = 2.0 / (b - a)
    x = a + (t + 1.0) / scale
    op = -(scale**2) * (d @ d) + np.diag(np.polynomial.polynomial.polyval(x, s_coeffs))
    vals = np.linalg.eigvals(op[1:-1, 1:-1])
    return sorted(vals, key=lambda z: (z.real, z.imag))[:count]


# ----------------------------------------------------------------------
# solutions with closed forms


def free_solution(lam: float, x: float, y0: float, y1: float) -> tuple[complex, complex]:
    """(u, u') at x of -u'' = lam u from (u, u')(0) = (y0, y1)."""
    if lam > 0:
        k = math.sqrt(lam)
        return (y0 * math.cos(k * x) + y1 * math.sin(k * x) / k,
                -y0 * k * math.sin(k * x) + y1 * math.cos(k * x))
    k = math.sqrt(-lam)
    return (y0 * math.cosh(k * x) + y1 * math.sinh(k * x) / k,
            y0 * k * math.sinh(k * x) + y1 * math.cosh(k * x))


def free_probe_log_gram(T: float, lam: float) -> float:
    """log of the smallest Gram eigenvalue of the free pair on [-T, T].

    The pair (cosh, sinh/k) at lambda = -k^2 is L2-orthogonal on a
    symmetric window, so the Gram matrix is diagonal.  At lambda = -1 the
    smaller entry is sinh(2T)/2 - T (acceptance criterion 08); at
    lambda = 0 the pair (1, x) gives min(2T, 2T^3/3).
    """
    if lam == 0.0:
        return math.log(min(2 * T, 2 * T**3 / 3))
    k = math.sqrt(-lam)
    cosh2 = T + math.sinh(2 * k * T) / (2 * k)
    sinh2 = (math.sinh(2 * k * T) / (2 * k) - T) / k**2
    return math.log(min(cosh2, sinh2))


def delta_probe_gram_bound(T: float) -> float:
    """Upper bound on N(T) for -u'' - 2 delta at lambda = -1.

    e^{-|x|} is the combination y1 + y2 of the canonical pair anchored at
    0, so the smallest Gram eigenvalue is at most its mass over |(1, 1)|^2.
    """
    return 0.5 * (1.0 - math.exp(-2.0 * T))


# ----------------------------------------------------------------------
# quadratic forms of smoothstep bumps

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _bump_values(x, center, plateau, ramp):
    x0 = center - plateau / 2 - ramp
    x2 = center + plateau / 2
    up = np.clip((x - x0) / ramp, 0.0, 1.0)
    down = np.clip((x - x2) / ramp, 0.0, 1.0)
    u = 3 * up**2 - 2 * up**3 - (3 * down**2 - 2 * down**3)
    du = (6 * up - 6 * up**2 - (6 * down - 6 * down**2)) / ramp
    return u, du


def _piecewise_eval(spec, x):
    """Evaluate a problem-file piecewise spec (global ascending coefficients)."""
    bps = np.asarray(spec["breakpoints"], dtype=float)
    out = np.zeros_like(x, dtype=complex)
    region = np.searchsorted(bps, x, side="right")
    for i, piece in enumerate(spec["pieces"]):
        coeffs = [complex(*c) if isinstance(c, list) else complex(c) for c in piece]
        mask = region == i
        out[mask] = np.polynomial.polynomial.polyval(x[mask], coeffs)
    return out


def form_values(coeffs, tests) -> list[tuple[complex, float]]:
    """(t(u), ||u||^2) for each bump, by Gauss-Legendre per smooth piece.

    t(u) = int |u'|^2 - int (G1 u conj(u') + G2 u' conj(u)) + int s |u|^2
    with G1 = Q + i r and G2 = Q - i r.  Pieces are split at the bump
    knots and at every coefficient breakpoint, so each integrand is a
    polynomial of degree at most 7 and 8-point Gauss-Legendre is exact.
    """
    cuts_field = sorted(
        {float(b) for key in ("s", "Q", "r") for b in coeffs[key]["breakpoints"]}
    )
    out = []
    for t in tests:
        c, p, r = t["center"], t["plateau"], t["ramp"]
        knots = {c - p / 2 - r, c - p / 2, c + p / 2, c + p / 2 + r}
        lo, hi = min(knots), max(knots)
        knots.update(b for b in cuts_field if lo < b < hi)
        knots = np.asarray(sorted(knots))
        a, b = knots[:-1], knots[1:]
        keep = b > a
        a, b = a[keep], b[keep]
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X[None, :]
        w = half[:, None] * _GL_W[None, :]
        # evaluate each piece from its own side of the breakpoints
        xf = x.ravel()
        u, du = _bump_values(xf, c, p, r)
        s = _piecewise_eval(coeffs["s"], xf)
        q = _piecewise_eval(coeffs["Q"], xf)
        rr = _piecewise_eval(coeffs["r"], xf)
        g1, g2 = q + 1j * rr, q - 1j * rr
        integrand = du * du - (g1 * u * du + g2 * du * u) + s * u * u
        form = complex(np.sum(w.ravel() * integrand))
        norm2 = float(np.sum(w.ravel() * u * u))
        out.append((form, norm2))
    return out


def inverse_weight_integral_linear(a: float, b: float, t: float) -> float:
    """int_0^t ds / (a + b |s|) for t >= 0."""
    return math.log((a + b * t) / a) / b


def inverse_weight_integral_quadratic(c: float, t: float) -> float:
    """int_0^t ds / (1 + c s^2)."""
    return math.atan(math.sqrt(c) * t) / math.sqrt(c)
