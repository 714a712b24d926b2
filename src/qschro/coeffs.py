"""Piecewise polynomials with jumps, and the singular coefficient field.

The whole library manipulates one class of functions: complex piecewise
polynomials on the line with finitely many breakpoints.  A step
discontinuity of the antiderivative coefficient encodes a Dirac mass of
the potential, so jumps are first-class citizens: every breakpoint stores
the (right minus left) jump height and one-sided evaluation is always
defined.

Each region keeps its coefficients in powers of ``(x - center)`` with a
region-local center (midpoint for bounded regions, the finite endpoint
for tails).  This keeps evaluation, products and differentiation well
conditioned for narrow high-degree pieces far from the origin.  All
regions share one ``(n_regions, n_coef)`` complex array, one row per
region, zero-padded on the right; every operation works on all rows at
once, looping only over the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEGREE_CAP
from .errors import NonRealError

_BP_MERGE_TOL = 1e-12


def _trim(row: np.ndarray) -> np.ndarray:
    """One coefficient row without its trailing zeros, keeping at least one."""
    nz = row.nonzero()[0]
    return row[: nz[-1] + 1 if len(nz) else 1]


def _trim_cols(coeffs: np.ndarray) -> np.ndarray:
    """Drop the trailing columns that are zero in every row, keeping one."""
    n = coeffs.shape[1]
    while n > 1 and not coeffs[:, n - 1].any():
        n -= 1
    return coeffs[:, :n]


def _shift_rows(coeffs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Re-center row i from powers of ``(x-c_i)`` to powers of ``(x-(c_i+delta_i))``.

    Synthetic-division Taylor shift on all rows at once: exact in exact
    arithmetic, stable for the shift distances that occur after mesh
    alignment.  Rows with delta 0 keep their coefficients; with no row to
    move, the input array itself is returned.
    """
    moved = delta.nonzero()[0]
    if not len(moved):
        return coeffs
    out = coeffs.copy()
    b, d = out[moved], delta[moved]
    n = b.shape[1]
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            b[:, k] += d * b[:, k + 1]
    out[moved] = b
    return out


def _horner(rev_coeffs, t):
    """One polynomial at one point; coefficients highest power first."""
    acc = 0.0 + 0.0j
    for c in rev_coeffs:
        acc = acc * t + c
    return acc


def _dense(coef: np.ndarray, theta) -> np.ndarray:
    """Batched Horner: rows of ascending coefficients (axis 1) at theta."""
    acc = coef[:, -1]
    for k in range(coef.shape[1] - 2, -1, -1):
        acc = acc * theta + coef[:, k]
    return acc


def _primitive_rows(coeffs: np.ndarray) -> np.ndarray:
    """Row-wise antiderivatives vanishing at each row's center."""
    F = np.zeros((len(coeffs), coeffs.shape[1] + 1), dtype=complex)
    F[:, 1:] = coeffs / np.arange(1, coeffs.shape[1] + 1)
    return F


def _convolve_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise polynomial products of two coefficient arrays."""
    if p.shape[1] < q.shape[1]:
        p, q = q, p
    out = np.zeros((len(p), p.shape[1] + q.shape[1] - 1), dtype=complex)
    for k in range(q.shape[1]):
        out[:, k : k + p.shape[1]] += p * q[:, k, None]
    return out


class PiecewisePoly:
    """Complex piecewise polynomial with breakpoints and tracked jumps.

    Regions: ``len(breakpoints) + 1`` polynomials; region 0 is the left
    tail (valid below the first breakpoint), the last region is the right
    tail.  With no breakpoints a single polynomial covers the line.
    ``coeffs[i]`` holds region i in ascending powers of ``x - centers[i]``.

    Closed under +, -, *, conjugation, real/imaginary part, derivative and
    antiderivative; all coefficient arithmetic, no sampling.
    """

    __slots__ = ("breakpoints", "centers", "coeffs")

    def __init__(self, breakpoints, pieces, degree_cap: int | None = DEGREE_CAP):
        """Build from global-coordinate coefficient arrays.

        Args:
            breakpoints: strictly increasing reals (may be empty).
            pieces: ``len(breakpoints) + 1`` ascending coefficient arrays in
                plain powers of x (region order: left tail, interior, right
                tail).
            degree_cap: reject input pieces above this degree (None = no
                check; internal arithmetic uses None since products double
                the degree).
        """
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1:
            raise ValueError("breakpoints must be a 1-d sequence")
        if not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if len(pieces) != len(bp) + 1:
            raise ValueError(
                f"need {len(bp) + 1} pieces for {len(bp)} breakpoints, "
                f"got {len(pieces)}"
            )
        rows = [_trim(np.atleast_1d(np.asarray(p, dtype=complex))) for p in pieces]
        for row in rows:
            if degree_cap is not None and len(row) - 1 > degree_cap:
                raise ValueError(f"piece degree {len(row) - 1} exceeds cap {degree_cap}")
        glob = np.zeros((len(rows), max(len(r) for r in rows) or 1), dtype=complex)
        for i, row in enumerate(rows):
            glob[i, : len(row)] = row
        self.breakpoints = bp
        self.centers = _canonical_centers(bp)
        with np.errstate(over="ignore", invalid="ignore"):
            self.coeffs = _trim_cols(_shift_rows(glob, self.centers))
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("pieces re-centred on their regions have coefficients outside the float range")

    @classmethod
    def _from_local(cls, breakpoints, centers, coeffs) -> "PiecewisePoly":
        """From float arrays of breakpoints and centers and a complex
        ``(n_regions, n_coef)`` array of local rows."""
        if coeffs.ndim != 2 or not len(coeffs) == len(centers) == len(breakpoints) + 1:
            raise ValueError("region count mismatch")
        obj = object.__new__(cls)
        obj.breakpoints, obj.centers, obj.coeffs = breakpoints, centers, _trim_cols(coeffs)
        return obj

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value) -> "PiecewisePoly":
        return cls([], [[value]], degree_cap=None)

    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls.constant(0.0)

    @classmethod
    def identity(cls) -> "PiecewisePoly":
        """The function x."""
        return cls([], [[0.0, 1.0]], degree_cap=None)

    @classmethod
    def from_coeffs(cls, coeffs) -> "PiecewisePoly":
        """Single global polynomial valid on the whole line."""
        return cls([], [coeffs], degree_cap=None)

    @classmethod
    def step(cls, location: float = 0.0, left=0.0, right=1.0) -> "PiecewisePoly":
        """Piecewise constant with one jump: ``left`` below, ``right`` above."""
        return cls([location], [[left], [right]], degree_cap=None)

    @classmethod
    def heaviside(cls, height=1.0, location: float = 0.0) -> "PiecewisePoly":
        return cls.step(location, 0.0, height)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def _region(self, x, side: str):
        """Region index (or indices, for an array) holding x on that side."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return np.searchsorted(self.breakpoints, x, side=side)

    def eval(self, x: float, side: str = "right") -> complex:
        """One-sided value at x; sides agree away from jump locations."""
        i = self._region(x, side)
        return _horner(self.coeffs[i, ::-1], x - self.centers[i])

    def __call__(self, x, side: str = "right"):
        if np.ndim(x) == 0:
            return self.eval(float(x), side)
        return self.sample(x, side)

    def sample(self, xs, side: str = "right") -> np.ndarray:
        """One-sided values at an array of x, equal to ``eval`` at each."""
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        i = self._region(flat, side)
        return _dense(self.coeffs[i], flat - self.centers[i]).reshape(xs.shape)

    @property
    def jumps(self) -> dict[float, complex]:
        """Right-minus-left value at every breakpoint."""
        bp = self.breakpoints
        return dict(zip(bp.tolist(), self.sample(bp, "right") - self.sample(bp, "left")))

    def piece_at(self, x: float) -> tuple[float, np.ndarray]:
        """(center, ascending local coefficients without trailing zeros) of
        the region holding x, taken from the right at a breakpoint."""
        i = self._region(x, "right")
        return float(self.centers[i]), _trim(self.coeffs[i])

    def pieces(self) -> list[np.ndarray]:
        """Per-region coefficients in plain powers of x, as the constructor
        takes them; trailing zeros are dropped."""
        return [_trim(row) for row in _shift_rows(self.coeffs, -self.centers)]

    def coeff_scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_real(self, tol: float = 1e-12) -> bool:
        scale = self.coeff_scale() or 1.0
        return float(np.max(np.abs(self.coeffs.imag))) <= tol * scale

    def support_bounds(self) -> tuple[float, float]:
        """Smallest (lo, hi) outside which the function is identically zero.

        Tails or pieces with nonzero coefficients extend the support; a
        function that is nonzero in a tail reports +-inf on that side.
        """
        nz = np.flatnonzero(np.any(self.coeffs != 0, axis=1))
        if not len(nz):
            return (0.0, 0.0)
        first, last = nz[0], nz[-1]
        lo = -math.inf if first == 0 else float(self.breakpoints[first - 1])
        hi = math.inf if last == len(self.coeffs) - 1 else float(self.breakpoints[last])
        return (lo, hi)

    # ------------------------------------------------------------------
    # mesh alignment

    def with_breakpoints(self, extra) -> "PiecewisePoly":
        """Refined copy whose mesh also contains ``extra`` (zero jumps added)."""
        merged = _merge_breakpoints(self.breakpoints, np.sort(np.asarray(extra, dtype=float)))
        return self._on_mesh(merged)

    def _on_mesh(self, mesh: np.ndarray) -> "PiecewisePoly":
        centers = _canonical_centers(mesh)
        inside = centers.copy()  # a point strictly inside each region
        if len(mesh):
            inside[0] -= 1.0
            inside[-1] += 1.0
        src = self._region(inside, "right")
        coeffs = _shift_rows(self.coeffs[src], centers - self.centers[src])
        return PiecewisePoly._from_local(mesh, centers, coeffs)

    def _aligned(self, other: "PiecewisePoly"):
        mesh = _merge_breakpoints(self.breakpoints, other.breakpoints)
        return self._on_mesh(mesh), other._on_mesh(mesh)

    # ------------------------------------------------------------------
    # algebra

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(other)
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = self._aligned(other)
        total = np.zeros((len(a.coeffs), max(a.degree, b.degree) + 1), dtype=complex)
        total[:, : a.degree + 1] += a.coeffs
        total[:, : b.degree + 1] += b.coeffs
        return PiecewisePoly._from_local(a.breakpoints, a.centers, total)

    __radd__ = __add__

    def __neg__(self):
        return PiecewisePoly._from_local(self.breakpoints, self.centers, -self.coeffs)

    def __sub__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(-complex(other))
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return PiecewisePoly._from_local(
                self.breakpoints, self.centers, self.coeffs * complex(other)
            )
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = self._aligned(other)
        return PiecewisePoly._from_local(
            a.breakpoints, a.centers, _convolve_rows(a.coeffs, b.coeffs)
        )

    __rmul__ = __mul__

    def conj(self) -> "PiecewisePoly":
        return PiecewisePoly._from_local(self.breakpoints, self.centers, np.conj(self.coeffs))

    @property
    def real(self) -> "PiecewisePoly":
        return PiecewisePoly._from_local(self.breakpoints, self.centers, self.coeffs.real.astype(complex))

    @property
    def imag(self) -> "PiecewisePoly":
        return PiecewisePoly._from_local(self.breakpoints, self.centers, self.coeffs.imag.astype(complex))

    def derivative(self) -> "PiecewisePoly":
        """Region-wise derivative (the absolutely continuous part).

        Jumps of the function are dropped: the distributional delta at a
        jump is not representable here, callers that care inspect
        ``self.jumps`` before differentiating.
        """
        c = self.coeffs
        d = c[:, 1:] * np.arange(1, c.shape[1]) if c.shape[1] > 1 else np.zeros_like(c)
        return PiecewisePoly._from_local(self.breakpoints, self.centers, d)

    def antiderivative(self, anchor: float = 0.0) -> "PiecewisePoly":
        """Continuous F with F' = self region-wise and F(anchor) = 0.

        Jumps of the integrand become kinks of F; F itself is continuous.
        """
        F = _primitive_rows(self.coeffs)
        bp, c = self.breakpoints, self.centers
        below = _dense(F[:-1], bp - c[:-1])  # region i at breakpoint i
        above = _dense(F[1:], bp - c[1:])  # region i + 1 at breakpoint i
        i0 = self._region(anchor, "right")
        start = -_dense(F[i0, None], anchor - c[i0])
        # Offsets chain outward from the anchor's region, each one the
        # previous plus the value gap at the shared breakpoint, added in
        # that order: cumsum over the interleaved terms.
        right = np.column_stack([below[i0:], -above[i0:]]).ravel()
        left = np.column_stack([above[:i0][::-1], -below[:i0][::-1]]).ravel()
        offsets = np.concatenate([
            np.cumsum(np.concatenate([start, left]))[2::2][::-1],
            np.cumsum(np.concatenate([start, right]))[::2],
        ])
        F[:, 0] += offsets
        return PiecewisePoly._from_local(bp, c, F)

    def integrate(self, a: float, b: float) -> complex:
        """Exact definite integral over [a, b]."""
        if a == b:
            return 0.0 + 0.0j
        if a > b:
            return -self.integrate(b, a)
        bp = self.breakpoints
        cuts = np.concatenate([[a], bp[(bp > a) & (bp < b)], [b]])
        lo, hi = cuts[:-1], cuts[1:]
        i = self._region(0.5 * (lo + hi), "right")
        F, c = _primitive_rows(self.coeffs)[i], self.centers[i]
        return sum(_dense(F, hi - c) - _dense(F, lo - c), 0.0 + 0.0j)

    # ------------------------------------------------------------------
    # real-analysis helpers (real-valued polys)

    def real_roots(self, lo: float, hi: float, tol: float = 1e-11) -> list[float]:
        """Real zeros of a real-valued piecewise polynomial in (lo, hi)."""
        if not self.is_real(1e-9):
            raise NonRealError("real_roots requires a real-valued function")
        found: list[float] = []
        cuts = [lo] + [float(t) for t in self.breakpoints if lo < t < hi] + [hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            i = self._region(0.5 * (a + b), "right")
            c = self.coeffs[i].real
            if not np.any(c[1:]):
                continue
            for r in np.roots(c[::-1]):
                if abs(r.imag) > 1e-9 * (1 + abs(r.real)):
                    continue
                x = float(r.real) + self.centers[i]
                if a - tol <= x <= b + tol:
                    found.append(min(max(x, a), b))
        return sorted(set(found))

    def extreme_on(self, lo: float, hi: float, mode: str = "max") -> tuple[float, float]:
        """(value, location) of the max or min of a real poly on [lo, hi]."""
        if not self.is_real(1e-9):
            raise NonRealError("extreme_on requires a real-valued function")
        xs = {lo, hi}
        xs.update(t for t in map(float, self.breakpoints) if lo < t < hi)
        xs.update(self.derivative().real_roots(lo, hi))
        best_v, best_x = None, None
        for x in xs:
            for side in ("left", "right"):
                if (x == lo and side == "left") or (x == hi and side == "right"):
                    continue
                v = self.eval(x, side).real
                if best_v is None or (v > best_v if mode == "max" else v < best_v):
                    best_v, best_x = v, x
        return float(best_v), float(best_x)

    def __repr__(self):
        return (
            f"PiecewisePoly(breakpoints={len(self.breakpoints)}, "
            f"degree={self.degree})"
        )


def _canonical_centers(bp: np.ndarray) -> np.ndarray:
    """Midpoints of the bounded regions, the finite ends of the tails.  The
    halves are added, so no midpoint of finite breakpoints overflows."""
    if len(bp) == 0:
        return np.zeros(1)
    return np.concatenate([bp[:1], 0.5 * bp[:-1] + 0.5 * bp[1:], bp[-1:]])


def _merge_breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted meshes; a point within the merge tolerance of
    the last kept point is dropped."""
    merged = np.sort(np.concatenate([a, b]))
    keep = np.ones(len(merged), dtype=bool)
    with np.errstate(over="ignore"):  # a gap past the float range is not close
        close = merged[1:] - merged[:-1] <= _BP_MERGE_TOL * (1.0 + np.abs(merged[1:]))
    for j in close.nonzero()[0] + 1:
        last = j - 1
        while not keep[last]:
            last -= 1
        keep[j] = merged[j] - merged[last] > _BP_MERGE_TOL * (1.0 + abs(merged[j]))
    return merged[keep]


# ----------------------------------------------------------------------
# test-function builders


def smoothstep(a: float, b: float, rising: bool = True) -> PiecewisePoly:
    """Cubic smoothstep ramp: 0 at a, 1 at b (or reversed), C^1 at the ends.

    On the ramp the slope magnitude peaks at 1.5/(b-a), the minimal-degree
    W^2 ramp constant used by the cut-off sequences.
    """
    if not b > a:
        raise ValueError("smoothstep needs a < b")
    L = b - a
    # s(t) = 3t^2 - 2t^3 with t = (x-a)/L, expressed around center (a+b)/2
    c = 0.5 * (a + b)
    # t = 0.5 + u/L with u = x - c  ->  expand 3t^2 - 2t^3 in u
    t0 = 0.5
    s0 = 3 * t0**2 - 2 * t0**3
    s1 = (6 * t0 - 6 * t0**2) / L
    try:
        s2 = (6 - 12 * t0) / (2 * L**2)
        s3 = -12 / (6 * L**3)
    except (OverflowError, ZeroDivisionError):  # L**2 or L**3 leaves the float range
        s2 = s3 = math.inf
    ramp = np.array([s0, s1, s2, s3], dtype=complex)
    if not (math.isfinite(L) and np.all(np.isfinite(ramp))):
        raise ValueError(f"smoothstep ramp of width {L!r} has coefficients outside the float range")
    lo, hi = (0.0, 1.0) if rising else (1.0, 0.0)
    if not rising:
        ramp = np.array([1.0, 0, 0, 0], dtype=complex) - ramp
    rows = np.zeros((3, 4), dtype=complex)
    rows[0, 0], rows[1], rows[2, 0] = lo, ramp, hi
    return PiecewisePoly._from_local(np.array([a, b], dtype=float), np.array([a, c, b], dtype=float), rows)


def bump(center: float, plateau: float, ramp: float) -> PiecewisePoly:
    """Compactly supported cubic-smoothstep bump.

    Equal to 1 on ``[center - plateau/2, center + plateau/2]``, cubic ramps
    of width ``ramp`` on both sides, 0 outside.  Lies in W^2 with piecewise
    polynomial second derivative; the family the quadratic-form and
    cut-off machinery uses throughout.
    """
    if ramp <= 0:
        raise ValueError("ramp width must be positive")
    if plateau < 0:
        raise ValueError("plateau width must be nonnegative")
    x0 = center - plateau / 2 - ramp
    x1 = center - plateau / 2
    x2 = center + plateau / 2
    x3 = center + plateau / 2 + ramp
    up = smoothstep(x0, x1, rising=True)
    down = smoothstep(x2, x3, rising=False)
    # with no plateau the ramps meet at the center: breakpoints (x0, x1==x2, x3)
    mesh = np.array([x0, x1, x3]) if plateau == 0 else np.array([x0, x1, x2, x3])
    centers = _canonical_centers(mesh)
    rows = np.zeros((len(mesh) + 1, 4), dtype=complex)
    rows[[1, -2]] = _shift_rows(
        np.array([up.coeffs[1], down.coeffs[1]]),
        np.array([centers[1] - up.centers[1], centers[-2] - down.centers[1]]),
    )
    if plateau != 0:
        rows[2, 0] = 1.0
    return PiecewisePoly._from_local(mesh, centers, rows)


def from_callable(
    f,
    window: tuple[float, float],
    kinks=(),
    degree: int = 8,
    max_piece: float = 0.5,
    tol: float = 1e-10,
    zero_outside: bool = True,
) -> PiecewisePoly:
    """Piecewise polynomial proxy of a callable on a window.

    Chebyshev interpolation of degree ``degree`` on sub-pieces no longer
    than ``max_piece``, split additionally at the given kinks; pieces are
    bisected until the sampled sup error is below ``tol`` times the scale
    of f.  Raises if the certification fails at minimal piece length.
    """
    from numpy.polynomial import chebyshev as C

    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ValueError("window must have positive length")
    knots = sorted({a, b, *(float(k) for k in kinks if a < float(k) < b)})
    mesh: list[float] = []
    pieces: list[np.ndarray] = []
    centers: list[float] = []
    nodes = np.cos(np.pi * (2 * np.arange(degree + 1) + 1) / (2 * (degree + 1)))

    fscale = max(abs(complex(f(x))) for x in np.linspace(a, b, 101)) or 1.0

    def _fit_piece(lo: float, hi: float, depth: int):
        c = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ys = np.array([complex(f(c + half * t)) for t in nodes])
        cheb = np.polynomial.chebyshev.chebfit(nodes, ys, degree)
        mono_t = C.cheb2poly(cheb)  # trailing zeros trimmed: pad to one width
        local = np.zeros(degree + 1, dtype=complex)
        local[: len(mono_t)] = mono_t / half ** np.arange(len(mono_t))
        xs = np.linspace(lo, hi, 41)
        fx = np.array([complex(f(x)) for x in xs])
        err = max(np.abs(_dense(local[None], xs - c) - fx))
        if err > tol * fscale:
            if depth >= 24:
                raise ValueError(
                    f"cannot certify interpolation of piece [{lo}, {hi}]: "
                    f"error {err:.3e}"
                )
            mid = 0.5 * (lo + hi)
            _fit_piece(lo, mid, depth + 1)
            _fit_piece(mid, hi, depth + 1)
            return
        mesh.append(hi)
        centers.append(c)
        pieces.append(local)

    prev = knots[0]
    for k in knots[1:]:
        n = max(1, math.ceil((k - prev) / max_piece))
        edges = np.linspace(prev, k, n + 1)
        for p, q in zip(edges[:-1], edges[1:]):
            _fit_piece(p, q, 0)
        prev = k

    full_mesh = np.asarray([a] + mesh)
    fitted = np.array(pieces)
    if zero_outside:
        all_centers = np.concatenate([[a], centers, [b]])
        rows = np.zeros((len(fitted) + 2, fitted.shape[1]), dtype=complex)
        rows[1:-1] = fitted
        return PiecewisePoly._from_local(full_mesh, all_centers, rows)
    # extend the first/last fitted piece into the tails
    all_centers = np.concatenate([[centers[0]], centers, [centers[-1]]])
    rows = np.concatenate([fitted[:1], fitted, fitted[-1:]])
    return PiecewisePoly._from_local(full_mesh, all_centers, rows)


# ----------------------------------------------------------------------
# coefficient field


@dataclass(frozen=True)
class CoefficientField:
    """The data (s, Q, r) of the expression -u'' + (s + Q')u + i[(ru)' + ru'].

    Jumps of Q encode Dirac masses of the potential; jumps of r are allowed
    since only the combinations G1, G2 enter the first-order system.
    """

    s: PiecewisePoly
    Q: PiecewisePoly
    r: PiecewisePoly

    # computed once per field: every system, shot and form reads them
    @cached_property
    def G1(self) -> PiecewisePoly:
        return self.Q + 1j * self.r

    @cached_property
    def G2(self) -> PiecewisePoly:
        return self.Q - 1j * self.r

    @cached_property
    def r1(self) -> PiecewisePoly:
        return self.r.imag

    def conjugated(self) -> "CoefficientField":
        return CoefficientField(self.s.conj(), self.Q.conj(), self.r.conj())

    def is_real(self, tol: float = 1e-12) -> bool:
        return self.s.is_real(tol) and self.Q.is_real(tol) and self.r.is_real(tol)

    # lambda-free Shin-Zettl entries (a11, a21 at lambda = 0, a22) of each
    # side; the adjoint side swaps and conjugates (G1, G2, s)
    @cached_property
    def direct_entries(self) -> tuple:
        return self.G1, -(self.G1 * self.G2) + self.s, -self.G2

    @cached_property
    def adjoint_entries(self) -> tuple:
        g1, g2 = self.G2.conj(), self.G1.conj()
        return g1, -(g1 * g2) + self.s.conj(), -g2

    @cached_property
    def _breakpoints(self) -> np.ndarray:
        return _merge_breakpoints(
            _merge_breakpoints(self.s.breakpoints, self.Q.breakpoints),
            self.r.breakpoints,
        )

    def breakpoints(self) -> np.ndarray:
        return self._breakpoints

    @classmethod
    def free(cls) -> "CoefficientField":
        z = PiecewisePoly.zero()
        return cls(z, z, z)

    @classmethod
    def delta_well(cls, strength: float = -2.0, location: float = 0.0) -> "CoefficientField":
        """q = strength * delta at ``location``, encoded as a step of Q."""
        z = PiecewisePoly.zero()
        return cls(z, PiecewisePoly.heaviside(strength, location), z)


def pos_neg_parts(f: PiecewisePoly, window: tuple[float, float], h: float):
    """Sampled positive/negative parts of a real function on a window.

    Returns (xs, plus, minus) with plus - minus = f and plus * minus = 0 on
    the mesh; sign crossings inside pieces are located by root-finding and
    inserted into the mesh, so the split is exact at the returned points.
    """
    if not f.is_real(1e-9):
        raise NonRealError("pos_neg_parts requires a real-valued function")
    a, b = float(window[0]), float(window[1])
    xs = list(np.arange(a, b, h))
    if not xs or xs[-1] < b:
        xs.append(b)
    xs.extend(t for t in map(float, f.breakpoints) if a < t < b)
    xs.extend(f.real_roots(a, b))
    xs = np.array(sorted(set(xs)))
    vals = f.sample(xs, "right").real
    plus = np.where(vals > 0, vals, 0.0)
    minus = np.where(vals < 0, -vals, 0.0)
    return xs, plus, minus
