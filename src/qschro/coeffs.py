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
conditioned for narrow high-degree pieces far from the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEGREE_CAP
from .errors import NonRealError

_BP_MERGE_TOL = 1e-12


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop exactly-zero trailing coefficients, keeping at least one."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return np.ascontiguousarray(c[:n])


def _shift_coeffs(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Re-center ``p(x) = sum a_k (x-c)^k`` to powers of ``(x-(c+delta))``.

    Synthetic-division Taylor shift: exact in exact arithmetic, stable for
    the shift distances that occur after mesh alignment.
    """
    if delta == 0.0:
        return coeffs.copy()
    b = coeffs.astype(complex).copy()
    n = len(b)
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            b[k] += delta * b[k + 1]
    return b


def _poly_eval(coeffs: np.ndarray, t: float | complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


class PiecewisePoly:
    """Complex piecewise polynomial with breakpoints and tracked jumps.

    Regions: ``len(breakpoints) + 1`` polynomials; region 0 is the left
    tail (valid below the first breakpoint), the last region is the right
    tail.  With no breakpoints a single polynomial covers the line.

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
        if len(bp) and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if len(pieces) != len(bp) + 1:
            raise ValueError(
                f"need {len(bp) + 1} pieces for {len(bp)} breakpoints, "
                f"got {len(pieces)}"
            )
        centers = _canonical_centers(bp)
        local = []
        for piece, c in zip(pieces, centers):
            arr = _trim(piece)
            if degree_cap is not None and len(arr) - 1 > degree_cap:
                raise ValueError(
                    f"piece degree {len(arr) - 1} exceeds cap {degree_cap}"
                )
            local.append(_trim(_shift_coeffs(arr, c)))
        self.breakpoints = bp
        self.centers = centers
        self.coeffs = local

    @classmethod
    def _from_local(cls, breakpoints, centers, coeffs) -> "PiecewisePoly":
        obj = object.__new__(cls)
        obj.breakpoints = np.asarray(breakpoints, dtype=float)
        obj.centers = np.asarray(centers, dtype=float)
        obj.coeffs = [_trim(c) for c in coeffs]
        if len(obj.coeffs) != len(obj.breakpoints) + 1 or len(obj.centers) != len(obj.coeffs):
            raise ValueError("region count mismatch")
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
        return max(len(c) - 1 for c in self.coeffs)

    def _region(self, x: float, side: str) -> int:
        if side == "right":
            return int(np.searchsorted(self.breakpoints, x, side="right"))
        if side == "left":
            return int(np.searchsorted(self.breakpoints, x, side="left"))
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def eval(self, x: float, side: str = "right") -> complex:
        """One-sided value at x; sides agree away from jump locations."""
        i = self._region(x, side)
        return _poly_eval(self.coeffs[i], x - self.centers[i])

    def __call__(self, x, side: str = "right"):
        if np.ndim(x) == 0:
            return self.eval(float(x), side)
        return self.sample(x, side)

    def sample(self, xs, side: str = "right") -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape, dtype=complex)
        flat = xs.ravel()
        res = out.ravel()
        for k, x in enumerate(flat):
            res[k] = self.eval(float(x), side)
        return out

    @property
    def jumps(self) -> dict[float, complex]:
        """Right-minus-left value at every breakpoint."""
        out = {}
        for b in self.breakpoints:
            out[float(b)] = self.eval(b, "right") - self.eval(b, "left")
        return out

    def coeff_scale(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.coeffs)

    def is_real(self, tol: float = 1e-12) -> bool:
        scale = self.coeff_scale() or 1.0
        return all(float(np.max(np.abs(c.imag))) <= tol * scale for c in self.coeffs)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(np.all(np.abs(c) <= tol) for c in self.coeffs)

    def support_bounds(self) -> tuple[float, float]:
        """Smallest (lo, hi) outside which the function is identically zero.

        Tails or pieces with nonzero coefficients extend the support; a
        function that is nonzero in a tail reports +-inf on that side.
        """
        nz = [not np.all(c == 0) for c in self.coeffs]
        if not any(nz):
            return (0.0, 0.0)
        lo = -math.inf if nz[0] else None
        hi = math.inf if nz[-1] else None
        if lo is None:
            first = min(i for i, flag in enumerate(nz) if flag)
            lo = float(self.breakpoints[first - 1])
        if hi is None:
            last = max(i for i, flag in enumerate(nz) if flag)
            hi = float(self.breakpoints[last])
        return (lo, hi)

    # ------------------------------------------------------------------
    # mesh alignment

    def with_breakpoints(self, extra) -> "PiecewisePoly":
        """Refined copy whose mesh also contains ``extra`` (zero jumps added)."""
        merged = _merge_breakpoints(self.breakpoints, np.asarray(extra, dtype=float))
        return self._on_mesh(merged)

    def _on_mesh(self, mesh: np.ndarray) -> "PiecewisePoly":
        centers = _canonical_centers(mesh)
        coeffs = []
        for i in range(len(mesh) + 1):
            rep = _region_representative(mesh, i)
            src = self._region(rep, "right")
            delta = centers[i] - self.centers[src]
            coeffs.append(_shift_coeffs(self.coeffs[src], delta))
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
        coeffs = []
        for ca, cb in zip(a.coeffs, b.coeffs):
            n = max(len(ca), len(cb))
            s = np.zeros(n, dtype=complex)
            s[: len(ca)] += ca
            s[: len(cb)] += cb
            coeffs.append(s)
        return PiecewisePoly._from_local(a.breakpoints, a.centers, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return PiecewisePoly._from_local(
            self.breakpoints, self.centers, [-c for c in self.coeffs]
        )

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
            z = complex(other)
            return PiecewisePoly._from_local(
                self.breakpoints, self.centers, [c * z for c in self.coeffs]
            )
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = self._aligned(other)
        coeffs = [np.convolve(ca, cb) for ca, cb in zip(a.coeffs, b.coeffs)]
        return PiecewisePoly._from_local(a.breakpoints, a.centers, coeffs)

    __rmul__ = __mul__

    def conj(self) -> "PiecewisePoly":
        return PiecewisePoly._from_local(
            self.breakpoints, self.centers, [np.conj(c) for c in self.coeffs]
        )

    @property
    def real(self) -> "PiecewisePoly":
        return PiecewisePoly._from_local(
            self.breakpoints, self.centers, [c.real.astype(complex) for c in self.coeffs]
        )

    @property
    def imag(self) -> "PiecewisePoly":
        return PiecewisePoly._from_local(
            self.breakpoints, self.centers, [c.imag.astype(complex) for c in self.coeffs]
        )

    def derivative(self) -> "PiecewisePoly":
        """Region-wise derivative (the absolutely continuous part).

        Jumps of the function are dropped: the distributional delta at a
        jump is not representable here, callers that care inspect
        ``self.jumps`` before differentiating.
        """
        coeffs = []
        for c in self.coeffs:
            if len(c) == 1:
                coeffs.append(np.zeros(1, dtype=complex))
            else:
                coeffs.append(c[1:] * np.arange(1, len(c)))
        return PiecewisePoly._from_local(self.breakpoints, self.centers, coeffs)

    def antiderivative(self, anchor: float = 0.0) -> "PiecewisePoly":
        """Continuous F with F' = self region-wise and F(anchor) = 0.

        Jumps of the integrand become kinks of F; F itself is continuous.
        """
        raw = []
        for c in self.coeffs:
            F = np.zeros(len(c) + 1, dtype=complex)
            F[1:] = c / np.arange(1, len(c) + 1)
            raw.append(F)
        n = len(raw)
        offsets = np.zeros(n, dtype=complex)
        i0 = self._region(anchor, "right")
        offsets[i0] = -_poly_eval(raw[i0], anchor - self.centers[i0])
        for i in range(i0, n - 1):
            b = self.breakpoints[i]
            left = _poly_eval(raw[i], b - self.centers[i]) + offsets[i]
            offsets[i + 1] = left - _poly_eval(raw[i + 1], b - self.centers[i + 1])
        for i in range(i0 - 1, -1, -1):
            b = self.breakpoints[i]
            right = _poly_eval(raw[i + 1], b - self.centers[i + 1]) + offsets[i + 1]
            offsets[i] = right - _poly_eval(raw[i], b - self.centers[i])
        for i in range(n):
            raw[i][0] += offsets[i]
        return PiecewisePoly._from_local(self.breakpoints, self.centers, raw)

    def integrate(self, a: float, b: float) -> complex:
        """Exact definite integral over [a, b]."""
        if a == b:
            return 0.0 + 0.0j
        if a > b:
            return -self.integrate(b, a)
        total = 0.0 + 0.0j
        cuts = [a] + [float(t) for t in self.breakpoints if a < t < b] + [b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            i = self._region(0.5 * (lo + hi), "right")
            c = self.coeffs[i]
            F = np.zeros(len(c) + 1, dtype=complex)
            F[1:] = c / np.arange(1, len(c) + 1)
            total += _poly_eval(F, hi - self.centers[i]) - _poly_eval(F, lo - self.centers[i])
        return total

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
            if np.all(c == 0) or len(c) == 1:
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
    n = len(bp)
    if n == 0:
        return np.zeros(1)
    centers = np.empty(n + 1)
    centers[0] = bp[0]
    centers[-1] = bp[-1]
    for i in range(1, n):
        centers[i] = 0.5 * (bp[i - 1] + bp[i])
    return centers


def _region_representative(bp: np.ndarray, i: int) -> float:
    """A point strictly inside region i of the mesh ``bp``."""
    n = len(bp)
    if n == 0:
        return 0.0
    if i == 0:
        return float(bp[0]) - 1.0
    if i == n:
        return float(bp[-1]) + 1.0
    return 0.5 * (float(bp[i - 1]) + float(bp[i]))


def _merge_breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    merged = np.sort(np.concatenate([a, b]))
    if len(merged) == 0:
        return merged
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > _BP_MERGE_TOL * (1.0 + abs(x)):
            keep.append(x)
    return np.asarray(keep)


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
    s2 = (6 - 12 * t0) / (2 * L**2)
    s3 = -12 / (6 * L**3)
    ramp = np.array([s0, s1, s2, s3], dtype=complex)
    lo, hi = (0.0, 1.0) if rising else (1.0, 0.0)
    if not rising:
        ramp = np.array([1.0, 0, 0, 0], dtype=complex) - ramp
    mid = _shift_coeffs(ramp, 0.0)  # already centered at c
    out = PiecewisePoly._from_local(
        np.array([a, b]), np.array([a, c, b]), [np.array([lo]), mid, np.array([hi])]
    )
    return out


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
    if plateau == 0:
        # ramps meet at the center; breakpoints (x0, x1==x2, x3)
        mesh = np.array([x0, x1, x3])
        pieces = [
            np.zeros(1, dtype=complex),
            up.coeffs[1],
            down.coeffs[1],
            np.zeros(1, dtype=complex),
        ]
        centers = _canonical_centers(mesh)
        local = [
            pieces[0],
            _shift_coeffs(up.coeffs[1], centers[1] - up.centers[1]),
            _shift_coeffs(down.coeffs[1], centers[2] - down.centers[1]),
            pieces[3],
        ]
        return PiecewisePoly._from_local(mesh, centers, local)
    mesh = np.array([x0, x1, x2, x3])
    centers = _canonical_centers(mesh)
    local = [
        np.zeros(1, dtype=complex),
        _shift_coeffs(up.coeffs[1], centers[1] - up.centers[1]),
        np.ones(1, dtype=complex),
        _shift_coeffs(down.coeffs[1], centers[3] - down.centers[1]),
        np.zeros(1, dtype=complex),
    ]
    return PiecewisePoly._from_local(mesh, centers, local)


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
        mono_t = C.cheb2poly(cheb)
        local = mono_t / half ** np.arange(len(mono_t))
        xs = np.linspace(lo, hi, 41)
        err = max(abs(_poly_eval(local, x - c) - complex(f(x))) for x in xs)
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
        pieces.append(np.asarray(local, dtype=complex))

    prev = knots[0]
    for k in knots[1:]:
        n = max(1, math.ceil((k - prev) / max_piece))
        edges = np.linspace(prev, k, n + 1)
        for p, q in zip(edges[:-1], edges[1:]):
            _fit_piece(p, q, 0)
        prev = k

    full_mesh = np.asarray([a] + mesh)
    if zero_outside:
        all_centers = np.concatenate([[a], centers, [b]])
        all_pieces = [np.zeros(1, dtype=complex)] + pieces + [np.zeros(1, dtype=complex)]
        return PiecewisePoly._from_local(full_mesh, all_centers, all_pieces)
    # extend the first/last fitted piece into the tails
    all_centers = np.concatenate([[centers[0]], centers, [centers[-1]]])
    all_pieces = [pieces[0]] + pieces + [pieces[-1]]
    return PiecewisePoly._from_local(full_mesh, all_centers, all_pieces)


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

    @property
    def G1(self) -> PiecewisePoly:
        return self.Q + 1j * self.r

    @property
    def G2(self) -> PiecewisePoly:
        return self.Q - 1j * self.r

    @property
    def r1(self) -> PiecewisePoly:
        return self.r.imag

    def conjugated(self) -> "CoefficientField":
        return CoefficientField(self.s.conj(), self.Q.conj(), self.r.conj())

    def is_real(self, tol: float = 1e-12) -> bool:
        return self.s.is_real(tol) and self.Q.is_real(tol) and self.r.is_real(tol)

    def breakpoints(self) -> np.ndarray:
        return _merge_breakpoints(
            _merge_breakpoints(self.s.breakpoints, self.Q.breakpoints),
            self.r.breakpoints,
        )

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
    vals = np.array([f.eval(x, "right").real for x in xs])
    plus = np.where(vals > 0, vals, 0.0)
    minus = np.where(vals < 0, -vals, 0.0)
    return xs, plus, minus
