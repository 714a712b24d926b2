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
from functools import cached_property, lru_cache

import numpy as np

from .config import DEGREE_CAP
from .errors import FamilyMemberError, NonRealError

_BP_MERGE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_SPLIT = 2.0**27 + 1  # splits a double into two halves of 26 bits


def _trim(row: np.ndarray) -> np.ndarray:
    """One coefficient row without its trailing zeros, keeping at least one."""
    nz = row.nonzero()[0]
    return row[: nz[-1] + 1 if len(nz) else 1]


def _trim_cols(coeffs: np.ndarray) -> np.ndarray:
    """Drop the trailing columns that are zero in every row, keeping one."""
    n = coeffs.shape[1]
    while n > 1 and not np.count_nonzero(coeffs[:, n - 1]):
        n -= 1
    return coeffs[:, :n]


@lru_cache(maxsize=None)
def _wavefront(n: int) -> tuple:
    """The (written, read) column slices of each time of ``_shift_rows``.

    Step (j, k) of the synthetic division, ``b_k += d b_{k+1}`` for
    j < n - 1 and k from n - 2 down to j, runs at time t = 2j + n - 2 - k:
    it reads b_k as step (j - 1, k) left it at time t - 2 and b_{k+1} as
    step (j, k + 1) left it at time t - 1.  The steps of one time are every
    other column, so each time is one strided update of all rows.
    """
    steps = []
    for t in range(2 * n - 3):
        j_lo, j_hi = max(0, t - n + 2), min(t // 2, n - 2)
        lo, hi = n - 2 - t + 2 * j_lo, n - 2 - t + 2 * j_hi
        steps.append((slice(lo, hi + 1, 2), slice(lo + 1, hi + 2, 2)))
    return tuple(steps)


def _shift_rows(coeffs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Re-center row i from powers of ``(x-c_i)`` to powers of ``(x-(c_i+delta_i))``.

    Synthetic-division Taylor shift on all rows at once: exact in exact
    arithmetic, stable for the shift distances that occur after mesh
    alignment.  Its n(n-1)/2 steps run as a wavefront (``_wavefront``) of
    2n - 3 array updates, the parallel Horner shift of von zur Gathen and
    Gerhard (ISSAC 1997); every coefficient gets the operations of the
    nested loop in the same order, so the result is the same bits.  Rows
    with delta 0 keep their coefficients; with no row to move, the input
    array itself is returned.
    """
    moved = delta.nonzero()[0]
    if not len(moved):
        return coeffs
    out = coeffs.copy()
    b, d = out[moved], delta[moved, None]
    for dst, src in _wavefront(b.shape[1]):
        b[:, dst] += d * b[:, src]
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


def _two_sum(a, b):
    """s + e = a + b exactly, s = fl(a + b) (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b):
    """p + e = a b exactly, p = fl(a b) (Dekker, with Veltkamp's split)."""
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _compensated_horner(coef: np.ndarray, x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Real rows of ascending coefficients at x - center by Horner's rule
    with the rounding error of every step carried along exactly."""
    t, t_err = _two_sum(x, -center)
    acc, err, slope = coef[:, -1], 0.0, 0.0
    for k in range(coef.shape[1] - 2, -1, -1):
        slope = slope * t + acc
        p, p_err = _two_prod(acc, t)
        acc, s_err = _two_sum(p, coef[:, k])
        err = err * t + (p_err + s_err)
    return acc + (err + slope * t_err)


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


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1], exact to degree 2n - 1."""
    return np.polynomial.legendre.leggauss(n)


def _panels(lo, hi, shared=(), owned=(), owned_by=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, owner) of the panels of the intervals [lo[i], hi[i]], by owner and position.

    Interval i is cut at the ``shared`` edges strictly inside it and at the ``owned`` ones
    whose ``owned_by`` is i.  Its ends are lo[i] and hi[i] themselves, no two of its edges
    are equal, and an interval with hi <= lo has no panel."""
    lo = np.asarray(lo, dtype=float)
    hi = np.maximum(lo, hi)  # hi <= lo: the one edge lo
    shared = np.sort(shared)
    owned, owned_by = np.asarray(owned, dtype=float), np.asarray(owned_by, dtype=int)
    start = shared.searchsorted(lo, "right")
    count = np.maximum(shared.searchsorted(hi, "left") - start, 0)
    members = np.arange(len(lo))
    shared_by = members.repeat(count)
    at = np.arange(len(shared_by)) + (start - count.cumsum() + count)[shared_by]
    mine = ((owned > lo[owned_by]) & (owned < hi[owned_by])).nonzero()[0]
    edges = np.concatenate([lo, hi, owned[mine], shared[at]])
    owner = np.concatenate([members, members, owned_by[mine], shared_by])
    order = np.lexsort((edges, owner))
    edges, owner = edges[order], owner[order]
    i = ((owner[1:] == owner[:-1]) & (edges[1:] != edges[:-1])).nonzero()[0]
    return edges[i], edges[i + 1], owner[i]


class PiecewisePoly:
    """Complex piecewise polynomial with breakpoints and tracked jumps.

    Regions: ``len(breakpoints) + 1`` polynomials; region 0 is the left
    tail (valid below the first breakpoint), the last region is the right
    tail.  With no breakpoints a single polynomial covers the line.
    ``coeffs[i]`` holds region i in ascending powers of ``x - centers[i]``.

    Closed under +, -, *, conjugation, real/imaginary part, derivative and
    antiderivative; all coefficient arithmetic, no sampling.
    """

    __slots__ = ("breakpoints", "centers", "coeffs", "_last_mesh")

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
        # a merge keeps one point of a close pair: the region between them
        # would be lost unless it and both sides are one polynomial
        for i in _close_pairs(bp).nonzero()[0].tolist():
            if not np.array_equal(rows[i], rows[i + 1]) or not np.array_equal(rows[i + 1], rows[i + 2]):
                lo, hi = bp[i:i + 2].tolist()
                raise ValueError(
                    f"breakpoints {lo!r} and {hi!r} are closer than the merge tolerance "
                    f"{_BP_MERGE_TOL:g} (times 1 + |x|), and the pieces around them differ")
        glob = np.zeros((len(rows), max(len(r) for r in rows) or 1), dtype=complex)
        for i, row in enumerate(rows):
            glob[i, : len(row)] = row
        self.breakpoints = bp
        self.centers = _canonical_centers(bp)
        self._last_mesh = None
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
        obj._last_mesh = None
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

    def sample_bounded(self, xs, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Real part at an array of x, and a bound on its rounding error.

        Horner's rule on a degree-n row is within 2n eps p~ of the exact
        value, p~ the row with absolute coefficients at |x - center|
        (Higham, Accuracy and Stability of Numerical Algorithms, 5.1).
        At each x where its terms cancel, p~ > 2 |value|, the value is
        recomputed by compensated Horner (Graillat, Langlois & Louvet
        2005), as accurate as Horner's rule in twice the working precision:
        within eps |value| + (2n eps)^2 p~, the rounding of x - center
        corrected to first order.  The choice is made per point, so each
        point's value and bound have the same bits in any array.
        """
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        i = self._region(flat, side)
        rows, centers = self.coeffs[i].real, self.centers[i]
        t = flat - centers
        value, size = _dense(rows, t), _dense(np.abs(rows), np.abs(t))
        gamma = 2 * self.degree * _EPS
        bound = gamma * size
        cancel = ~(size <= 2 * np.abs(value))
        if cancel.any():
            value[cancel] = _compensated_horner(rows[cancel], flat[cancel], centers[cancel])
            bound[cancel] = _EPS * np.abs(value[cancel]) + gamma**2 * size[cancel]
        return value.reshape(xs.shape), bound.reshape(xs.shape)

    @property
    def jumps(self) -> dict[float, complex]:
        """Right-minus-left value at every breakpoint."""
        bp = self.breakpoints
        return dict(zip(bp.tolist(), self.sample(bp, "right") - self.sample(bp, "left")))

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
        function that is nonzero in a tail reports +-inf on that side, and
        the zero function (0, 0).
        """
        lo, hi = _stacked_support(self.breakpoints, self.coeffs, np.array([0, len(self.coeffs)]))
        return (float(lo[0]), float(hi[0]))

    # ------------------------------------------------------------------
    # mesh alignment

    def with_breakpoints(self, extra) -> "PiecewisePoly":
        """Refined copy whose mesh also contains ``extra`` (zero jumps added)."""
        merged = _merge_breakpoints(self.breakpoints, np.sort(np.asarray(extra, dtype=float)))
        return self._on_mesh(merged)

    def _on_mesh(self, mesh: np.ndarray) -> "PiecewisePoly":
        """This function re-centred on a finer mesh.

        The last result is kept with the mesh's bytes (so -0.0 is not
        0.0).  A computation that puts its factors on one mesh first
        (``aligned``) forms every later product and sum on that mesh; only
        operands from elsewhere, such as a field's entries, still meet it,
        and each is re-centred once per mesh.  No operation writes to a
        PiecewisePoly's arrays, so handing out the kept object is safe.
        """
        key = mesh.tobytes()
        if self._last_mesh is not None and self._last_mesh[0] == key:
            return self._last_mesh[1]
        centers = _canonical_centers(mesh)
        if key == self.breakpoints.tobytes() and centers.tobytes() == self.centers.tobytes():
            return self  # its own mesh and centers: nothing to re-centre
        inside = centers.copy()  # a point strictly inside each region
        if len(mesh):
            inside[0] -= 1.0
            inside[-1] += 1.0
        src = self._region(inside, "right")
        coeffs = _shift_rows(self.coeffs[src], centers - self.centers[src])
        out = PiecewisePoly._from_local(mesh, centers, coeffs)
        self._last_mesh = (key, out)
        return out

    # ------------------------------------------------------------------
    # algebra

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(other)
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = aligned((self, other))
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
        a, b = aligned((self, other))
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
        lo, hi, _ = _panels([a], [b], self.breakpoints)
        i = self._region(0.5 * (lo + hi), "right")
        F, c = _primitive_rows(self.coeffs[i]), self.centers[i]
        ends = _dense(np.concatenate([F, F]), np.concatenate([hi - c, lo - c]))  # both ends in one pass
        return sum(ends[: len(i)] - ends[len(i) :], 0.0 + 0.0j)

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


def _stack(polys) -> tuple:
    """Piecewise polynomials as one set of arrays: (breakpoints, centers, coeffs, first, widths).

    Function i owns rows ``first[i]`` to ``first[i + 1]`` of ``centers``
    and ``coeffs`` and breakpoints ``first[i] - i`` to ``first[i + 1] - i - 1``;
    its rows hold its ``widths[i]`` coefficients, zero-padded to the widest.
    """
    counts = np.array([len(f.centers) for f in polys])
    first = np.concatenate([[0], np.cumsum(counts)])
    widths = np.array([f.coeffs.shape[1] for f in polys])
    coeffs = np.zeros((first[-1], widths.max()), dtype=complex)
    row_width = np.repeat(widths, counts)
    for w in np.unique(widths).tolist():
        coeffs[row_width == w, :w] = np.concatenate([f.coeffs for f in polys if f.coeffs.shape[1] == w])
    breakpoints = np.concatenate([f.breakpoints for f in polys])
    return breakpoints, np.concatenate([f.centers for f in polys]), coeffs, first, widths


def _stacked_support(breakpoints, coeffs, first) -> tuple[np.ndarray, np.ndarray]:
    """``PiecewisePoly.support_bounds`` of functions stacked as ``_stack``
    lays them out, as (lo, hi) arrays."""
    members = np.arange(len(first) - 1)
    nz = np.flatnonzero(np.any(coeffs != 0, axis=1))
    nz_owner = np.searchsorted(first, nz, "right") - 1
    start, stop = np.searchsorted(nz_owner, members, "left"), np.searchsorted(nz_owner, members, "right")
    nz = np.append(nz, 0)  # a function without a nonzero row reads this, and gets (0, 0)
    lo_row, hi_row = nz[start], nz[stop - 1]
    bp = np.append(breakpoints, np.nan)
    lo = np.where(lo_row == first[:-1], -np.inf, bp.take(lo_row - members - 1, mode="clip"))
    hi = np.where(hi_row == first[1:] - 1, np.inf, bp.take(hi_row - members, mode="clip"))
    empty = start == stop
    return np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)


def _canonical_centers(bp: np.ndarray) -> np.ndarray:
    """Midpoints of the bounded regions, the finite ends of the tails.  The
    halves are added, so no midpoint of finite breakpoints overflows."""
    if len(bp) == 0:
        return np.zeros(1)
    return np.concatenate([bp[:1], 0.5 * bp[:-1] + 0.5 * bp[1:], bp[-1:]])


def _close_pairs(mesh: np.ndarray) -> np.ndarray:
    """close[i]: mesh[i + 1] is within the merge tolerance of mesh[i]."""
    with np.errstate(over="ignore"):  # a gap past the float range is not close
        return mesh[1:] - mesh[:-1] <= _BP_MERGE_TOL * (1.0 + np.abs(mesh[1:]))


def aligned(fs, *meshes) -> list:
    """The functions ``fs`` re-centred on one mesh: the union of their own
    meshes and ``meshes``, merged from the left by ``_merge_breakpoints``.

    Two functions give the mesh of their sum or product.  Each function
    keeps this alignment (``PiecewisePoly._on_mesh``), so products and sums
    of the results are formed on the mesh without re-centring again.
    """
    mesh = fs[0].breakpoints
    for f in fs[1:]:
        mesh = _merge_breakpoints(mesh, f.breakpoints)
    for m in meshes:
        mesh = _merge_breakpoints(mesh, m)
    return [f._on_mesh(mesh) for f in fs]


def _merge_breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted meshes; a point within the merge tolerance of
    the last kept point is dropped.

    A mesh merged with its own copy is merged alone, as every copied point
    would be dropped.  A point whose left neighbour is kept is dropped
    exactly when the pair is close, so only a point that ends a chain of
    close pairs looks back past its neighbour for the last kept point.
    """
    if a.tobytes() == b.tobytes():
        merged = a
    else:
        merged = np.sort(np.concatenate([a, b]))
    close = _close_pairs(merged)
    if not close.any():
        return merged
    keep = np.ones(len(merged), dtype=bool)
    keep[1:] = ~close
    for j in (close[1:] & close[:-1]).nonzero()[0] + 2:
        last = j - 1
        while not keep[last]:
            last -= 1
        keep[j] = merged[j] - merged[last] > _BP_MERGE_TOL * (1.0 + abs(merged[j]))
    return merged[keep]


# ----------------------------------------------------------------------
# test-function builders


def _cubes(x: np.ndarray) -> np.ndarray:
    """x**3 by Python's float power (the C library's pow), NaN where that
    overflows.  numpy's power rounds some cubes differently."""
    out = []
    for v in x.tolist():
        try:
            out.append(v**3)
        except OverflowError:
            out.append(math.nan)
    return np.array(out, dtype=float)


def _ramp_rows(a: np.ndarray, b: np.ndarray):
    """Rising cubic smoothstep ramps from a to b, elementwise.

    Returns (rows, centers, refusals): row k holds ramp k in powers of
    ``x - c_k``, c_k = (a_k + b_k)/2, and refusal k is the message with
    which ``bumps`` refuses ramp k, or None.  Call under
    ``np.errstate(all="ignore")``: a row past the float range is refused.
    """
    L = b - a
    # s(t) = 3t^2 - 2t^3 with t = (x-a)/L, expressed around center (a+b)/2
    c = 0.5 * (a + b)
    # t = 0.5 + u/L with u = x - c  ->  expand 3t^2 - 2t^3 in u
    t0 = 0.5
    rows = np.empty((len(L), 4), dtype=complex)
    rows[:, 0] = 3 * t0**2 - 2 * t0**3
    rows[:, 1] = (6 * t0 - 6 * t0**2) / L
    rows[:, 2] = (6 - 12 * t0) / (2 * L**2)
    rows[:, 3] = -12 / (6 * _cubes(L))
    # past a width of about 3.1e102, 6 L^3 overflows and the cubic term is 0
    outside = ~(np.isfinite(L) & np.isfinite(rows).all(axis=1)) | (rows[:, 3] == 0)
    refusals = np.full(len(L), None, dtype=object)
    refusals[outside] = [
        f"smoothstep ramp of width {w!r} has coefficients outside the float range" for w in L[outside].tolist()
    ]
    refusals[~(b > a)] = "smoothstep needs a < b"
    return rows, c, refusals


_FALL = np.array([1.0, 0, 0, 0], dtype=complex)  # a falling ramp is 1 minus the rising one


def bumps(centers, plateaus, ramps) -> list[PiecewisePoly]:
    """``bump`` of each (center, plateau, ramp) triple, all built in one pass.

    Raises FamilyMemberError, carrying bump's message and the member's
    index, for the first triple that bump refuses.
    """
    center, plateau, ramp = (np.asarray(v, dtype=float) for v in (centers, plateaus, ramps))
    n = len(center)
    with np.errstate(all="ignore"):  # a member past the float range is refused below
        x0 = center - plateau / 2 - ramp
        x1 = center - plateau / 2
        x2 = center + plateau / 2
        x3 = center + plateau / 2 + ramp
        # the rising ramps on (x0, x1), then the falling ones on (x2, x3)
        ramp_rows, ramp_centers, ramp_refusals = _ramp_rows(np.concatenate([x0, x2]), np.concatenate([x1, x3]))
    ramp_rows[n:] = _FALL - ramp_rows[n:]
    # bump's checks, the one it makes first written last
    refusals = np.where(ramp_refusals[:n].astype(bool), ramp_refusals[:n], ramp_refusals[n:])
    refusals[plateau < 0] = "plateau width must be nonnegative"
    refusals[ramp <= 0] = "ramp width must be positive"
    refused = np.flatnonzero(refusals.astype(bool))
    if len(refused):
        raise FamilyMemberError(refusals[refused[0]], int(refused[0]))
    # Every member's regions, stacked: 0, the rising ramp, 1 on the plateau
    # (none with no plateau, where the ramps meet at x1 == x2), the falling
    # ramp, 0.  Centers are those of _canonical_centers.
    has_plateau = plateau != 0
    regions = np.where(has_plateau, 5, 4)
    first = np.cumsum(regions) - regions
    mesh = np.stack([x0, x1, x2, x3], axis=1)
    mid = 0.5 * mesh[:, :-1] + 0.5 * mesh[:, 1:]
    last = np.where(has_plateau, mid[:, 2], 0.5 * x1 + 0.5 * x3)
    keep = np.ones((n, 5), dtype=bool)
    keep[:, 2] = has_plateau
    bp = mesh[keep[:, :4]]
    mesh_centers = np.stack([x0, mid[:, 0], mid[:, 1], last, x3], axis=1)[keep]
    rows = np.zeros((len(mesh_centers), 4), dtype=complex)
    rows[np.concatenate([first + 1, first + regions - 2])] = _shift_rows(
        ramp_rows, np.concatenate([mid[:, 0], last]) - ramp_centers
    )
    rows[first[has_plateau] + 2, 0] = 1.0
    return [
        PiecewisePoly._from_local(bp[i - k : j - k - 1], mesh_centers[i:j], rows[i:j])
        for k, (i, j) in enumerate(zip(first.tolist(), (first + regions).tolist()))
    ]


def bump(center: float, plateau: float, ramp: float) -> PiecewisePoly:
    """Compactly supported cubic-smoothstep bump.

    Equal to 1 on ``[center - plateau/2, center + plateau/2]``, cubic ramps
    of width ``ramp`` on both sides, 0 outside.  Lies in W^2 with piecewise
    polynomial second derivative; the test functions of the quadratic
    forms and the cut-offs of ``verify`` are all bumps.  ``bumps`` of one
    triple.
    """
    return bumps([center], [plateau], [ramp])[0]


def region_pieces(fs, breakpoints) -> tuple:
    """The pieces of the functions fs on each region of a mesh.

    One entry per region between ``breakpoints`` (both tails included),
    holding per f the (center, ascending local coefficients without
    trailing zeros) of the piece of f at the region's midpoint, or at
    -inf and +inf for the tails.  Coefficients are a tuple of the array's
    own scalars.
    """
    bp = np.asarray(breakpoints, dtype=float)
    reps = np.concatenate([[-np.inf], 0.5 * bp[:-1] + 0.5 * bp[1:], [np.inf]]) if len(bp) else np.zeros(1)
    per_f = []
    for f in fs:
        i = f._region(reps, "right")
        per_f.append([(c, tuple(_trim(row))) for c, row in zip(f.centers[i].tolist(), f.coeffs[i])])
    return tuple(zip(*per_f))


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

    # their pieces on each region between the field's breakpoints, which
    # every shot of the side reads (``region_pieces``)
    @cached_property
    def direct_rows(self) -> tuple:
        return region_pieces(self.direct_entries, self.breakpoints())

    @cached_property
    def adjoint_rows(self) -> tuple:
        return region_pieces(self.adjoint_entries, self.breakpoints())

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

