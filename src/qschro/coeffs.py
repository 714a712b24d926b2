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

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .config import DEGREE_CAP
from .errors import FamilyMemberError, NonRealError

_BP_MERGE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_SPLIT = 2.0**27 + 1  # splits a double into two halves of 26 bits


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
    with delta 0, and rows of one coefficient, keep their coefficients;
    with no row to move, the input array itself is returned.
    """
    moved = delta.nonzero()[0]
    if not len(moved) or coeffs.shape[1] < 2:
        return coeffs
    out = coeffs.copy()
    b, d = out[moved], delta[moved, None]
    for dst, src in _wavefront(b.shape[1]):
        b[:, dst] += d * b[:, src]
    out[moved] = b
    return out


def _dense(coef: np.ndarray, theta) -> np.ndarray:
    """Batched Horner: rows of ascending coefficients (axis 1) at theta."""
    acc = coef[:, -1]
    for k in range(coef.shape[1] - 2, -1, -1):
        acc = acc * theta + coef[:, k]
    return acc


def _value(row, t: float | complex) -> float | complex:
    """A row of ascending coefficients at t by Horner's rule, as ``_dense``
    sums it: from the top coefficient, so the sum takes the type of its
    operands (floats at a float t sum in floats).  The one scalar Horner
    rule of the package."""
    terms = reversed(row)
    acc = next(terms)
    for c in terms:
        acc = acc * t + c
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


def _derivative_rows(c: np.ndarray) -> np.ndarray:
    """Row-wise derivatives of a coefficient array, one column narrower."""
    return c[:, 1:] * np.arange(1, c.shape[1]) if c.shape[1] > 1 else np.zeros_like(c)


def _sum_rows(a: np.ndarray, b: np.ndarray, op=np.add) -> np.ndarray:
    """Rows of a + b (``op`` np.add) or a - b (np.subtract) of two functions
    on one mesh: 0 + a_k, then b_k added or subtracted.  A zero past a
    row's end adds nothing, as 0 + a_k is never -0; a - b has the bits of
    a + (-b)."""
    out = np.zeros((len(a), max(a.shape[1], b.shape[1])), dtype=complex)
    out[:, : a.shape[1]] += a
    op(out[:, : b.shape[1]], b, out=out[:, : b.shape[1]])
    return out


def _convolve_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise polynomial products of two coefficient arrays, looping over
    the columns of the narrower one (q's at equal widths)."""
    return _product(q, p) if p.shape[1] < q.shape[1] else _product(p, q)


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise products p q, adding p times each column of q in turn to rows that start at zero."""
    out = np.zeros((len(p), p.shape[1] + q.shape[1] - 1), dtype=complex)
    for k in range(q.shape[1]):
        out[:, k : k + p.shape[1]] += p * q[:, k, None]
    return out


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1], exact to degree 2n - 1."""
    return np.polynomial.legendre.leggauss(n)


def _panels(lo, hi, shared=(), owned=(), owned_by=()) -> tuple[np.ndarray, ...]:
    """(left, right, owner, before) of the panels of the intervals [lo[i], hi[i]], by owner and position.

    Interval i is cut at the ``shared`` edges strictly inside it and at the ``owned`` ones
    whose ``owned_by`` is i.  Its ends are lo[i] and hi[i] themselves, no two of its edges
    are equal, and an interval with hi <= lo has no panel.  ``before`` counts the owned
    edges of a panel's interval strictly inside it and at or left of the panel."""
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
    # the owned edges up to each panel, less those of the intervals before its own
    passed = np.cumsum((order >= 2 * len(lo)) & (order < 2 * len(lo) + len(mine)))
    own = np.bincount(owned_by[mine], minlength=len(lo))
    return edges[i], edges[i + 1], owner[i], passed[i] - (own.cumsum() - own)[owner[i]]


class PiecewisePoly:
    """Complex piecewise polynomial with breakpoints and tracked jumps.

    Regions: ``len(breakpoints) + 1`` polynomials; region 0 is the left
    tail (valid below the first breakpoint), the last region is the right
    tail.  With no breakpoints a single polynomial covers the line.
    ``coeffs[i]`` holds region i in ascending powers of ``x - centers[i]``.

    Closed under +, -, *, conjugation, real/imaginary part and derivative;
    all coefficient arithmetic, no sampling.
    """

    __slots__ = ("breakpoints", "centers", "coeffs", "_canon")

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

        A refusal is a ValueError.
        """
        self.breakpoints, self.centers, self.coeffs = _member(breakpoints, pieces, degree_cap)
        self._canon = False

    @classmethod
    def _from_local(cls, breakpoints, centers, coeffs) -> "PiecewisePoly":
        """From float arrays of breakpoints and centers and a complex
        ``(n_regions, n_coef)`` array of local rows."""
        if coeffs.ndim != 2 or not len(coeffs) == len(centers) == len(breakpoints) + 1:
            raise ValueError("region count mismatch")
        return _poly(breakpoints, centers, _trim_cols(coeffs))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value) -> "PiecewisePoly":
        return cls([], [[value]], degree_cap=None)

    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls.constant(0.0)

    @classmethod
    def from_coeffs(cls, coeffs) -> "PiecewisePoly":
        """Single global polynomial valid on the whole line."""
        return cls([], [coeffs], degree_cap=None)

    @classmethod
    def step(cls, location: float = 0.0, left=0.0, right=1.0) -> "PiecewisePoly":
        """Piecewise constant with one jump: ``left`` below, ``right`` above."""
        return cls([location], [[left], [right]], degree_cap=None)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def _region(self, x, side: str):
        """Region index (or indices, for an array) holding x on that side."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self.breakpoints.searchsorted(x, side=side)

    def eval(self, x: float, side: str = "right") -> complex:
        """One-sided value at x, with the bits of ``sample``; sides agree
        away from jump locations."""
        i = self._region(x, side)
        return _value(self.coeffs[i], x - self.centers[i])

    def sample(self, xs, side: str = "right") -> np.ndarray:
        """One-sided values at an array of x, equal to ``eval`` at each."""
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        i = self._region(flat, side)
        return _dense(self.coeffs[i], flat - self.centers[i]).reshape(xs.shape)

    def sample_bounded(self, xs) -> tuple[np.ndarray, np.ndarray]:
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
        i = self._region(flat, "right")
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
        """Right-minus-left value at every breakpoint, each side with the bits
        of ``sample``: Horner's rule on lists (``_value``), as a few short rows
        cost less there than in array calls."""
        bp, centers, rows = self.breakpoints.tolist(), self.centers.tolist(), self.coeffs.tolist()
        return {x: _value(rows[i + 1], x - centers[i + 1]) - _value(rows[i], x - centers[i]) for i, x in enumerate(bp)}

    def coeff_scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_real(self) -> bool:
        """Whether no imaginary part exceeds 1e-10 of the largest coefficient."""
        scale = self.coeff_scale() or 1.0
        return float(np.max(np.abs(self.coeffs.imag))) <= 1e-10 * scale

    def support_bounds(self) -> tuple[float, float]:
        """Smallest (lo, hi) outside which the function is identically zero.

        Tails or pieces with nonzero coefficients extend the support; a
        function that is nonzero in a tail reports +-inf on that side, and
        the zero function (0, 0).
        """
        lo, hi, _ = _stacked_support(self.breakpoints, self.coeffs, np.array([0, len(self.coeffs)]))
        return (float(lo[0]), float(hi[0]))

    # ------------------------------------------------------------------
    # mesh alignment

    def _on_mesh(self, mesh: np.ndarray) -> "PiecewisePoly":
        """This function re-centred on a finer mesh, one with no close pair
        (a ``_merge_breakpoints`` result).

        A function marked ``_canon`` on a mesh of the same bytes (so -0.0
        is not 0.0), or one whose own mesh and centers are those of the
        mesh, is returned as it is; any other result is a new function
        marked ``_canon``.  Nothing is kept, and the function is not
        written.  A computation that puts its factors on one mesh first
        (``aligned``) forms every later product and sum on that mesh; only
        operands from elsewhere, such as a field's entries, still meet it,
        and the computation re-centres each once per mesh
        (``quasi._on_field_mesh``, ``quasi.product_rule_check``).
        """
        if self._canon and mesh.tobytes() == self.breakpoints.tobytes():
            return self
        centers = _canonical_centers(mesh)
        coeffs = _recentre(self, self.coeffs, mesh, centers)
        return self if coeffs is self.coeffs else _poly(mesh, centers, coeffs, True)

    def _with(self, other) -> tuple:
        """(self, other) on one mesh: ``aligned((self, other))``.  Two
        functions marked ``_canon`` on meshes of equal bytes are that pair
        already, and are returned without a merge."""
        if self._canon and other._canon and (
            self.breakpoints is other.breakpoints or self.breakpoints.tobytes() == other.breakpoints.tobytes()
        ):
            return self, other
        return aligned((self, other))

    def _same(self, coeffs) -> "PiecewisePoly":
        """A function on this one's mesh and centers, with the mark of this one."""
        return _poly(self.breakpoints, self.centers, _trim_cols(coeffs), self._canon)

    # ------------------------------------------------------------------
    # algebra

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(other)
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = self._with(other)
        return _poly(a.breakpoints, a.centers, _trim_cols(_sum_rows(a.coeffs, b.coeffs)), True)

    __radd__ = __add__

    def __neg__(self):
        return self._same(-self.coeffs)

    def __sub__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self + PiecewisePoly.constant(-complex(other))
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = self._with(other)
        return _poly(a.breakpoints, a.centers, _trim_cols(_sum_rows(a.coeffs, b.coeffs, np.subtract)), True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self._same(self.coeffs * complex(other))
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        a, b = self._with(other)
        return _poly(a.breakpoints, a.centers, _trim_cols(_convolve_rows(a.coeffs, b.coeffs)), True)

    __rmul__ = __mul__

    def conj(self) -> "PiecewisePoly":
        return self._same(np.conj(self.coeffs))

    @property
    def real(self) -> "PiecewisePoly":
        return self._same(self.coeffs.real.astype(complex))

    @property
    def imag(self) -> "PiecewisePoly":
        return self._same(self.coeffs.imag.astype(complex))

    def derivative(self) -> "PiecewisePoly":
        """Region-wise derivative (the absolutely continuous part).

        Jumps of the function are dropped: the distributional delta at a
        jump is not representable here, callers that care inspect
        ``self.jumps`` before differentiating.
        """
        return self._same(_derivative_rows(self.coeffs))

    def integrate(self, a: float, b: float) -> complex:
        """Exact definite integral over [a, b]."""
        if a == b:
            return 0.0 + 0.0j
        if a > b:
            return -self.integrate(b, a)
        lo, hi = _panels([a], [b], self.breakpoints)[:2]
        i = self._region(0.5 * (lo + hi), "right")
        F, c = _primitive_rows(self.coeffs[i]), self.centers[i]
        ends = _dense(np.concatenate([F, F]), np.concatenate([hi - c, lo - c]))  # both ends in one pass
        return sum(ends[: len(i)] - ends[len(i) :], 0.0 + 0.0j)

    # ------------------------------------------------------------------
    # real-analysis helpers (real-valued polys)

    def real_roots(self, lo: float, hi: float) -> list[float]:
        """Real zeros of a real-valued piecewise polynomial in (lo, hi), a root
        within 1e-11 outside a piece's interval clipped onto it."""
        if not self.is_real():
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
                if a - 1e-11 <= x <= b + 1e-11:
                    found.append(min(max(x, a), b))
        return sorted(set(found))

    def extreme_on(self, lo: float, hi: float, mode: str = "max") -> tuple[float, float]:
        """(value, location) of the max or min of a real poly on [lo, hi]."""
        if not self.is_real():
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


def _recentred(row: list, d: float) -> list:
    """Ascending coefficients in t of sum_k row[k] (t + d)^k.

    The synthetic division of ``_shift_rows`` on one row of Python complex
    (or of floats, in a float walk), with the same bits: each step
    multiplies by a float and adds, which Python and numpy round alike.
    It stays a loop over Python scalars: a Taylor step shifts three rows
    of a few coefficients, three rows of three
    take about 3 us here and about 10 us in one array call of
    ``_shift_rows`` (x86-64, one core), and a shot makes a few hundred steps.
    """
    q = list(row)
    for i in range(len(q) - 1):
        for k in range(len(q) - 2, i - 1, -1):
            q[k] += d * q[k + 1]
    return q


def _trimmed(row: list) -> list:
    """A row of Python numbers without its trailing zeros, keeping at least one."""
    n = len(row)
    while n > 1 and not row[n - 1]:
        n -= 1
    return row[:n]


def _piece(p) -> list:
    """One constructor piece (a sequence, or a scalar) as Python complex, without trailing zeros."""
    try:
        return _trimmed([complex(v) for v in p])
    except TypeError:
        return [complex(p)]


def _member(breakpoints, pieces, degree_cap) -> tuple:
    """(breakpoints, centers, coeffs) of one constructor input, checked and
    re-centred as ``PiecewisePoly`` documents, or ValueError with its
    refusal.  Its rows are lists of Python complex until they are whole
    (``_recentred`` has the bits of ``_shift_rows``)."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1:
        raise ValueError("breakpoints must be a 1-d sequence")
    points = bp.tolist()
    if not all(map(operator.lt, points, points[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if not all(map(math.isfinite, points)):
        raise ValueError("breakpoints must be finite")
    if len(pieces) != len(points) + 1:
        raise ValueError(f"need {len(points) + 1} pieces for {len(points)} breakpoints, got {len(pieces)}")
    rows = [_piece(p) for p in pieces]
    for row in rows:
        if degree_cap is not None and len(row) - 1 > degree_cap:
            raise ValueError(f"piece degree {len(row) - 1} exceeds cap {degree_cap}")
    # a merge keeps one point of a close pair: the region between them
    # would be lost unless it and both sides are one polynomial
    for i, (lo, hi) in enumerate(zip(points, points[1:])):
        if hi - lo <= _BP_MERGE_TOL * (1.0 + abs(hi)) and not rows[i] == rows[i + 1] == rows[i + 2]:
            raise ValueError(
                f"breakpoints {lo!r} and {hi!r} are closer than the merge tolerance "
                f"{_BP_MERGE_TOL:g} (times 1 + |x|), and the pieces around them differ")
    width = max(map(len, rows)) or 1
    centers = [points[0], *(0.5 * a + 0.5 * b for a, b in zip(points, points[1:])), points[-1]] if points else [0.0]
    coeffs = [_recentred(row, c) if c else row for row, c in zip((r + [0j] * (width - len(r)) for r in rows), centers)]
    if not all(map(cmath.isfinite, chain.from_iterable(coeffs))):
        raise ValueError("pieces re-centred on their regions have coefficients outside the float range")
    return bp, np.array(centers), np.array(coeffs, dtype=complex)


def _poly(breakpoints, centers, coeffs, canon: bool = False) -> PiecewisePoly:
    """A PiecewisePoly of arrays already checked and trimmed.

    ``canon`` marks a function whose breakpoints hold no close pair (a
    ``_merge_breakpoints`` result) and whose centers are their canonical
    ones: ``aligned`` leaves two such functions on meshes of equal bytes as
    they are, so their sums and products skip it (``PiecewisePoly._with``).
    The mark is a fact about the function's own arrays, so it carries
    nothing from one computation to the next.
    """
    f = object.__new__(PiecewisePoly)
    f.breakpoints, f.centers, f.coeffs, f._canon = breakpoints, centers, coeffs, canon
    return f


def _recentre(f: PiecewisePoly, rows: np.ndarray, mesh: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``rows`` on f's regions and centers (f's own or formed from them) re-centred on
    a mesh that refines f's, with its canonical ``centers``, and trimmed: ``rows`` itself
    where those are f's own mesh and centers, a new array elsewhere."""
    if mesh.tobytes() == f.breakpoints.tobytes() and centers.tobytes() == f.centers.tobytes():
        return rows
    inside = centers.copy()  # a point strictly inside each region
    if len(mesh):
        inside[0] -= 1.0
        inside[-1] += 1.0
    src = f._region(inside, "right")
    return _trim_cols(_shift_rows(rows[src], centers - f.centers[src]))


def _stack(polys) -> tuple:
    """Piecewise polynomials as one set of arrays: (breakpoints, centers, coeffs, first).

    Function i owns rows ``first[i]`` to ``first[i + 1]`` of ``centers``
    and ``coeffs`` and breakpoints ``first[i] - i`` to ``first[i + 1] - i - 1``;
    its rows hold its coefficients, zero-padded to the widest function's.
    """
    first = np.cumsum([0] + [len(f.coeffs) for f in polys])
    coeffs = np.zeros((first[-1], max(f.coeffs.shape[1] for f in polys)), dtype=complex)
    for f, i in zip(polys, first.tolist()):
        coeffs[i : i + len(f.coeffs), : f.coeffs.shape[1]] = f.coeffs
    breakpoints = np.concatenate([f.breakpoints for f in polys])
    return breakpoints, np.concatenate([f.centers for f in polys]), coeffs, first


def _stacked_support(breakpoints, coeffs, first) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``PiecewisePoly.support_bounds`` of functions stacked as ``_stack`` lays
    them out, as (lo, hi) arrays, and the first nonzero row of each (or 0)."""
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
    return np.where(empty, 0.0, lo), np.where(empty, 0.0, hi), lo_row


def _canonical_centers(bp: np.ndarray) -> np.ndarray:
    """Midpoints of the bounded regions, the finite ends of the tails.  The
    halves are added, so no midpoint of finite breakpoints overflows."""
    if len(bp) == 0:
        return np.zeros(1)
    return np.concatenate([bp[:1], 0.5 * bp[:-1] + 0.5 * bp[1:], bp[-1:]])


def aligned(fs, *meshes) -> list:
    """The functions ``fs`` re-centred on one mesh: the union of their own
    meshes and ``meshes``, merged from the left by ``_merge_breakpoints``
    (a lone mesh with itself, so no close pair is left).

    Two functions give the mesh of their sum or product.  The results are
    marked ``_canon`` (``PiecewisePoly._on_mesh``), so products and sums of
    them are formed on the mesh without re-centring again.
    """
    meshes = [f.breakpoints for f in fs] + list(meshes)
    mesh = meshes[0]
    for m in meshes[1:] or meshes:  # one mesh alone is merged with itself
        mesh = _merge_breakpoints(mesh, m)
    return [f._on_mesh(mesh) for f in fs]


def _holds(a: np.ndarray, b: np.ndarray) -> bool:
    """Every point of the sorted mesh b is one of the sorted mesh a, bit for bit."""
    if len(b) > len(a):
        return False
    if not len(b) or a.tobytes() == b.tobytes():
        return True
    return a.take(a.searchsorted(b), mode="clip").tobytes() == b.tobytes()


def _merge_breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted meshes; a point within the merge tolerance of
    the last kept point is dropped.

    A mesh merged with one whose points it holds bit for bit (``_holds``:
    an empty one, its own copy) is merged alone, as every copied point
    would be dropped; a mesh of fewer than two points is returned as it
    is.  A point whose left neighbour is kept is dropped exactly when the
    pair is close, so only a point that ends a chain of close pairs looks
    back past its neighbour for the last kept point.
    """
    if _holds(a, b):
        merged = a
    elif _holds(b, a):
        merged = b
    else:
        merged = np.sort(np.concatenate([a, b]))
    if len(merged) < 2:
        return merged
    with np.errstate(over="ignore"):  # close[i]: merged[i + 1] is near merged[i]; an overflowing gap is not
        close = merged[1:] - merged[:-1] <= _BP_MERGE_TOL * (1.0 + np.abs(merged[1:]))
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


def _bump_stack(centers, plateaus, ramps) -> tuple:
    """``_stack(bumps(centers, plateaus, ramps))``, built as one set of
    arrays without a member object: (breakpoints, centers, coeffs, first).
    Every member's rows hold four coefficients, because a ramp whose cubic
    term is 0 is refused.

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
    first = np.concatenate([[0], np.cumsum(regions)])
    mesh = np.stack([x0, x1, x2, x3], axis=1)
    mid = 0.5 * mesh[:, :-1] + 0.5 * mesh[:, 1:]
    last = np.where(has_plateau, mid[:, 2], 0.5 * x1 + 0.5 * x3)
    keep = np.ones((n, 5), dtype=bool)
    keep[:, 2] = has_plateau
    bp = mesh[keep[:, :4]]
    mesh_centers = np.stack([x0, mid[:, 0], mid[:, 1], last, x3], axis=1)[keep]
    rows = np.zeros((len(mesh_centers), 4), dtype=complex)
    rows[np.concatenate([first[:-1] + 1, first[1:] - 2])] = _shift_rows(
        ramp_rows, np.concatenate([mid[:, 0], last]) - ramp_centers
    )
    rows[first[:-1][has_plateau] + 2, 0] = 1.0
    return bp, mesh_centers, rows, first


def bumps(centers, plateaus, ramps) -> list[PiecewisePoly]:
    """``bump`` of each (center, plateau, ramp) triple, all built in one pass
    (``_bump_stack``), with its FamilyMemberError for the first refused one.
    """
    bp, mesh_centers, rows, first = _bump_stack(centers, plateaus, ramps)
    return [
        _poly(bp[i - k : j - k - 1], mesh_centers[i:j], rows[i:j])
        for k, (i, j) in enumerate(zip(first[:-1].tolist(), first[1:].tolist()))
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


# ----------------------------------------------------------------------
# coefficient field


@dataclass(frozen=True)
class CoefficientField:
    """The data (s, Q, r) of the expression -u'' + (s + Q')u + i[(ru)' + ru'].

    Jumps of Q encode Dirac masses of the potential; jumps of r are allowed
    since only the combinations G1, G2 enter the first-order system.  A
    field is the one name of its expression: the Lagrange adjoint
    expression is that of the field ``adjoint``.
    """

    s: PiecewisePoly
    Q: PiecewisePoly
    r: PiecewisePoly

    # computed once per field: every walk, application and form reads them
    @cached_property
    def _gauge(self) -> tuple:
        """(G1, G2) = (Q + i r, Q - i r), with the bits of the operators:
        i r re-centred on the union of the meshes of Q and r, added to and
        subtracted from Q re-centred there.  One past the float range is
        refused with ValueError naming it."""
        Q, r = self.Q, self.r
        mesh = _merge_breakpoints(Q.breakpoints, r.breakpoints)
        centers = _canonical_centers(mesh)
        with np.errstate(over="ignore", invalid="ignore"):
            q, ir = _recentre(Q, Q.coeffs, mesh, centers), _recentre(r, r.coeffs * 1j, mesh, centers)
            rows = [_trim_cols(_sum_rows(q, ir, op)) for op in (np.add, np.subtract)]
        for g, name in zip(rows, ("G1 = Q + i r", "G2 = Q - i r")):
            if not all(map(cmath.isfinite, g.ravel().tolist())):
                raise ValueError(f"entry {name} has coefficients outside the float range")
        return tuple(_poly(mesh, centers, g, True) for g in rows)

    G1 = property(lambda self: self._gauge[0])
    G2 = property(lambda self: self._gauge[1])

    @cached_property
    def r1(self) -> PiecewisePoly:
        return self.r.imag

    @cached_property
    def entries(self) -> tuple:
        """The lambda-free entries (a11, a21_0, a22) = (G1, -(G1 G2) + s, -G2)
        of the Shin-Zettl matrix [[G1, 1], [-G1*G2 + s - lambda, -G2]] of
        l - lambda in the state (u, u^[1]), u^[1] = u' - G1 u: lambda enters
        entry (2,1) only.  Formed with the bits of the operators and no
        intermediate function, G1 and G2 on one mesh (``_gauge``); an a21_0
        past the float range is refused with ValueError naming it."""
        g1, g2 = self._gauge
        s = self.s
        joint = _merge_breakpoints(g1.breakpoints, s.breakpoints)
        centers = _canonical_centers(joint)
        with np.errstate(over="ignore", invalid="ignore"):
            neg = -_trim_cols(_convolve_rows(g1.coeffs, g2.coeffs))
            a21 = _trim_cols(_sum_rows(_recentre(g1, neg, joint, centers), _recentre(s, s.coeffs, joint, centers)))
        if not all(map(cmath.isfinite, a21.ravel().tolist())):
            raise ValueError("entry a21 = s - G1 G2 has coefficients outside the float range")
        return g1, _poly(joint, centers, a21, True), -g2

    # the shot plans over the entries by interval: filled and bounded by
    # ``propagate._plan``, so they live as long as the field

    @cached_property
    def plans(self) -> dict:
        return {}

    @cached_property
    def adjoint(self) -> "CoefficientField":
        """The conjugate field: the Lagrange adjoint expression l+[s, Q, r] is
        l[conj s, conj Q, conj r], since i[(ru)' + ru'] conj(v) and
        u conj(i[(conj(r) v)' + conj(r) v']) differ by a derivative.  The
        adjoint of the conjugate field is this field, so l++ = l is one
        field with one set of entries and plans."""
        conj = CoefficientField(self.s.conj(), self.Q.conj(), self.r.conj())
        conj.__dict__["adjoint"] = self
        return conj

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """The breakpoints of s, Q and r, merged (``_merge_breakpoints``)."""
        return _merge_breakpoints(_merge_breakpoints(self.s.breakpoints, self.Q.breakpoints), self.r.breakpoints)

    @classmethod
    def free(cls) -> "CoefficientField":
        z = PiecewisePoly.zero()
        return cls(z, z, z)

    @classmethod
    def delta_well(cls, strength: float = -2.0, location: float = 0.0) -> "CoefficientField":
        """q = strength * delta at ``location``, encoded as a step of Q."""
        z = PiecewisePoly.zero()
        return cls(z, PiecewisePoly.step(location, 0.0, strength), z)

