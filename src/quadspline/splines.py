"""Univariate local spline interpolation on non-uniform knots.

A curve through points p_0..p_N is built as F(x) = sum_i p_i * psi_i(x) where
the basis functions psi_i are compactly supported piecewise polynomials with
psi_i(x_j) = delta_ij.  Two families with support width 4 are provided:

    d3c1p2s4  cubic, C1, reproduces quadratics (the classical non-uniform
              Catmull-Rom basis)
    d5c2p2s4  quintic, C2, reproduces quadratics

On a knot interval [x_s, x_{s+1}] exactly four basis functions are nonzero and
each depends only on the three interval lengths (d_{s-1}, d_s, d_{s+1}).  The
segment polynomials are evaluated from expanded monomial coefficients so that
derivatives of any order are exact.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateEdgeError

# offsets of the nonzero basis functions on a segment, for support width 4
SUPPORT_OFFSETS = (-1, 0, 1, 2)

_X_TOL = 1e-9  # relative slack for the x-in-segment domain check


@dataclass(frozen=True)
class SplineFamily:
    """Descriptor of one basis-function class.

    degree/continuity/reproduction/support are the class parameters: curves
    built on the family are piecewise degree-`degree` polynomials, C^continuity
    at the knots, reproduce polynomials up to degree `reproduction`, and each
    basis function spans `support` knot intervals.
    """

    name: str
    degree: int
    continuity: int
    reproduction: int
    support: int

    def __post_init__(self):
        if self.support % 2 != 0 or self.support < 4:
            raise ValueError("support width must be even and >= 4")


D3C1P2S4 = SplineFamily("d3c1p2s4", 3, 1, 2, 4)
D5C2P2S4 = SplineFamily("d5c2p2s4", 5, 2, 2, 4)

FAMILIES = {D3C1P2S4.name: D3C1P2S4, D5C2P2S4.name: D5C2P2S4}


def family(name):
    """Look up a family by its id string (case-insensitive)."""
    try:
        return FAMILIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown spline family {name!r}; "
                         f"choose from {sorted(FAMILIES)}") from None


def _coeffs_all_d3(dm, d0, dp):
    # monomial coefficients (ascending powers of x) on [0, d0], offsets -1..2
    inv0 = 1.0 / d0
    inv0sq = inv0 * inv0
    a = 1.0 / (d0 + dp)
    b = 1.0 / dm
    c = 1.0 / (dm + d0)
    e = 1.0 / dp
    q1 = b * c  # 1 / (dm (dm + d0))
    q2 = e * a  # 1 / (dp (d0 + dp))
    yield 0.0, -d0 * q1, 2.0 * q1, -q1 * inv0
    yield 1.0, b - inv0, -(a + 2.0 * b) * inv0, (a + b) * inv0sq
    yield 0.0, c * dm * inv0, (2.0 * c + e) * inv0, -(c + e) * inv0sq
    yield 0.0, 0.0, -q2, q2 * inv0


def _coeffs_all_d5(dm, d0, dp):
    inv0 = 1.0 / d0
    inv0sq = inv0 * inv0
    inv03 = inv0sq * inv0
    inv04 = inv0sq * inv0sq
    q = 1.0 / (dm * (dm + d0)) * inv03  # 1 / (dm d0^3 (dm + d0))
    p = d0 + dp
    s = (dm + p) / (dm * p)
    r = 1.0 / dp + 1.0 / (dm + d0)
    invq0 = 1.0 / ((dm + d0) * d0)
    t = 1.0 / (dp * p) * inv03  # 1 / (d0^3 dp (d0 + dp))
    yield (0.0, -d0 ** 4 * q, d0 ** 3 * q, 3.0 * d0 * d0 * q, -5.0 * d0 * q,
           2.0 * q)
    yield (1.0, 1.0 / dm - inv0, -inv0 / dm, -3.0 * s * inv0sq,
           5.0 * s * inv03, -2.0 * s * inv04)
    yield (0.0, dm * invq0, invq0, 3.0 * r * inv0sq, -5.0 * r * inv03,
           2.0 * r * inv04)
    yield 0.0, 0.0, 0.0, -3.0 * d0 * d0 * t, 5.0 * d0 * t, -2.0 * t


_COEFF_ALL = {"d3c1p2s4": _coeffs_all_d3, "d5c2p2s4": _coeffs_all_d5}


def _check_x(x, d0):
    lo, hi = -_X_TOL * d0, d0 * (1.0 + _X_TOL)
    if isinstance(x, np.ndarray) and x.dtype.kind == "c":
        # a complex step leaves the real segment by at most its own size
        slack = np.abs(x.imag)
        x, lo, hi = x.real, np.real(lo) - slack, np.real(hi) + slack
    outside = (x < lo) | (x > hi)
    if np.count_nonzero(outside):
        i = np.argmax(outside)
        x, d0 = np.broadcast_arrays(x, d0)
        raise ValueError(f"x={x.flat[i]} outside the segment "
                         f"[0, {d0.flat[i]}]")


@lru_cache(maxsize=None)
def derivative_factors(degree):
    """Table F[r][k] = (k + r)! / k! for k + r <= degree, made once per
    degree: the r-th derivative of sum_j c_j x^j is
    sum_k F[r][k] c_{k+r} x^k."""
    return tuple(tuple(float(math.perm(k + r, r))
                       for k in range(degree - r + 1))
                 for r in range(degree + 1))


def _horner(coeffs, x, r=0, rows=None):
    """r-th derivative at x of the polynomial with ascending coefficients;
    with rows, of the polynomials coeffs[:, rows], gathered one coefficient
    at a time."""
    if r:
        factors = derivative_factors(len(coeffs) - 1)[r]
        coeffs = [f * c for f, c in zip(factors, coeffs[r:])]
    acc = coeffs[-1] if rows is None else coeffs[-1][rows]
    for c in coeffs[-2::-1]:
        acc = acc * x + (c if rows is None else c[rows])
    return acc


def fundamental_weights(fam, x, d, r=0):
    """All four basis values (offsets -1..2) at x, optionally differentiated.

    x and the three entries of d may be scalars or arrays that broadcast
    together; the result has shape (4,) + their broadcast shape.  r may also
    be a sequence of orders, all served by one coefficient table; the result
    then has a leading axis over them.
    """
    _check_x(x, d[1])
    several = not isinstance(r, (int, np.integer))
    orders = tuple(r) if several else (r,)
    # the broadcast shape and type, by arithmetic: np.broadcast is slow on
    # scalars
    probe = np.asarray(x + d[0] + d[1] + d[2])
    out = np.zeros((len(orders), 4) + probe.shape,
                   complex if probe.dtype.kind == "c" else float)
    if min(orders) <= fam.degree:
        for k, c in enumerate(_COEFF_ALL[fam.name](*d)):
            for i, order in enumerate(orders):
                if order <= fam.degree:
                    out[i, k] = _horner(c, x, order)
    return out if several else out[0]


def _check_finite(points):
    bad = ~np.isfinite(points).all(axis=-1)
    if bad.any():
        raise DegenerateEdgeError(f"point {int(np.argmax(bad))} is not "
                                  "finite")


def make_knots(points, alpha=0.5, closed=False):
    """Knot sequence x_0 = 0, x_{i+1} = x_i + |p_{i+1} - p_i|^alpha.

    alpha = 0.5 is the centripetal choice, 1 chordal, 0 uniform.  For closed
    polylines a wrap-around interval back to the first point is appended, so
    the returned sequence has len(points) + 1 entries.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least two points")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    _check_finite(pts)
    ends = np.concatenate([pts[1:], pts[:1]]) if closed else pts[1:]
    diff = ends - pts[:len(ends)]
    # sqrt of vecdot and float_power round as the scalar
    # float(np.linalg.norm(diff[i])) ** alpha does
    chord = np.sqrt(np.vecdot(diff, diff))
    bad = np.flatnonzero(chord == 0.0)
    if len(bad):
        i = bad[0]
        raise DegenerateEdgeError(f"points {i} and {(i + 1) % len(pts)} "
                                  "coincide")
    return np.concatenate([[0.0], np.cumsum(np.float_power(chord, alpha))])


class PolylineCurve:
    """Local spline interpolant of a polyline.

    For an open polyline of N points there are N knots and the curve is only
    evaluable where a full support window exists, i.e. on [x_1, x_{N-2}];
    boundary segments would require special end-condition basis functions that
    this module does not provide.  Closed polylines carry N+1 knots (the last
    is the wrap-around) and evaluate anywhere, indices taken modulo N.
    """

    def __init__(self, points, knots, fam, closed=False):
        self.points = np.asarray(points, dtype=float)
        self.knots = np.asarray(knots, dtype=float)
        self.family = fam
        self.closed = bool(closed)
        n = len(self.points)
        expected = n + 1 if closed else n
        if len(self.knots) != expected:
            raise ValueError(f"expected {expected} knots for "
                             f"{'closed' if closed else 'open'} curve, "
                             f"got {len(self.knots)}")
        _check_finite(self.points)
        ds = np.diff(self.knots)
        if not (np.isfinite(self.knots).all() and np.all(ds > 0.0)):
            raise DegenerateEdgeError("knots must be finite and strictly "
                                      "increasing")
        self._d = ds
        if closed and n < 3:
            raise ValueError("closed polyline needs at least 3 points")
        if not closed and n < 4:
            raise ValueError("open polyline needs at least 4 points")

    @classmethod
    def from_points(cls, points, fam, alpha=0.5, closed=False):
        return cls(points, make_knots(points, alpha, closed), fam, closed)

    @property
    def dim(self):
        return self.points.shape[1]

    def domain(self):
        """Evaluable parameter range (full period for closed curves)."""
        if self.closed:
            return float(self.knots[0]), float(self.knots[-1])
        return float(self.knots[1]), float(self.knots[-2])

    def eval(self, x, r=0):
        """Points (r = 0) or r-th derivative vectors at parameters x, a
        scalar or an array: shape x.shape + (dim,).  r may also be a
        sequence of orders; the result then has a leading axis over them."""
        x = np.asarray(x, float)
        knots, n = self.knots, len(self.points)
        if self.closed:
            x = (x - knots[0]) % (knots[-1] - knots[0]) + knots[0]
            first, last = 0, n - 1
        else:
            lo, hi = self.domain()
            slack = _X_TOL * (knots[-1] - knots[0])
            outside = (x < lo - slack) | (x > hi + slack)
            if outside.any():
                raise ValueError(f"x={x[outside].flat[0]} outside evaluable "
                                 f"range [{lo}, {hi}]")
            first, last = 1, n - 3
        s = np.clip(np.searchsorted(knots, x, side="right") - 1, first, last)
        window = np.add.outer(SUPPORT_OFFSETS, s) % n
        w = fundamental_weights(self.family, x - knots[s],
                                tuple(self._d[window[:3]]), r)
        # the weights' axis over the window first: (4, [orders,] x...)
        w = np.moveaxis(w, -1 - x.ndim, 0)
        out = np.zeros(w.shape[1:] + (self.dim,))
        for k, p in enumerate(self.points[window]):
            out += w[k][..., None] * p
        return out


def segment_coefficients(points4, d, fam):
    """Monomial coefficients of curve segments, shape (..., degree+1, dim).

    points4 (..., 4, dim) are the four window points of each segment, d the
    local interval triple, each entry a scalar or an array over the leading
    axes; a segment runs over x in [0, d[1]].  All segments take one
    coefficient-table call.
    """
    pts = np.asarray(points4, dtype=float)
    if len(d) != fam.support - 1:
        raise ValueError(f"local parameter vector must have {fam.support - 1} "
                         f"entries, got {len(d)}")
    d = [np.asarray(x, float) for x in d]
    if any(np.any(x <= 0.0) for x in d):
        raise DegenerateEdgeError("parameter intervals must be positive")
    coeffs = 0.0
    for k, c in enumerate(_COEFF_ALL[fam.name](*d)):
        c = np.stack(np.broadcast_arrays(*c), axis=-1)
        coeffs = coeffs + c[..., :, None] * pts[..., k, None, :]
    return coeffs


def signed_curvature(curve, x):
    """Signed curvature of a planar (2D) curve at parameters x, a scalar or
    an array; 0 where the curve has zero speed."""
    if curve.dim != 2:
        raise ValueError("signed curvature requires a 2D curve")
    d1, d2 = curve.eval(x, (1, 2))
    speed = np.hypot(d1[..., 0], d1[..., 1])
    cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    # float_power rounds as the scalar speed ** 3 does; the array ** does not
    return np.divide(cross, np.float_power(speed, 3), out=np.zeros_like(speed),
                     where=speed != 0.0)
