"""Boundary curves and cross-derivative fields around extraordinary vertices.

Where no surrounding vertex grid exists, patch boundaries are generated as
polynomial segments interpolating endpoint positions and derivatives.  The
endpoint derivatives at a vertex of arbitrary valence come from a low-degree
bivariate polynomial fitted around the vertex, which makes every derivative
at the vertex a directional derivative of one common height field and hence
mutually compatible to second order.

Cross-derivative fields over a boundary curve gamma are assembled as

    chi(x) = a(x) gamma'(x) + b(x) r(x)
    xi(x)  = a(x)^2 gamma''(x) + s(x) gamma'(x) + t(x) r(x)
             + 2 a(x) b(x) r'(x) + b(x)^2 w(x)

with a, b, s, t, w linear and r of degree 1 to 4; fields on the two sides
of a shared curve use the same r and w, which is what ties the neighboring
patches' tangent planes (and second-order data) together along the curve.
Each such polynomial on [0, d] is fixed by end conditions: one table,
BASES, holds their basis polynomials on [0, 1], which interpolant scales to
[0, d], and gregory's blending vector reads it too.

Every function takes leading batch axes: vectors are (..., 3), intervals
and scalars (...), and a VecPoly holds one polynomial per batch entry.  A
batch makes one pass of numpy calls, whatever its size; only the guide fit,
one least-squares system per vertex, takes one vertex at a time.
"""

import math

import numpy as np

from .errors import ConstructionError, DegenerateEdgeError, FitError
from .splines import _horner, derivative_factors


def _dot(a, b):
    """a . b over the last axis (BLAS dot, as `@` on two 3-vectors)."""
    return np.vecdot(a, b)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _col(d):
    """An interval or scalar per batch entry, broadcast against vectors."""
    return np.asarray(d, float)[..., None]


class VecPoly:
    """Vector-valued polynomial, coefficients ascending, shape (..., n, dim):
    one polynomial per entry of the leading axes."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))

    @property
    def degree(self):
        return self.coeffs.shape[-2] - 1

    @property
    def dim(self):
        return self.coeffs.shape[-1]

    def eval(self, x, r=0):
        """r-th derivative at x, which broadcasts against the batch axes;
        shape broadcast(batch, x.shape) + (dim,)."""
        x = np.asarray(x, float)
        batch = self.coeffs.shape[:-2]
        acc = np.zeros(np.broadcast_shapes(batch, x.shape) + (self.dim,))
        if r <= self.degree:
            # a 0-d x keeps numpy's faster scalar path
            acc += _horner(np.moveaxis(self.coeffs, -2, 0),
                           x[..., None] if x.ndim else x, r)
        return acc

    def deriv(self, r=1):
        if r > self.degree:
            return VecPoly(np.zeros(self.coeffs.shape[:-2] + (1, self.dim)))
        factors = derivative_factors(self.degree)[r]
        return VecPoly(self.coeffs[..., r:, :] * np.array(factors)[:, None])

    def reversed(self, d):
        """The same curve run backwards over [0, d]: x -> d - x."""
        c = self.coeffs
        d = _col(d)
        out = np.zeros(np.broadcast_shapes(c.shape, d.shape[:-1] + (1, 1)))
        for k in range(c.shape[-2]):
            for m in range(k + 1):
                out[..., m, :] += math.comb(k, m) * d ** (k - m) \
                    * (-1.0) ** m * c[..., k, :]
        return VecPoly(out)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(a.shape[-2], b.shape[-2])
        out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                       + (n, self.dim))
        out[..., :a.shape[-2], :] += a
        out[..., :b.shape[-2], :] += b
        return VecPoly(out)

    def scale(self, scalar_coeffs):
        """Product with a scalar polynomial (coefficients ascending on the
        last axis, one polynomial per batch entry)."""
        s = np.asarray(scalar_coeffs, dtype=float)
        c = self.coeffs
        n = c.shape[-2]
        out = np.zeros(np.broadcast_shapes(s.shape[:-1], c.shape[:-2])
                       + (s.shape[-1] + n - 1, self.dim))
        for k in range(s.shape[-1]):
            sk = s[..., k, None, None]
            # a zero coefficient adds nothing, not even 0 * inf
            out[..., k:k + n, :] += np.where(sk != 0.0, sk * c, 0.0)
        return VecPoly(out)


# End-condition polynomials on [0, 1], per kind: the derivative order of
# each condition, in interpolant's order, and the ascending coefficients of
# the basis polynomial that meets it and zeroes the others.  Linear: p0, p1
# (values at 0, 1); quadratic: + p(1/2); cubic: + m0, m1 (first derivatives
# at 0, 1); quartic: cubic's + p(1/2); quintic: cubic's + a0, a1 (second).
BASES = {kind: (np.array(orders), np.array(rows, float))
         for kind, orders, rows in (
    ("linear", (0, 0), [[1, -1], [0, 1]]),
    ("quadratic", (0, 0, 0), [[1, -3, 2], [0, -1, 2], [0, 4, -4]]),
    ("cubic", (0, 0, 1, 1),
     [[1, 0, -3, 2], [0, 0, 3, -2], [0, 1, -2, 1], [0, 0, -1, 1]]),
    ("quartic", (0, 0, 1, 1, 0),
     [[1, 0, -11, 18, -8], [0, 0, -5, 14, -8], [0, 1, -4, 5, -2],
      [0, 0, 1, -3, 2], [0, 0, 16, -32, 16]]),
    ("quintic", (0, 0, 1, 1, 2, 2),
     [[1, 0, 0, -10, 15, -6], [0, 0, 0, 10, -15, 6], [0, 1, 0, -6, 8, -3],
      [0, 0, 0, -4, 7, -3], [0, 0, 0.5, -1.5, 1.5, -0.5],
      [0, 0, 0, 0.5, -1, 0.5]]))}


def interpolant(kind, conditions, d):
    """The polynomial of a BASES kind on [0, d] meeting the conditions, each
    (..., dim) in the kind's order: an order-r condition is scaled by d^r,
    the table maps the scaled conditions to the coefficients on [0, 1], and
    coefficient j is divided by d^j."""
    orders, rows = BASES[kind]
    d = np.asarray(d, float)[..., None, None]
    coeffs = rows.T @ (np.stack(np.broadcast_arrays(*conditions), axis=-2)
                       * d ** orders[:, None])
    return VecPoly(coeffs / d ** np.arange(len(rows))[:, None])


def build_missing_boundary_curve(p0, p1, d, m0, m1, a0=None, a1=None):
    """Hermite boundary segment: cubic, or quintic when second derivatives
    are supplied."""
    if np.any(np.asarray(d) <= 0.0):
        raise ValueError("interval must be positive")
    if a0 is None:
        return interpolant("cubic", [p0, p1, m0, m1], d)
    return interpolant("quintic", [p0, p1, m0, m1, a0, a1], d)


# -- vertex derivative estimation -----------------------------------------------

def tangent_with_fallback(p0, neighbors, intervals, i):
    """First-derivative estimate along edge i at a vertex of valence n,
    falling back to the chord where it is degenerate.

    neighbors (..., n, 3) must be in cyclic order around the vertex.  The
    estimate combines the edge vector with a cosine-weighted average of the
    others; at valence 4 it reduces to the three-point parabola (Bessel)
    tangent through the opposite neighbor, the vertex and neighbor i.  It is
    degenerate where the cosine-weighted opposite interval is not positive.
    The estimates of every edge of a fan are made together; i broadcasts
    against the batch axes.
    """
    p0, nbrs, ds = (np.asarray(a, float) for a in (p0, neighbors, intervals))
    n = nbrs.shape[-2]
    e = np.arange(n)[:, None]   # the estimated edge, against every edge j
    j = np.arange(n)
    c = np.where(j == e, 0.0, np.cos(2.0 * math.pi * (j - e) / n))
    f = nbrs - p0[..., None, :]
    dbar = -(c * ds[..., None, :]).sum(axis=-1)
    fbar = (np.abs(c)[..., None] * f[..., None, :, :]).sum(axis=-2)
    ok = dbar > 0.0
    dbar = np.where(ok, dbar, 1.0)
    alpha = dbar / (ds + dbar)
    chord = f / _col(ds)
    tangent = _col(alpha / ds) * f - _col((1.0 - alpha) / dbar) * fbar
    tangent = np.where(ok[..., None], tangent, chord)
    i = np.asarray(i)
    shape = np.broadcast_shapes(ds.shape[:-1], i.shape)
    tangent = np.broadcast_to(tangent, shape + tangent.shape[-2:])
    index = np.broadcast_to(i[..., None, None], shape + (1, tangent.shape[-1]))
    return np.take_along_axis(tangent, index, axis=-2)[..., 0, :]


def guide_points(p0, pi, d, t0i, ti0):
    """Two shape samples on the cubic joining p0 to pi, its values at d/4
    and d/2.  The cubic takes value p0 with derivative t0i at 0 and value
    pi with derivative ti0 at d, both along p0 -> pi.  The guide fit passes
    as ti0 the derivative at pi toward p0, of the opposite sign: on a unit
    line with t0i = 1, ti0 = -1 the samples read 0.34375 and 0.75, not 0.25
    and 0.5."""
    # the cubic basis at 1/4 and 1/2 (a column each); derivatives scale by d
    at = BASES["cubic"][1] @ np.array([0.25, 0.5]) ** np.arange(4)[:, None]
    d = _col(d)
    return tuple(p0 * a + pi * b + d * (t0i * c + ti0 * e)
                 for a, b, c, e in at.T)


def planar_angles(tangents):
    """Flatten fans of tangents (..., n, 3) into angles in the plane (...,
    n).

    The angle between consecutive tangents is preserved up to a common factor
    normalizing the total to 2*pi; the first tangent maps to angle 0.
    """
    a = np.asarray(tangents, float)
    b = np.roll(a, -1, axis=-2)
    if np.any(_norm(a) == 0.0):
        raise DegenerateEdgeError("zero tangent in the fan")
    zeta = np.arctan2(_norm(np.cross(a, b)), _dot(a, b))
    total = zeta.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise DegenerateEdgeError("all tangents are parallel")
    steps = zeta[..., :-1] * 2.0 * math.pi / total
    return np.concatenate([np.zeros_like(total), np.cumsum(steps, axis=-1)],
                          axis=-1)


def _monomials(x, y, degree):
    terms = [x, y, x * x, x * y, y * y]
    if degree >= 3:
        terms += [x ** 3, x * x * y, x * y * y, y ** 3]
    return terms


class GuidePolynomial:
    """Bivariate vector polynomial anchored at a vertex.

    Maps parameter-plane points to positions, interpolates the vertex at the
    origin (no constant term is fitted) and approximates the guide points in
    least squares.  Degree 2 for valences 3-4, degree 3 for 5 and above.
    coeffs (..., nterms, 3) may hold one polynomial per batch entry.
    """

    def __init__(self, p0, coeffs, degree):
        self.p0 = np.asarray(p0, float)
        self.coeffs = coeffs  # (..., nterms, 3), order matching _monomials
        self.degree = degree

    def eval(self, x, y):
        return self.p0 + np.array(_monomials(x, y, self.degree)) @ self.coeffs

    def gradient(self):
        """(Px, Py) at the origin."""
        return self.coeffs[..., 0, :], self.coeffs[..., 1, :]

    def hessian(self):
        """(Pxx, Pxy, Pyy) at the origin."""
        c = self.coeffs
        return 2.0 * c[..., 2, :], c[..., 3, :], 2.0 * c[..., 4, :]

    def normal(self):
        n = np.cross(*self.gradient())
        norm = _norm(n)
        if np.any(norm == 0.0):
            raise ConstructionError("guide polynomial has a degenerate frame")
        return n / norm[..., None]


def fit_guide_polynomial(p0, qs, xys, degree=None):
    """Least-squares guide polynomial through p0 with samples qs at xys; one
    vertex per call."""
    p0 = np.asarray(p0, float)
    qs = np.asarray(qs, float)
    xys = np.asarray(xys, float)
    n2 = len(qs)
    if degree is None:
        degree = 3 if n2 >= 10 else 2
    rows = [_monomials(x, y, degree) for x, y in xys]
    A = np.asarray(rows, float)
    b = qs - p0
    scale = np.linalg.norm(A, axis=0)
    if np.any(scale == 0.0):
        raise FitError("guide-point parameters are rank deficient")
    As = A / scale
    sol, _res, rank, _sv = np.linalg.lstsq(As, b, rcond=1e-10)
    if rank < As.shape[1]:
        raise FitError("guide-point system is rank deficient")
    return GuidePolynomial(p0, sol / scale[:, None], degree)


def directional_derivs(poly, eta):
    """First and second derivative of the guide field along direction eta,
    which broadcasts against the polynomial's batch axes."""
    px, py = poly.gradient()
    pxx, pxy, pyy = poly.hessian()
    c, s = _col(np.cos(eta)), _col(np.sin(eta))
    tau1 = px * c + py * s
    tau2 = pxx * c * c + 2.0 * pxy * c * s + pyy * s * s
    return tau1, tau2


def principal_curvatures(su, sv, suu, suv, svv):
    """(k1, k2, dir1, dir2, normal) from first/second derivative vectors,
    k1 >= k2."""
    n = np.cross(su, sv)
    norm = _norm(n)
    if np.any(norm < 1e-14):
        raise ValueError("degenerate tangent frame")
    n = n / norm[..., None]
    E, F, G = _dot(su, su), _dot(su, sv), _dot(sv, sv)
    L, M, N = _dot(suu, n), _dot(suv, n), _dot(svv, n)
    first = np.stack([E, F, F, G], axis=-1).reshape(E.shape + (2, 2))
    second = np.stack([L, M, M, N], axis=-1).reshape(L.shape + (2, 2))
    evals, evecs = np.linalg.eig(np.linalg.solve(first, second))
    evals, evecs = evals.real, evecs.real
    # the larger eigenvalue first; the second one on a tie
    top = (evals[..., 1] >= evals[..., 0]).astype(int)[..., None]
    k1, k2 = (np.take_along_axis(evals, i, axis=-1)[..., 0]
              for i in (top, 1 - top))
    d1, d2 = (np.take_along_axis(evecs, i[..., None], axis=-1)
              for i in (top, 1 - top))
    dir1 = d1[..., 0, :] * su + d1[..., 1, :] * sv
    dir2 = d2[..., 0, :] * su + d2[..., 1, :] * sv
    dir1 = dir1 / _col(_norm(dir1))
    # orthonormalize within the tangent plane
    dir2 = dir2 - _col(_dot(dir2, dir1)) * dir1
    nrm2 = _norm(dir2)
    flat = nrm2 < 1e-12
    dir2 = np.where(_col(flat), np.cross(n, dir1),
                    dir2 / _col(np.where(flat, 1.0, nrm2)))
    return k1, k2, dir1, dir2, n


def fit_common_plane(vectors):
    """Unit normal of the least-squares plane through the origin of each
    fan of vectors (..., n, 3)."""
    M = np.asarray(vectors, float)
    _u, _s, vt = np.linalg.svd(M, full_matrices=True)
    return vt[..., -1, :]


def project_to_plane(vec, normal):
    return vec - _col(_dot(vec, normal)) * normal


# -- cross-derivative fields ------------------------------------------------------

def _solve_frame(tangent, ruled, target, at):
    """Coefficients (a, b), stacked on the last axis, with a*tangent +
    b*ruled closest to target; at is the x of each frame, named when one is
    degenerate."""
    tt = _dot(tangent, tangent)
    tr = _dot(tangent, ruled)
    rr = _dot(ruled, ruled)
    det = tt * rr - tr * tr
    bad = det <= 1e-14 * np.maximum(tt * rr, 1e-300)
    if bad.any():
        at = np.broadcast_to(at, bad.shape)
        raise ConstructionError(
            f"degenerate tangent/ruled frame at x={at[bad].flat[0]:g}")
    bt = _dot(tangent, target)
    br = _dot(ruled, target)
    return np.stack([rr * bt - tr * br, tt * br - tr * bt], axis=-1) \
        / det[..., None]


def _frame_fields(g1, ruled, d, target0, target1):
    """Linear scalar fields a and b, coefficients on the last axis, with a
    g1 + b ruled closest to target0 at 0 and to target1 at d."""
    ends = [_solve_frame(g1.eval(x), ruled.eval(x), target, x)
            for x, target in ((0.0, target0), (d, target1))]
    return np.moveaxis(interpolant("linear", ends, d).coeffs, -1, 0)


def second_fundamental(curvature, x, y):
    """II(x, y) from principal curvatures and directions."""
    k1, k2, dir1, dir2, _n = curvature
    return k1 * _dot(x, dir1) * _dot(y, dir1) \
        + k2 * _dot(x, dir2) * _dot(y, dir2)


def make_ruled_direction(gamma, d, n0, n1, degree=2, nm=None,
                         curv0=None, curv1=None):
    """Transversal direction field r(x) along gamma.

    r interpolates gamma'(0) x n0 and gamma'(d) x n1; the quadratic variant
    adds gamma'(d/2) x nm with nm a mid-edge normal estimate.

    When corner curvature data is supplied, the endpoint derivatives of r are
    additionally corrected so that their normal components satisfy
    r'(0) . n = II(gamma'(0), r(0)) (and likewise at d) -- the identity the
    true normal field gamma' x n obeys.  Without it, second-order cross
    fields cannot meet their corner targets exactly and the biquintic patch
    loses boundary interpolation.
    """
    n0, n1 = np.asarray(n0, float), np.asarray(n1, float)
    g1 = gamma.deriv(1)
    r0 = np.cross(g1.eval(0.0), n0)
    r1 = np.cross(g1.eval(d), n1)
    linear = degree == 1 or nm is None
    if linear:
        base = interpolant("linear", [r0, r1], d)
    else:
        rm = np.cross(g1.eval(0.5 * np.asarray(d)), nm)
        base = interpolant("quadratic", [r0, r1, rm], d)
    if curv0 is None and curv1 is None:
        return base
    rp0 = base.eval(0.0, 1)
    rp1 = base.eval(d, 1)
    if curv0 is not None:
        want = second_fundamental(curv0, g1.eval(0.0), r0)
        rp0 = rp0 + _col(want - _dot(rp0, n0)) * n0
    if curv1 is not None:
        want = second_fundamental(curv1, g1.eval(d), r1)
        rp1 = rp1 + _col(want - _dot(rp1, n1)) * n1
    if linear:
        return interpolant("cubic", [r0, r1, rp0, rp1], d)
    return interpolant("quartic", [r0, r1, rp0, rp1, rm], d)


def build_cross_field_chi(gamma, d, ruled, target0, target1):
    """First-order cross field a*gamma' + b*ruled matching corner targets.

    target0/target1 are the first derivatives of the two adjacent boundary
    curves at the shared corners, in their own local variables.  Returns
    chi and the coefficients of a and b (..., 2).
    """
    g1 = gamma.deriv(1)
    a, b = _frame_fields(g1, ruled, d, target0, target1)
    chi = g1.scale(a) + ruled.scale(b)
    return chi, a, b


def _square(a, b):
    """Coefficients of the product of two linear scalar polynomials."""
    return np.stack([a[..., 0] * b[..., 0],
                     a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0],
                     a[..., 1] * b[..., 1]], axis=-1)


def build_cross_field_xi(gamma, d, a, b, ruled, w_field, target0, target1):
    """Second-order cross field matching corner second-derivative targets.

    w_field carries the normal-curvature contribution (its endpoint values
    are (mu^2 k1 + nu^2 k2) n with (mu, nu) the ruled direction's coordinates
    in the principal frame).  The in-plane part is matched exactly; any
    normal-component residual of the targets is absorbed by w only to the
    extent the supplied w is consistent with them.
    """
    g1 = gamma.deriv(1)
    g2 = gamma.deriv(2)
    rp = ruled.deriv(1)
    a, b = np.asarray(a, float), np.asarray(b, float)
    base = g2.scale(_square(a, a)) + rp.scale(2.0 * _square(a, b)) \
        + w_field.scale(_square(b, b))
    res0 = np.asarray(target0, float) - base.eval(0.0)
    res1 = np.asarray(target1, float) - base.eval(d)
    s, t = _frame_fields(g1, ruled, d, res0, res1)
    return base + g1.scale(s) + ruled.scale(t)


def normal_curvature_vector(ruled0, k1, k2, dir1, dir2, normal):
    """Endpoint value of w: second fundamental form of the ruled direction."""
    mu = _dot(ruled0, dir1)
    nu = _dot(ruled0, dir2)
    return _col(mu * mu * k1 + nu * nu * k2) * normal
