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

with a, b, s, t, w linear and r linear or quadratic; fields on the two sides
of a shared curve use the same r and w, which is what ties the neighboring
patches' tangent planes (and second-order data) together along the curve.

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


def _linear(v0, v1, d):
    """Scalar polynomial through v0 at 0 and v1 at d, coefficients on the
    last axis."""
    return np.stack(np.broadcast_arrays(v0, (v1 - v0) / d), axis=-1)


def _linear_vec(p0, p1, d):
    return VecPoly(np.stack([p0, (np.asarray(p1) - np.asarray(p0)) / _col(d)],
                            axis=-2))


def _quadratic_vec(p0, pm, p1, d):
    """Vector quadratic through p0, pm, p1 at 0, d/2, d."""
    d = _col(d)
    p0 = np.asarray(p0, float)
    pm = np.asarray(pm, float)
    p1 = np.asarray(p1, float)
    c2 = (2.0 * p0 - 4.0 * pm + 2.0 * p1) / (d * d)
    c1 = (-3.0 * p0 + 4.0 * pm - p1) / d
    return VecPoly(np.stack([p0, c1, c2], axis=-2))


def hermite_curve3(p0, m0, p1, m1, d):
    """Cubic on [0, d] interpolating endpoint positions and derivatives."""
    d = _col(d)
    p0, m0 = np.asarray(p0, float), np.asarray(m0, float)
    p1, m1 = np.asarray(p1, float), np.asarray(m1, float)
    c2 = 3.0 * (p1 - p0) / d ** 2 - (2.0 * m0 + m1) / d
    c3 = 2.0 * (p0 - p1) / d ** 3 + (m0 + m1) / d ** 2
    return VecPoly(np.stack(np.broadcast_arrays(p0, m0, c2, c3), axis=-2))


def hermite_curve5(p0, m0, a0, p1, m1, a1, d):
    """Quintic on [0, d] interpolating positions, first and second derivs."""
    d = _col(d)
    p0, m0, a0 = (np.asarray(v, float) for v in (p0, m0, a0))
    p1, m1, a1 = (np.asarray(v, float) for v in (p1, m1, a1))
    r0 = p1 - p0 - m0 * d - 0.5 * a0 * d * d
    r1 = m1 - m0 - a0 * d
    r2 = a1 - a0
    c3 = (10.0 * r0 - 4.0 * d * r1 + 0.5 * d * d * r2) / d ** 3
    c4 = (-15.0 * r0 + 7.0 * d * r1 - d * d * r2) / d ** 4
    c5 = (6.0 * r0 - 3.0 * d * r1 + 0.5 * d * d * r2) / d ** 5
    return VecPoly(np.stack(np.broadcast_arrays(p0, m0, 0.5 * a0, c3, c4, c5),
                            axis=-2))


def build_missing_boundary_curve(p0, p1, d, m0, m1, a0=None, a1=None):
    """Hermite boundary segment: cubic, or quintic when second derivatives
    are supplied."""
    if np.any(np.asarray(d) <= 0.0):
        raise ValueError("interval must be positive")
    if a0 is None:
        return hermite_curve3(p0, m0, p1, m1, d)
    return hermite_curve5(p0, m0, a0, p1, m1, a1, d)


# -- vertex derivative estimation -----------------------------------------------

def _bessel(p0, nbrs, ds, i):
    """The estimate of estimate_tangent_bessel along edge i, the mask where
    it is defined (a positive cosine-weighted opposite interval) and the
    chord of edge i.  The estimates of every edge of a fan are made
    together; i broadcasts against the batch axes."""
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
    i = np.asarray(i)
    shape = np.broadcast_shapes(ds.shape[:-1], i.shape)

    def at(values):
        values = np.broadcast_to(values, shape + values.shape[-2:])
        index = np.broadcast_to(i[..., None, None],
                                shape + (1, values.shape[-1]))
        return np.take_along_axis(values, index, axis=-2)[..., 0, :]

    return at(tangent), at(ok[..., None])[..., 0], at(chord)


def estimate_tangent_bessel(p0, neighbors, intervals, i):
    """First-derivative estimate along edge i at a vertex of valence n.

    neighbors (..., n, 3) must be in cyclic order around the vertex.  The
    estimate combines the edge vector with a cosine-weighted average of the
    others; at valence 4 it reduces to the three-point parabola (Bessel)
    tangent through the opposite neighbor, the vertex and neighbor i.
    """
    p0, nbrs, ds = (np.asarray(a, float) for a in (p0, neighbors, intervals))
    if nbrs.shape[-2] < 3:
        raise ValueError("valence must be at least 3")
    if np.any(ds <= 0.0):
        raise ValueError("intervals must be positive")
    tangent, ok, _chord = _bessel(p0, nbrs, ds, i)
    if not ok.all():
        raise DegenerateEdgeError(
            "cosine-weighted opposite interval is not positive")
    return tangent


def tangent_with_fallback(p0, neighbors, intervals, i):
    """Bessel-type estimate, falling back to the chord where degenerate."""
    p0, nbrs, ds = (np.asarray(a, float) for a in (p0, neighbors, intervals))
    tangent, ok, chord = _bessel(p0, nbrs, ds, i)
    return np.where(ok[..., None], tangent, chord)


def guide_points(p0, pi, d, t0i, ti0):
    """Two shape samples on the cubic joining p0 to pi.

    The cubic takes value p0 with derivative t0i at 0 and value pi with
    derivative ti0 at d, where ti0 is the derivative at pi of the curve
    oriented from pi toward p0; the samples are its values at d/4 and d/2.
    """
    d = _col(d)
    p0, pi = np.asarray(p0, float), np.asarray(pi, float)
    t0i, ti0 = np.asarray(t0i, float), np.asarray(ti0, float)
    q1 = (54.0 * p0 + 10.0 * pi + 3.0 * d * (3.0 * t0i - ti0)) / 64.0
    q2 = (4.0 * p0 + 4.0 * pi + d * (t0i - ti0)) / 8.0
    return q1, q2


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

    def curvature(self):
        return principal_curvatures(*self.gradient(), *self.hessian())


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
    """Coefficients (a, b) with a*tangent + b*ruled closest to target; at
    is the x of each frame, named when one is degenerate."""
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
    a = (rr * bt - tr * br) / det
    b = (tt * br - tr * bt) / det
    return a, b


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
    if degree == 1 or nm is None:
        base = _linear_vec(r0, r1, d)
    else:
        rm = np.cross(g1.eval(0.5 * np.asarray(d)), nm)
        base = _quadratic_vec(r0, rm, r1, d)
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
    if degree == 1 or nm is None:
        return hermite_curve3(r0, rp0, r1, rp1, d)
    # quartic: endpoint values/derivatives plus the mid-edge value
    d = np.asarray(d, float)
    A = np.stack([d * d, d ** 3, d ** 4,
                  2.0 * d, 3.0 * d * d, 4.0 * d ** 3,
                  d * d / 4.0, d ** 3 / 8.0, d ** 4 / 16.0],
                 axis=-1).reshape(d.shape + (3, 3))
    d = _col(d)
    rhs = np.stack([r1 - r0 - rp0 * d,
                    rp1 - rp0,
                    rm - r0 - rp0 * 0.5 * d], axis=-2)
    tail = np.linalg.solve(A, rhs)
    return VecPoly(np.concatenate([r0[..., None, :], rp0[..., None, :], tail],
                                  axis=-2))


def build_cross_field_chi(gamma, d, ruled, target0, target1):
    """First-order cross field a*gamma' + b*ruled matching corner targets.

    target0/target1 are the first derivatives of the two adjacent boundary
    curves at the shared corners, in their own local variables.  Returns
    chi and the coefficients of a and b (..., 2).
    """
    g1 = gamma.deriv(1)
    a0, b0 = _solve_frame(g1.eval(0.0), ruled.eval(0.0), target0, 0.0)
    a1, b1 = _solve_frame(g1.eval(d), ruled.eval(d), target1, d)
    a = _linear(a0, a1, d)
    b = _linear(b0, b1, d)
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
    s0, t0 = _solve_frame(g1.eval(0.0), ruled.eval(0.0), res0, 0.0)
    s1, t1 = _solve_frame(g1.eval(d), ruled.eval(d), res1, d)
    s = _linear(s0, s1, d)
    t = _linear(t0, t1, d)
    return base + g1.scale(s) + ruled.scale(t)


def normal_curvature_vector(ruled0, k1, k2, dir1, dir2, normal):
    """Endpoint value of w: second fundamental form of the ruled direction."""
    mu = _dot(ruled0, dir1)
    nu = _dot(ruled0, dir2)
    return _col(mu * mu * k1 + nu * nu * k2) * normal
