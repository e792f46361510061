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
"""

import math

import numpy as np

from .errors import ConstructionError, DegenerateEdgeError, FitError
from .splines import _horner, derivative_factors


class VecPoly:
    """Vector-valued polynomial, coefficients ascending, shape (n, dim)."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def dim(self):
        return self.coeffs.shape[1]

    def eval(self, x, r=0):
        """r-th derivative at x (scalar or array); shape x.shape + (dim,)."""
        x = np.asarray(x, float)
        acc = np.zeros(x.shape + (self.dim,))
        if r <= self.degree:
            # a 0-d x keeps numpy's faster scalar path
            acc += _horner(self.coeffs, x[..., None] if x.ndim else x, r)
        return acc

    def deriv(self, r=1):
        if r > self.degree:
            return VecPoly(np.zeros((1, self.dim)))
        factors = derivative_factors(self.degree)[r]
        return VecPoly(self.coeffs[r:] * np.array(factors)[:, None])

    def reversed(self, d):
        """The same curve run backwards over [0, d]: x -> d - x."""
        c = self.coeffs
        out = np.zeros_like(c)
        for k in range(len(c)):
            for m in range(k + 1):
                out[m] += math.comb(k, m) * d ** (k - m) * (-1.0) ** m * c[k]
        return VecPoly(out)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros((n, self.dim))
        out[:len(self.coeffs)] += self.coeffs
        out[:len(other.coeffs)] += other.coeffs
        return VecPoly(out)

    def scale(self, scalar_coeffs):
        """Product with a scalar polynomial (coefficients ascending)."""
        s = np.asarray(scalar_coeffs, dtype=float)
        out = np.zeros((len(s) + len(self.coeffs) - 1, self.dim))
        for k, sk in enumerate(s):
            if sk != 0.0:
                out[k:k + len(self.coeffs)] += sk * self.coeffs
        return VecPoly(out)


def _linear(v0, v1, d):
    """Scalar polynomial through v0 at 0 and v1 at d."""
    return np.array([v0, (v1 - v0) / d])


def _linear_vec(p0, p1, d):
    return VecPoly(np.stack([p0, (np.asarray(p1) - np.asarray(p0)) / d]))


def _quadratic_vec(p0, pm, p1, d):
    """Vector quadratic through p0, pm, p1 at 0, d/2, d."""
    p0 = np.asarray(p0, float)
    pm = np.asarray(pm, float)
    p1 = np.asarray(p1, float)
    c2 = (2.0 * p0 - 4.0 * pm + 2.0 * p1) / (d * d)
    c1 = (-3.0 * p0 + 4.0 * pm - p1) / d
    return VecPoly(np.stack([p0, c1, c2]))


def hermite_curve3(p0, m0, p1, m1, d):
    """Cubic on [0, d] interpolating endpoint positions and derivatives."""
    p0, m0 = np.asarray(p0, float), np.asarray(m0, float)
    p1, m1 = np.asarray(p1, float), np.asarray(m1, float)
    c2 = 3.0 * (p1 - p0) / d ** 2 - (2.0 * m0 + m1) / d
    c3 = 2.0 * (p0 - p1) / d ** 3 + (m0 + m1) / d ** 2
    return VecPoly(np.stack([p0, m0, c2, c3]))


def hermite_curve5(p0, m0, a0, p1, m1, a1, d):
    """Quintic on [0, d] interpolating positions, first and second derivs."""
    p0, m0, a0 = (np.asarray(v, float) for v in (p0, m0, a0))
    p1, m1, a1 = (np.asarray(v, float) for v in (p1, m1, a1))
    r0 = p1 - p0 - m0 * d - 0.5 * a0 * d * d
    r1 = m1 - m0 - a0 * d
    r2 = a1 - a0
    c3 = (10.0 * r0 - 4.0 * d * r1 + 0.5 * d * d * r2) / d ** 3
    c4 = (-15.0 * r0 + 7.0 * d * r1 - d * d * r2) / d ** 4
    c5 = (6.0 * r0 - 3.0 * d * r1 + 0.5 * d * d * r2) / d ** 5
    return VecPoly(np.stack([p0, m0, 0.5 * a0, c3, c4, c5]))


def build_missing_boundary_curve(p0, p1, d, m0, m1, a0=None, a1=None):
    """Hermite boundary segment: cubic, or quintic when second derivatives
    are supplied."""
    if d <= 0.0:
        raise ValueError("interval must be positive")
    if a0 is None:
        return hermite_curve3(p0, m0, p1, m1, d)
    return hermite_curve5(p0, m0, a0, p1, m1, a1, d)


# -- vertex derivative estimation -----------------------------------------------

def estimate_tangent_bessel(p0, neighbors, intervals, i):
    """First-derivative estimate along edge i at a vertex of valence n.

    neighbors must be in cyclic order around the vertex.  The estimate
    combines the edge vector with a cosine-weighted average of the others; at
    valence 4 it reduces to the three-point parabola (Bessel) tangent through
    the opposite neighbor, the vertex and neighbor i.
    """
    p0 = np.asarray(p0, float)
    nbrs = np.asarray(neighbors, float)
    ds = np.asarray(intervals, float)
    n = len(nbrs)
    if n < 3:
        raise ValueError("valence must be at least 3")
    if np.any(ds <= 0.0):
        raise ValueError("intervals must be positive")
    f = nbrs - p0
    dbar = 0.0
    fbar = np.zeros(3)
    for j in range(n):
        if j == i:
            continue
        c = math.cos(2.0 * math.pi * (j - i) / n)
        dbar -= c * ds[j]
        fbar += abs(c) * f[j]
    if dbar <= 0.0:
        raise DegenerateEdgeError(
            "cosine-weighted opposite interval is not positive")
    alpha = dbar / (ds[i] + dbar)
    return (alpha / ds[i]) * f[i] - ((1.0 - alpha) / dbar) * fbar


def tangent_with_fallback(p0, neighbors, intervals, i):
    """Bessel-type estimate, falling back to the chord when degenerate."""
    try:
        return estimate_tangent_bessel(p0, neighbors, intervals, i)
    except DegenerateEdgeError:
        return (np.asarray(neighbors[i], float) - np.asarray(p0, float)) \
            / intervals[i]


def guide_points(p0, pi, d, t0i, ti0):
    """Two shape samples on the cubic joining p0 to pi.

    The cubic takes value p0 with derivative t0i at 0 and value pi with
    derivative ti0 at d, where ti0 is the derivative at pi of the curve
    oriented from pi toward p0; the samples are its values at d/4 and d/2.
    """
    p0, pi = np.asarray(p0, float), np.asarray(pi, float)
    t0i, ti0 = np.asarray(t0i, float), np.asarray(ti0, float)
    q1 = (54.0 * p0 + 10.0 * pi + 3.0 * d * (3.0 * t0i - ti0)) / 64.0
    q2 = (4.0 * p0 + 4.0 * pi + d * (t0i - ti0)) / 8.0
    return q1, q2


def planar_angles(tangents):
    """Flatten a spatial fan of tangents into angles in the plane.

    The angle between consecutive tangents is preserved up to a common factor
    normalizing the total to 2*pi; the first tangent maps to angle 0.
    """
    ts = [np.asarray(t, float) for t in tangents]
    n = len(ts)
    zeta = []
    for i in range(n):
        a, b = ts[i], ts[(i + 1) % n]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise DegenerateEdgeError("zero tangent in the fan")
        zeta.append(math.atan2(np.linalg.norm(np.cross(a, b)),
                               float(a @ b)))
    total = sum(zeta)
    if total == 0.0:
        raise DegenerateEdgeError("all tangents are parallel")
    etas = [0.0]
    for i in range(1, n):
        etas.append(etas[-1] + zeta[i - 1] * 2.0 * math.pi / total)
    return etas


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
    """

    def __init__(self, p0, coeffs, degree):
        self.p0 = np.asarray(p0, float)
        self.coeffs = coeffs  # (nterms, 3), order matching _monomials
        self.degree = degree

    def eval(self, x, y):
        return self.p0 + np.array(_monomials(x, y, self.degree)) @ self.coeffs

    def gradient(self):
        """(Px, Py) at the origin."""
        return self.coeffs[0], self.coeffs[1]

    def hessian(self):
        """(Pxx, Pxy, Pyy) at the origin."""
        return 2.0 * self.coeffs[2], self.coeffs[3], 2.0 * self.coeffs[4]

    def normal(self):
        px, py = self.gradient()
        n = np.cross(px, py)
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ConstructionError("guide polynomial has a degenerate frame")
        return n / norm

    def curvature(self):
        from .patch import principal_curvatures
        pxx, pxy, pyy = self.hessian()
        px, py = self.gradient()
        return principal_curvatures(px, py, pxx, pxy, pyy)


def fit_guide_polynomial(p0, qs, xys, degree=None):
    """Least-squares guide polynomial through p0 with samples qs at xys."""
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
    """First and second derivative of the guide field along direction eta."""
    px, py = poly.gradient()
    pxx, pxy, pyy = poly.hessian()
    c, s = math.cos(eta), math.sin(eta)
    tau1 = px * c + py * s
    tau2 = pxx * c * c + 2.0 * pxy * c * s + pyy * s * s
    return tau1, tau2


def fit_common_plane(vectors):
    """Unit normal of the least-squares plane through the origin."""
    M = np.asarray(vectors, float)
    _u, _s, vt = np.linalg.svd(M, full_matrices=True)
    return vt[-1]


def project_to_plane(vec, normal):
    return vec - (vec @ normal) * normal


# -- cross-derivative fields ------------------------------------------------------

def _solve_frame(tangent, ruled, target, where):
    """Coefficients (a, b) with a*tangent + b*ruled closest to target."""
    tt = float(tangent @ tangent)
    tr = float(tangent @ ruled)
    rr = float(ruled @ ruled)
    det = tt * rr - tr * tr
    if det <= 1e-14 * max(tt * rr, 1e-300):
        raise ConstructionError(
            f"degenerate tangent/ruled frame at {where}")
    bt = float(tangent @ target)
    br = float(ruled @ target)
    a = (rr * bt - tr * br) / det
    b = (tt * br - tr * bt) / det
    return a, b


def second_fundamental(curvature, x, y):
    """II(x, y) from principal curvatures and directions."""
    k1, k2, dir1, dir2, _n = curvature
    return k1 * float(x @ dir1) * float(y @ dir1) \
        + k2 * float(x @ dir2) * float(y @ dir2)


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
    g1 = gamma.deriv(1)
    r0 = np.cross(g1.eval(0.0), n0)
    r1 = np.cross(g1.eval(d), n1)
    if degree == 1 or nm is None:
        base = _linear_vec(r0, r1, d)
    else:
        rm = np.cross(g1.eval(0.5 * d), nm)
        base = _quadratic_vec(r0, rm, r1, d)
    if curv0 is None and curv1 is None:
        return base
    rp0 = base.eval(0.0, 1)
    rp1 = base.eval(d, 1)
    if curv0 is not None:
        want = second_fundamental(curv0, g1.eval(0.0), r0)
        rp0 = rp0 + (want - float(rp0 @ n0)) * np.asarray(n0, float)
    if curv1 is not None:
        want = second_fundamental(curv1, g1.eval(d), r1)
        rp1 = rp1 + (want - float(rp1 @ n1)) * np.asarray(n1, float)
    if degree == 1 or nm is None:
        return hermite_curve3(r0, rp0, r1, rp1, d)
    # quartic: endpoint values/derivatives plus the mid-edge value
    A = np.array([[d * d, d ** 3, d ** 4],
                  [2.0 * d, 3.0 * d * d, 4.0 * d ** 3],
                  [d * d / 4.0, d ** 3 / 8.0, d ** 4 / 16.0]])
    rhs = np.stack([np.asarray(r1) - r0 - rp0 * d,
                    rp1 - rp0,
                    rm - r0 - rp0 * 0.5 * d])
    tail = np.linalg.solve(A, rhs)
    return VecPoly(np.vstack([r0, rp0, tail]))


def build_cross_field_chi(gamma, d, ruled, target0, target1):
    """First-order cross field a*gamma' + b*ruled matching corner targets.

    target0/target1 are the first derivatives of the two adjacent boundary
    curves at the shared corners, in their own local variables.
    """
    g1 = gamma.deriv(1)
    a0, b0 = _solve_frame(g1.eval(0.0), ruled.eval(0.0), target0, "x=0")
    a1, b1 = _solve_frame(g1.eval(d), ruled.eval(d), target1, f"x={d}")
    a = _linear(a0, a1, d)
    b = _linear(b0, b1, d)
    chi = g1.scale(a) + ruled.scale(b)
    return chi, a, b


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
    a_sq = np.convolve(a, a)
    ab2 = 2.0 * np.convolve(a, b)
    b_sq = np.convolve(b, b)
    base = g2.scale(a_sq) + rp.scale(ab2) + w_field.scale(b_sq)
    res0 = np.asarray(target0, float) - base.eval(0.0)
    res1 = np.asarray(target1, float) - base.eval(d)
    s0, t0 = _solve_frame(g1.eval(0.0), ruled.eval(0.0), res0, "x=0")
    s1, t1 = _solve_frame(g1.eval(d), ruled.eval(d), res1, f"x={d}")
    s = _linear(s0, s1, d)
    t = _linear(t0, t1, d)
    return base + g1.scale(s) + ruled.scale(t)


def normal_curvature_vector(ruled0, k1, k2, dir1, dir2, normal):
    """Endpoint value of w: second fundamental form of the ruled direction."""
    mu = float(ruled0 @ dir1)
    nu = float(ruled0 @ dir2)
    return (mu * mu * k1 + nu * nu * k2) * normal
