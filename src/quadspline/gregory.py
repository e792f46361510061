"""Transfinite patches interpolating four boundary curves and cross fields.

The patch is assembled as S(u,v) = -H(u)^T M(u,v) H(v) with the cubic (G1) or
quintic (G2) Hermite blending vector H carrying a leading -1.  The matrix M
holds boundary/corner data with scalings that map the per-edge local
variables to the uv domain: curve derivatives scale by the constant edge
interval, cross fields by the face's blend function evaluated at the running
parameter, and second-order entries by the squares.  Twist-like corner
entries blend two estimates rationally (linear weights for G1, quadratic for
G2); at the corners, where the weights are 0/0, the mean of the two estimates
is substituted, which is exact when the data are compatible and never affects
interpolation because the blend weights vanish there at second order.

Every side is a `Side`: the side's interval and its fields (the boundary
curve, the first cross-derivative field chi and, for G2, the second xi), each
evaluated like VecPoly.eval.  Sides sampled from an adjacent grid patch, sides
generated from the curve network and hand-built sides differ only in the
fields they hold; the Side alone maps a field stored in another orientation
into the patch's.  The entries of M that depend on neither u nor v (corners
and curve endpoint derivatives) are filled once per patch; x-derivatives of
the cross fields are only requested at the side endpoints, also once.
"""

import numpy as np

from .errors import ConstructionError
from .patch import LocalParamFn

CORNER_EPS = 1e-12
EVAL_CHUNK = 2048   # points per batch of GregoryPatch.eval


def hermite_basis(degree, u):
    """Blending vector: leading -1 then the Hermite basis polynomials, shape
    (degree + 2,) + u.shape."""
    u = np.asarray(u, float)
    if degree == 3:
        u2 = u * u
        u3 = u2 * u
        rows = [
            2.0 * u3 - 3.0 * u2 + 1.0,
            -2.0 * u3 + 3.0 * u2,
            u3 - 2.0 * u2 + u,
            u3 - u2,
        ]
    elif degree == 5:
        u2 = u * u
        u3 = u2 * u
        u4 = u3 * u
        u5 = u4 * u
        rows = [
            -6.0 * u5 + 15.0 * u4 - 10.0 * u3 + 1.0,
            6.0 * u5 - 15.0 * u4 + 10.0 * u3,
            -3.0 * u5 + 8.0 * u4 - 6.0 * u3 + u,
            -3.0 * u5 + 7.0 * u4 - 4.0 * u3,
            -0.5 * u5 + 1.5 * u4 - 1.5 * u3 + 0.5 * u2,
            0.5 * u5 - u4 + 0.5 * u3,
        ]
    else:
        raise ValueError("blending degree must be 3 or 5")
    return np.stack([np.full_like(u, -1.0)] + rows)


class Side:
    """One side of a Coons-Gregory patch: its interval d and its fields.

    fields[q] is the order-q cross-derivative field along the side (q = 0
    the boundary curve gamma, 1 chi, 2 xi), a callable f(x, r) returning
    the r-th derivative in the side's local variable x in [0, d], as
    VecPoly.eval does; x may be an array, the result then has shape
    x.shape + (3,).  The orders listed in `reverse` are stored running
    from the far end: they are read at d - x, which flips the sign of odd
    x-derivatives.  negate_cross negates the odd cross orders, for fields
    whose cross direction points out of the patch.
    """

    def __init__(self, d, fields, reverse=(), negate_cross=False):
        self.d = d
        self.fields = list(fields)
        self._flip = [q in reverse for q in range(len(self.fields))]
        self._sign = [-1.0 if negate_cross and q % 2 else 1.0
                      for q in range(len(self.fields))]

    def field(self, q, x, r=0):
        """r-th x-derivative at x of the order-q field, in patch orientation."""
        sign = self._sign[q]
        if self._flip[q]:
            x = self.d - x
            if r % 2:
                sign = -sign
        return sign * self.fields[q](x, r)


class BoundaryData:
    """Four corners, sides gamma0..gamma3 and the corner intervals.

    The frame matches the uv square: gamma0 runs p0 -> p1 along v=0 over
    [0, d0], gamma1 runs p1 -> p2 along u=1 over [0, e1], gamma2 runs
    p3 -> p2 along v=1 over [0, d1], gamma3 runs p0 -> p3 along u=0 over
    [0, e0].  chi fields are the first cross derivatives in the +x / +y
    local directions; xi the second (G2 only).
    """

    def __init__(self, corners, sides, d0, d1, e0, e1, k, face=None):
        self.corners = np.asarray(corners, dtype=float).reshape(4, 3)
        if len(sides) != 4:
            raise ValueError("need exactly four sides")
        self.sides = list(sides)
        self.d0, self.d1, self.e0, self.e1 = (float(d0), float(d1),
                                              float(e0), float(e1))
        if min(self.d0, self.d1, self.e0, self.e1) <= 0.0:
            raise ValueError("corner intervals must be positive")
        if k not in (1, 2):
            raise ValueError("smoothness order must be 1 or 2")
        self.k = k
        self.face = face
        self._check_corners()

    def _check_corners(self):
        scale = max(1.0, float(np.abs(self.corners).max()))
        # side s runs over [0, length] from corner start to corner end
        spans = ((self.d0, "d0", 0, 1), (self.e1, "e1", 1, 2),
                 (self.d1, "d1", 3, 2), (self.e0, "e0", 0, 3))
        for s, (length, name, start, end) in enumerate(spans):
            ends = self.sides[s].field(0, np.array([0.0, length]))
            for got, x, c in zip(ends, ("0", name), (start, end)):
                if np.linalg.norm(got - self.corners[c]) > 1e-7 * scale:
                    raise ConstructionError(
                        f"boundary data of face {self.face}: gamma{s}({x}) "
                        "does not meet its corner")


def _greg(wa, A, wb, B):
    """(wa A + wb B) / (wa + wb) per element, and the mean of A and B where
    both weights vanish."""
    den = wa + wb
    corner = den < CORNER_EPS
    return np.where(corner, 0.5 * (A + B),
                    (wa * A + wb * B) / np.where(corner, 1.0, den))


class GregoryPatch:
    """Evaluable Coons-Gregory patch over a BoundaryData record."""

    def __init__(self, data, mode=None):
        self.data = data
        if mode is None:
            mode = "g2" if data.k == 2 else "g1"
        if mode == "g2" and data.k < 2:
            raise ValueError("g2 patch needs second-order side data")
        self.mode = mode
        self.blend_degree = 5 if mode == "g2" else 3
        d = data
        self.delta = LocalParamFn(data.k, d.d0, d.d1)
        self.epsilon = LocalParamFn(data.k, d.e0, d.e1)
        # highest cross order, and highest derivative order along a side
        n = self._n = 2 if mode == "g2" else 1
        lengths = (d.d0, d.e1, d.d1, d.e0)
        # ends[q][r - 1][s][e]: r-th x-derivative of side s's order-q field
        # at its start (e = 0) or end (e = 1)
        ends = [[[side.field(q, np.array([0.0, length]), r)
                  for side, length in zip(d.sides, lengths)]
                 for r in range(1, n + 1)]
                for q in range(n + 1)]
        # powers of the intervals: dp[r] = (d0^r, d1^r), ep[r] = (e0^r, e1^r)
        dp = {1: (d.d0, d.d1), 2: (d.d0 ** 2, d.d1 ** 2)}
        ep = {1: (d.e0, d.e1), 2: (d.e0 ** 2, d.e1 ** 2)}

        # constant entries: corners and curve endpoint derivatives
        M = np.zeros((2 * n + 3, 2 * n + 3, 3))
        M[1, 1], M[1, 2], M[2, 1], M[2, 2] = d.corners[[0, 3, 1, 2]]
        for r in range(1, n + 1):
            dg = ends[0][r - 1]
            for i in (0, 1):
                for e in (0, 1):
                    M[1 + i, 1 + 2 * r + e] = ep[r][i] * dg[(3, 1)[i]][e]
                    M[1 + 2 * r + e, 1 + i] = dp[r][i] * dg[(0, 2)[i]][e]
        self._M0 = M
        # twist block (i, j) covers rows 1+2i.., columns 1+2j..: its entry
        # (a, b) blends the order-i data of side (3, 1)[a] at end b against
        # the order-j data of side (0, 2)[b] at end a
        self._twists = [
            (i, j, np.stack([ends[i][j - 1][3], ends[i][j - 1][1]]),
             np.stack([ends[j][i - 1][0], ends[j][i - 1][2]], axis=1),
             np.array([[dp[i][b] * ep[j][a] for b in (0, 1)]
                       for a in (0, 1)])[..., None])
            for i in range(1, n + 1) for j in range(1, n + 1)]

    # -- matrix assembly ------------------------------------------------------
    def _twist(self, M, wu, wv, i, j, A, B, scale):
        """Gregory blends of one twist block, weights wu[a]/wv[b] at its
        corner (a, b); the weights are scalars or arrays over the points."""
        wa = np.moveaxis(np.asarray(wu, float), 0, -1)[..., :, None, None]
        wb = np.moveaxis(np.asarray(wv, float), 0, -1)[..., None, :, None]
        M[:, 1 + 2 * i:3 + 2 * i, 1 + 2 * j:3 + 2 * j] = \
            scale * _greg(wa, A, wb, B)

    def _matrix(self, u, v):
        """M at the points of the 1-D arrays u, v: (N, 2n+3, 2n+3, 3)."""
        d = self.data
        g0, g1, g2, g3 = d.sides
        x0, x1 = u * d.d0, u * d.d1
        y0, y1 = v * d.e0, v * d.e1
        M = np.repeat(self._M0[None], len(u), axis=0)
        M[:, 0, 1] = g0.field(0, x0)
        M[:, 0, 2] = g2.field(0, x1)
        M[:, 1, 0] = g3.field(0, y0)
        M[:, 2, 0] = g1.field(0, y1)
        eps = self.epsilon(u)[:, None]
        dlt = self.delta(v)[:, None]
        # cross fields scale by the blend functions' powers
        for q, su, sv in ((1, eps, dlt), (2, eps * eps, dlt * dlt))[:self._n]:
            c = 1 + 2 * q
            M[:, 0, c] = su * g0.field(q, x0)
            M[:, 0, c + 1] = su * g2.field(q, x1)
            M[:, c, 0] = sv * g3.field(q, y0)
            M[:, c + 1, 0] = sv * g1.field(q, y1)
        if self._n == 2:
            wu, wv = (u * u, (1.0 - u) ** 2), (v * v, (1.0 - v) ** 2)
        else:
            wu, wv = (u, 1.0 - u), (v, 1.0 - v)
        for block in self._twists:
            self._twist(M, wu, wv, *block)
        return M

    def eval(self, u, v):
        """S(u, v) for scalars or equal-shaped arrays; shape (..., 3).

        Points are taken in chunks of EVAL_CHUNK, which bounds the memory of
        the per-point matrices M.
        """
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        shape = u.shape
        u, v = u.ravel(), v.ravel()
        out = np.empty((len(u), 3))
        for lo in range(0, len(u), EVAL_CHUNK):
            uc, vc = u[lo:lo + EVAL_CHUNK], v[lo:lo + EVAL_CHUNK]
            hu = hermite_basis(self.blend_degree, uc)
            hv = hermite_basis(self.blend_degree, vc)
            out[lo:lo + EVAL_CHUNK] = -np.einsum(
                "in,nijk,jn->nk", hu, self._matrix(uc, vc), hv)
        return out.reshape(shape + (3,))

    def __call__(self, u, v):
        return self.eval(u, v)
