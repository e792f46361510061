"""Surface patch over one regular face with per-edge parameter intervals.

The patch on [0,1]^2 blends, for each grid row, the bottom and top interval of
that row with a degree-(2k+1) polynomial whose derivatives through order k
vanish at the ends (and likewise per column).  The blended intervals feed the
univariate basis functions in the two local variables

    x = u * row_blend_center(v),    y = v * col_blend_center(u),

and the patch is S(u, v) = sum_ij p_ij psi_i(x; d(v)) psi_j(y; e(u)).

Because the blend derivatives vanish at the ends, cross-boundary derivatives
through order k collapse to the x/y partials times a power of the boundary
blend value, which keeps boundary data exact and cheap.
"""

import numpy as np

from .splines import fundamental_weights

SIDES = ("v0", "v1", "u0", "u1")


class LocalParamFn:
    """Monotone polynomial on [0,1] from a to b with flat ends of order k."""

    def __init__(self, k, a, b):
        if a <= 0.0 or b <= 0.0:
            raise ValueError("interval endpoints must be positive")
        if k not in (1, 2):
            raise ValueError("only smoothness orders 1 and 2 are supported")
        self.k = k
        self.a = float(a)
        self.b = float(b)

    def __call__(self, t):
        if self.k == 1:
            blend = t * t * (3.0 - 2.0 * t)
        else:
            blend = t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))
        return self.a + (self.b - self.a) * blend

    def deriv(self, t, r=1):
        c = self.b - self.a
        if self.k == 1:
            polys = {1: 6.0 * t * (1.0 - t), 2: 6.0 - 12.0 * t, 3: -12.0}
            val = polys.get(r, 0.0)
        else:
            polys = {1: 30.0 * t * t * (1.0 - t) ** 2,
                     2: t * (60.0 + t * (-180.0 + 120.0 * t)),
                     3: 60.0 + t * (-360.0 + 360.0 * t),
                     4: -360.0 + 720.0 * t,
                     5: 720.0}
            val = polys.get(r, 0.0)
        return c * val if r >= 1 else self(t)


class RegularPatch:
    """Evaluable patch over a LocalGrid (support width 4 families)."""

    def __init__(self, grid, fam):
        if grid.w != fam.support:
            raise ValueError("grid width does not match the family support")
        if fam.support != 4:
            raise ValueError("only support-4 families are evaluable")
        if grid.d0 is None:
            raise ValueError("grid carries no parameter intervals")
        self.grid = grid
        self.family = fam
        self.k = fam.continuity
        k = min(self.k, 2)
        self.row_blends = [LocalParamFn(k, a, b)
                           for a, b in zip(grid.d0, grid.d1)]
        self.col_blends = [LocalParamFn(k, a, b)
                           for a, b in zip(grid.e0, grid.e1)]
        self._c = grid.w // 2 - 1  # index of the face's own row/column cell
        self._p16 = grid.points.reshape(16, 3)

    # -- evaluation ----------------------------------------------------------
    def _vectors(self, u, v):
        dvec = tuple(b(v) for b in self.row_blends)
        evec = tuple(b(u) for b in self.col_blends)
        return dvec, evec

    def _combine(self, wx, wy):
        """sum_ij wx_i wy_j p_ij for (4, ...) weight arrays; shape (..., 3)."""
        w = wx[:, None] * wy[None]
        return (w.reshape(16, -1).T @ self._p16).reshape(w.shape[2:] + (3,))

    def eval(self, u, v):
        """S(u, v) for scalars or equal-shaped arrays; shape (..., 3)."""
        dvec, evec = self._vectors(u, v)
        wx = fundamental_weights(self.family, u * dvec[self._c], dvec)
        wy = fundamental_weights(self.family, v * evec[self._c], evec)
        return self._combine(wx, wy)

    def __call__(self, u, v):
        return self.eval(u, v)

    # -- boundary data ---------------------------------------------------------
    def side_interval(self, side):
        """Length of the local variable range along a side."""
        c = self._c
        return {"v0": self.grid.d0[c], "v1": self.grid.d1[c],
                "u0": self.grid.e0[c], "u1": self.grid.e1[c]}[side]

    def side_blend(self, side):
        """Blend function whose powers scale cross derivatives on that side."""
        if side in ("u0", "u1"):
            return self.row_blends[self._c]
        return self.col_blends[self._c]

    def section_data(self, side):
        """(window points, interval triple) of the side's section curve."""
        g = self.grid
        if side == "v0":
            return g.points[:, 1, :], tuple(g.d0)
        if side == "v1":
            return g.points[:, 2, :], tuple(g.d1)
        if side == "u0":
            return g.points[1, :, :], tuple(g.e0)
        if side == "u1":
            return g.points[2, :, :], tuple(g.e1)
        raise ValueError(f"unknown side {side!r}")

    def eval_boundary(self, side, x, r=0):
        """Boundary curve (or its x-derivatives) in the side's local variable;
        x may be an array, the result has shape x.shape + (3,)."""
        pts, d = self.section_data(side)
        w = fundamental_weights(self.family, x, d, r)
        return (w.reshape(4, -1).T @ pts).reshape(w.shape[1:] + (3,))

    def side_field(self, side, q, x, r=0):
        """r-th x-derivative of a side's order-q cross field (q = 0: the
        boundary curve) in the side's local variable x (scalar or array).

        x-derivatives of cross fields are exact, and offered, only at the
        side's endpoints, where they are mixed corner derivatives.
        """
        if q > self.k:
            raise ValueError(f"cross order {q} exceeds continuity {self.k}")
        if q == 0:
            return self.eval_boundary(side, x, r)
        if r == 0:
            return self.cross_field(side, x, q)
        d_edge = self.side_interval(side)
        x = np.asarray(x, float)
        at_end = np.abs(x - d_edge) <= 1e-9 * d_edge
        if not np.all(at_end | (np.abs(x) <= 1e-9 * d_edge)):
            raise ValueError("cross-field derivatives are exact at endpoints "
                             "only")
        start, end = (self.corner_mixed(*_side_corner(side, ti, q, r))
                      for ti in (0, 1))
        return np.where(at_end[..., None], end, start)

    def cross_field(self, side, x, r=1):
        """r-th cross derivative in local variables along a side, at x
        (scalar or array).

        For side v0/v1 this is the r-th y-partial as a function of the
        boundary variable x; for u0/u1 the roles of the axes swap.
        """
        g = self.grid
        c = self._c
        if side in ("v0", "v1"):
            d = tuple(g.d0 if side == "v0" else g.d1)
            u = x / d[c]
            evec = tuple(b(u) for b in self.col_blends)
            y = 0.0 if side == "v0" else evec[c]
            return self._combine(fundamental_weights(self.family, x, d),
                                 fundamental_weights(self.family, y, evec, r))
        d = tuple(g.e0 if side == "u0" else g.e1)
        v = x / d[c]
        dvec = tuple(b(v) for b in self.row_blends)
        xx = 0.0 if side == "u0" else dvec[c]
        return self._combine(fundamental_weights(self.family, xx, dvec, r),
                             fundamental_weights(self.family, x, d))

    def corner_mixed(self, ui, vi, q, r):
        """Exact mixed local derivative d^q/dx^q d^r/dy^r at a patch corner.

        ui, vi pick the corner (0 or 1 per axis).  Valid for q, r <= k where
        the blend derivatives vanish.
        """
        g = self.grid
        c = self._c
        d = tuple(g.d0 if vi == 0 else g.d1)
        e = tuple(g.e0 if ui == 0 else g.e1)
        x = 0.0 if ui == 0 else d[c]
        y = 0.0 if vi == 0 else e[c]
        return self._combine(fundamental_weights(self.family, x, d, q),
                             fundamental_weights(self.family, y, e, r))

    def corner_normal(self, ui, vi):
        su = self.corner_mixed(ui, vi, 1, 0)
        sv = self.corner_mixed(ui, vi, 0, 1)
        n = np.cross(su, sv)
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("degenerate corner frame")
        return n / norm

    def corner_curvature(self, ui, vi):
        """Principal curvatures and directions from the fundamental forms."""
        su = self.corner_mixed(ui, vi, 1, 0)
        sv = self.corner_mixed(ui, vi, 0, 1)
        suu = self.corner_mixed(ui, vi, 2, 0)
        suv = self.corner_mixed(ui, vi, 1, 1)
        svv = self.corner_mixed(ui, vi, 0, 2)
        return principal_curvatures(su, sv, suu, suv, svv)

    def boundary_deriv(self, side, t, r_cross, r_along=0):
        """uv-domain derivative at a boundary point.

        Supported combinations: pure along-boundary (r_cross = 0), pure cross
        (r_along = 0, r_cross <= k), and mixed at the side's endpoints
        (t in {0, 1}, orders <= k).  Elsewhere the chain rule involves blend
        derivatives and no closed form is exposed.
        """
        if r_cross > self.k:
            raise ValueError(f"cross order {r_cross} exceeds continuity "
                             f"{self.k}")
        d_edge = self.side_interval(side)
        x = t * d_edge
        if r_cross == 0:
            return d_edge ** r_along * self.eval_boundary(side, x, r_along)
        if r_along == 0:
            scale = self.side_blend(side)(t) ** r_cross
            return scale * self.cross_field(side, x, r_cross)
        if t not in (0.0, 1.0):
            raise ValueError("mixed boundary derivatives are exact only at "
                             "corners")
        ui, vi, q, r = _side_corner(side, int(t), r_cross, r_along)
        dv = self.row_blends[self._c](float(vi))
        ev = self.col_blends[self._c](float(ui))
        return dv ** q * ev ** r * self.corner_mixed(ui, vi, q, r)


def _side_corner(side, ti, cross, along):
    """(ui, vi, x order, y order) of a mixed derivative at endpoint ti of a
    side, with `cross` derivatives across the side and `along` along it."""
    if side in ("v0", "v1"):
        return ti, int(side == "v1"), along, cross
    return int(side == "u1"), ti, cross, along


def boundary_scaling_delta(patch, neighbor, v):
    """Cross-derivative scaling between a patch and its left neighbor.

    The configuration is the aligned one: the patch's u0 side coincides with
    the neighbor's u1 side, traversed by the same v.  The ratio returned
    relates r-th cross derivatives as (patch side) = delta^r (neighbor side).
    """
    if not np.allclose(patch.grid.points[1], neighbor.grid.points[2],
                       atol=1e-12):
        raise ValueError("patches do not share an aligned u0/u1 boundary")
    c = patch._c
    num = patch.row_blends[c](v)
    den = patch.row_blends[c - 1](v)
    return num / den


def principal_curvatures(su, sv, suu, suv, svv):
    """(k1, k2, dir1, dir2, normal) from first/second derivative vectors."""
    n = np.cross(su, sv)
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        raise ValueError("degenerate tangent frame")
    n = n / norm
    E, F, G = su @ su, su @ sv, sv @ sv
    L, M, N = suu @ n, suv @ n, svv @ n
    first = np.array([[E, F], [F, G]])
    second = np.array([[L, M], [M, N]])
    shape = np.linalg.solve(first, second)
    evals, evecs = np.linalg.eig(shape)
    evals = evals.real
    evecs = evecs.real
    order = np.argsort(evals)[::-1]
    k1, k2 = float(evals[order[0]]), float(evals[order[1]])
    d1 = evecs[:, order[0]]
    d2 = evecs[:, order[1]]
    dir1 = d1[0] * su + d1[1] * sv
    dir2 = d2[0] * su + d2[1] * sv
    dir1 = dir1 / np.linalg.norm(dir1)
    # orthonormalize within the tangent plane
    dir2 = dir2 - (dir2 @ dir1) * dir1
    nrm2 = np.linalg.norm(dir2)
    if nrm2 < 1e-12:
        dir2 = np.cross(n, dir1)
    else:
        dir2 = dir2 / nrm2
    return k1, k2, dir1, dir2, n
