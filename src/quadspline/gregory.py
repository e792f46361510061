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
curve, the first cross-derivative field chi and, for G2, the second xi).  A
field is data: a network curve `VecPoly`, or a `GridField` naming a side of
an adjacent grid patch; the Side alone maps a field stored in another
orientation into the patch's.  All Coons-Gregory patches of a surface live in
one GregoryPatchSet, which stacks the entries of M that depend on neither u
nor v (corners and curve endpoint derivatives, filled once) and the twist
data, and evaluates arrays of (slot, u, v) in chunks of EVAL_CHUNK; network
fields of all orders are evaluated in one Horner pass and grid fields in one
GridPatchSet call.  A GregoryPatch is a view of one slot.
"""

import numpy as np

from .errors import ConstructionError
from .patch import GridField, PatchView, _blend, chunked
from .splines import _horner

CORNER_EPS = 1e-12


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
    the boundary curve gamma, 1 chi, 2 xi): a VecPoly or a GridField, whose
    eval(x, r) returns the r-th derivative in the side's local variable x in
    [0, d]; x may be an array, the result then has shape x.shape + (3,).
    The orders listed in `reverse` are stored running from the far end: they
    are read at d - x, which flips the sign of odd x-derivatives.
    negate_cross negates the odd cross orders, for fields whose cross
    direction points out of the patch.
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
        return sign * self.fields[q].eval(x, r)


class BoundaryData:
    """Four corners and sides gamma0..gamma3; the corner intervals are the
    sides' intervals.

    The frame matches the uv square: gamma0 runs p0 -> p1 along v=0 over
    [0, d0], gamma1 runs p1 -> p2 along u=1 over [0, e1], gamma2 runs
    p3 -> p2 along v=1 over [0, d1], gamma3 runs p0 -> p3 along u=0 over
    [0, e0].  chi fields are the first cross derivatives in the +x / +y
    local directions; xi the second (G2 only).
    """

    def __init__(self, corners, sides, k, face=None):
        self.corners = np.asarray(corners, dtype=float).reshape(4, 3)
        if len(sides) != 4:
            raise ValueError("need exactly four sides")
        self.sides = list(sides)
        self.d0, self.e1, self.d1, self.e0 = (float(s.d) for s in self.sides)
        if min(self.d0, self.d1, self.e0, self.e1) <= 0.0:
            raise ValueError("corner intervals must be positive")
        if k not in (1, 2):
            raise ValueError("smoothness order must be 1 or 2")
        if min(len(side.fields) for side in self.sides) <= k:
            raise ValueError(f"every side of order-{k} boundary data needs "
                             f"the fields of orders 0..{k}")
        self.k = k
        self.face = face
        self._check_corners()

    def _check_corners(self):
        scale = max(1.0, float(np.abs(self.corners).max()))
        # side s runs over [0, d] from corner start to corner end
        for s, (start, end) in enumerate(((0, 1), (1, 2), (3, 2), (0, 3))):
            d = self.sides[s].d
            ends = self.sides[s].field(0, np.array([0.0, d]))
            for got, x, c in zip(ends, (0.0, d), (start, end)):
                if np.linalg.norm(got - self.corners[c]) > 1e-7 * scale:
                    raise ConstructionError(
                        f"boundary data of face {self.face}: gamma{s}({x:g}) "
                        "does not meet its corner")


def _greg(wa, A, wb, B):
    """(wa A + wb B) / (wa + wb) per element, and the mean of A and B where
    both weights vanish."""
    den = wa + wb
    corner = den < CORNER_EPS
    return np.where(corner, 0.5 * (A + B),
                    (wa * A + wb * B) / np.where(corner, 1.0, den))


class GregoryPatchSet:
    """Every Coons-Gregory patch of a surface as stacked arrays.

    Slot i is the patch over datas[i].  M0 holds each patch's constant
    entries of M; A, B and scale its twist blocks, one per (i, j) in
    `blocks`; lengths its side intervals (d0, e1, d1, e0).  The fields of
    side s, order q of slot i are indexed by [i, s, q]: a row of the padded
    network coefficient table, or a (grid set, slot, side) reference.
    """

    def __init__(self, datas):
        self.datas = list(datas)
        ks = {data.k for data in self.datas}
        if len(ks) > 1:
            raise ValueError("boundary data of one set must share one "
                             "smoothness order")
        # the highest cross order; an empty set evaluates nothing
        self.k = ks.pop() if ks else 1
        self.lengths = np.array([(d.d0, d.e1, d.d1, d.e0)
                                 for d in self.datas]).reshape(-1, 4)
        self._stack_fields()
        self._stack_constants()

    def _stack_fields(self):
        shape = (len(self.datas), 4, self.k + 1)
        self._flip = np.zeros(shape, bool)
        self._sign = np.ones(shape)
        self._poly = np.full(shape, -1)
        # a side sampled from a grid patch: (index into grid_sets, slot, side)
        self._grid = np.full(shape[:2] + (3,), -1)
        self.grid_sets, polys = [], []
        for i, data in enumerate(self.datas):
            for s, side in enumerate(data.sides):
                self._flip[i, s] = side._flip[:self.k + 1]
                self._sign[i, s] = side._sign[:self.k + 1]
                fields = side.fields[:self.k + 1]
                if isinstance(fields[0], GridField):
                    self._grid[i, s] = self._grid_side(side, fields)
                    continue
                for q, fld in enumerate(fields):
                    self._poly[i, s, q] = len(polys)
                    polys.append(fld.coeffs)
        self.coeffs = np.zeros((len(polys), max(map(len, polys), default=1),
                                3))
        for row, c in zip(self.coeffs, polys):
            row[:len(c)] = c

    def _grid_side(self, side, fields):
        """(index into grid_sets, slot, side) of a side sampled from a grid
        patch: its fields must be that grid side's orders 0, 1, ..., all
        read the same way."""
        first = fields[0]
        if not (all(isinstance(f, GridField) and f.q == q
                    and (f.patches, f.slot, f.side)
                    == (first.patches, first.slot, first.side)
                    for q, f in enumerate(fields))
                and len(set(side._flip)) == 1):
            raise ValueError("a sampled side must read the orders 0, 1, ... "
                             "of one grid patch side, all the same way")
        ids = [id(p) for p in self.grid_sets]
        if id(first.patches) not in ids:
            self.grid_sets.append(first.patches)
            ids.append(id(first.patches))
        return ids.index(id(first.patches)), first.slot, first.side

    def _fields(self, slots, sides, x, r=0):
        """r-th x-derivative at x[i] of every field (orders 0..k) of side
        sides[i] of patch slots[i], in patch orientation; shape
        (k + 1, m, 3).  Network fields are evaluated in one Horner pass,
        grid fields in one call per grid set."""
        flip = self._flip[slots, sides]
        xs = np.where(flip, (self.lengths[slots, sides] - x)[:, None],
                      x[:, None])
        sign = self._sign[slots, sides]
        if r % 2:
            sign = np.where(flip, -sign, sign)
        out = np.empty(flip.shape + (3,))
        poly = self._poly[slots, sides]
        net = poly >= 0
        if net.any():
            out[net] = _horner(self.coeffs[poly[net]].transpose(1, 0, 2),
                               xs[net][:, None], r)
        grid_set, grid_slot, grid_side = self._grid[slots, sides].T
        for g, patches in enumerate(self.grid_sets):
            at = grid_set == g
            if at.any():
                out[at] = patches.side_fields(
                    grid_slot[at], grid_side[at], range(self.k + 1),
                    xs[at, 0], r).transpose(1, 0, 2)
        out *= sign[..., None]
        return out.transpose(1, 0, 2)

    def _stack_constants(self):
        """M0, and the twist blocks, from the endpoint derivatives of every
        side field: corners and curve endpoint derivatives are constant."""
        k, count = self.k, len(self.datas)
        slots = np.repeat(np.arange(count), 8)
        sides = np.tile(np.repeat(np.arange(4), 2), count)
        x = self.lengths[slots, sides] * np.tile([0.0, 1.0], 4 * count)
        # ends[q, r][i, s, e]: r-th x-derivative of side s's order-q field
        # at its start (e = 0) or end (e = 1)
        ends = {}
        for r in range(1, k + 1):
            fields = self._fields(slots, sides, x, r)
            for q in range(k + 1):
                ends[q, r] = fields[q].reshape(count, 4, 2, 3)
        d0, e1, d1, e0 = self.lengths.T
        # powers of the intervals: dp[r] = (d0^r, d1^r), ep[r] = (e0^r, e1^r)
        dp = {1: (d0, d1), 2: (d0 ** 2, d1 ** 2)}
        ep = {1: (e0, e1), 2: (e0 ** 2, e1 ** 2)}

        M = self.M0 = np.zeros((count, 2 * k + 3, 2 * k + 3, 3))
        corners = np.array([d.corners for d in self.datas]).reshape(-1, 4, 3)
        M[:, 1, 1], M[:, 1, 2], M[:, 2, 1], M[:, 2, 2] = \
            corners.transpose(1, 0, 2)[[0, 3, 1, 2]]
        for r in range(1, k + 1):
            dg = ends[0, r]
            for i in (0, 1):
                for e in (0, 1):
                    M[:, 1 + i, 1 + 2 * r + e] = \
                        ep[r][i][:, None] * dg[:, (3, 1)[i], e]
                    M[:, 1 + 2 * r + e, 1 + i] = \
                        dp[r][i][:, None] * dg[:, (0, 2)[i], e]
        # twist block (i, j) covers rows 1+2i.., columns 1+2j..: its entry
        # (a, b) blends the order-i data of side (3, 1)[a] at end b against
        # the order-j data of side (0, 2)[b] at end a
        self.blocks = [(i, j) for i in range(1, k + 1)
                       for j in range(1, k + 1)]
        self.A = np.stack([ends[i, j][:, [3, 1]] for i, j in self.blocks], 1)
        self.B = np.stack([ends[j, i][:, [0, 2]].transpose(0, 2, 1, 3)
                           for i, j in self.blocks], 1)
        self.scale = np.stack(
            [np.stack([np.stack([dp[i][b] * ep[j][a] for b in (0, 1)], -1)
                       for a in (0, 1)], -2) for i, j in self.blocks],
            1)[..., None]

    # -- evaluation -----------------------------------------------------------
    def _twist(self, M, wu, wv, i, j, A, B, scale):
        """Gregory blends of one twist block, weights wu[a]/wv[b] at its
        corner (a, b); the weights are scalars or arrays over the points."""
        wa = np.moveaxis(np.asarray(wu, float), 0, -1)[..., :, None, None]
        wb = np.moveaxis(np.asarray(wv, float), 0, -1)[..., None, :, None]
        M[:, 1 + 2 * i:3 + 2 * i, 1 + 2 * j:3 + 2 * j] = \
            scale * _greg(wa, A, wb, B)

    def _matrix(self, slots, u, v):
        """M at the points (slots[i], u[i], v[i]): (N, 2k+3, 2k+3, 3)."""
        k, count = self.k, len(slots)
        lengths = self.lengths[slots]
        # sides 0 and 2 run along u, sides 1 and 3 along v
        x = (np.stack([u, v, u, v], 1) * lengths).ravel()
        f = self._fields(np.repeat(slots, 4), np.tile(np.arange(4), count),
                         x).reshape(k + 1, count, 4, 3)
        M = self.M0[slots]
        M[:, 0, 1], M[:, 0, 2] = f[0][:, 0], f[0][:, 2]
        M[:, 1, 0], M[:, 2, 0] = f[0][:, 3], f[0][:, 1]
        d0, e1, d1, e0 = lengths.T
        eps = (e0 + (e1 - e0) * _blend(self.k, u))[:, None]
        dlt = (d0 + (d1 - d0) * _blend(self.k, v))[:, None]
        # cross fields scale by the blend functions' powers
        for q, su, sv in ((1, eps, dlt), (2, eps * eps, dlt * dlt))[:k]:
            c = 1 + 2 * q
            M[:, 0, c], M[:, 0, c + 1] = su * f[q][:, 0], su * f[q][:, 2]
            M[:, c, 0], M[:, c + 1, 0] = sv * f[q][:, 3], sv * f[q][:, 1]
        del f   # in M now; freed before the twist blends, the peak of a chunk
        if k == 2:
            wu, wv = (u * u, (1.0 - u) ** 2), (v * v, (1.0 - v) ** 2)
        else:
            wu, wv = (u, 1.0 - u), (v, 1.0 - v)
        for b, (i, j) in enumerate(self.blocks):
            self._twist(M, wu, wv, i, j, self.A[slots, b], self.B[slots, b],
                        self.scale[slots, b])
        return M

    def eval(self, slots, u, v):
        """S(u[i], v[i]) of patch slots[i] for 1-D arrays; shape (n, 3)."""
        return chunked(self._eval, slots, np.asarray(u, float),
                       np.asarray(v, float))

    def _eval(self, slots, u, v):
        hu = hermite_basis(2 * self.k + 1, u)
        hv = hermite_basis(2 * self.k + 1, v)
        return -np.einsum("jn,njk->nk", hv, np.einsum(
            "in,nijk->njk", hu, self._matrix(slots, u, v)))


class GregoryPatch(PatchView):
    """A view of a GregoryPatchSet: one Coons-Gregory patch.
    GregoryPatch(data) makes a standalone patch, a set of one."""

    def __init__(self, data):
        self._bind(GregoryPatchSet([data]), 0)

    @property
    def data(self):
        return self.patches.datas[self.slot]
