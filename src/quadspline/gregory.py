"""Transfinite patches interpolating four boundary curves and cross fields.

The patch is defined as S(u,v) = -H(u)^T M(u,v) H(v) with the cubic (G1) or
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
one GregoryPatchSet, which evaluates arrays of (slot, u, v) in chunks of
EVAL_CHUNK without forming M: row 0 and column 0 of M (the side fields,
evaluated once per distinct side point; network fields of all orders in one
Horner pass, grid fields in one GridPatchSet call) contract against H(v) and
H(u), and the rest against per-slot tables of the entries that depend on
neither u nor v and of the pre-scaled twist estimates, which every twist
entry blends with the one ratio of its corner.  A GregoryPatch is a view of
one slot.
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


# side s runs over [0, d] from corner _SIDE_CORNERS[s, 0] to [s, 1]
_SIDE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])


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
        self._bind(corners, sides, k, face)
        ends = [side.field(0, np.array([0.0, side.d])) for side in self.sides]
        _check_corners(self.corners[None], np.array([self.lengths()]),
                      np.array(ends)[None], [face])

    @classmethod
    def many(cls, corners, sides, k, faces, ends):
        """The BoundaryData of many faces, with one corner check for all:
        corners (n, 4, 3), sides n lists of four, and ends (n, 4, 2, 3) the
        curve of each side at its start and its end, as the side reads it."""
        datas = []
        for corner, side, face in zip(corners, sides, faces):
            datas.append(cls.__new__(cls))
            datas[-1]._bind(corner, side, k, face)
        _check_corners(np.asarray(corners, float).reshape(-1, 4, 3),
                      np.array([data.lengths() for data in datas]
                               ).reshape(-1, 4), ends, faces)
        return datas

    def _bind(self, corners, sides, k, face):
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

    def lengths(self):
        """The side intervals (d0, e1, d1, e0), in side order."""
        return self.d0, self.e1, self.d1, self.e0


def _check_corners(corners, lengths, ends, faces):
    """Raise ConstructionError, naming the first face and side, where a
    side's curve misses one of its corners by more than 1e-7 x the face's
    coordinate scale (at least 1).  corners (n, 4, 3), lengths (n, 4) the
    side intervals, ends (n, 4, 2, 3) each side's curve at x = 0 and d."""
    scale = np.maximum(1.0, np.abs(corners).max(axis=(1, 2)))
    gap = np.linalg.norm(ends - corners[:, _SIDE_CORNERS], axis=-1)
    miss = np.argwhere(gap > 1e-7 * scale[:, None, None])
    if len(miss):
        i, s, e = miss[0]
        x = lengths[i, s] if e else 0.0
        raise ConstructionError(f"boundary data of face {faces[i]}: "
                                f"gamma{s}({x:g}) does not meet its corner")


def _distinct(keys, t):
    """Indices of the first of each distinct (keys[i], t[i]) pair, and the
    index of every pair among those firsts."""
    order = np.lexsort((t, keys))
    keys, t = keys[order], t[order]
    first = np.ones(len(order), bool)
    first[1:] = (keys[1:] != keys[:-1]) | (t[1:] != t[:-1])
    inverse = np.empty(len(order), int)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


class GregoryPatchSet:
    """Every Coons-Gregory patch of a surface as stacked arrays.

    Slot i is the patch over datas[i].  inner[i] holds the entries of M
    that depend on neither u nor v, M without its row and column 0, with
    the second, pre-scaled estimate B of each twist entry; twist[i] the
    first estimate minus the second, A - B; lengths[i] the side intervals
    (d0, e1, d1, e0).  The fields of side s, order q of slot i are indexed
    by [i, s, q]: a row of the padded network coefficient table, or a (grid
    set, slot, side) reference.
    """

    def __init__(self, datas):
        self.datas = list(datas)
        ks = {data.k for data in self.datas}
        if len(ks) > 1:
            raise ValueError("boundary data of one set must share one "
                             "smoothness order")
        # the highest cross order; an empty set evaluates nothing
        self.k = ks.pop() if ks else 1
        self.lengths = np.array([d.lengths() for d in self.datas]
                                ).reshape(-1, 4)
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
        """inner and twist from the endpoint derivatives of every side
        field: corners and curve endpoint derivatives are constant."""
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
        dp = {r: np.stack([d0 ** r, d1 ** r], -1) for r in (1, 2)}
        ep = {r: np.stack([e0 ** r, e1 ** r], -1) for r in (1, 2)}

        # M without its row and column 0: inner[i, :, a, b] is M[1 + a, 1 + b]
        # of slot i; the tables put the coordinate axis second
        inner = np.zeros((count, 2 * k + 2, 2 * k + 2, 3))
        corners = np.array([d.corners for d in self.datas]).reshape(-1, 4, 3)
        inner[:, :2, :2] = corners[:, [[0, 3], [1, 2]]]
        for r in range(1, k + 1):
            dg = ends[0, r]
            inner[:, :2, 2 * r:2 * r + 2] = ep[r][:, :, None, None] \
                * dg[:, [3, 1]]
            inner[:, 2 * r:2 * r + 2, :2] = dp[r][:, None, :, None] \
                * dg[:, [0, 2]].transpose(0, 2, 1, 3)
        # the twist entries, inner[..., 2:, 2:], blend two estimates: in
        # block (i, j), entry (a, b) takes A, the order-i data of side
        # (3, 1)[a] at end b, against B, the order-j data of side (0, 2)[b]
        # at end a, both scaled by ep[j][a] dp[i][b]; inner keeps B, twist
        # A - B
        twist = np.empty((count, 2 * k, 2 * k, 3))
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                scale = (ep[j][:, :, None] * dp[i][:, None, :])[..., None]
                inner[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = \
                    scale * ends[j, i][:, [0, 2]].transpose(0, 2, 1, 3)
                twist[:, 2 * i - 2:2 * i, 2 * j - 2:2 * j] = \
                    scale * ends[i, j][:, [3, 1]]
        twist -= inner[:, 2:, 2:]
        self.inner, self.twist = (np.moveaxis(t, 3, 1).copy()
                                  for t in (inner, twist))

    # -- evaluation -----------------------------------------------------------
    def _ratio(self, u, v):
        """wa / (wa + wb) at every twist entry of the points, shape (n, 2k,
        2k): entry (2i + a, 2j + b) sits at corner (a, b), with the weights
        wa = (u, 1 - u)[a]^k and wb = (v, 1 - v)[b]^k, linear for G1 and
        quadratic for G2; 0.5 where both weights vanish."""
        k = self.k
        w = np.stack([u, 1.0 - u] * k + [v, 1.0 - v] * k, 1) ** k
        wa, wb = w[:, :2 * k, None], w[:, None, 2 * k:]
        den = wa + wb
        return np.divide(wa, den, out=np.full(den.shape, 0.5),
                         where=den >= CORNER_EPS)

    def eval(self, slots, u, v):
        """S(u[i], v[i]) of patch slots[i] for 1-D arrays; shape (n, 3)."""
        return chunked(self._eval, slots, np.asarray(u, float),
                       np.asarray(v, float))

    def _eval(self, slots, u, v):
        k = self.k
        # sides 0 and 2 run along u, sides 1 and 3 along v: their fields are
        # evaluated once per distinct (slot, u) and (slot, v), keyed by
        # 4 slot + side for sides 0 and 1
        keys = np.concatenate([4 * slots, 4 * slots + 1])
        t = np.concatenate([u, v])
        first, inverse = _distinct(keys, t)
        fslots, fsides = np.divmod(
            np.concatenate([keys[first], keys[first] + 2]), 4)
        f = self._fields(fslots, fsides, np.concatenate([t[first]] * 2)
                         * self.lengths[fslots, fsides])
        inverse = inverse.reshape(2, -1)
        f = f.transpose(1, 0, 2)[
            np.concatenate([inverse, inverse + len(first)]).T]
        # point-major weights: every contraction below then sums each point's
        # terms in one order, whatever the batch
        uv = np.stack([u, v])
        hu, hv = np.ascontiguousarray(
            hermite_basis(2 * k + 1, uv).transpose(1, 2, 0))
        # cross fields scale by powers of the blend functions, eps along
        # sides 0 and 2 from e0 to e1, dlt along sides 3 and 1 from d0 to d1
        lo, hi = self.lengths[slots][:, [[3, 0], [1, 2]]].transpose(1, 2, 0)
        eps, dlt = (lo + (hi - lo) * _blend(k, uv))[..., None] \
            ** np.arange(k + 1)
        # with H_0 = -1 and M_00 = 0, row 0 (sides 0 and 2) contracts
        # against H(v) and column 0 (sides 3 and 1) against H(u)
        w = np.stack([eps * hv[:, 1::2], dlt * hu[:, 2::2],
                      eps * hv[:, 2::2], dlt * hu[:, 1::2]], 1)
        out = np.einsum("nsq,nsqk->nk", w, f)
        # the rest of M: its constant entries, and the twist entries blended
        # by one ratio per corner
        inner = hu[:, 1:, None] * hv[:, None, 1:]
        out -= np.einsum("nab,nkab->nk", inner, self.inner[slots])
        out -= np.einsum("nab,nkab->nk", inner[:, 2:, 2:]
                         * self._ratio(u, v), self.twist[slots])
        return out


class GregoryPatch(PatchView):
    """A view of a GregoryPatchSet: one Coons-Gregory patch.
    GregoryPatch(data) makes a standalone patch, a set of one."""

    def __init__(self, data):
        self._bind(GregoryPatchSet([data]), 0)

    @property
    def data(self):
        return self.patches.datas[self.slot]
