"""Surface patches over regular faces with per-edge parameter intervals.

The patch on [0,1]^2 blends, for each grid row, the bottom and top interval of
that row with a degree-(2k+1) polynomial whose derivatives through order k
vanish at the ends (and likewise per column).  The blended intervals feed the
univariate basis functions in the two local variables

    x = u * row_blend_center(v),    y = v * col_blend_center(u),

and the patch is S(u, v) = sum_ij p_ij psi_i(x; d(v)) psi_j(y; e(u)).

Because the blend derivatives vanish at the ends, cross-boundary derivatives
through order k collapse to the x/y partials times a power of the boundary
blend value, which keeps boundary data exact and cheap.

All grid patches of a surface live in one GridPatchSet, which evaluates
arrays of (slot, u, v) in chunks of EVAL_CHUNK points; a RegularPatch is a
view of one slot.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .splines import fundamental_weights

SIDES = ("v0", "v1", "u0", "u1")
# points per batch of every patch-set evaluation; bounds the memory of the
# gathered per-point arrays
EVAL_CHUNK = 512


def _blend(k, t):
    """Flat-ended blend from 0 at t = 0 to 1 at t = 1, of order k."""
    if k == 1:
        return t * t * (3.0 - 2.0 * t)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def chunked(fn, *arrays):
    """fn over EVAL_CHUNK-long slices of equal-length 1-D arrays, its
    (..., m, 3) results joined into one (..., n, 3) array."""
    n = len(arrays[0])
    out = None
    # fn runs once even for no points: its result gives the leading shape
    for lo in range(0, max(n, 1), EVAL_CHUNK):
        part = fn(*(a[lo:lo + EVAL_CHUNK] for a in arrays))
        if out is None:
            out = np.empty(part.shape[:-2] + (n, 3))
        out[..., lo:lo + EVAL_CHUNK, :] = part
    return out


class GridPatchSet:
    """Every grid patch of a surface as stacked arrays.

    Slot i holds grids[i]: its window points in points[i] (4, 4, 3) and its
    row and column intervals d0, d1, e0, e1 in intervals[i] (4, 3), in SIDES
    order (the intervals along side v0 are d0, ..., along u1 e1).  Every
    method takes 1-D arrays of slots and points, and evaluates them in
    chunks of EVAL_CHUNK.
    """

    def __init__(self, grids, fam):
        if fam.support != 4:
            raise ValueError("only support-4 families are evaluable")
        for grid in grids:
            if grid.w != fam.support:
                raise ValueError("grid width does not match the family "
                                 "support")
            if grid.d0 is None:
                raise ValueError("grid carries no parameter intervals")
        self.grids = list(grids)
        self.family = fam
        self.k = fam.continuity
        self.points = np.array([g.points for g in grids],
                               float).reshape(-1, 4, 4, 3)
        self.intervals = np.array([[g.d0, g.d1, g.e0, g.e1] for g in grids],
                                  float).reshape(-1, 4, 3)

    def _blended(self, slots, first, t):
        """Interval triples blended at t from the pair first, first + 1 of
        SIDES (rows: 0, columns: 2; first may be an array); shape (3, n)."""
        lo = self.intervals[slots, first].T
        hi = self.intervals[slots, first + 1].T
        return lo + (hi - lo) * _blend(self.k, t)

    @staticmethod
    def _combine(points, wx, wy):
        """sum_ij wx_i wy_j p_ij for (4, n) weight arrays and the (n, 4, 4, 3)
        points of each point's patch; shape (n, 3)."""
        return np.einsum("jn,njd->nd", wy, np.einsum("in,nijd->njd", wx,
                                                     points))

    def eval(self, slots, u, v):
        """S(u[i], v[i]) of patch slots[i] for 1-D arrays; shape (n, 3)."""
        return chunked(self._eval, slots, np.asarray(u, float),
                       np.asarray(v, float))

    def _eval(self, slots, u, v):
        # rows blend at v, columns at u: one weights call for both
        both = self._blended(np.concatenate([slots, slots]),
                             np.repeat([0, 2], len(slots)),
                             np.concatenate([v, u]))
        w = fundamental_weights(self.family,
                                np.concatenate([u, v]) * both[1], both)
        return self._combine(self.points[slots], *np.split(w, 2, axis=1))

    def side_blend(self, slots, sides, t):
        """The blend whose powers scale cross derivatives on side sides[i]
        of patch slots[i], at the fraction t[i] along it: the column blend
        for v0/v1, the row blend for u0/u1."""
        return self._blended(slots, np.where(sides < 2, 2, 0), t)[1]

    @cached_property
    def side_ends(self):
        """side_fields at both ends of every side of every patch, for cross
        orders q and x-derivatives r up to k, made in one pass on first
        use; shape (F, 4, 2, k + 1, k + 1, 3), indexed [slot, side, end,
        q, r].  At the ends these are exact mixed corner derivatives."""
        count, k = len(self.grids), self.k
        slots = np.repeat(np.arange(count), 8)
        sides = np.tile(np.repeat(np.arange(4), 2), count)
        x = np.tile([0.0, 1.0], 4 * count) * self.intervals[slots, sides, 1]
        table = np.stack([self.side_fields(slots, sides, range(k + 1), x, r)
                          for r in range(k + 1)])
        return table.reshape(k + 1, k + 1, count, 4, 2, 3) \
            .transpose(2, 3, 4, 1, 0, 5)

    def side_fields(self, slots, sides, orders, x, r=0):
        """r-th x-derivative of the order-q cross field (q = 0: the boundary
        curve), for every q in orders, along side sides[i] (an index into
        SIDES) of patch slots[i], at x[i] in the side's local variable;
        shape (len(orders), n, 3).

        For sides v0/v1 the cross field is the q-th y-partial as a function
        of the boundary variable x; for u0/u1 the roles of the axes swap.
        x-derivatives of cross fields are exact, and offered, only at the
        side's endpoints, where they are mixed corner derivatives.
        """
        if max(orders) > self.k:
            raise ValueError(f"cross order {max(orders)} exceeds continuity "
                             f"{self.k}")
        return chunked(lambda s, c, t: self._side_fields(s, c, orders, t, r),
                       slots, sides, np.asarray(x, float))

    def _side_fields(self, slots, sides, orders, x, r):
        along = self.intervals[slots, sides].T
        cross_orders = tuple(q for q in orders if q)
        if cross_orders and r:
            at_end = np.abs(x - along[1]) <= 1e-9 * along[1]
            if not np.all(at_end | (np.abs(x) <= 1e-9 * along[1])):
                raise ValueError("cross-field derivatives are exact at "
                                 "endpoints only")
            x = np.where(at_end, along[1], 0.0)
        w_along = fundamental_weights(self.family, x, along, r)
        vertical = sides < 2   # v0/v1 run along u and are crossed in v
        w_cross = {}
        if 0 in orders:
            # the boundary curve is the grid line of the side itself
            w_cross[0] = np.zeros_like(w_along)
            w_cross[0][1 + sides % 2, np.arange(len(x))] = 1.0
        if cross_orders:
            cross = self._blended(slots, np.where(vertical, 2, 0),
                                  x / along[1])
            w_cross.update(zip(cross_orders, fundamental_weights(
                self.family, np.where(sides % 2, cross[1], 0.0), cross,
                cross_orders)))
        points = self.points[slots]
        return np.stack([
            self._combine(points, np.where(vertical, w_along, w_cross[q]),
                          np.where(vertical, w_cross[q], w_along))
            for q in orders])


@dataclass(frozen=True)
class GridField:
    """The order-q field along one side (an index into SIDES) of one patch
    of a GridPatchSet, as data; eval(x, r) evaluates it like VecPoly.eval."""

    patches: GridPatchSet
    slot: int
    side: int
    q: int

    def eval(self, x, r=0):
        x = np.asarray(x, float)
        patches = self.patches
        length = patches.intervals[self.slot, self.side, 1]
        if max(self.q, r) <= patches.k and np.all((x == 0.0) | (x == length)):
            # the side's ends: read the table made for all sides at once
            return patches.side_ends[self.slot, self.side,
                                     (x == length).astype(int), self.q, r]
        return self.patches.side_fields(
            np.full(x.size, self.slot), np.full(x.size, self.side),
            (self.q,), x.ravel(), r)[0].reshape(x.shape + (3,))


class PatchView:
    """A view of a patch set: the patch in slot `slot`.

    view(patches, slot) views a slot of a shared set.  eval also serves a
    view whose slot is an array aligned with the points, as
    CompositeSurface.eval makes one per call; the other members of a
    subclass need one slot.
    """

    @classmethod
    def view(cls, patches, slot):
        patch = cls.__new__(cls)
        patch._bind(patches, slot)
        return patch

    def _bind(self, patches, slot):
        self.patches = patches
        self.slot = slot

    def eval(self, u, v):
        """S(u, v) for scalars or equal-shaped arrays; shape (..., 3)."""
        u, v, slots = np.broadcast_arrays(np.asarray(u, float),
                                          np.asarray(v, float), self.slot)
        return self.patches.eval(slots.ravel(), u.ravel(),
                                 v.ravel()).reshape(u.shape + (3,))


class RegularPatch(PatchView):
    """A view of a GridPatchSet: one grid patch.  RegularPatch(grid, fam)
    makes a standalone patch, a set of one."""

    def __init__(self, grid, fam):
        self._bind(GridPatchSet([grid], fam), 0)

    @property
    def grid(self):
        return self.patches.grids[self.slot]

    # -- boundary data ---------------------------------------------------------
    def field(self, side, q):
        """The order-q field along a side, as a GridField."""
        return GridField(self.patches, self.slot, SIDES.index(side), q)

    def side_interval(self, side):
        """Length of the local variable range along a side."""
        return float(self.patches.intervals[self.slot, SIDES.index(side), 1])
