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

All grid patches of a surface live in one GridPatchSet, made from the
window arrays of mesh.classify_faces, which evaluates arrays of (slot, u, v)
in passes of EVAL_CHUNK points, each contracting the points' real windows
against real or complex weights without a complex copy; side_jets is the
one kernel for side data, which Coons-Gregory sides and the seam audit share.
A RegularPatch is a view of one slot, and its grid reads the slot's window
back as a LocalGrid.
"""

from dataclasses import dataclass

import numpy as np

from .splines import fundamental_weights

SIDES = ("v0", "v1", "u0", "u1")
# points per pass of every patch-set evaluation: a complex point takes about
# 1.0 KB in a grid pass and 2.0 KB in a Coons-Gregory one
EVAL_CHUNK = 2048


def _blend(k, t):
    """Flat-ended blend from 0 at t = 0 to 1 at t = 1, of order k."""
    if k == 1:
        return t * t * (3.0 - 2.0 * t)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def floats(a):
    """a as a float array, or as a complex one where it is complex: complex
    points pass through every evaluation, for complex-step derivatives."""
    return np.asarray(a, complex if np.iscomplexobj(a) else float)


def real_einsum(spec, w, table):
    """np.einsum(spec, w, table) for a real table: complex weights contract
    by parts, each straight into its half of the result."""
    if not np.iscomplexobj(w):
        return np.einsum(spec, w, table)
    operands, result = spec.split("->")
    size = dict(zip(operands.replace(",", ""), w.shape + table.shape))
    out = np.empty([size[c] for c in result], complex)
    np.einsum(spec, w.real, table, out=out.real)
    np.einsum(spec, w.imag, table, out=out.imag)
    return out


def chunked(fn, *arrays):
    """fn over slices of equal-length arrays of EVAL_CHUNK points each, its
    (..., m, 3) results joined into one (..., n, 3) array.  The last array
    may be (n, S), S samples a row: a slice then takes EVAL_CHUNK // S rows,
    and the results are (..., m, S, 3)."""
    n, tail = len(arrays[0]), np.shape(arrays[-1])[1:]
    step = max(1, EVAL_CHUNK // max((1,) + tail))
    axis = -2 - len(tail)   # the axis of the rows in fn's results
    out = None
    # fn runs once even for no points: its result gives the leading shape
    for lo in range(0, max(n, 1), step):
        part = fn(*(a[lo:lo + step] for a in arrays))
        if out is None:
            out = np.empty(part.shape[:axis] + (n,) + part.shape[axis + 1:],
                           part.dtype)
        out[(..., slice(lo, lo + step)) + (slice(None),) * (-1 - axis)] = part
    return out


class GridPatchSet:
    """Every grid patch of a surface as stacked arrays.

    Slot i holds the window at anchor half edge anchors[i], with vertex ids
    vertex_ids[i] (4, 4): its points in windows[2 i] (4, 4, 3), and
    transposed, running along v first, in windows[2 i + 1], and its row and
    column intervals d0, d1, e0, e1 in intervals[i] (4, 3), in SIDES order
    (the intervals along side v0 are d0, ..., along u1 e1).  Every method
    takes 1-D arrays of slots and points, side_jets also rows of samples
    a side, and evaluates them in chunks of EVAL_CHUNK points.
    """

    def __init__(self, anchors, vertex_ids, points, intervals, fam):
        if fam.support != 4:
            raise ValueError("only support-4 families are evaluable")
        n = len(anchors)
        if np.shape(vertex_ids) != (n, 4, 4) \
                or np.shape(points) != (n, 4, 4, 3):
            raise ValueError("grid width does not match the family support")
        if np.shape(intervals) != (n, 4, 3):
            raise ValueError("grid carries no parameter intervals")
        self.anchors = np.asarray(anchors, int)
        self.vertex_ids = np.asarray(vertex_ids, int)
        self.family = fam
        self.k = fam.continuity
        p = np.asarray(points, float)
        self.windows = np.stack([p, p.swapaxes(1, 2)], 1).reshape(-1, 4, 4, 3)
        self.intervals = np.asarray(intervals, float)

    def _blended(self, slots, first, t):
        """Interval triples blended at t from the pair first, first + 1 of
        SIDES (rows: 0, columns: 2), for slots and first with as many axes
        as t; shape (3,) + their broadcast shape."""
        lo = np.moveaxis(self.intervals[slots, first], -1, 0)
        hi = np.moveaxis(self.intervals[slots, first + 1], -1, 0)
        return lo + (hi - lo) * _blend(self.k, t)

    def eval(self, slots, u, v):
        """S(u[i], v[i]) of patch slots[i] for 1-D arrays; shape (n, 3)."""
        return chunked(self._eval, slots, floats(u), floats(v))

    def _eval(self, slots, u, v):
        # rows blend at v, columns at u: one weights call for both
        both = self._blended(np.concatenate([slots, slots]),
                             np.repeat([0, 2], len(slots)),
                             np.concatenate([v, u]))
        wx, wy = np.split(fundamental_weights(
            self.family, np.concatenate([u, v]) * both[1], both), 2, axis=1)
        return np.einsum("jn,njd->nd", wy, real_einsum(
            "in,nijd->njd", wx, self.windows[2 * slots]))

    def side_blend(self, slots, sides, t):
        """The blend whose powers scale cross derivatives on side sides[i]
        of patch slots[i], at the fraction t[i] along it: the column blend
        for v0/v1, the row blend for u0/u1."""
        return self._blended(slots, np.where(sides < 2, 2, 0), t)[1]

    def side_jets(self, slots, sides, jets, x):
        """r-th x-derivative of the order-q cross field (q = 0: the boundary
        curve), for every (q, r) pair of jets, along side sides[i] (an index
        into SIDES) of patch slots[i], at x[i] in the side's local variable,
        or at the S samples x[i] for x (m, S); shape (len(jets),) + x.shape +
        (3,).  A pass gathers each side's window once, sums it along the side
        for all r, and across it per jet at the real cross coordinate, as
        eval does, for q = 0 too.

        For sides v0/v1 the cross field is the q-th y-partial as a function
        of the boundary variable x; for u0/u1 the roles of the axes swap.
        x-derivatives of cross fields are exact, and offered, only at the
        side's endpoints, where they are mixed corner derivatives.
        """
        top = max(q for q, _ in jets)
        if top > self.k:
            raise ValueError(f"cross order {top} exceeds continuity {self.k}")
        return chunked(lambda s, c, t: self._side_jets(s, c, jets, t),
                       slots, sides, floats(x))

    def _side_jets(self, slots, sides, jets, x):
        window = 2 * slots + sides // 2
        # the side tables broadcast against the samples of x
        at = (slice(None),) + (None,) * (x.ndim - 1)
        slots, sides = slots[at], sides[at]
        along = np.moveaxis(self.intervals[slots, sides], -1, 0)
        if any(q and r for q, r in jets):
            # a complex x is at an end where its real part is, give or take
            # its imaginary part, which the snap to the end keeps
            re = np.real(x)
            tol = 1e-9 * along[1] + np.abs(np.imag(x))
            at_end = np.abs(re - along[1]) <= tol
            if not np.all(at_end | (np.abs(re) <= tol)):
                raise ValueError("cross-field derivatives are exact at "
                                 "endpoints only")
            x = np.where(at_end, along[1], 0.0) + (x - re)
        rs = sorted({r for _, r in jets})
        qs = sorted({q for q, _ in jets})
        # the windows, sides last, summed along the side for every r
        n = "ms"[:x.ndim]
        rows = real_einsum(f"ai{n},ijdm->ajd{n}",
                           fundamental_weights(self.family, x, along, rs),
                           np.moveaxis(self.windows[window], 0, -1))
        # then across: v0/v1 run along u and are crossed in v at y = 0, e(u)
        cross = self._blended(slots, np.where(sides < 2, 2, 0), x / along[1])
        w_cross = fundamental_weights(
            self.family, np.where(sides % 2, cross[1], 0.0), cross, qs)
        out = np.empty((len(jets), 3) + x.shape, rows.dtype)
        for jet, (q, r) in zip(out, jets):
            np.einsum(f"j{n},jd{n}->d{n}", w_cross[qs.index(q)],
                      rows[rs.index(r)], out=jet)
        return np.moveaxis(out, 1, -1)


@dataclass
class LocalGrid:
    """The 4 x 4 vertex window of one grid patch and its intervals.

    points[i + 1, j + 1] holds p_{i,j} for i, j in [-1, 2], with p_{0,0} the
    origin of the anchor half edge; d0/d1 are the bottom/top row intervals
    d_{i,0}, d_{i,1} and e0/e1 the left/right column intervals, each of
    length 3 indexed the same way.
    """
    anchor: int
    points: np.ndarray
    vertex_ids: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    e0: np.ndarray
    e1: np.ndarray


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
        patch.patches, patch.slot = patches, slot
        return patch

    def eval(self, u, v):
        """S(u, v) for scalars or equal-shaped arrays; shape (..., 3)."""
        u, v, slots = np.broadcast_arrays(floats(u), floats(v), self.slot)
        return self.patches.eval(slots.ravel(), u.ravel(),
                                 v.ravel()).reshape(u.shape + (3,))


class RegularPatch(PatchView):
    """A view of a GridPatchSet: one grid patch."""

    @property
    def grid(self):
        """The slot's window, as a LocalGrid of views of the set's arrays."""
        patches, slot = self.patches, self.slot
        return LocalGrid(int(patches.anchors[slot]), patches.windows[2 * slot],
                         patches.vertex_ids[slot], *patches.intervals[slot])
