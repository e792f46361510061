"""Transfinite patches interpolating four boundary curves and cross fields.

The patch is defined as S(u,v) = -H(u)^T M(u,v) H(v), with H a leading -1
and the cubic (G1) or quintic (G2) Hermite basis of network.BASES.  M holds
boundary/corner data with scalings that map the per-edge local variables to
the uv domain: curve derivatives scale by the constant edge interval, cross
fields by the face's blend function evaluated at the running parameter, and
second-order entries by the squares.  Twist-like corner
entries blend two estimates rationally (linear weights for G1, quadratic for
G2); at the corners, where the weights are 0/0, the mean of the two estimates
is substituted, which is exact when the data are compatible and never affects
interpolation because the blend weights vanish there at second order.

Every side has an interval and its fields (the boundary curve, the first
cross-derivative field chi and, for G2, the second xi): the coefficients of
a network curve, or a side of an adjacent grid patch, each read in the
patch's orientation through one flip and sign table.  All Coons-Gregory
patches of a surface live in one GregoryPatchSet, built from those arrays,
which checks that every side meets its corners and evaluates arrays of
(slot, u, v) in passes of EVAL_CHUNK points without forming M: row 0 and
column 0 of M (the side fields, evaluated once per distinct side point
before any per-point weight exists; network fields in one Horner pass, grid
fields in one GridPatchSet call) contract against H(v) and H(u), and the
rest, one row at a time, against per-slot tables of the entries that depend
on neither u nor v and of the pre-scaled twist estimates, which every twist
entry blends with the one ratio of its corner.  A GregoryPatch is a view
of one slot.
"""

import numpy as np

from .errors import ConstructionError
from .network import BASES
from .patch import PatchView, _blend, chunked, floats, real_einsum
from .splines import _horner

CORNER_EPS = 1e-12


def hermite_basis(degree, u):
    """Blending vector: leading -1 then the Hermite basis polynomials, shape
    (degree + 2,) + u.shape: network.BASES' cubic or quintic rows (p0, p1,
    m0, m1 and a0, a1) contracted with the powers of u."""
    if degree not in (3, 5):
        raise ValueError("blending degree must be 3 or 5")
    rows = BASES["cubic" if degree == 3 else "quintic"][1]
    u = floats(u)
    x = u.reshape(-1)
    powers = np.empty((degree + 1, x.size), x.dtype)
    powers[0] = 1.0
    for j in range(1, degree + 1):
        np.multiply(powers[j - 1], x, out=powers[j])
    out = np.empty((degree + 2, x.size), x.dtype)
    out[0] = -1.0
    # the table is real: one matmul on the real view of complex powers
    np.matmul(rows, powers.view(float), out=out[1:].view(float))
    return out.reshape((degree + 2,) + u.shape)


# side s runs over [0, d] from corner _SIDE_CORNERS[s, 0] to [s, 1]
_SIDE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])


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

    Slot i is the patch of face faces[i], with corners[i] (4, 3) and the
    side intervals lengths[i] (d0, e1, d1, e0).  The frame matches the uv
    square: side 0 runs p0 -> p1 along v = 0 over [0, d0], side 1 p1 -> p2
    along u = 1 over [0, e1], side 2 p3 -> p2 along v = 1 over [0, d1] and
    side 3 p0 -> p3 along u = 0 over [0, e0].  Side s of slot i has one
    field of each cross order q = 0..k (the boundary curve gamma, chi and,
    in G2, xi), a function of the side's local variable x in [0, d]:
    - grid[i, s] = -1: a network side, whose field q has the ascending
      coefficients coeffs[i, s, q] (zero on every other side);
    - else the sampled side grid[i, s, 1] (an index into patch.SIDES) of
      slot grid[i, s, 0] of grid_patches, whose order-q field it reads.
    In patch orientation the cross fields are derivatives in the +x / +y
    local directions.  A field with flip[i, s, q] is stored running from
    the far end: it is read at d - x, which flips the sign of its odd
    x-derivatives.  sign[i, s, q] (+1 or -1) then negates the odd cross
    orders of a side whose cross direction points out of the patch.

    inner[i] holds the entries of M that depend on neither u nor v, M
    without its row and column 0, with the second, pre-scaled estimate B
    of each twist entry; twist[i] the first estimate minus the second, A -
    B; both row-major, [i, a, :, b] holding M[1 + a, 1 + b].
    """

    def __init__(self, corners, lengths, coeffs, flip, sign, grid,
                 grid_patches, faces):
        if np.ndim(coeffs) != 5 or np.shape(coeffs)[2] not in (2, 3):
            raise ValueError("every side needs the fields of cross orders "
                             "0..k, for k = 1 or 2")
        n, _, orders, m, _ = np.shape(coeffs)
        self.k = k = orders - 1
        arrays = {"corners": (corners, float, (n, 4, 3)),
                  "lengths": (lengths, float, (n, 4)),
                  "coeffs": (coeffs, float, (n, 4, orders, m, 3)),
                  "flip": (flip, bool, (n, 4, orders)),
                  "sign": (sign, np.int8, (n, 4, orders)),
                  "grid": (grid, int, (n, 4, 2)),
                  "faces": (faces, int, (n,))}
        for name, (value, dtype, shape) in arrays.items():
            if np.shape(value) != shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, "
                                 f"expected {shape}")
            setattr(self, name, np.asarray(value, dtype))
        if (self.lengths <= 0.0).any():
            raise ValueError("corner intervals must be positive")
        self.grid_patches = grid_patches
        # coefficient j of field q of side s of slot i in _table[j, p], p
        # the flat index of (i, s, q)
        self._table = np.ascontiguousarray(
            np.moveaxis(self.coeffs.reshape(-1, m, 3), 1, 0))
        # ends[r][i, s, e]: r-th x-derivative of every field of side s at
        # its start (e = 0) or end (e = 1)
        entry = np.arange(8 * n)
        slots, sides = entry // 8, entry // 2 % 4
        x = self.lengths[slots, sides] * (entry % 2)
        ends = self.side_fields(slots, sides, x, range(k + 1)).reshape(
            k + 1, n, 4, 2, k + 1, 3)
        _check_corners(self.corners, self.lengths, ends[0][..., 0, :],
                       self.faces)
        self._stack_constants(ends)

    def side_fields(self, slots, sides, x, r=0):
        """r-th x-derivative at x[i] of every field (orders 0..k) of side
        sides[i] of patch slots[i], in patch orientation; shape
        (m, k + 1, 3).  r may also be a sequence of orders, all read in one
        pass; the result then has a leading axis over them.  Network fields
        are evaluated in one Horner pass an order, grid fields in one
        GridPatchSet call."""
        k, orders = self.k, np.atleast_1d(r)
        flip = self.flip[slots, sides]
        back = self.lengths[slots, sides] - x
        grid_slot, grid_side = self.grid[slots, sides].T
        net = grid_slot < 0
        # the grid kernel runs before out exists, and its result is freed
        # before the Horner pass: no copy of a field meets other temporaries
        if not net.all():
            grid = self.grid_patches.side_jets(
                grid_slot[~net], grid_side[~net],
                [(q, o) for o in orders for q in range(k + 1)],
                np.where(flip[~net, 0], back[~net], x[~net]))
        out = np.empty((len(orders),) + flip.shape + (3,), back.dtype)
        if not net.all():
            out[:, ~net] = np.moveaxis(grid.reshape(len(orders), k + 1, -1, 3),
                                       1, 2)
            del grid
        if net.any():
            i, q = np.nonzero(np.broadcast_to(net[:, None], flip.shape))
            rows = np.ravel_multi_index((slots[i], sides[i], q),
                                        self.flip.shape)
            at = np.where(flip[i, q], back[i], x[i])[:, None]
            for o, order in enumerate(orders):
                out[o, i, q] = _horner(self._table, at, order, rows)
        # odd orders of a flipped field change sign
        out *= (self.sign[slots, sides]
                * (-1) ** (orders[:, None, None] * flip))[..., None]
        return out if np.ndim(r) else out[0]

    def _stack_constants(self, ends):
        """inner and twist from the endpoint derivatives ends[r] of every
        side field: corners and curve endpoint derivatives are constant."""
        k, count = self.k, len(self.lengths)
        # powers of the intervals: dp[r] = (d0^r, d1^r), ep[r] = (e0^r, e1^r)
        dp = {r: self.lengths[:, [0, 2]] ** r for r in range(1, k + 1)}
        ep = {r: self.lengths[:, [3, 1]] ** r for r in range(1, k + 1)}

        # M without its row and column 0: inner[i, :, a, b] is M[1 + a, 1 + b]
        # of slot i; the tables put the coordinate axis second
        inner = np.zeros((count, 2 * k + 2, 2 * k + 2, 3))
        inner[:, :2, :2] = self.corners[:, [[0, 3], [1, 2]]]
        for r in range(1, k + 1):
            dg = ends[r][..., 0, :]
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
                    scale * ends[i][..., j, :][:, [0, 2]].transpose(0, 2, 1, 3)
                twist[:, 2 * i - 2:2 * i, 2 * j - 2:2 * j] = \
                    scale * ends[j][..., i, :][:, [3, 1]]
        twist -= inner[:, 2:, 2:]
        self.inner, self.twist = (np.moveaxis(t, 3, 2).copy()
                                  for t in (inner, twist))

    # -- evaluation -----------------------------------------------------------
    def _ratio(self, u, v):
        """wa / (wa + wb) at the twist entries of the points, one row i at a
        time, each of shape (n, 2k): entry (2i + a, 2j + b) sits at corner
        (a, b), with the weights wa = (u, 1 - u)[a]^k and wb = (v, 1 -
        v)[b]^k, linear for G1 and quadratic for G2; 0.5 where both weights
        vanish at the real point (u, v may be complex)."""
        k = self.k
        w = np.stack([u, 1.0 - u] * k + [v, 1.0 - v] * k, 1)
        w, real = w ** k, np.real(w) ** k
        for i in range(2 * k):
            den = w[:, i, None] + w[:, 2 * k:]
            yield np.divide(w[:, i, None], den,
                            out=np.full(den.shape, 0.5, den.dtype),
                            where=real[:, i, None] + real[:, 2 * k:]
                            >= CORNER_EPS)

    def eval(self, slots, u, v):
        """S(u[i], v[i]) of patch slots[i] for 1-D arrays; shape (n, 3)."""
        return chunked(self._eval, slots, floats(u), floats(v))

    def _eval(self, slots, u, v):
        k = self.k
        # the fields of sides 0 and 2 at each distinct (slot, u) and of sides
        # 3 and 1 at each distinct (slot, v), in one call before any
        # per-point weight exists
        (fu, au), (fv, av) = _distinct(slots, u), _distinct(slots, v)
        fslots = slots[np.concatenate([fu, fu, fv, fv])]
        fsides = np.repeat([0, 2, 3, 1], [len(fu)] * 2 + [len(fv)] * 2)
        t = np.concatenate([u[fu], u[fu], v[fv], v[fv]])
        f = np.split(self.side_fields(fslots, fsides, t * self.lengths[
            fslots, fsides]), [2 * len(fu)])
        # point-major H(u) and H(v) without their leading -1: each point's
        # terms are then summed in one order, whatever the batch
        uv = np.stack([u, v])
        hu, hv = np.ascontiguousarray(
            hermite_basis(2 * k + 1, uv)[1:].transpose(1, 2, 0))
        # cross fields scale by powers of the blend functions: along sides 0
        # and 2 of the one from e0 to e1 at u, along sides 3 and 1 of the one
        # from d0 to d1 at v
        lo, hi = self.lengths[slots][:, [[3, 0], [1, 2]]].transpose(1, 2, 0)
        blend = lo + (hi - lo) * _blend(k, uv)
        # with H_0 = -1 and M_00 = 0, row 0 (sides 0 and 2) contracts
        # against H(v) and column 0 (sides 3 and 1) against H(u)
        out = 0.0
        for fields, at, h, b in ((f[0], au, hv, blend[0]),
                                 (f[1], av, hu, blend[1])):
            w = (b[:, None] ** np.arange(k + 1))[:, None] \
                * np.stack([h[:, 0::2], h[:, 1::2]], 1)
            out = out + np.einsum("nsq,snqk->nk", w,
                                  fields.reshape(2, -1, k + 1, 3)[:, at])
        del f, fields
        # the rest of M, one row at a time: its constant entries, and the
        # twist entries blended by one ratio per corner
        for a in range(2 * k + 2):
            out -= real_einsum("nb,nkb->nk", hu[:, a, None] * hv,
                               self.inner[slots, a])
        for i, ratio in enumerate(self._ratio(u, v)):
            out -= real_einsum("nb,nkb->nk",
                               hu[:, 2 + i, None] * hv[:, 2:] * ratio,
                               self.twist[slots, i])
        return out


class GregoryPatch(PatchView):
    """A view of a GregoryPatchSet: one Coons-Gregory patch."""
