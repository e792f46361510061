"""Composite surface pipeline: classify, patch, fill, tessellate, audit.

Regular faces get grid patches; the remaining faces get Coons-Gregory patches
whose boundary data is sampled from adjacent grid patches where one exists
and generated from the curve network otherwise.  Both incident faces of a
shared curve consume the same curve record, so the composite evaluation is
watertight by construction.

The patches of each kind live in one set (patch.GridPatchSet,
gregory.GregoryPatchSet).  CompositeSurface.eval takes arrays of (face, u, v)
and makes one call per set; tessellation builds one table of (face, u, v)
for the whole surface, the analysis channels and the continuity audit one
per batch of vertices or seams, and each table is evaluated through that
call, in bounded chunks.  The audit's grid sides are the exception: they
read GridPatchSet.side_jets, as the Coons-Gregory sides sampled from them
do.

Complex (u, v) pass through that call unchanged, since every patch formula
is a polynomial or a rational in (u, v).  The analysis and the audit take
their derivatives from it by complex steps (Squire and Trapp, SIAM Review
40(1), 1998): Im S(u + ih, v) / h is the u-partial with no subtractive
cancellation, and the real part gives the second partial against the real
position.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import mesh as qm
from . import network as net
from .errors import ConstructionError
from .gregory import _SIDE_CORNERS, GregoryPatch, GregoryPatchSet
from .patch import EVAL_CHUNK, SIDES, GridPatchSet, RegularPatch, floats
from .splines import D5C2P2S4, family as family_by_name, segment_coefficients

LIGHT_DIRECTION = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
# the analysis' complex step, whose real parts give second partials to O(h^2)
FD_STEP = 1e-4
# the complex step of the seam audit's Gregory-side normals: its square
# vanishes beside any real part, so the imaginary part is the exact partial
AUDIT_STEP = 1e-30
# tessellation welds by mesh topology; this tolerance, relative to the mesh
# diagonal, only scales its guard against non-finite or huge vertices
WELD_REL_TOL = 1e-9
# side of a regular patch along its half edge anchor + c, for c = 0..3
SIDE_OF_CORNER = ("v0", "u1", "v1", "u0")
_SIDE_INDEX_OF_CORNER = np.array([SIDES.index(s) for s in SIDE_OF_CORNER])
# (u, v) of corner c of a face, the origin of its half edge anchor + c
_CORNER_UV = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])


@dataclass
class BuildOptions:
    family: object = D5C2P2S4
    mode: str = "g2"
    param_method: str = "centripetal"
    alpha: float = None
    r_degree: int = 2

    def __post_init__(self):
        if isinstance(self.family, str):
            self.family = family_by_name(self.family)
        if self.mode not in ("g1", "g2"):
            raise ValueError("mode must be g1 or g2")
        if self.mode == "g2" and self.family.continuity < 2:
            raise ValueError(
                f"g2 mode needs a C2 family; {self.family.name} is only "
                f"C{self.family.continuity}")
        if self.r_degree not in (1, 2):
            raise ValueError("r-degree must be 1 or 2")

    @property
    def k(self):
        return 2 if self.mode == "g2" else 1


@dataclass
class _Fits:
    """Vertex fits, one row per vertex: the fan (V, m) padded with -1, the
    first and second derivatives toward each neighbour (V, m, 3), the unit
    normal (V, 3) and, in G2, the guide's (Px, Py, Pxx, Pxy, Pyy) at the
    vertex (5, V, 3)."""
    fan: np.ndarray
    first: np.ndarray
    second: np.ndarray
    normal: np.ndarray
    guide: np.ndarray = None


class CompositeSurface:
    """Face -> patch map over an (optionally extrapolated) quad mesh.

    regular and gregory map faces to views of grid_patches and
    gregory_patches; eval evaluates arrays of (face, u, v) through the sets.
    """

    def __init__(self, mesh, params, options):
        self.mesh = mesh
        self.params = params
        self.options = options
        self.regular = {}
        self.gregory = {}
        self.grid_patches = None
        self.gregory_patches = None
        # per-face tables, -1 where a face has none and at index -1: slot
        # in grid_patches and in gregory_patches, and anchor half edge
        self._slot = np.full((2, mesh.num_faces + 1), -1)
        self.anchors = np.full(mesh.num_faces + 1, -1)

    @property
    def real_faces(self):
        return range(self.mesh.real_face_count)

    def patch(self, f):
        """The view of face f's patch; KeyError, as eval raises it, for a
        face without one."""
        view = self.regular.get(f) or self.gregory.get(f)
        if view is None:
            raise KeyError(f"face {f} has no patch")
        return view

    def eval(self, faces, u, v):
        """Positions at the points (faces, u, v) of equal-shaped arrays, with
        one evaluation call per patch kind; shape (..., 3).  Complex u or v
        give complex positions: every patch formula is a polynomial or a
        rational in (u, v)."""
        faces, u, v = np.broadcast_arrays(np.asarray(faces, int), floats(u),
                                          floats(v))
        shape = faces.shape + (3,)
        faces, u, v = faces.ravel(), u.ravel(), v.ravel()
        # a face outside real_faces reads the -1 column, which has no patch
        real = (faces >= 0) & (faces < self.mesh.real_face_count)
        # take, unlike [:, index], leaves each kind's row contiguous
        slots = np.take(self._slot, np.where(real, faces, -1), axis=1)
        out = None   # made only when each kind covers part of the points
        for view, patches, kind_slots in zip(
                (RegularPatch.view, GregoryPatch.view),
                (self.grid_patches, self.gregory_patches), slots):
            at = kind_slots >= 0
            if at.all():   # one kind: its result as is
                return view(patches, kind_slots).eval(u, v).reshape(shape)
            if at.any():
                if out is None:
                    out = np.empty((len(faces), 3), np.result_type(u, v))
                out[at] = view(patches, kind_slots[at]).eval(u[at], v[at])
        missing = (slots < 0).all(axis=0)
        if missing.any():
            raise KeyError(f"face {faces[np.argmax(missing)]} has no patch")
        return out.reshape(shape)

    def halfedges(self, faces):
        """(F, 4) half edges anchor + c of faces, for corners c = 0..3."""
        anchor = self.anchors[faces, None]
        return anchor & ~3 | (anchor + np.arange(4)) & 3

    def _edge_uv(self, f, he, t):
        """(u, v) at the fractions t along half edges he of faces f; f and
        he are scalars or arrays that broadcast against t."""
        t = np.asarray(t, float)
        zero, one = np.zeros_like(t), np.ones_like(t)
        c = (np.asarray(he) - self.anchors[f]) % 4
        return (np.choose(c, (t, one, 1.0 - t, zero)),
                np.choose(c, (zero, t, one, 1.0 - t)))


def build_surface(mesh, options=None, params=None):
    """Run the full pipeline on a connected quad mesh.  params, when given,
    are edge intervals in the layout of qm.assign_edge_params and are
    checked by qm.check_edge_params."""
    options = options or BuildOptions()
    if not mesh.has_connectivity:
        mesh.build_connectivity()
    if params is None:
        params = qm.assign_edge_params(mesh, options.param_method,
                                       options.alpha)
    else:
        params = qm.check_edge_params(mesh, params)
    mesh, params = qm.extrapolate_boundary_layer(mesh, params)

    surf = CompositeSurface(mesh, params, options)
    # every real face is anchored at its canonical half edge
    real = np.arange(mesh.real_face_count)
    surf.anchors[real] = mesh.canonical_halfedge(real)
    anchors, ids, intervals, extraordinary = qm.classify_faces(mesh, params)
    regular = anchors >> 2
    surf._slot[0, regular] = np.arange(len(regular))
    surf._slot[1, extraordinary] = np.arange(len(extraordinary))
    surf.grid_patches = GridPatchSet(anchors, ids, mesh.vertices[ids],
                                     intervals, options.family)
    surf.regular = {f: RegularPatch.view(surf.grid_patches, slot)
                    for slot, f in enumerate(regular.tolist())}
    surf.gregory_patches = _GregoryBuilder(surf).build(extraordinary)
    surf.gregory = {f: GregoryPatch.view(surf.gregory_patches, slot)
                    for slot, f in enumerate(extraordinary.tolist())}
    return surf


class _GregoryBuilder:
    """Assembles the boundary data of all extraordinary faces in array
    passes, each over every face at once:

    1. Sides and curves.  Side c of a face lies along half edge anchor + c.
       It is sampled from the grid patch across its edge where there is
       one, and generated from the curve network otherwise.  Each network
       edge gets one boundary curve: the section-curve segment where its
       4-point window exists, else a Hermite curve through endpoint
       derivatives read from neighbouring segments or from the vertex fit.
    2. Corner frames.  The unit normal (and in G2 the principal curvatures)
       at each network side's ends, read at a grid patch corner of the
       vertex where there is one, else from the vertex's guide fit (G2) or
       plane fit (G1), each made once per valence.
    3. Network sides.  The ruled directions and cross fields of every
       network side, matched to corner targets read from the neighbouring
       sides.
    4. The patch set's arrays, from which GregoryPatchSet checks every
       side against its corners.
    """

    def __init__(self, surf):
        self.surf = surf
        self.mesh = surf.mesh
        self.params = surf.params
        self.options = surf.options
        self.k = surf.options.k
        self.grid_slot = surf._slot[0]

    # -- mesh lookups ---------------------------------------------------------
    def _target(self, h):
        return self.mesh.origin_of[self.mesh.next_of[h]]

    def _fans(self, vertices):
        """Fans of the vertices as rows padded with -1 (QuadMesh.fans), the
        half edges from each vertex to its neighbours and from them to it
        (-1 where none), and the intervals (1 at padding)."""
        star, fan = self.mesh.fans(vertices)
        into = self.mesh.twin_of[star]
        # the last neighbour of a boundary vertex lies past its star
        rows, cols = np.nonzero((fan >= 0) & (star < 0))
        into[rows, cols] = self.mesh.prev_of[star[rows, cols - 1]]
        ds = np.where(fan >= 0, self.params[np.where(star >= 0, star, into)],
                      1.0)
        return fan, star, into, ds

    def _segments(self, windows, halves):
        """Section-curve segments over 4-vertex windows (n, 4) whose three
        edges are the half edges halves (n, 3)."""
        return net.VecPoly(segment_coefficients(
            self.mesh.vertices[windows], self.params[halves].T,
            self.options.family))

    # -- derivatives at vertices ----------------------------------------------
    def _windows(self, a, c, fwd, bwd):
        """The 4-vertex windows (z, a, c, w) of the section-curve segments
        a -> c, whose half edges are fwd (a -> c) and bwd (c -> a; either -1
        where none), half edges along their edges a -> z, a -> c, c -> w,
        and the mask where they exist."""
        C, T = self.mesh.cont_of, self._target
        z, w = T(C[bwd]), T(C[fwd])
        return (np.stack([z, a, c, w], axis=1),
                np.stack([C[bwd], fwd, C[fwd]], axis=1), (z >= 0) & (w >= 0))

    def _spline_derivs(self, a, c, fwd, bwd):
        """(first, second, found) at a[i] of the section curve a -> c (fwd,
        bwd as for _windows).  The curve is the segment [a, c] where its
        window exists, else the opposite segment through a; both give the
        same values at a up to the family continuity.  Zero where neither
        exists."""
        windows, halves, direct = self._windows(a, c, fwd, bwd)
        away = self.mesh.cont_of[bwd]   # a -> z, continuing c -> a past a
        opposite, opposite_halves, beyond = self._windows(
            a, windows[:, 0], away, self.mesh.twin_of[away])
        found = direct | beyond
        first, second = np.zeros((2, len(a), 3))
        if found.any():
            poly = self._segments(
                np.where(direct[:, None], windows, opposite)[found],
                np.where(direct[:, None], halves, opposite_halves)[found])
            first[found] = poly.eval(0.0, 1) \
                * np.where(direct[found], 1.0, -1.0)[:, None]
            second[found] = poly.eval(0.0, 2)
        return first, second, found

    def _tangents(self, vertices, fan, ds):
        """Bessel estimates (chords where degenerate) along every edge of
        the fans, one call per valence."""
        P = self.mesh.vertices
        valence = (fan >= 0).sum(axis=1)
        out = np.zeros(fan.shape + (3,))
        for n in np.unique(valence).tolist():
            rows = np.flatnonzero(valence == n)
            out[rows, :n] = net.tangent_with_fallback(
                P[vertices[rows], None], P[fan[rows, None, :n]],
                ds[rows, None, :n], np.arange(n))
        return out

    def _tangents_toward(self, c, v):
        """Estimates at c[i] of the derivative toward v[i]: the Bessel
        estimate, or the chord where c has valence < 3 (phantom corners)."""
        P = self.mesh.vertices
        cs, row = np.unique(c, return_inverse=True)
        fan, _, _, ds = self._fans(cs)
        col = np.argmax(fan[row] == v[:, None], axis=1)
        chord = (P[v] - P[c]) / ds[row, col, None]
        return np.where(((fan >= 0).sum(axis=1) >= 3)[row, None],
                        self._tangents(cs, fan, ds)[row, col], chord)

    def _vertex_fits(self, vertices):
        """_Fits of the guide (G2) or plane (G1) fit at each vertex."""
        P = self.mesh.vertices
        fan, star, into, ds = self._fans(vertices)
        valence = (fan >= 0).sum(axis=1)
        if (valence < 3).any():
            raise ConstructionError(
                f"vertex {vertices[np.argmax(valence < 3)]} has valence < 3")
        tans = self._tangents(vertices, fan, ds)
        groups = [(n, np.flatnonzero(valence == n))
                  for n in np.unique(valence).tolist()]
        if self.options.mode == "g1":
            normal = np.empty((len(vertices), 3))
            for n, rows in groups:
                normal[rows] = net.fit_common_plane(tans[rows, :n])
            return _Fits(fan, net.project_to_plane(tans, normal[:, None]),
                         np.zeros_like(tans), normal)

        # derivatives at each neighbour toward the vertex
        at = fan >= 0
        toward = np.broadcast_to(vertices[:, None], fan.shape)[at]
        ti0, _, found = self._spline_derivs(fan[at], toward, into[at],
                                            star[at])
        if not found.all():
            ti0[~found] = self._tangents_toward(fan[at][~found],
                                                toward[~found])
        back = np.zeros(fan.shape + (3,))
        back[at] = ti0
        p0 = P[vertices]
        samples = np.stack(net.guide_points(p0[:, None], P[fan], ds, tans,
                                            back), axis=2)
        # per valence, the planar angles and the fit; of each fit's
        # coefficients the first five, all that the jets at the vertex read
        etas = np.zeros(fan.shape)
        coeffs = np.empty((len(vertices), 5, 3))
        for n, rows in groups:
            etas[rows, :n] = eta = net.planar_angles(tans[rows, :n])
            r = ds[rows, :n, None] * np.array([0.25, 0.5])
            xys = np.stack([r * np.cos(eta)[..., None],
                            r * np.sin(eta)[..., None]], axis=-1)
            coeffs[rows] = net.fit_guide_polynomial(
                p0[rows], samples[rows, :n].reshape(len(rows), -1, 3),
                xys.reshape(len(rows), -1, 2))[:, :5]
        guide = np.moveaxis(coeffs * np.array([1.0, 1, 2, 1, 2])[:, None],
                            1, 0)
        normal = np.cross(guide[0], guide[1])
        norm = net._norm(normal)
        if (norm == 0.0).any():
            raise ConstructionError("guide polynomial has a degenerate frame")
        t1, t2 = net.directional_derivs(guide[:, :, None], etas)
        return _Fits(fan, t1, t2, normal / norm[:, None], guide)

    # -- phases ---------------------------------------------------------------
    def _grid_corners(self, vertices):
        """For each vertex, its first outgoing half edge (in star order)
        whose face has a grid patch, or -1."""
        star, _ = self.mesh.fans(vertices)
        grid = self.grid_slot[star >> 2] >= 0
        return np.where(grid.any(axis=1),
                        star[np.arange(len(vertices)), grid.argmax(axis=1)],
                        -1)

    def _corner_frames(self, corner, fits, fit_rows):
        """(unit normals, principal curvature tuple or None in G1) at
        vertices whose grid corner is corner[i] (a half edge, -1 for none),
        else from row fit_rows[i] of the vertex fits."""
        grid = corner >= 0
        f = corner[grid] >> 2
        ui, vi = _CORNER_UV[(corner[grid] - self.surf.anchors[f]) % 4].T
        # (q, r): the r-th u-derivative of the q-th v-derivative, at end ui
        # of side v0 or v1; su, sv, and in G2 suu, suv, svv
        jets = [(0, 1), (1, 0)] + ([(0, 2), (1, 1), (2, 0)] if self.k == 2
                                   else [])
        slots = self.grid_slot[f]
        patches = self.surf.grid_patches
        table = patches.side_jets(slots, vi, jets,
                                  ui * patches.intervals[slots, vi, 1])
        rows = fit_rows[~grid]
        if self.options.mode == "g1":
            normal = np.empty((len(corner), 3))
            n = np.cross(table[0], table[1])
            norm = net._norm(n)
            if (norm == 0.0).any():
                raise ConstructionError("degenerate grid corner frame")
            normal[grid] = n / norm[:, None]
            if len(rows):
                normal[~grid] = fits.normal[rows]
            return normal, None
        # su, sv, suu, suv, svv
        frames = np.empty((5, len(corner), 3))
        frames[:, grid] = table
        if len(rows):
            frames[:, ~grid] = fits.guide[:, rows]
        curvature = net.principal_curvatures(*frames)
        return curvature[4], curvature

    @staticmethod
    def _fit_derivs(fits, fitted, v, c):
        """First and second derivatives of the vertex fits at v[i] toward
        their fan neighbour c[i]."""
        row = np.searchsorted(fitted, v)
        col = np.argmax(fits.fan[row] == c[:, None], axis=1)
        return fits.first[row, col], fits.second[row, col]

    def _face_normals(self, faces):
        p = self.mesh.vertices[self.mesh.faces[faces]]
        n = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 1])
        norm = net._norm(n)[:, None]
        return n / np.where(norm > 0.0, norm, 1.0)

    def _mid_normals(self, hes):
        """Mean unit normal of the faces on both sides of each half edge (of
        its own face where it has no twin), and where it is long enough to
        use."""
        twin = self.mesh.twin_of[hes]
        nm = self._face_normals(hes >> 2)
        two = twin >= 0
        nm[two] = (nm[two] + self._face_normals(twin[two] >> 2)) / 2.0
        norm = net._norm(nm)
        ok = norm > 1e-12
        nm[ok] /= norm[ok, None]
        return nm, ok

    def _cross_fields(self, gamma, d, frames, nm, targets):
        """Coefficients of chi (and of xi in G2) over the curves gamma of
        network sides, in face orientation; frames are the (normal,
        curvature) at both ends, nm None for linear ruled directions."""
        (n_a, k_a), (n_b, k_b) = frames
        ruled = net.make_ruled_direction(gamma, d, n_a, n_b,
                                         self.options.r_degree, nm,
                                         curv0=k_a, curv1=k_b)
        chi, a, b = net.build_cross_field_chi(gamma, d, ruled, *targets[1])
        fields = [chi.coeffs]
        if self.k == 2:
            w0 = net.normal_curvature_vector(ruled.eval(0.0), *k_a)
            w1 = net.normal_curvature_vector(ruled.eval(d), *k_b)
            w = net.interpolant("linear", [w0, w1], d)
            fields.append(net.build_cross_field_xi(
                gamma, d, a, b, ruled, w, *targets[2]).coeffs)
        return fields

    def build(self, faces):
        """The GregoryPatchSet of the extraordinary faces, in order.

        Side c lies along half edge anchor + c and runs with it for c = 0, 1,
        against it for c = 2, 3.  A network side's corner targets are the
        sides (3, 1) for even c and (0, 2) for odd c, read at their ends for
        c = 1, 2 and at their starts for c = 0, 3.
        """
        mesh, surf, k = self.mesh, self.surf, self.k
        P, fam, patches = mesh.vertices, self.options.family, surf.grid_patches
        faces = np.asarray(faces)
        if not len(faces):
            # the empty set, without the numpy calls of the phases; it
            # evaluates nothing, so it takes order 1, whose constant tables
            # cost the fewest calls
            shape = (0, 4, 2)
            return GregoryPatchSet(np.zeros((0, 4, 3)), np.zeros((0, 4)),
                                   np.zeros(shape + (1, 3)),
                                   np.zeros(shape, bool), np.zeros(shape),
                                   np.zeros((0, 4, 2)), patches, faces)
        hes = surf.halfedges(faces)
        corners = mesh.origin_of[hes]
        start, end = (corners[:, _SIDE_CORNERS[:, e]] for e in (0, 1))

        # 1. sides and curves.  A side is sampled from the grid patch
        # across its half edge, as that patch's side n, where there is one
        twin = mesh.twin_of[hes]
        slot = self.grid_slot[twin >> 2]
        sampled, network = slot >= 0, slot < 0
        n = (twin - surf.anchors[twin >> 2]) % 4
        # side c runs along its half edge for c = 0, 1 and the neighbour's
        # along the twin for n = 0, 1; chi points into this face for c = 0,
        # 3 and the neighbour's cross derivative into the neighbour for
        # n = 0, 3
        same_way = (np.arange(4) < 2) == (n < 2)
        same_cross = np.isin(np.arange(4), (0, 3)) == np.isin(n, (0, 3))
        # one record per network edge lo -> hi
        side_lo = np.minimum(start, end)[network]
        side_hi = np.maximum(start, end)[network]
        _, first, rec = np.unique(side_lo * mesh.num_vertices + side_hi,
                                  return_index=True, return_inverse=True)
        lo, hi, h = side_lo[first], side_hi[first], hes[network][first]
        own = mesh.origin_of[h] == lo
        fwd = np.where(own, h, mesh.twin_of[h])
        bwd = np.where(own, mesh.twin_of[h], h)
        d = self.params[h]
        windows, halves, window = self._windows(lo, hi, fwd, bwd)
        # the ends of the Hermite curves, toward each other
        her = ~window
        a = np.concatenate([lo[her], hi[her]])
        b = np.concatenate([hi[her], lo[her]])
        m, s, found = self._spline_derivs(
            a, b, np.concatenate([fwd[her], bwd[her]]),
            np.concatenate([bwd[her], fwd[her]]))

        # 2. corner frames at the network sides' ends; the vertex fits
        # serve where there is no grid corner, and the Hermite curves where
        # there is no section curve
        ends = np.unique(np.concatenate([start[network], end[network]]))
        corner = self._grid_corners(ends)
        fitted = np.union1d(ends[corner < 0], a[~found])
        fits = self._vertex_fits(fitted) if len(fitted) else None
        if not found.all():
            m[~found], s[~found] = self._fit_derivs(fits, fitted, a[~found],
                                                    b[~found])
        gamma = np.zeros((len(lo), max(fam.degree, 2 * k + 1) + 1, 3))
        if window.any():
            gamma[window, :fam.degree + 1] = self._segments(
                windows[window], halves[window]).coeffs
        if her.any():
            (m0, m1), (s0, s1) = np.split(m, 2), np.split(s, 2)
            curve = net.build_missing_boundary_curve(
                P[lo[her]], P[hi[her]], d[her], m0, -m1,
                *((s0, s1) if k == 2 else ()))
            gamma[her, :curve.degree + 1] = curve.coeffs
        normal, curvature = self._corner_frames(
            corner, fits, np.searchsorted(fitted, ends))

        # every side's curve at its start and end, orders 1..k (those the
        # corner targets read), as the side reads it: a reversed side swaps
        # the ends and flips odd orders
        sign = (-1.0) ** np.arange(1, k + 1)[:, None]
        end_jets = np.empty(hes.shape + (2, k, 3))
        grid_side = _SIDE_INDEX_OF_CORNER[n[sampled]]
        if sampled.any():
            slots, sides = np.repeat(slot[sampled], 2), np.repeat(grid_side, 2)
            table = patches.side_jets(
                slots, sides, [(0, r) for r in range(1, k + 1)],
                np.tile([0, 1], len(grid_side))
                * patches.intervals[slots, sides, 1]).reshape(k, -1, 2, 3)
            table = table.transpose(1, 2, 0, 3)
            end_jets[sampled] = np.where(
                same_way[sampled][:, None, None, None],
                sign * table[:, ::-1], table)
        curves = net.VecPoly(gamma[:, None])
        x = np.stack([np.zeros_like(d), d], axis=1)
        table = np.stack([curves.eval(x, r) for r in range(1, k + 1)],
                         axis=2)[rec]
        reverse = lo[rec] != start[network]
        end_jets[network] = np.where(reverse[:, None, None, None],
                                     sign * table[:, ::-1], table)

        # 3. network sides, over their curves in face orientation
        f, c = np.nonzero(network)
        d_side = d[rec]
        forward = net.VecPoly(gamma[rec])
        oriented = np.where(reverse[:, None, None],
                            forward.reversed(d_side).coeffs, forward.coeffs)
        at = [np.searchsorted(ends, v[network]) for v in (start, end)]
        # the corner targets: the first (r = 1) and second x-derivatives of
        # the neighbouring sides at their starts or ends
        e = np.isin(c, (1, 2)).astype(int)
        nbrs = (np.where(c % 2, 0, 3), np.where(c % 2, 2, 1))
        targets = {r: [end_jets[f, nb, e, r - 1] for nb in nbrs]
                   for r in range(1, k + 1)}
        if self.options.r_degree == 2:
            nm, quadratic = self._mid_normals(hes[network])
        else:
            nm, quadratic = None, np.zeros(len(f), bool)
        parts = []
        for sel, mid in ((quadratic, nm), (~quadratic, None)):
            if not sel.any():
                continue
            frames = [(normal[i][sel], None if curvature is None
                       else tuple(x[i][sel] for x in curvature))
                      for i in at]
            parts.append((sel, self._cross_fields(
                net.VecPoly(oriented[sel]), d_side[sel], frames,
                None if mid is None else mid[sel],
                {r: [t[sel] for t in ts] for r, ts in targets.items()})))

        # 4. the patch set's arrays.  A sampled side reads all orders of the
        # grid side across it, a network side its record's curve and its own
        # cross fields, which are in face orientation
        count = len(faces)
        lengths = np.empty((count, 4))
        lengths[sampled] = patches.intervals[slot[sampled], grid_side, 1]
        lengths[network] = d_side
        width = max([gamma.shape[1]] + [q.shape[1] for _, part in parts
                                        for q in part])
        coeffs = np.zeros((count, 4, k + 1, width, 3))
        coeffs[f, c, 0, :gamma.shape[1]] = forward.coeffs
        for sel, part in parts:
            for q, table in enumerate(part, 1):
                coeffs[f[sel], c[sel], q, :table.shape[1]] = table
        flip = np.zeros((count, 4, k + 1), bool)
        flip[sampled] = same_way[sampled, None]
        flip[f, c, 0] = reverse
        sign = np.ones((count, 4, k + 1), np.int8)
        sign[sampled] = np.where(same_cross[sampled, None]
                                 & (np.arange(k + 1) % 2 == 1), -1, 1)
        grid = np.full((count, 4, 2), -1)
        grid[sampled] = np.stack([slot[sampled], grid_side], axis=1)
        return GregoryPatchSet(P[corners], lengths, coeffs, flip, sign, grid,
                               patches, faces)


# -- tessellation -----------------------------------------------------------------

@dataclass
class TriangleMesh:
    positions: np.ndarray
    triangles: np.ndarray
    channels: dict = field(default_factory=dict)
    src_face: np.ndarray = None
    src_uv: np.ndarray = None


def tessellate(surface, n=16):
    """Sample every patch on an (n+1)^2 grid and triangulate.

    Samples are welded by mesh topology (_sample_keys): a corner sample is
    its mesh vertex, a boundary sample a point of its edge, and an interior
    sample a point of its face.  Vertices are numbered in first-seen order
    (faces ascending, u running fastest) and each is evaluated once, at its
    first sample.  A vertex that evaluates to a non-finite coordinate, or to
    one of 2^62 tolerances (WELD_REL_TOL of the mesh size) or more, raises
    ConstructionError naming its face.
    """
    if n < 1:
        raise ValueError("need at least one sample per edge")
    bbox = surface.mesh.vertices.max(axis=0) - surface.mesh.vertices.min(axis=0)
    tol = WELD_REL_TOL * max(float(np.linalg.norm(bbox)), 1e-300)

    t = np.arange(n + 1) / n
    u, v = (g.ravel() for g in np.meshgrid(t, t))
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # [j, i]
    a, b, c, d = idx[:-1, :-1], idx[:-1, 1:], idx[1:, 1:], idx[1:, :-1]
    cells = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)

    faces = np.asarray(surface.real_faces, int)
    keep, vertex = _first_seen(_sample_keys(surface, faces, n))
    src_face = faces[keep // len(u)]
    src_uv = np.stack([u, v], axis=1)[keep % len(u)]
    positions = surface.eval(src_face, src_uv[:, 0], src_uv[:, 1])
    bad = ~(np.abs(positions).max(axis=1) / tol < 2.0 ** 62)
    if bad.any():
        at = np.argmax(bad)
        raise ConstructionError(
            f"face {src_face[at]} evaluates to {positions[at].tolist()}, "
            f"which cannot be welded at tolerance {tol:.3g}")
    # take, unlike [:, cells], returns C order and reshapes without a copy
    triangles = np.take(vertex.reshape(len(faces), -1), cells,
                        axis=1).reshape(-1, 3)
    return TriangleMesh(positions=positions, triangles=triangles,
                        src_face=src_face, src_uv=src_uv)


def _sample_keys(surface, faces, n):
    """int64 keys of the (n+1)^2 template samples of each of faces (u
    running fastest), equal where two samples are one point of the mesh
    topology; one flat array, face by face.

    Keys count the mesh vertices, then n - 1 samples per half edge, then
    (n - 1)^2 per face.  Corner c is the origin of half edge anchor + c,
    and side c runs along that half edge; boundary sample k of a half edge
    is sample k of the lower half edge of its twin pair, or n - k of it
    when the half edge is the higher one.
    """
    mesh, m = surface.mesh, n - 1
    he = surface.halfedges(faces)
    twin = mesh.twin_of[he]
    higher = (twin >= 0) & (twin < he)
    k = np.arange(m)
    # (F, 4, m): samples 1..n-1 along each side's half edge
    side = mesh.num_vertices + m * np.where(higher, twin, he)[..., None] \
        + np.where(higher[..., None], m - 1 - k, k)
    keys = np.empty((len(faces), n + 1, n + 1), np.int64)   # [f, j, i]
    keys[:, [0, 0, n, n], [0, n, n, 0]] = mesh.origin_of[he]
    keys[:, 0, 1:-1] = side[:, 0]
    keys[:, 1:-1, n] = side[:, 1]
    keys[:, n, 1:-1] = side[:, 2, ::-1]
    keys[:, 1:-1, 0] = side[:, 3, ::-1]
    interior = mesh.num_vertices + m * mesh.num_halfedges + m * m * faces
    np.add(interior[:, None, None], np.arange(m * m).reshape(m, m),
           out=keys[:, 1:-1, 1:-1])
    return keys.ravel()


def _first_seen(keys):
    """(first, index) of a 1-D key array: the position of each distinct
    key's first occurrence, in the order of those positions, and each key's
    row in first."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


# the complex steps (du, dv) / h of the analysis: along u, along v, along both
_STEPS = np.array([(1j, 0), (0, 1j), (1j, 1j)])


def _step_partials(surface, faces, u, v, p):
    """(su, sv, suu, suv, svv), each (N, 3), at the points (faces, u, v) of
    1-D arrays with positions p, by complex steps of size h = FD_STEP, all
    evaluated in one surface.eval call.

    With E(a, b) = S(u + iah, v + ibh): su = Im E(1, 0) / h and suu = 2 (p -
    Re E(1, 0)) / h^2, likewise for v, and 2 (p - Re E(1, 1)) / h^2 = suu +
    2 suv + svv, each with an error of order h^2.
    """
    h = FD_STEP
    du, dv = _STEPS.T[:, :, None] * h
    e = surface.eval(faces, u + du, v + dv)
    suu, svv, both = 2.0 * (p - e.real) / (h * h)
    return (e[0].imag / h, e[1].imag / h, suu, (both - suu - svv) / 2.0,
            svv)


def _unit_normals(su, sv):
    """Unit normals of (..., 3) tangent pairs, and the mask of the pairs
    whose cross product is too short (< 1e-12) to normalize."""
    n = np.cross(su, sv)
    norm = np.linalg.norm(n, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return n / norm[..., None], norm < 1e-12


def _dot(a, b):
    return np.einsum("...d,...d->...", a, b)


def analysis_fields(surface, tri):
    """Per-vertex mean curvature and isophote value channels.

    Partial derivatives come from complex steps of size FD_STEP (see
    _step_partials): three complex points per vertex, in the patch domain
    or not, with the tessellated position as the real centre.  The vertices
    of grid faces and those of Coons-Gregory faces make separate batches of
    EVAL_CHUNK // 4, so each batch is one pass of one patch set.  Samples
    with a degenerate normal are flagged NaN.
    """
    faces = np.asarray(tri.src_face, int)
    u, v = np.asarray(tri.src_uv, float).reshape(-1, 2).T
    gregory = surface._slot[1, faces] >= 0
    order = np.argsort(gregory, kind="stable")
    faces, u, v, p = faces[order], u[order], v[order], tri.positions[order]
    grid, step = len(faces) - int(gregory.sum()), EVAL_CHUNK // 4
    starts = [*range(0, grid, step), *range(grid, len(faces), step)]
    mean_curv = np.full(len(tri.positions), np.nan)
    isophote = np.full(len(tri.positions), np.nan)
    degenerate = 0
    for lo, hi in zip(starts, starts[1:] + [len(faces)]):
        su, sv, suu, suv, svv = _step_partials(surface, faces[lo:hi],
                                               u[lo:hi], v[lo:hi], p[lo:hi])
        nrm, bad = _unit_normals(su, sv)
        E, F, G = _dot(su, su), _dot(su, sv), _dot(sv, sv)
        L, M, N = _dot(suu, nrm), _dot(suv, nrm), _dot(svv, nrm)
        denom = E * G - F * F
        bad |= np.abs(denom) < 1e-300
        degenerate += int(bad.sum())
        with np.errstate(invalid="ignore", divide="ignore"):
            H = (E * N - 2.0 * F * M + G * L) / (2.0 * denom)
        good = order[lo:hi][~bad]
        mean_curv[good] = H[~bad]
        isophote[good] = (nrm @ LIGHT_DIRECTION)[~bad]
    tri.channels["mean_curvature"] = mean_curv
    tri.channels["isophote"] = isophote
    return {"degenerate_samples": degenerate}


# -- continuity audit ---------------------------------------------------------------


def _interior_shared_edges(surface):
    """(h, twin) rows, shape (E, 2), with h < twin for every edge between
    two real faces, in half-edge order."""
    mesh = surface.mesh
    h = np.arange(mesh.num_halfedges)
    t = mesh.twin_of[h]   # -1 on the boundary
    real = mesh.real_face_count
    keep = (t > h) & (mesh.he_face(h) < real) & (mesh.he_face(t) < real)
    return np.stack([h[keep], t[keep]], axis=1)


def _fmax(values, axis):
    """Largest value along axis, 0 for none; NaN values are skipped."""
    return np.fmax.reduce(values, axis=axis, initial=0.0)


def _seam_table(surface, hes, ts, k):
    """Evaluate the samples of both sides of the seams hes (E, 2): side 0 at
    the fractions ts along hes[:, 0], side 1 at 1 - ts along hes[:, 1].
    Grid sides take their positions and tangent frames (the boundary
    curve's x-derivative and the order-1 cross field) from one side_jets
    pass over rows of samples, with every cross order at the real cross
    coordinate; Gregory sides from one complex surface.eval call at E1 =
    S(P + i eps a) and E2 = S(P + i eps a + i K eps c), a and c the unit
    (u, v) steps along and across the side, eps = AUDIT_STEP and K = 2^10:
    Re E1 is the position, Im E1 / eps and Im (E2 - E1) / (K eps) the
    partials, exact to round-off.  A pass then reads each sample's side
    fields once, and K keeps the difference at full precision.  Returns the
    positions (E, 2, S, 3), the unit normals and their degenerate mask, and
    for the A seams between two grid patches (the audited ones) the inward
    cross derivatives {r: (A, 2, S - 2, 3)} and the blend values (A, 2,
    S - 2) at the interior samples."""
    faces = surface.mesh.he_face(hes)
    grid = surface._slot[0, faces] >= 0
    u, v = surface._edge_uv(faces[..., None], hes[..., None],
                            np.stack([ts, 1.0 - ts]))
    pos, normal = np.empty((2,) + u.shape + (3,))
    degenerate = np.empty(u.shape, bool)
    if not grid.all():
        eps, K = AUDIT_STEP, 2.0 ** 10
        odd = ((hes - surface.anchors[faces]) % 2)[~grid, None]   # along v
        step = 1j * eps * np.stack([1 - odd, odd])   # (du, dv) along
        first = np.stack([u[~grid], v[~grid]]) + step
        e = surface.eval(faces[~grid, None],
                         *np.stack([first, first + K * step[::-1]], axis=1))
        pos[~grid] = e[0].real
        along, across = e[0].imag / eps, (e[1].imag - e[0].imag) / (K * eps)
        # su x sv: along x across, negated on a side along v
        normal[~grid], degenerate[~grid] = _unit_normals(
            (1 - 2 * odd[..., None]) * along, across)
    slots, sides, x, inward, blend = _cross_frame(
        surface, faces[grid][:, None], hes[grid][:, None], u[grid], v[grid])
    # position, tangent and cross fields 1..k: one window gather per side
    pos[grid], along, *fields = surface.grid_patches.side_jets(
        slots[:, 0], sides[:, 0],
        [(0, 0), (0, 1)] + [(q, 0) for q in range(1, k + 1)], x)
    normal[grid], degenerate[grid] = _unit_normals(along, fields[0])
    # the audited seams' sides among the grid sides, at the interior samples
    inner = (np.cumsum(grid).reshape(grid.shape)[grid.all(axis=1)] - 1,
             slice(1, -1))
    cross = {r: ((inward * blend)[inner] ** r)[..., None] * fields[r - 1][inner]
             for r in range(1, k + 1)}
    return pos, normal, degenerate, cross, blend[inner]


def _measure_seams(surface, hes, ts, k):
    """(position gaps, normal angles, {r: (largest delta residual
    numerator, largest |d_r|)}) of the seams hes; the last for the seams
    between two grid patches only."""
    pos, normal, degenerate, cross, blend = _seam_table(surface, hes, ts, k)
    gap = _fmax(np.linalg.norm(pos[:, 0] - pos[:, 1], axis=-1), 1)
    both = ~(degenerate[:, 0] | degenerate[:, 1])
    n1, n2 = normal[:, 0], normal[:, 1]
    # arctan2 resolves small angles, where arccos |n1.n2| floors at 1.5e-6 deg
    angle = np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=-1),
                       np.abs(_dot(n1, n2)))
    angle = _fmax(np.where(both, np.degrees(angle), 0.0), 1)
    ratio = blend[:, 0] / blend[:, 1]
    residual = {}
    for r in range(1, k + 1):
        d1v = cross[r][:, 0]
        # orient both derivatives the same way: odd orders flip
        d2v = cross[r][:, 1] if r % 2 == 0 else -cross[r][:, 1]
        num = np.linalg.norm(d1v - (ratio ** r)[..., None] * d2v, axis=-1)
        residual[r] = (_fmax(num, 1), _fmax(np.linalg.norm(d1v, axis=-1), 1))
    return gap, angle, residual


def continuity_report(surface, samples=16):
    """Sampled gaps across every interior shared edge.

    Reports position gaps and tangent-plane angles for all edges; for pairs
    of grid patches it additionally checks that one-sided cross derivatives
    match after scaling by the blend-function ratio, through the family
    continuity order, relative to the surface's largest derivative of that
    order.  Normals are exact to round-off: read from the side fields on
    grid sides, and on Gregory sides from two complex points a sample that
    share a step of AUDIT_STEP along the side, the second stepping 2^10
    times that across it too (see _seam_table).  The samples of both sides
    of EVAL_CHUNK // (2 samples) seams at a time form one table, read by
    one GridPatchSet.side_jets pass and one surface.eval call, and reduced
    per seam.  samples below 3 leave no interior sample to audit and raise
    ValueError.
    """
    if samples < 3:
        raise ValueError(f"the continuity report needs at least 3 samples "
                         f"per edge, got {samples}")
    mesh = surface.mesh
    k = surface.options.family.continuity
    ts = np.linspace(0.0, 1.0, samples)
    hes = _interior_shared_edges(surface)
    faces = mesh.he_face(hes)
    regular = surface._slot[0, faces] >= 0
    audit = regular.all(axis=1)
    gap, angle = np.zeros(len(hes)), np.zeros(len(hes))
    residual = {r: np.zeros(audit.sum()) for r in range(1, k + 1)}
    top = dict.fromkeys(residual, 1e-12)
    audited = np.cumsum(audit) - audit   # row of each seam among the audited
    step = max(1, EVAL_CHUNK // (2 * samples))
    for lo in range(0, len(hes), step):
        at = slice(lo, lo + step)
        gap[at], angle[at], res = _measure_seams(surface, hes[at], ts, k)
        for r, (num, d_max) in res.items():
            residual[r][audited[at][audit[at]]] = num
            top[r] = max(top[r], _fmax(d_max, 0))
    # relative to the largest derivative of the whole surface, so that
    # round-off on a seam whose derivative nearly vanishes stays round-off
    residual = {str(r): (values / top[r]).tolist()
                for r, values in residual.items()}
    edges = [{"faces": pair,
              "kinds": ["regular" if r else "gregory" for r in reg],
              "position_gap": g, "normal_angle_deg": a,
              "delta_residual": {r: res[row] for r, res in residual.items()}
              if aud else {}}
             for pair, reg, g, a, aud, row
             in zip(faces.tolist(), regular.tolist(), gap.tolist(),
                    angle.tolist(), audit.tolist(), audited.tolist())]

    def stats(arr):
        if not len(arr):
            return {"max": 0.0, "p50": 0.0, "p90": 0.0}
        p50, p90 = np.percentile(arr, [50, 90])
        return {"max": float(arr.max()), "p50": float(p50),
                "p90": float(p90)}

    return {"edges": edges,
            "summary": {"position_gap": stats(gap),
                        "normal_angle_deg": stats(angle),
                        "edge_count": len(edges)}}


def _cross_frame(surface, f, he, u, v):
    """(grid slots, side indices, side-local x, inward sign, blend values)
    at boundary points (u, v) of regular faces f reached along half edges
    he; the slots, sides and signs take the shape of f and he, x and the
    blends that of all four.  The r-th inward cross derivative there is
    (inward * blend) ** r times the side's order-r field at x."""
    c = (np.asarray(he) - surface.anchors[f]) % 4
    # sides v0, v1 (even c) run along u and are crossed along v
    inward = np.where((c == 0) | (c == 3), 1, -1)
    slots, sides = surface._slot[0, f], _SIDE_INDEX_OF_CORNER[c]
    t = np.where(c % 2, v, u)
    patches = surface.grid_patches
    return (slots, sides, t * patches.intervals[slots, sides, 1], inward,
            patches.side_blend(slots, sides, t))


# -- exports --------------------------------------------------------------------------

def export_ply(tri, path, channels=()):
    """ASCII PLY with one float property per requested channel."""
    chans = [(name, tri.channels[name]) for name in channels]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(tri.positions)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        for name, _ in chans:
            fh.write(f"property float {name}\n")
        fh.write(f"element face {len(tri.triangles)}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("end_header\n")
        rows = np.column_stack([tri.positions] + [arr for _, arr in chans])
        template = " ".join(["%.9g"] * rows.shape[1]) + "\n"
        fh.write(template * len(rows) % tuple(rows.ravel().tolist()))
        fh.write("3 %d %d %d\n" * len(tri.triangles)
                 % tuple(np.ravel(tri.triangles).tolist()))


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        # without indent, json.dumps runs the C encoder
        fh.write(json.dumps(report, sort_keys=True) + "\n")
