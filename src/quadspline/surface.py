"""Composite surface pipeline: classify, patch, fill, tessellate, audit.

Regular faces get grid patches; the remaining faces get Coons-Gregory patches
whose boundary data is sampled from adjacent grid patches where one exists
and generated from the curve network otherwise.  Both incident faces of a
shared curve consume the same curve record, so the composite evaluation is
watertight by construction.

The patches of each kind live in one set (patch.GridPatchSet,
gregory.GregoryPatchSet).  CompositeSurface.eval takes arrays of (face, u, v)
and makes one call per set; tessellation, the analysis channels and the
continuity audit each build one table of (face, u, v) for the whole surface
and evaluate it through that call, in bounded chunks.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import mesh as qm
from . import network as net
from .errors import ConstructionError
from .gregory import (_SIDE_CORNERS, BoundaryData, GregoryPatch,
                      GregoryPatchSet, Side)
from .patch import EVAL_CHUNK, SIDES, GridField, GridPatchSet, RegularPatch
from .splines import D5C2P2S4, family as family_by_name, segment_coefficients

LIGHT_DIRECTION = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
FD_STEP = 1e-4
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
class _EdgeRecord:
    a: int
    b: int
    d: float
    gamma: net.VecPoly


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
        self.anchors = {}
        self.edge_records = {}
        self.grid_patches = None
        self.gregory_patches = None

    @property
    def real_faces(self):
        return range(self.mesh.real_face_count)

    def patch(self, f):
        return self.regular.get(f) or self.gregory[f]

    def _index(self):
        """Per-face tables: slot in grid_patches and in gregory_patches (-1
        where the face has none), and anchor half edge."""
        self._slot = np.full((2, self.mesh.num_faces), -1)
        for kind, views in enumerate((self.regular, self.gregory)):
            for f, view in views.items():
                self._slot[kind, f] = view.slot
        self._anchor = np.full(self.mesh.num_faces, -1)
        self._anchor[list(self.anchors)] = list(self.anchors.values())

    def eval(self, faces, u, v):
        """Positions at the points (faces, u, v) of equal-shaped arrays, with
        one evaluation call per patch kind; shape (..., 3)."""
        faces, u, v = np.broadcast_arrays(np.asarray(faces, int),
                                          np.asarray(u, float),
                                          np.asarray(v, float))
        shape = faces.shape
        faces, u, v = faces.ravel(), u.ravel(), v.ravel()
        slots = self._slot[:, faces]
        if (slots < 0).all(axis=0).any():
            f = faces[np.argmax((slots < 0).all(axis=0))]
            raise KeyError(f"face {f} has no patch")
        out = np.empty((len(faces), 3))
        for view, patches, kind_slots in zip(
                (RegularPatch.view, GregoryPatch.view),
                (self.grid_patches, self.gregory_patches), slots):
            at = kind_slots >= 0
            if at.any():
                out[at] = view(patches, kind_slots[at]).eval(u[at], v[at])
        return out.reshape(shape + (3,))

    def _edge_uv(self, f, he, t):
        """(u, v) at the fractions t along half edges he of faces f; f and
        he are scalars or arrays that broadcast against t."""
        t = np.asarray(t, float)
        zero, one = np.zeros_like(t), np.ones_like(t)
        c = (np.asarray(he) - self._anchor[f]) % 4
        return (np.choose(c, (t, one, 1.0 - t, zero)),
                np.choose(c, (zero, t, one, 1.0 - t)))


def build_surface(mesh, options=None, params=None):
    """Run the full pipeline on a connected quad mesh."""
    options = options or BuildOptions()
    if not mesh.has_connectivity:
        mesh.build_connectivity()
    if params is None:
        params = qm.assign_edge_params(mesh, options.param_method,
                                       options.alpha)
    mesh, params = qm.extrapolate_boundary_layer(mesh, params)

    surf = CompositeSurface(mesh, params, options)
    grids, extraordinary = qm.classify_faces(mesh, options.family.support,
                                             params=params)
    surf.grid_patches = GridPatchSet(grids.values(), options.family)
    for slot, (f, grid) in enumerate(grids.items()):
        surf.regular[f] = RegularPatch.view(surf.grid_patches, slot)
        surf.anchors[f] = grid.anchor

    datas = _GregoryBuilder(surf).build(extraordinary) if extraordinary \
        else []
    surf.gregory_patches = GregoryPatchSet(datas)
    for slot, f in enumerate(extraordinary):
        surf.gregory[f] = GregoryPatch.view(surf.gregory_patches, slot)
    surf._index()
    return surf


class _GregoryBuilder:
    """Assembles the BoundaryData of all extraordinary faces in array passes,
    each over every face at once:

    1. Sides and curves.  Side c of a face lies along half edge anchor + c.
       It is sampled from the grid patch across its edge where there is
       one, and generated from the curve network otherwise.  Each network
       edge gets one boundary curve: the section-curve segment where its
       4-point window exists, else a Hermite curve through endpoint
       derivatives read from neighbouring segments or from the vertex fit.
    2. Corner frames.  The unit normal (and in G2 the principal curvatures)
       at each network side's ends, read at a grid patch corner of the
       vertex where there is one, else from the vertex's guide fit (G2) or
       plane fit (G1).  The guide fit, one least-squares system per
       vertex, is the only step taken one vertex at a time.
    3. Network sides.  The ruled directions and cross fields of every
       network side, matched to corner targets read from the neighbouring
       sides.
    4. Corner check, by BoundaryData.many over all faces.
    """

    def __init__(self, surf):
        self.surf = surf
        self.mesh = surf.mesh
        self.params = surf.params
        self.options = surf.options
        self.k = surf.options.k
        # grid slot and anchor of each face, -1 (also at index -1) for none
        self.grid_slot = np.full(self.mesh.num_faces + 1, -1)
        self.grid_anchor = self.grid_slot.copy()
        faces = list(surf.regular)
        self.grid_slot[faces] = [surf.regular[f].slot for f in faces]
        self.grid_anchor[faces] = [surf.anchors[f] for f in faces]

    # -- mesh lookups ---------------------------------------------------------
    def _target(self, h):
        return self.mesh.origin_of[self.mesh.next_of[h]]

    def _interval(self, a, b):
        """Parameter intervals of the edges (a[i], b[i])."""
        return np.array([self.params.get(i, j)
                         for i, j in zip(a.tolist(), b.tolist())], float)

    def _fans(self, vertices):
        """Fans of the vertices as rows padded with -1 (QuadMesh.fans), the
        half edges from each vertex to its neighbours and from them to it
        (-1 where none), and the intervals (1 at padding)."""
        star, fan = self.mesh.fans(vertices)
        into = self.mesh.twin_of[star]
        # the last neighbour of a boundary vertex lies past its star
        rows, cols = np.nonzero((fan >= 0) & (star < 0))
        into[rows, cols] = self.mesh.prev_of[star[rows, cols - 1]]
        ds = np.ones(fan.shape)
        at = fan >= 0
        ds[at] = self._interval(np.broadcast_to(vertices[:, None],
                                                fan.shape)[at], fan[at])
        return fan, star, into, ds

    def _segments(self, windows):
        """Section-curve segments over 4-vertex windows (n, 4)."""
        d = [self._interval(windows[:, i], windows[:, i + 1])
             for i in range(3)]
        return net.VecPoly(segment_coefficients(
            self.mesh.vertices[windows], d, self.options.family))

    # -- derivatives at vertices ----------------------------------------------
    def _windows(self, a, c, fwd, bwd):
        """The 4-vertex windows (z, a, c, w) of the section-curve segments
        a -> c, whose half edges are fwd (a -> c) and bwd (c -> a; either -1
        where none), and the mask where they exist."""
        C, T = self.mesh.cont_of, self._target
        z, w = T(C[bwd]), T(C[fwd])
        return np.stack([z, a, c, w], axis=1), (z >= 0) & (w >= 0)

    def _spline_derivs(self, a, c, fwd, bwd):
        """(first, second, found) at a[i] of the section curve a -> c (fwd,
        bwd as for _windows).  The curve is the segment [a, c] where its
        window exists, else the opposite segment through a; both give the
        same values at a up to the family continuity.  Zero where neither
        exists."""
        windows, direct = self._windows(a, c, fwd, bwd)
        away = self.mesh.cont_of[bwd]   # a -> z, continuing c -> a past a
        opposite, beyond = self._windows(a, windows[:, 0], away,
                                         self.mesh.twin_of[away])
        found = direct | beyond
        first, second = np.zeros((2, len(a), 3))
        if found.any():
            poly = self._segments(np.where(direct[:, None], windows,
                                           opposite)[found])
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
        etas = np.zeros(fan.shape)
        for n, rows in groups:
            etas[rows, :n] = net.planar_angles(tans[rows, :n])
        r = ds[..., None] * np.array([0.25, 0.5])
        xys = np.stack([r * np.cos(etas)[..., None],
                        r * np.sin(etas)[..., None]], axis=-1)
        # the first five terms: all that the derivatives at the vertex read
        coeffs = np.empty((len(vertices), 5, 3))
        for row, n in enumerate(valence.tolist()):
            coeffs[row] = net.fit_guide_polynomial(
                p0[row], samples[row, :n].reshape(-1, 3),
                xys[row, :n].reshape(-1, 2)).coeffs[:5]
        t1, t2 = net.directional_derivs(
            net.GuidePolynomial(p0[:, None], coeffs[:, None], 2), etas)
        guide = net.GuidePolynomial(p0, coeffs, 2)
        return _Fits(fan, t1, t2, guide.normal(),
                     np.array(guide.gradient() + guide.hessian()))

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
        ui, vi = _CORNER_UV[(corner[grid] - self.grid_anchor[f]) % 4].T
        # [.., q, r]: the r-th u-derivative of the q-th v-derivative
        table = self.surf.grid_patches.side_ends[self.grid_slot[f], vi, ui]
        rows = fit_rows[~grid]
        if self.options.mode == "g1":
            normal = np.empty((len(corner), 3))
            n = np.cross(table[:, 0, 1], table[:, 1, 0])
            norm = net._norm(n)
            if (norm == 0.0).any():
                raise ConstructionError("degenerate grid corner frame")
            normal[grid] = n / norm[:, None]
            if len(rows):
                normal[~grid] = fits.normal[rows]
            return normal, None
        # su, sv, suu, suv, svv
        frames = np.empty((5, len(corner), 3))
        frames[:, grid] = table[:, [0, 1, 0, 1, 2], [1, 0, 2, 1, 0]] \
            .transpose(1, 0, 2)
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
            w = net.VecPoly(np.stack([w0, (w1 - w0) / d[:, None]], axis=1))
            fields.append(net.build_cross_field_xi(
                gamma, d, a, b, ruled, w, *targets[2]).coeffs)
        return fields

    def build(self, faces):
        """BoundaryData of the extraordinary faces, in order.

        Side c lies along half edge anchor + c and runs with it for c = 0, 1,
        against it for c = 2, 3.  A network side's corner targets are the
        sides (3, 1) for even c and (0, 2) for odd c, read at their ends for
        c = 1, 2 and at their starts for c = 0, 3.
        """
        mesh, surf, k = self.mesh, self.surf, self.k
        P, fam, patches = mesh.vertices, self.options.family, surf.grid_patches
        faces = np.asarray(faces)
        anchor = 4 * faces + np.argmin(mesh.faces[faces], axis=1)
        surf.anchors.update(zip(faces.tolist(), anchor.tolist()))
        hes = anchor[:, None] & ~3 | (anchor[:, None] + np.arange(4)) & 3
        corners = mesh.origin_of[hes]
        start, end = (corners[:, _SIDE_CORNERS[:, e]] for e in (0, 1))

        # 1. sides and curves.  A side is sampled from the grid patch
        # across its half edge, as that patch's side n, where there is one
        twin = mesh.twin_of[hes]
        slot = self.grid_slot[twin >> 2]
        sampled, network = slot >= 0, slot < 0
        n = (twin - self.grid_anchor[twin >> 2]) % 4
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
        d = self._interval(lo, hi)
        windows, window = self._windows(lo, hi, fwd, bwd)
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
                windows[window]).coeffs
        if her.any():
            (m0, m1), (s0, s1) = np.split(m, 2), np.split(s, 2)
            curve = net.build_missing_boundary_curve(
                P[lo[her]], P[hi[her]], d[her], m0, -m1,
                *((s0, s1) if k == 2 else ()))
            gamma[her, :curve.degree + 1] = curve.coeffs
        records = [_EdgeRecord(a=i, b=j, d=dd, gamma=net.VecPoly(g))
                   for i, j, dd, g in zip(lo.tolist(), hi.tolist(),
                                          d.tolist(), gamma)]
        surf.edge_records.update(((r.a, r.b), r) for r in records)
        normal, curvature = self._corner_frames(
            corner, fits, np.searchsorted(fitted, ends))

        # every side's curve at its start and end, orders 0..k, as the side
        # reads it: a reversed side swaps the ends and flips odd orders
        sign = (-1.0) ** np.arange(k + 1)[:, None]
        side_ends = np.empty(hes.shape + (2, k + 1, 3))
        grid_side = _SIDE_INDEX_OF_CORNER[n[sampled]]
        if sampled.any():
            table = patches.side_ends[slot[sampled], grid_side, :, 0, :k + 1]
            side_ends[sampled] = np.where(
                same_way[sampled][:, None, None, None],
                sign * table[:, ::-1], table)
        curves = net.VecPoly(gamma[:, None])
        x = np.stack([np.zeros_like(d), d], axis=1)
        table = np.stack([curves.eval(x, r) for r in range(k + 1)],
                         axis=2)[rec]
        reverse = lo[rec] != start[network]
        side_ends[network] = np.where(reverse[:, None, None, None],
                                      sign * table[:, ::-1], table)

        # 3. network sides, over their curves in face orientation
        f, c = np.nonzero(network)
        d_side = d[rec]
        forward = net.VecPoly(gamma[rec])
        gamma = np.where(reverse[:, None, None],
                         forward.reversed(d_side).coeffs, forward.coeffs)
        at = [np.searchsorted(ends, v[network]) for v in (start, end)]
        # the corner targets: the first (r = 1) and second x-derivatives of
        # the neighbouring sides at their starts or ends
        e = np.isin(c, (1, 2)).astype(int)
        nbrs = (np.where(c % 2, 0, 3), np.where(c % 2, 2, 1))
        targets = {r: [side_ends[f, nb, e, r] for nb in nbrs]
                   for r in range(1, k + 1)}
        if self.options.r_degree == 2:
            nm, quadratic = self._mid_normals(hes[network])
        else:
            nm, quadratic = None, np.zeros(len(f), bool)
        fields = np.empty((k, len(f)), object)
        for sel, mid in ((quadratic, nm), (~quadratic, None)):
            if not sel.any():
                continue
            frames = [(normal[i][sel], None if curvature is None
                       else tuple(x[i][sel] for x in curvature))
                      for i in at]
            part = self._cross_fields(
                net.VecPoly(gamma[sel]), d_side[sel], frames,
                None if mid is None else mid[sel],
                {r: [t[sel] for t in ts] for r, ts in targets.items()})
            for q, coeffs in enumerate(part):
                fields[q, sel] = [net.VecPoly(row) for row in coeffs]

        # 4. Side objects, and the data of every face with one corner check
        sides = [[None] * 4 for _ in range(len(faces))]
        orders = range(patches.k + 1)
        for (i, j), sl, gs, length, way, cross in zip(
                np.argwhere(sampled).tolist(), slot[sampled].tolist(),
                grid_side.tolist(),
                patches.intervals[slot[sampled], grid_side, 1].tolist(),
                same_way[sampled].tolist(), same_cross[sampled].tolist()):
            sides[i][j] = Side(
                length, [GridField(patches, sl, gs, q) for q in orders],
                reverse=(0, 1, 2) if way else (), negate_cross=cross)
        for i, j, r, rev, more in zip(f.tolist(), c.tolist(), rec.tolist(),
                                      reverse.tolist(), fields.T):
            sides[i][j] = Side(records[r].d, [records[r].gamma, *more],
                               reverse=(0,) if rev else ())
        return BoundaryData.many(P[corners], sides, k, faces.tolist(),
                                 side_ends[..., 0, :])


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

    Welding merges samples whose positions round to the same multiple of a
    tolerance relative to the mesh size; a merged vertex keeps its first
    sample (faces in ascending order, u running fastest).  A sample whose
    weld key cannot be formed (a non-finite coordinate, or one of 2^62
    tolerances or more) raises ConstructionError naming its face.
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

    faces = sorted(list(surface.regular) + list(surface.gregory))
    positions = surface.eval(np.repeat(faces, len(u)),
                             np.tile(u, len(faces)), np.tile(v, len(faces)))
    scaled = positions / tol
    bad = ~(np.abs(scaled) < 2.0 ** 62).all(axis=1)
    if bad.any():
        raise ConstructionError(
            f"face {faces[np.argmax(bad) // len(u)]} evaluates to "
            f"{positions[np.argmax(bad)].tolist()}, which cannot be welded "
            f"at tolerance {tol:.3g}")
    keys = np.round(scaled).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)   # welded vertices in first-seen order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    vertex = rank[inverse.reshape(-1)]
    keep = first[order]
    src_face = np.repeat(np.asarray(faces, int), len(u))[keep]
    src_uv = np.tile(np.stack([u, v], axis=1), (len(faces), 1))[keep]
    triangles = vertex.reshape(len(faces), -1)[:, cells].reshape(-1, 3)
    return TriangleMesh(positions=positions[keep], triangles=triangles,
                        src_face=src_face, src_uv=src_uv)


# first/second derivative stencils, central then forward then backward; the
# central ones are padded with a zero weight at offset 0.  Weights are for
# step 1 and get divided by h (resp. h^2) by the caller.
_FIRST = (np.array([[-1, 1, 0], [0, 1, 2], [0, -1, -2]]),
          np.array([[-0.5, 0.5, 0.0], [-1.5, 2.0, -0.5], [1.5, -2.0, 0.5]]))
_SECOND = (np.array([[-1, 0, 1, 0], [0, 1, 2, 3], [0, -1, -2, -3]]),
           np.array([[1.0, -2.0, 1.0, 0.0], [2.0, -5.0, 4.0, -1.0],
                     [2.0, -5.0, 4.0, -1.0]]))


def _stencils(t, h):
    """First/second derivative stencils at every t of an array in [0, 1].

    Returns ((offsets1, weights1), (offsets2, weights2)) of shapes
    t.shape + (3,) and t.shape + (4,).  One sided at the domain edges: where
    the central stencil would leave [0, 1] (reach h for the first and 3 h
    for the second derivative), forward below and backward above.
    """
    t = np.asarray(t, float)
    out = []
    for (offsets, weights), reach in ((_FIRST, h), (_SECOND, 3 * h)):
        kind = np.where((reach <= t) & (t <= 1.0 - reach), 0,
                        np.where(t < reach, 1, 2))
        out.append((offsets[kind], weights[kind]))
    return out


def _contract(weights, values):
    """sum_k weights[..., k] values[..., k, :] at every point."""
    return np.einsum("...k,...kd->...d", weights, values)


def _fd_partials(surface, faces, u, v, h, h_select=None):
    """(su, sv, suu, suv, svv), each (N, 3), by finite differences at the
    points (faces, u, v) of 1-D arrays, all evaluated in one surface.eval.

    h_select fixes which stencil variants are used (so two step sizes can be
    combined by Richardson extrapolation without switching stencils).
    Stencil points shared between the five derivatives are evaluated once.
    """
    hs = h if h_select is None else h_select
    (ou1, wu1), (ou2, wu2) = _stencils(u, hs)
    (ov1, wv1), (ov2, wv2) = _stencils(v, hs)
    n = len(u)
    # every derivative as (u offsets, v offsets, weights, divisor)
    terms = [(ou1, 0, wu1, h), (0, ov1, wv1, h), (ou2, 0, wu2, h * h),
             (np.repeat(ou1, 3, axis=1), np.tile(ov1, 3),
              (wu1[:, :, None] * wv1[:, None, :]).reshape(n, 9), h * h),
             (0, ov2, wv2, h * h)]
    du, dv = (np.concatenate([np.broadcast_to(term[i], term[2].shape)
                              for term in terms], axis=1) for i in (0, 1))
    # offsets lie in -3..3: one integer key per (point, du, dv)
    keys = (np.arange(n)[:, None] * 7 + du + 3) * 7 + dv + 3
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    rows = first // keys.shape[1]
    vals = surface.eval(faces[rows], u[rows] + du.flat[first] * h,
                        v[rows] + dv.flat[first] * h)
    vals = vals[inverse.reshape(keys.shape)]
    sizes = np.cumsum([term[2].shape[1] for term in terms])[:-1]
    return tuple(_contract(w, part) / div for (_, _, w, div), part
                 in zip(terms, np.split(vals, sizes, axis=1)))


def _partials(surface, faces, u, v, h, richardson=False):
    if not richardson:
        return _fd_partials(surface, faces, u, v, h)
    big = 2.0 * h
    coarse = _fd_partials(surface, faces, u, v, big, h_select=big)
    fine = _fd_partials(surface, faces, u, v, h, h_select=big)
    return tuple((4.0 * a - b) / 3.0 for a, b in zip(fine, coarse))


def _unit_normals(su, sv):
    """Unit normals of (..., 3) tangent pairs, and the mask of the pairs
    whose cross product is too short (< 1e-12) to normalize."""
    n = np.cross(su, sv)
    norm = np.linalg.norm(n, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return n / norm[..., None], norm < 1e-12


def _dot(a, b):
    return np.einsum("...d,...d->...", a, b)


def analysis_fields(surface, tri, richardson=False):
    """Per-vertex mean curvature and isophote value channels.

    Partial derivatives come from central differences (one sided at the
    patch-domain edges), with the stencil points of EVAL_CHUNK // 4
    vertices at a time evaluated in one surface.eval call; samples with a
    degenerate normal are flagged NaN.  Richardson extrapolation trades
    double the evaluations for two extra orders of accuracy.
    """
    h = 1e-3 if richardson else FD_STEP
    faces = np.asarray(tri.src_face, int)
    u, v = np.asarray(tri.src_uv, float).reshape(-1, 2).T
    mean_curv = np.full(len(tri.positions), np.nan)
    isophote = np.full(len(tri.positions), np.nan)
    degenerate = 0
    step = max(1, EVAL_CHUNK // 4)
    for lo in range(0, len(faces), step):
        at = slice(lo, lo + step)
        su, sv, suu, suv, svv = _partials(surface, faces[at], u[at], v[at],
                                          h, richardson)
        nrm, bad = _unit_normals(su, sv)
        E, F, G = _dot(su, su), _dot(su, sv), _dot(sv, sv)
        L, M, N = _dot(suu, nrm), _dot(suv, nrm), _dot(svv, nrm)
        denom = E * G - F * F
        bad |= np.abs(denom) < 1e-300
        degenerate += int(bad.sum())
        with np.errstate(invalid="ignore", divide="ignore"):
            H = (E * N - 2.0 * F * M + G * L) / (2.0 * denom)
        good = lo + np.flatnonzero(~bad)
        mean_curv[good] = H[~bad]
        isophote[good] = (nrm @ LIGHT_DIRECTION)[~bad]
    tri.channels["mean_curvature"] = mean_curv
    tri.channels["isophote"] = isophote
    return {"degenerate_samples": degenerate}


# -- continuity audit ---------------------------------------------------------------


def _interior_shared_edges(surface):
    """(h, twin) with h < twin for every edge between two real faces, in
    half-edge order."""
    mesh = surface.mesh
    h = np.arange(mesh.num_halfedges)
    t = mesh.twin_of[h]   # -1 on the boundary
    real = mesh.real_face_count
    keep = (t > h) & (mesh.he_face(h) < real) & (mesh.he_face(t) < real)
    return list(zip(h[keep].tolist(), t[keep].tolist()))


def _fmax(values, axis):
    """Largest value along axis, 0 for none; NaN values are skipped."""
    return np.fmax.reduce(values, axis=axis, initial=0.0)


def _seam_table(surface, hes, ts, k):
    """Evaluate the samples of both sides of the seams hes (E, 2): side 0 at
    the fractions ts along hes[:, 0], side 1 at 1 - ts along hes[:, 1].
    Positions come from one surface.eval call.  Tangent frames come from the
    exact side fields on grid sides (the boundary curve's x-derivative and
    the order-1 cross field) and from FD stencils, evaluated in that call,
    on Gregory sides.  Returns the positions (E, 2, S, 3), the unit normals
    and their degenerate mask, and for the A seams between two grid patches
    (the audited ones) the inward cross derivatives {r: (A, 2, S - 2, 3)}
    and the blend values (A, 2, S - 2) at the interior samples."""
    faces = surface.mesh.he_face(hes)
    grid = surface._slot[0, faces] >= 0
    u, v = surface._edge_uv(faces[..., None], hes[..., None],
                            np.stack([ts, 1.0 - ts]))
    f = np.broadcast_to(faces[..., None], u.shape)
    fg, ug, vg = (a[~grid] for a in (f, u, v))
    (ou, wu), _ = _stencils(ug, FD_STEP)
    (ov, wv), _ = _stencils(vg, FD_STEP)
    # every stencil holds the sample itself once (offset 0): only the points
    # off the sample are evaluated beside it
    stencils = [
        (ug[..., None] + ou * FD_STEP, vg[..., None], ou != 0),
        (ug[..., None], vg[..., None] + ov * FD_STEP, ov != 0)]
    parts = [(f, u, v)] + [[np.broadcast_to(a, off.shape)[off]
                            for a in (fg[..., None], us, vs)]
                           for us, vs, off in stencils]
    vals = surface.eval(*(np.concatenate([part[i].ravel() for part in parts])
                          for i in range(3)))
    ends = np.cumsum([part[0].size for part in parts])[:-1]
    pos, *off_vals = np.split(vals, ends)
    pos = pos.reshape(u.shape + (3,))
    at_u, at_v = (np.empty(off.shape + (3,)) for *_, off in stencils)
    at_u[...], at_v[...] = pos[~grid][..., None, :], pos[~grid][..., None, :]
    for table, values, (*_, off) in zip((at_u, at_v), off_vals, stencils):
        table[off] = values
    normal, degenerate = np.empty(u.shape + (3,)), np.empty(u.shape, bool)
    normal[~grid], degenerate[~grid] = _unit_normals(
        _contract(wu, at_u) / FD_STEP, _contract(wv, at_v) / FD_STEP)
    slots, sides, x, inward, blend = _cross_frame(
        surface, f[grid], hes[grid][:, None], u[grid], v[grid])
    slots, sides, x = (a.ravel() for a in (slots, sides, x))
    patches = surface.grid_patches
    fields = patches.side_fields(slots, sides, range(1, k + 1), x) \
        .reshape((k,) + blend.shape + (3,))
    along = patches.side_fields(slots, sides, (0,), x, 1)[0]
    normal[grid], degenerate[grid] = _unit_normals(
        along.reshape(blend.shape + (3,)), fields[0])
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
    order.  Normals are exact on grid sides, read from the side fields, and
    come from finite differences on Gregory sides.  The samples of both
    sides of EVAL_CHUNK // (2 samples) seams at a time form one table,
    evaluated in one surface.eval call and reduced per seam.
    """
    mesh = surface.mesh
    k = surface.options.family.continuity
    ts = np.linspace(0.0, 1.0, samples)
    hes = np.array(_interior_shared_edges(surface), int).reshape(-1, 2)
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
    residual = {r: values / top[r] for r, values in residual.items()}
    edges = [{"faces": [int(f1), int(f2)],
              "kinds": ["regular" if r else "gregory" for r in reg],
              "position_gap": float(g), "normal_angle_deg": float(a),
              "delta_residual": {str(r): float(res[row])
                                 for r, res in residual.items()} if aud
              else {}}
             for (f1, f2), reg, g, a, aud, row
             in zip(faces, regular, gap, angle, audit, audited)]

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
    he; f and he are scalars or arrays that broadcast against u and v.  The
    r-th inward cross derivative there is (inward * blend) ** r times the
    side's order-r field at x."""
    c = (np.asarray(he) - surface._anchor[f]) % 4
    # sides v0, v1 (even c) run along u and are crossed along v
    inward = np.where((c == 0) | (c == 3), 1, -1)
    slots, sides, t = np.broadcast_arrays(surface._slot[0, f],
                                          _SIDE_INDEX_OF_CORNER[c],
                                          np.where(c % 2, v, u))
    patches = surface.grid_patches
    blend = patches.side_blend(slots.ravel(), sides.ravel(),
                               t.ravel()).reshape(t.shape)
    return slots, sides, t * patches.intervals[slots, sides, 1], inward, blend


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


def export_obj(tri, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in tri.positions:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for t in tri.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
