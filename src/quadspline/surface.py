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
from .gregory import BoundaryData, GregoryPatch, GregoryPatchSet, Side
from .patch import EVAL_CHUNK, SIDES, GridPatchSet, RegularPatch
from .splines import D5C2P2S4, family as family_by_name, segment_coefficients

LIGHT_DIRECTION = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
FD_STEP = 1e-4
WELD_REL_TOL = 1e-9
# side of a regular patch along its half edge anchor + c, for c = 0..3
SIDE_OF_CORNER = ("v0", "u1", "v1", "u0")
_SIDE_INDEX_OF_CORNER = np.array([SIDES.index(s) for s in SIDE_OF_CORNER])


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
class _VertexData:
    tangents: dict
    seconds: dict
    normal: np.ndarray
    curvature: tuple = None


@dataclass
class _EdgeRecord:
    a: int
    b: int
    d: float
    gamma: net.VecPoly


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

    builder = _GregoryBuilder(surf)
    datas = [builder.build_face(f) for f in extraordinary]
    surf.gregory_patches = GregoryPatchSet(datas)
    for slot, f in enumerate(extraordinary):
        surf.gregory[f] = GregoryPatch.view(surf.gregory_patches, slot)
    surf._index()
    return surf


class _GregoryBuilder:
    """Assembles BoundaryData for extraordinary faces."""

    def __init__(self, surf):
        self.surf = surf
        self.mesh = surf.mesh
        self.params = surf.params
        self.options = surf.options
        self.family = surf.options.family
        self.vertex_data = {}
        # corner frames per vertex, shared by the faces around it
        self.frames = {}

    # -- derivative sampling along section curves ---------------------------
    def _opposite_vertex(self, a, c):
        """Vertex continuing the grid line c -> a past a, or None."""
        h = self.mesh.halfedge_between(c, a)
        g = None if h is None else self.mesh.continuation(h)
        return None if g is None else self.mesh.target(g)

    def _segment_window(self, a, c):
        z = self._opposite_vertex(a, c)
        w = self._opposite_vertex(c, a)
        if z is None or w is None:
            return None
        return z, a, c, w

    def _segment_poly(self, window):
        z, a, c, w = window
        pts = self.mesh.vertices[[z, a, c, w]]
        d = (self.params.get(z, a), self.params.get(a, c),
             self.params.get(c, w))
        return net.VecPoly(segment_coefficients(pts, d, self.family))

    def _spline_derivs(self, a, c):
        """(first, second) at a of the section curve oriented a -> c, or None.

        Prefers the segment [a, c] itself, then the opposite segment through
        a; both give the same values at the knot up to the family continuity.
        """
        win = self._segment_window(a, c)
        if win is not None:
            poly = self._segment_poly(win)
            return poly.eval(0.0, 1), poly.eval(0.0, 2)
        z = self._opposite_vertex(a, c)
        if z is None:
            return None
        win = self._segment_window(a, z)
        if win is None:
            return None
        poly = self._segment_poly(win)
        return -poly.eval(0.0, 1), poly.eval(0.0, 2)

    def _tangent_toward(self, c, v):
        """Estimate of the derivative at c pointing toward v."""
        spl = self._spline_derivs(c, v)
        if spl is not None:
            return spl[0]
        nbrs = self.mesh.fan(c)
        if len(nbrs) < 3:
            # low-valence vertex (phantom corners): plain chord estimate
            return (self.mesh.vertices[v] - self.mesh.vertices[c]) \
                / self.params.get(c, v)
        ds = [self.params.get(c, o) for o in nbrs]
        i = nbrs.index(v)
        return net.tangent_with_fallback(self.mesh.vertices[c],
                                         self.mesh.vertices[nbrs], ds, i)

    def _vertex_data(self, v):
        if v in self.vertex_data:
            return self.vertex_data[v]
        mesh = self.mesh
        p0 = mesh.vertices[v]
        nbrs = mesh.fan(v)
        if len(nbrs) < 3:
            raise ConstructionError(f"vertex {v} has valence < 3")
        ds = [self.params.get(v, c) for c in nbrs]
        pts = mesh.vertices[nbrs]
        tans = [net.tangent_with_fallback(p0, pts, ds, i)
                for i in range(len(nbrs))]

        if self.options.mode == "g1":
            normal = net.fit_common_plane(tans)
            projected = [net.project_to_plane(t, normal) for t in tans]
            data = _VertexData(
                tangents=dict(zip(nbrs, projected)),
                seconds={c: np.zeros(3) for c in nbrs},
                normal=normal)
        else:
            qs = []
            for i, c in enumerate(nbrs):
                ti0 = self._tangent_toward(c, v)
                q1, q2 = net.guide_points(p0, pts[i], ds[i], tans[i], ti0)
                qs.append((q1, q2))
            etas = net.planar_angles(tans)
            samples = []
            xys = []
            for i in range(len(nbrs)):
                for q, r in zip(qs[i], (ds[i] / 4.0, ds[i] / 2.0)):
                    samples.append(q)
                    xys.append((r * np.cos(etas[i]), r * np.sin(etas[i])))
            poly = net.fit_guide_polynomial(p0, samples, xys)
            tangents, seconds = {}, {}
            for i, c in enumerate(nbrs):
                t1, t2 = net.directional_derivs(poly, etas[i])
                tangents[c] = t1
                seconds[c] = t2
            data = _VertexData(tangents=tangents, seconds=seconds,
                               normal=poly.normal(),
                               curvature=poly.curvature())
        self.vertex_data[v] = data
        return data

    def _endpoint_derivs(self, v, other):
        """(first, second) at v toward other, spline-sampled when possible."""
        spl = self._spline_derivs(v, other)
        if spl is not None:
            return spl
        data = self._vertex_data(v)
        return data.tangents[other], data.seconds[other]

    # -- per-vertex frame data ----------------------------------------------
    def _corner_frame(self, v):
        """(unit normal, principal curvature data or None in G1) at vertex v,
        read at v from a regular patch having v as a corner, else from the
        vertex fit."""
        if v not in self.frames:
            g2 = self.options.mode == "g2"
            for h in self.mesh.vertex_star(v):
                f = self.mesh.he_face(h)
                patch = self.surf.regular.get(f)
                if patch is not None:
                    # v is the origin of h, corner c of f as in SIDE_OF_CORNER
                    uv = ((0, 0), (1, 0), (1, 1), (0, 1))[
                        (h - self.surf.anchors[f]) % 4]
                    self.frames[v] = (patch.corner_normal(*uv),
                                      patch.corner_curvature(*uv) if g2
                                      else None)
                    break
            else:
                data = self._vertex_data(v)
                self.frames[v] = data.normal, data.curvature
        return self.frames[v]

    def _face_normal(self, f):
        quad = self.mesh.faces[f]
        p = self.mesh.vertices[quad]
        n = np.cross(p[2] - p[0], p[3] - p[1])
        norm = np.linalg.norm(n)
        return n / norm if norm > 0 else n

    # -- boundary curve records ------------------------------------------------
    def _edge_record(self, a, b):
        key = qm.edge_key(a, b)
        rec = self.surf.edge_records.get(key)
        if rec is not None:
            return rec
        a, b = key
        d = self.params.get(a, b)
        win = self._segment_window(a, b)
        if win is not None:
            gamma = self._segment_poly(win)
        else:
            m0, s0 = self._endpoint_derivs(a, b)
            mb, sb = self._endpoint_derivs(b, a)
            # a quintic through the second derivatives in G2, else a cubic
            seconds = (s0, sb) if self.options.mode == "g2" else ()
            gamma = net.build_missing_boundary_curve(
                self.mesh.vertices[a], self.mesh.vertices[b], d, m0, -mb,
                *seconds)
        rec = _EdgeRecord(a=a, b=b, d=d, gamma=gamma)
        self.surf.edge_records[key] = rec
        return rec

    # -- face assembly -----------------------------------------------------------
    def _sampled_side(self, c, he):
        """Side c along half edge he read from the regular patch across it,
        or None where no regular patch lies across he."""
        twin = self.mesh.twin(he)
        g = None if twin is None else self.mesh.he_face(twin)
        patch = self.surf.regular.get(g)
        if patch is None:
            return None
        n = (twin - self.surf.anchors[g]) % 4
        side = SIDE_OF_CORNER[n]
        # side c runs along he for c = 0, 1 and the neighbour's along the
        # twin for n = 0, 1; chi points into this face for c = 0, 3 and the
        # neighbour's cross derivative into the neighbour for n = 0, 3
        return Side(patch.side_interval(side),
                    [patch.field(side, q)
                     for q in range(patch.patches.k + 1)],
                    reverse=(0, 1, 2) if (c < 2) == (n < 2) else (),
                    negate_cross=(c in (0, 3)) == (n in (0, 3)))

    def _network_side(self, f, he, va, vb, nbrs=None, at_end=False):
        """Side of face f from va to vb along half edge he, generated from the
        curve network: the edge record's curve and, given the neighbouring
        sides nbrs, the cross fields built in this face's orientation with
        corner targets read at the ends (at_end) or starts of nbrs."""
        mesh, opts = self.mesh, self.options
        rec = self._edge_record(va, vb)
        d = rec.d
        reverse = (0,) if rec.a != va else ()
        fields = [rec.gamma]
        if nbrs is None:   # the curve alone, a corner target of its neighbours
            return Side(d, fields, reverse=reverse)
        gamma = rec.gamma.reversed(d) if reverse else rec.gamma
        nm = None
        if opts.r_degree == 2:
            twin = mesh.twin(he)
            normals = [self._face_normal(f)]
            if twin is not None:
                normals.append(self._face_normal(mesh.he_face(twin)))
            nm = np.mean(normals, axis=0)
            norm = np.linalg.norm(nm)
            nm = nm / norm if norm > 1e-12 else None
        (n_a, k_a), (n_b, k_b) = map(self._corner_frame, (va, vb))
        ruled = net.make_ruled_direction(gamma, d, n_a, n_b, opts.r_degree,
                                         nm, curv0=k_a, curv1=k_b)

        def targets(order):
            return [s.field(0, s.d if at_end else 0.0, order) for s in nbrs]

        chi, a_lin, b_lin = net.build_cross_field_chi(gamma, d, ruled,
                                                      *targets(1))
        fields.append(chi)
        if opts.mode == "g2":
            w0 = net.normal_curvature_vector(ruled.eval(0.0), *k_a)
            w1 = net.normal_curvature_vector(ruled.eval(d), *k_b)
            w_field = net.VecPoly(np.stack([w0, (w1 - w0) / d]))
            fields.append(net.build_cross_field_xi(
                gamma, d, a_lin, b_lin, ruled, w_field, *targets(2)))
        return Side(d, fields, reverse=reverse)

    def build_face(self, f):
        """BoundaryData of extraordinary face f.

        Side c lies along half edge anchor + c and runs with it for c = 0, 1,
        against it for c = 2, 3.  It is sampled from the regular patch across
        its edge where there is one, and generated from the curve network
        otherwise; a network side's corner targets are the sides (3, 1) for
        even c and (0, 2) for odd c, read at their ends for c = 1, 2 and at
        their starts for c = 0, 3.
        """
        mesh = self.mesh
        anchor = self.surf.anchors[f] = mesh.canonical_halfedge(f)
        hes = [anchor & ~3 | (anchor + c) & 3 for c in range(4)]
        p = [mesh.origin(h) for h in hes]
        ends = [(p[0], p[1]), (p[1], p[2]), (p[3], p[2]), (p[0], p[3])]
        sampled = [self._sampled_side(c, h) for c, h in enumerate(hes)]
        curves = [side or self._network_side(f, h, *ends[c])
                  for c, (h, side) in enumerate(zip(hes, sampled))]
        sides = []
        for c, (h, side) in enumerate(zip(hes, sampled)):
            if side is None:
                nbrs = [curves[n] for n in ((3, 1), (0, 2))[c % 2]]
                side = self._network_side(f, h, *ends[c], nbrs, c in (1, 2))
            sides.append(side)
        return BoundaryData(mesh.vertices[p], sides, k=self.options.k, face=f)


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
    sample (faces in ascending order, u running fastest).
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
    keys = np.round(positions / tol).astype(np.int64)
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
