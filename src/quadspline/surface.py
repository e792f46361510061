"""Composite surface pipeline: classify, patch, fill, tessellate, audit.

Regular faces get grid patches; the remaining faces get Coons-Gregory patches
whose boundary data is sampled from adjacent grid patches where one exists
and generated from the curve network otherwise.  Both incident faces of a
shared curve consume the same curve record, so the composite evaluation is
watertight by construction.
"""

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import mesh as qm
from . import network as net
from .errors import ConstructionError
from .gregory import BoundaryData, GregoryPatch, Side
from .patch import RegularPatch
from .splines import D5C2P2S4, family as family_by_name, segment_coefficients

LIGHT_DIRECTION = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
FD_STEP = 1e-4
CROSS_STEP = 5e-3   # step of the continuity report's cross stencils
WELD_REL_TOL = 1e-9
# side of a regular patch along its half edge anchor + c, for c = 0..3
SIDE_OF_CORNER = ("v0", "u1", "v1", "u0")


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
    chi: dict = field(default_factory=dict)   # face -> VecPoly in face view
    xi: dict = field(default_factory=dict)


class CompositeSurface:
    """Face -> patch map over an (optionally extrapolated) quad mesh."""

    def __init__(self, mesh, params, options):
        self.mesh = mesh
        self.params = params
        self.options = options
        self.regular = {}
        self.gregory = {}
        self.anchors = {}
        self.edge_records = {}

    @property
    def real_faces(self):
        return range(self.mesh.real_face_count)

    def patch(self, f):
        return self.regular.get(f) or self.gregory[f]

    def eval_on_edge(self, f, he, t):
        """Patch value at fraction t along half edge he of face f."""
        u, v = self._edge_uv(f, he, t)
        return self.patch(f).eval(u, v)

    def _edge_uv(self, f, he, t):
        """(u, v) at the fractions t (scalar or array) along half edge he of
        face f."""
        t = np.asarray(t, float)
        zero, one = np.zeros_like(t), np.ones_like(t)
        c = (he - self.anchors[f]) % 4
        return ((t, zero), (one, t), (1.0 - t, one), (zero, 1.0 - t))[c]


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
    w = options.family.support
    regular, extraordinary = qm.classify_faces(mesh, w)

    for f in regular:
        grid = qm.extract_local_grid(mesh, params, f, w)
        surf.regular[f] = RegularPatch(grid, options.family)
        surf.anchors[f] = grid.anchor

    builder = _GregoryBuilder(surf)
    for f in extraordinary:
        builder.build_face(f)
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
        self.normals = {}
        self.curvatures = {}

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

    def _star_neighbors(self, v):
        mesh = self.mesh
        star = mesh.vertex_star(v)
        nbrs = [mesh.target(h) for h in star]
        if mesh.is_boundary_vertex(v) and star:
            trailing = mesh.origin(mesh.he_prev(star[-1]))
            if trailing not in nbrs:
                nbrs.append(trailing)
        return nbrs

    def _tangent_toward(self, c, v):
        """Estimate of the derivative at c pointing toward v."""
        spl = self._spline_derivs(c, v)
        if spl is not None:
            return spl[0]
        nbrs = self._star_neighbors(c)
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
        nbrs = self._star_neighbors(v)
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
            degree = 3 if len(nbrs) >= 5 else 2
            poly = net.fit_guide_polynomial(p0, samples, xys, degree)
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
    def _regular_corner(self, v):
        """(patch, ui, vi) of a regular patch having v as a face corner."""
        for h in self.mesh.vertex_star(v):
            f = self.mesh.he_face(h)
            patch = self.surf.regular.get(f)
            if patch is None:
                continue
            ids = patch.grid.vertex_ids
            for (ui, vi), (gi, gj) in (((0, 0), (1, 1)), ((1, 0), (2, 1)),
                                       ((1, 1), (2, 2)), ((0, 1), (1, 2))):
                if ids[gi, gj] == v:
                    return patch, ui, vi
        return None

    def _corner_normal(self, v):
        if v not in self.normals:
            reg = self._regular_corner(v)
            if reg is not None:
                patch, ui, vi = reg
                self.normals[v] = patch.corner_normal(ui, vi)
            else:
                self.normals[v] = self._vertex_data(v).normal
        return self.normals[v]

    def _corner_curvature(self, v):
        if v not in self.curvatures:
            reg = self._regular_corner(v)
            if reg is not None:
                patch, ui, vi = reg
                self.curvatures[v] = patch.corner_curvature(ui, vi)
            else:
                data = self._vertex_data(v)
                if data.curvature is None:
                    raise ConstructionError(f"no curvature data at vertex {v}")
                self.curvatures[v] = data.curvature
        return self.curvatures[v]

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
            if self.options.mode == "g1":
                gamma = net.build_missing_boundary_curve(
                    self.mesh.vertices[a], self.mesh.vertices[b], d,
                    m0, -mb)
            else:
                gamma = net.build_missing_boundary_curve(
                    self.mesh.vertices[a], self.mesh.vertices[b], d,
                    m0, -mb, s0, sb)
        rec = _EdgeRecord(a=a, b=b, d=d, gamma=gamma)
        self.surf.edge_records[key] = rec
        return rec

    # -- face assembly -----------------------------------------------------------
    def _side_plan(self, f):
        """Half edges of f in gamma-role order with view orientation flags."""
        mesh = self.mesh
        anchor = mesh.canonical_halfedge(f)
        hs = [anchor, mesh.he_next(anchor),
              mesh.he_next(mesh.he_next(anchor)),
              mesh.he_prev(anchor)]
        # role order gamma0..gamma3 = bottom, right, top, left
        plan = []
        for role, h in ((0, hs[0]), (1, hs[1]), (2, hs[2]), (3, hs[3])):
            forward = role in (0, 1)
            if forward:
                va, vb = mesh.origin(h), mesh.target(h)
            else:
                va, vb = mesh.target(h), mesh.origin(h)
            plan.append({"role": role, "he": h, "va": va, "vb": vb,
                         "forward": forward})
        return anchor, plan

    def _sampled_side(self, role, he):
        """Side along half edge he read from the regular patch across it."""
        twin = self.mesh.twin(he)
        g = self.mesh.he_face(twin)
        patch = self.surf.regular[g]
        c = (twin - self.surf.anchors[g]) % 4
        side = SIDE_OF_CORNER[c]
        # the side runs along he for roles 0, 1 and the neighbour's along the
        # twin for c = 0, 1; chi points into this face for roles 0, 3 and the
        # neighbour's cross derivative into the neighbour for c = 0, 3
        return Side(patch.side_interval(side),
                    [partial(patch.side_field, side, q)
                     for q in range(patch.k + 1)],
                    reverse=(0, 1, 2) if (role < 2) == (c < 2) else (),
                    negate_cross=(role in (0, 3)) == (c in (0, 3)))

    def build_face(self, f):
        mesh = self.mesh
        anchor, plan = self._side_plan(f)
        self.surf.anchors[f] = anchor
        corners = mesh.vertices[[mesh.origin(h) for h in
                                 (anchor, mesh.he_next(anchor),
                                  mesh.he_next(mesh.he_next(anchor)),
                                  mesh.he_prev(anchor))]]

        sides = [None] * 4
        for info in plan:
            twin = mesh.twin(info["he"])
            if twin is not None and mesh.he_face(twin) in self.surf.regular:
                info["kind"] = "sampled"
                sides[info["role"]] = self._sampled_side(info["role"],
                                                         info["he"])
            else:
                info["kind"] = "network"
                rec = self._edge_record(info["va"], info["vb"])
                info["record"] = rec
                info["reverse"] = (0,) if rec.a != info["va"] else ()
                # the curve alone, for the corner targets below
                sides[info["role"]] = Side(rec.d, [rec.gamma.eval],
                                           reverse=info["reverse"])

        # cross fields for the network sides, targets taken from the
        # neighboring sides' curve derivatives at the shared corners
        d0 = self.params.get(plan[0]["va"], plan[0]["vb"])
        e1 = self.params.get(plan[1]["va"], plan[1]["vb"])
        d1 = self.params.get(plan[2]["va"], plan[2]["vb"])
        e0 = self.params.get(plan[3]["va"], plan[3]["vb"])

        def corner_targets(role, order):
            g0, g1, g2, g3 = sides
            if role == 0:
                return g3.field(0, 0.0, order), g1.field(0, 0.0, order)
            if role == 1:
                return g0.field(0, d0, order), g2.field(0, d1, order)
            if role == 2:
                return g3.field(0, e0, order), g1.field(0, e1, order)
            return g0.field(0, 0.0, order), g2.field(0, 0.0, order)

        for info in plan:
            if info["kind"] != "network":
                continue
            role = info["role"]
            rec = info["record"]
            if f in rec.chi and (self.options.mode == "g1" or f in rec.xi):
                continue
            d = rec.d
            gamma_view = rec.gamma.reversed(d) if info["reverse"] \
                else rec.gamma
            nm = None
            if self.options.r_degree == 2:
                twin = mesh.twin(info["he"])
                normals = [self._face_normal(f)]
                if twin is not None:
                    normals.append(self._face_normal(mesh.he_face(twin)))
                nm = np.mean(normals, axis=0)
                norm = np.linalg.norm(nm)
                nm = nm / norm if norm > 1e-12 else None
            if self.options.mode == "g2":
                ka = self._corner_curvature(info["va"])
                kb = self._corner_curvature(info["vb"])
                n_a, n_b = ka[4], kb[4]
                ruled = net.make_ruled_direction(
                    gamma_view, d, n_a, n_b, self.options.r_degree, nm,
                    curv0=ka, curv1=kb)
            else:
                n_a = self._corner_normal(info["va"])
                n_b = self._corner_normal(info["vb"])
                ruled = net.make_ruled_direction(gamma_view, d, n_a, n_b,
                                                 self.options.r_degree, nm)
            t0, t1 = corner_targets(role, 1)
            chi, a_lin, b_lin = net.build_cross_field_chi(
                gamma_view, d, ruled, t0, t1)
            rec.chi[f] = chi
            if self.options.mode == "g2":
                w0 = net.normal_curvature_vector(ruled.eval(0.0), *ka)
                w1 = net.normal_curvature_vector(ruled.eval(d), *kb)
                w_field = net.VecPoly(
                    np.stack([w0, (w1 - w0) / d]))
                s0, s1 = corner_targets(role, 2)
                rec.xi[f] = net.build_cross_field_xi(
                    gamma_view, d, a_lin, b_lin, ruled, w_field, s0, s1)

        # cross fields were built in this face's orientation already
        for info in plan:
            if info["kind"] == "network":
                rec = info["record"]
                fields = [rec.gamma, rec.chi[f], rec.xi.get(f)]
                sides[info["role"]] = Side(
                    rec.d, [p.eval for p in fields if p is not None],
                    reverse=info["reverse"])

        data = BoundaryData(corners, sides, d0, d1, e0, e1,
                            k=self.options.k, face=f)
        self.surf.gregory[f] = GregoryPatch(
            data, mode=self.options.mode)


# -- tessellation -----------------------------------------------------------------

@dataclass
class TriangleMesh:
    positions: np.ndarray
    triangles: np.ndarray
    channels: dict = field(default_factory=dict)
    src_face: np.ndarray = None
    src_uv: np.ndarray = None


def tessellate(surface, n=16, weld=True):
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
    positions = np.concatenate(
        [surface.patch(f).eval(u, v) for f in faces]).reshape(-1, 3)
    src_face = np.repeat(np.asarray(faces, int), len(u))
    src_uv = np.tile(np.stack([u, v], axis=1), (len(faces), 1))
    vertex = np.arange(len(positions))   # of each sample
    if weld:
        keys = np.round(positions / tol).astype(np.int64)
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)   # welded vertices in first-seen order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        vertex = rank[inverse.reshape(-1)]
        keep = first[order]
        positions, src_face, src_uv = \
            positions[keep], src_face[keep], src_uv[keep]
    triangles = vertex.reshape(len(faces), -1)[:, cells].reshape(-1, 3)
    return TriangleMesh(positions=positions, triangles=triangles,
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


def _eval_sets(fn, uv_sets):
    """fn at several (u, v) pairs of equal-shaped arrays in one call; the
    values of each pair come back with shape u.shape + (3,)."""
    shapes = [np.shape(u) for u, _ in uv_sets]
    sizes = [int(np.prod(shape)) for shape in shapes]
    vals = fn(np.concatenate([np.ravel(u) for u, _ in uv_sets]),
              np.concatenate([np.ravel(v) for _, v in uv_sets]))
    return [part.reshape(shape + (3,)) for part, shape in
            zip(np.split(vals, np.cumsum(sizes)[:-1]), shapes)]


def _contract(weights, values):
    """sum_k weights[n, k] values[n, k] for every n."""
    return np.einsum("nk,nkd->nd", weights, values)


def _fd_partials(fn, u, v, h, h_select=None):
    """(su, sv, suu, suv, svv), each (N, 3), by finite differences at the
    points of the 1-D arrays u, v, all evaluated in one fn call.

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
    vals = fn(u[rows] + du.flat[first] * h, v[rows] + dv.flat[first] * h)
    vals = vals[inverse.reshape(keys.shape)]
    sizes = np.cumsum([term[2].shape[1] for term in terms])[:-1]
    return tuple(_contract(w, part) / div for (_, _, w, div), part
                 in zip(terms, np.split(vals, sizes, axis=1)))


def _partials(fn, u, v, h, richardson=False):
    if not richardson:
        return _fd_partials(fn, u, v, h)
    big = 2.0 * h
    coarse = _fd_partials(fn, u, v, big, h_select=big)
    fine = _fd_partials(fn, u, v, h, h_select=big)
    return tuple((4.0 * a - b) / 3.0 for a, b in zip(fine, coarse))


def _unit_normals(su, sv):
    """Unit normals of (N, 3) tangent pairs, and the mask of the pairs whose
    cross product is too short (< 1e-12) to normalize."""
    n = np.cross(su, sv)
    norm = np.linalg.norm(n, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return n / norm[:, None], norm < 1e-12


def _dot(a, b):
    return np.einsum("nd,nd->n", a, b)


def analysis_fields(surface, tri, richardson=False):
    """Per-vertex mean curvature and isophote value channels.

    Partial derivatives come from central differences (one sided at the
    patch-domain edges), with the stencil points of all vertices of a face
    evaluated in one call; samples with a degenerate normal are flagged NaN.
    Richardson extrapolation trades double the evaluations for two extra
    orders of accuracy.
    """
    h = 1e-3 if richardson else FD_STEP
    faces = np.asarray(tri.src_face)
    mean_curv = np.full(len(tri.positions), np.nan)
    isophote = np.full(len(tri.positions), np.nan)
    degenerate = 0
    order = np.argsort(faces, kind="stable")
    fs, starts = np.unique(faces[order], return_index=True)
    for f, idx in zip(fs, np.split(order, starts[1:])):
        u, v = tri.src_uv[idx].T
        su, sv, suu, suv, svv = _partials(surface.patch(int(f)).eval, u, v,
                                          h, richardson)
        nrm, bad = _unit_normals(su, sv)
        E, F, G = _dot(su, su), _dot(su, sv), _dot(sv, sv)
        L, M, N = _dot(suu, nrm), _dot(suv, nrm), _dot(svv, nrm)
        denom = E * G - F * F
        bad |= np.abs(denom) < 1e-300
        degenerate += int(bad.sum())
        with np.errstate(invalid="ignore", divide="ignore"):
            H = (E * N - 2.0 * F * M + G * L) / (2.0 * denom)
        good = ~bad
        mean_curv[idx[good]] = H[good]
        isophote[idx[good]] = (nrm @ LIGHT_DIRECTION)[good]
    tri.channels["mean_curvature"] = mean_curv
    tri.channels["isophote"] = isophote
    return {"degenerate_samples": degenerate}


# -- continuity audit ---------------------------------------------------------------

# one-sided stencils of the first and second derivative along the inward
# cross direction, for step 1 and up to a divisor 12
_CROSS_STENCILS = {1: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]),
                   2: np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0])}


def _interior_shared_edges(surface):
    mesh = surface.mesh
    out = []
    for h in range(mesh.num_halfedges):
        t = mesh.twin(h)
        if t is None or t < h:
            continue
        f1, f2 = mesh.he_face(h), mesh.he_face(t)
        if f1 >= mesh.real_face_count or f2 >= mesh.real_face_count:
            continue
        out.append((h, t))
    return out


def _seam_samples(surface, f, seams, k):
    """Samples of face f along its seam half edges, from one eval call.

    seams maps a half edge to (t, audit): the fractions sampled along it and
    whether the cross derivatives through order k are audited there.  Each
    half edge gets its positions, unit normals and the mask of degenerate
    normals and, when audited, the inward cross derivatives and the blend
    values at the interior samples.
    """
    sets, frames = [], []
    for he, (t, audit) in seams.items():
        u, v = surface._edge_uv(f, he, t)
        (ou, wu), _ = _stencils(u, FD_STEP)
        (ov, wv), _ = _stencils(v, FD_STEP)
        sets += [(u, v),
                 np.broadcast_arrays(u[:, None] + ou * FD_STEP, v[:, None]),
                 np.broadcast_arrays(u[:, None], v[:, None] + ov * FD_STEP)]
        blend = None
        if audit:
            line = [u[1:-1, None], v[1:-1, None]]
            axis, inward, blend = _cross_frame(surface, f, he, u[1:-1],
                                               v[1:-1])
            steps = np.arange(len(_CROSS_STENCILS[k])) * inward
            line[axis] = line[axis] + steps * CROSS_STEP
            sets.append(np.broadcast_arrays(*line))
        frames.append((he, wu, wv, blend))
    vals = iter(_eval_sets(surface.patch(f).eval, sets))
    out = {}
    for he, wu, wv, blend in frames:
        pos, at_u, at_v = next(vals), next(vals), next(vals)
        normal, degenerate = _unit_normals(_contract(wu, at_u) / FD_STEP,
                                           _contract(wv, at_v) / FD_STEP)
        # a copy: a view would keep the face's whole batch alive while the
        # seam waits for its other face
        rec = {"pos": pos.copy(), "normal": normal, "degenerate": degenerate}
        if blend is not None:
            line = next(vals)
            rec["blend"] = blend
            rec["cross"] = {
                r: np.einsum("k,nkd->nd", _CROSS_STENCILS[r],
                             line[:, :len(_CROSS_STENCILS[r])])
                / (12.0 * CROSS_STEP ** r) for r in range(1, k + 1)}
        out[he] = rec
    return out


def _max(values):
    """Largest value, 0 for none; NaN values are skipped."""
    return float(np.fmax.reduce(values, initial=0.0))


def _measure_seam(a, b, k):
    """Gaps between the samples a and b of the two faces along one seam."""
    both = ~(a["degenerate"] | b["degenerate"])
    cosang = np.clip(np.abs(_dot(a["normal"][both], b["normal"][both])),
                     -1.0, 1.0)
    delta_residual = {}
    if "cross" in a:
        ratio = a["blend"] / b["blend"]
        for r in range(1, k + 1):
            d1v = a["cross"][r]
            # orient both derivatives the same way: odd orders flip
            d2v = b["cross"][r] if r % 2 == 0 else -b["cross"][r]
            num = np.linalg.norm(d1v - (ratio ** r)[:, None] * d2v, axis=1)
            den = np.maximum(np.linalg.norm(d1v, axis=1), 1e-12)
            delta_residual[str(r)] = _max(num / den)
    return {"position_gap": _max(np.linalg.norm(a["pos"] - b["pos"], axis=1)),
            "normal_angle_deg": _max(np.degrees(np.arccos(cosang))),
            "delta_residual": delta_residual}


def continuity_report(surface, samples=16):
    """Sampled gaps across every interior shared edge.

    Reports position gaps and tangent-plane angles for all edges; for pairs
    of grid patches it additionally checks that one-sided cross derivatives
    match after scaling by the blend-function ratio, through the family
    continuity order.  Each face's samples along all its seams are
    evaluated in one call.
    """
    mesh = surface.mesh
    k = surface.options.family.continuity if surface.options.mode == "g2" \
        else min(surface.options.family.continuity, 2)
    ts = np.linspace(0.0, 1.0, samples)
    seams = []
    wanted = {}
    for h, t in _interior_shared_edges(surface):
        f1, f2 = mesh.he_face(h), mesh.he_face(t)
        kind = ("regular" if f1 in surface.regular else "gregory",
                "regular" if f2 in surface.regular else "gregory")
        audit = kind == ("regular", "regular")
        seams.append((h, f1, f2, kind))
        wanted.setdefault(f1, {})[h] = (ts, audit)
        wanted.setdefault(f2, {})[t] = (1.0 - ts, audit)
    # a seam is measured, and its samples dropped, once both faces are sampled
    pending, measured = {}, {}
    for f, sides in wanted.items():
        pending.update(_seam_samples(surface, f, sides, k))
        for he in sides:
            h, t = sorted((he, mesh.twin(he)))
            if h in pending and t in pending:
                measured[h] = _measure_seam(pending.pop(h), pending.pop(t), k)
    edges = [{"faces": [int(f1), int(f2)], "kinds": list(kind), **measured[h]}
             for h, f1, f2, kind in seams]
    gaps = np.array([e["position_gap"] for e in edges]) if edges else \
        np.zeros(0)
    angs = np.array([e["normal_angle_deg"] for e in edges]) if edges else \
        np.zeros(0)

    def stats(arr):
        if not len(arr):
            return {"max": 0.0, "p50": 0.0, "p90": 0.0}
        return {"max": float(arr.max()),
                "p50": float(np.percentile(arr, 50)),
                "p90": float(np.percentile(arr, 90))}

    return {"edges": edges,
            "summary": {"position_gap": stats(gaps),
                        "normal_angle_deg": stats(angs),
                        "edge_count": len(edges)}}


def _cross_frame(surface, f, he, u, v):
    """(axis, inward sign, blend values) for the cross direction at boundary
    points of regular face f reached along half edge he."""
    c = (he - surface.anchors[f]) % 4
    # sides v0, v1 (even c) run along u and are crossed along v
    axis, inward = (c + 1) % 2, (1 if c in (0, 3) else -1)
    blend = surface.regular[f].side_blend(SIDE_OF_CORNER[c])
    return axis, inward, blend((u, v)[c % 2])


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
        for i, p in enumerate(tri.positions):
            row = [f"{p[0]:.9g}", f"{p[1]:.9g}", f"{p[2]:.9g}"]
            for _, arr in chans:
                row.append(f"{arr[i]:.9g}")
            fh.write(" ".join(row) + "\n")
        for tri3 in tri.triangles:
            fh.write(f"3 {tri3[0]} {tri3[1]} {tri3[2]}\n")


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
