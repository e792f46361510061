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
WELD_REL_TOL = 1e-9


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
        c = (he - self.anchors[f]) % 4
        if c == 0:
            return t, 0.0
        if c == 1:
            return 1.0, t
        if c == 2:
            return 1.0 - t, 1.0
        return 0.0, 1.0 - t


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
        self.sampled_patches = {}

    # -- derivative sampling along section curves ---------------------------
    def _opposite_vertex(self, a, c):
        mesh = self.mesh
        if mesh.is_boundary_vertex(a) or mesh.valence(a) != 4:
            return None
        h = mesh.halfedge_between(a, c)
        if h is None:
            return None
        g = mesh.rot_ccw(h)
        if g is None:
            return None
        g = mesh.rot_ccw(g)
        return None if g is None else mesh.target(g)

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
        reg = self._regular_corner(v)
        if reg is not None:
            patch, ui, vi = reg
            return patch.corner_normal(ui, vi)
        return self._vertex_data(v).normal

    def _corner_curvature(self, v):
        reg = self._regular_corner(v)
        if reg is not None:
            patch, ui, vi = reg
            return patch.corner_curvature(ui, vi)
        data = self._vertex_data(v)
        if data.curvature is None:
            raise ConstructionError(f"no curvature data at vertex {v}")
        return data.curvature

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

    def _sampled_side(self, side_info):
        mesh = self.mesh
        h = side_info["he"]
        twin = mesh.twin(h)
        g = mesh.he_face(twin)
        role = side_info["role"]
        if role == 0:
            anchor = mesh.he_next(mesh.he_next(twin))
            side, flip_param, flip_cross = "v1", False, False
        elif role == 1:
            anchor = twin
            side, flip_param, flip_cross = "v0", True, False
        elif role == 2:
            anchor = twin
            side, flip_param, flip_cross = "v0", False, False
        else:
            anchor = twin
            side, flip_param, flip_cross = "v0", False, True
        key = (g, anchor)
        patch = self.sampled_patches.get(key)
        if patch is None:
            grid = qm.extract_local_grid(mesh, self.params, g,
                                         self.family.support, anchor=anchor)
            patch = RegularPatch(grid, self.family)
            self.sampled_patches[key] = patch
        return Side(patch.side_interval(side),
                    [partial(patch.side_field, side, q)
                     for q in range(patch.k + 1)],
                    reverse=(0, 1, 2) if flip_param else (),
                    negate_cross=flip_cross)

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
            g = None if twin is None else mesh.he_face(twin)
            if (g is not None and g < mesh.real_face_count
                    and g in self.surf.regular):
                info["kind"] = "sampled"
                sides[info["role"]] = self._sampled_side(info)
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
    """Sample every patch on an (n+1)^2 grid and triangulate."""
    if n < 1:
        raise ValueError("need at least one sample per edge")
    bbox = surface.mesh.vertices.max(axis=0) - surface.mesh.vertices.min(axis=0)
    tol = WELD_REL_TOL * max(float(np.linalg.norm(bbox)), 1e-300)

    positions = []
    triangles = []
    src_face = []
    src_uv = []
    weld_map = {}

    for f in sorted(list(surface.regular) + list(surface.gregory)):
        patch = surface.patch(f)
        index = {}
        for j in range(n + 1):
            v = j / n
            for i in range(n + 1):
                u = i / n
                p = patch.eval(u, v)
                if weld:
                    key = tuple(np.round(p / tol).astype(np.int64))
                    vid = weld_map.get(key)
                    if vid is None:
                        vid = len(positions)
                        weld_map[key] = vid
                        positions.append(p)
                        src_face.append(f)
                        src_uv.append((u, v))
                else:
                    vid = len(positions)
                    positions.append(p)
                    src_face.append(f)
                    src_uv.append((u, v))
                index[(i, j)] = vid
        for j in range(n):
            for i in range(n):
                a = index[(i, j)]
                b = index[(i + 1, j)]
                c = index[(i + 1, j + 1)]
                d = index[(i, j + 1)]
                triangles.append((a, b, c))
                triangles.append((a, c, d))

    return TriangleMesh(
        positions=np.asarray(positions, float).reshape(-1, 3),
        triangles=np.asarray(triangles, int).reshape(-1, 3),
        src_face=np.asarray(src_face, int),
        src_uv=np.asarray(src_uv, float).reshape(-1, 2))


def _stencils(t, h):
    """First/second derivative stencils at t in [0,1], step h.

    Returns ((offsets1, weights1), (offsets2, weights2)); weights are for
    step 1 and get divided by h (resp. h^2) by the caller.  One sided at the
    domain edges.
    """
    if h <= t <= 1.0 - h:
        first = ((-1, 1), (-0.5, 0.5))
    elif t < h:
        first = ((0, 1, 2), (-1.5, 2.0, -0.5))
    else:
        first = ((0, -1, -2), (1.5, -2.0, 0.5))
    lo = 3 * h
    if lo <= t <= 1.0 - lo:
        second = ((-1, 0, 1), (1.0, -2.0, 1.0))
    elif t < lo:
        second = ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0))
    else:
        second = ((0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0))
    return first, second


def _fd_partials(fn, u, v, h, h_select=None):
    """(su, sv, suu, suv, svv) by finite differences at (u, v).

    h_select fixes which stencil variants are used (so two step sizes can be
    combined by Richardson extrapolation without switching stencils).
    Stencil points shared between the five derivatives are evaluated once.
    """
    hs = h if h_select is None else h_select
    (ou1, wu1), (ou2, wu2) = _stencils(u, hs)
    (ov1, wv1), (ov2, wv2) = _stencils(v, hs)
    cache = {}

    def at(ou, ov):
        key = (ou, ov)
        val = cache.get(key)
        if val is None:
            val = fn(u + ou * h, v + ov * h)
            cache[key] = val
        return val

    su = sum(w * at(o, 0) for o, w in zip(ou1, wu1)) / h
    sv = sum(w * at(0, o) for o, w in zip(ov1, wv1)) / h
    suu = sum(w * at(o, 0) for o, w in zip(ou2, wu2)) / (h * h)
    svv = sum(w * at(0, o) for o, w in zip(ov2, wv2)) / (h * h)
    suv = sum(wu * wv * at(o_u, o_v)
              for o_u, wu in zip(ou1, wu1)
              for o_v, wv in zip(ov1, wv1)) / (h * h)
    return su, sv, suu, suv, svv


def _partials(fn, u, v, h, richardson=False):
    if not richardson:
        return _fd_partials(fn, u, v, h)
    big = 2.0 * h
    coarse = _fd_partials(fn, u, v, big, h_select=big)
    fine = _fd_partials(fn, u, v, h, h_select=big)
    return tuple((4.0 * a - b) / 3.0 for a, b in zip(fine, coarse))


def surface_normal(patch, u, v, h=FD_STEP):
    fn = patch.eval
    (ou1, wu1), _ = _stencils(u, h)
    (ov1, wv1), _ = _stencils(v, h)
    su = sum(w * fn(u + o * h, v) for o, w in zip(ou1, wu1)) / h
    sv = sum(w * fn(u, v + o * h) for o, w in zip(ov1, wv1)) / h
    n = np.cross(su, sv)
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        return None
    return n / norm


def analysis_fields(surface, tri, h=None, richardson=False):
    """Per-vertex mean curvature and isophote value channels.

    Partial derivatives come from central differences (one sided at the
    patch-domain edges); samples with a degenerate normal are flagged NaN.
    Richardson extrapolation trades double the evaluations for two extra
    orders of accuracy.
    """
    if h is None:
        h = 1e-3 if richardson else FD_STEP
    nv = len(tri.positions)
    mean_curv = np.full(nv, np.nan)
    isophote = np.full(nv, np.nan)
    degenerate = 0
    for idx in range(nv):
        f = int(tri.src_face[idx])
        u, v = tri.src_uv[idx]
        fn = surface.patch(f).eval
        su, sv, suu, suv, svv = _partials(fn, u, v, h, richardson)
        ncross = np.cross(su, sv)
        norm = np.linalg.norm(ncross)
        if norm < 1e-12:
            degenerate += 1
            continue
        nrm = ncross / norm
        E, F, G = su @ su, su @ sv, sv @ sv
        L, M, N = suu @ nrm, suv @ nrm, svv @ nrm
        denom = E * G - F * F
        if abs(denom) < 1e-300:
            degenerate += 1
            continue
        mean_curv[idx] = (E * N - 2.0 * F * M + G * L) / (2.0 * denom)
        isophote[idx] = float(nrm @ LIGHT_DIRECTION)
    tri.channels["mean_curvature"] = mean_curv
    tri.channels["isophote"] = isophote
    return {"degenerate_samples": degenerate}


# -- continuity audit ---------------------------------------------------------------

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


def _fd_cross_into(patch_eval, u, v, axis, inward, r, h):
    """One-sided r-th derivative along the inward cross direction."""
    def at(k):
        k = k * inward
        return (patch_eval(u + k * h, v) if axis == 0
                else patch_eval(u, v + k * h))

    if r == 1:
        return (-25.0 * at(0) + 48.0 * at(1) - 36.0 * at(2)
                + 16.0 * at(3) - 3.0 * at(4)) / (12.0 * h)
    if r == 2:
        return (45.0 * at(0) - 154.0 * at(1) + 214.0 * at(2)
                - 156.0 * at(3) + 61.0 * at(4) - 10.0 * at(5)) \
            / (12.0 * h * h)
    raise ValueError("only first and second cross orders are audited")


def continuity_report(surface, samples=16, fd_step=5e-3):
    """Sampled gaps across every interior shared edge.

    Reports position gaps and tangent-plane angles for all edges; for pairs
    of grid patches it additionally checks that one-sided cross derivatives
    match after scaling by the blend-function ratio, through the family
    continuity order.
    """
    mesh = surface.mesh
    k = surface.options.family.continuity if surface.options.mode == "g2" \
        else min(surface.options.family.continuity, 2)
    edges = []
    ts = np.linspace(0.0, 1.0, samples)
    for h, t in _interior_shared_edges(surface):
        f1, f2 = mesh.he_face(h), mesh.he_face(t)
        p1 = surface.patch(f1)
        p2 = surface.patch(f2)
        kind = ("regular" if f1 in surface.regular else "gregory",
                "regular" if f2 in surface.regular else "gregory")
        pos_gap = 0.0
        ang_gap = 0.0
        delta_residual = {}
        for tv in ts:
            a = surface.eval_on_edge(f1, h, tv)
            b = surface.eval_on_edge(f2, t, 1.0 - tv)
            pos_gap = max(pos_gap, float(np.linalg.norm(a - b)))
            u1, v1 = surface._edge_uv(f1, h, tv)
            u2, v2 = surface._edge_uv(f2, t, 1.0 - tv)
            n1 = surface_normal(p1, u1, v1)
            n2 = surface_normal(p2, u2, v2)
            if n1 is not None and n2 is not None:
                cosang = np.clip(abs(float(n1 @ n2)), -1.0, 1.0)
                ang_gap = max(ang_gap, float(np.degrees(np.arccos(cosang))))
        if kind == ("regular", "regular"):
            residuals = {r: 0.0 for r in range(1, k + 1)}
            for tv in ts[1:-1]:
                u1, v1 = surface._edge_uv(f1, h, tv)
                u2, v2 = surface._edge_uv(f2, t, 1.0 - tv)
                ax1, in1, b1 = _cross_frame(surface, f1, h, u1, v1)
                ax2, in2, b2 = _cross_frame(surface, f2, t, u2, v2)
                for r in range(1, k + 1):
                    d1v = _fd_cross_into(p1.eval, u1, v1, ax1, in1, r,
                                         fd_step)
                    d2v = _fd_cross_into(p2.eval, u2, v2, ax2, in2, r,
                                         fd_step)
                    if r % 2 == 0:
                        pass  # even orders keep sign under direction flip
                    else:
                        d2v = -d2v  # orient both derivatives the same way
                    ratio = (b1 / b2) ** r
                    num = float(np.linalg.norm(d1v - ratio * d2v))
                    den = max(float(np.linalg.norm(d1v)), 1e-12)
                    residuals[r] = max(residuals[r], num / den)
            delta_residual = {str(r): residuals[r] for r in residuals}
        edges.append({
            "faces": [int(f1), int(f2)],
            "kinds": list(kind),
            "position_gap": pos_gap,
            "normal_angle_deg": ang_gap,
            "delta_residual": delta_residual,
        })
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
    """(axis, inward sign, blend value) for the cross direction at a boundary
    point of regular face f reached along half edge he."""
    c = (he - surface.anchors[f]) % 4
    side, axis, inward, t = (("v0", 1, 1, u), ("u1", 0, -1, v),
                             ("v1", 1, -1, u), ("u0", 0, 1, v))[c]
    return axis, inward, surface.regular[f].side_blend(side)(t)


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
