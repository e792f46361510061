"""Quad-mesh connectivity, per-edge parameter intervals and local grids.

Half edges are indexed 4*f + c for face f and corner c, so next/prev are
index arithmetic.  All faces are quads with consistent CCW orientation; an
interior edge has exactly two half edges (twins), a boundary edge one (its
twin slot holds -1).

Local uv frames of a face are fixed by an anchor half edge a: the corners are
p0 = origin(a), p1 = origin(next(a)), p2 = origin(next2(a)), p3 =
origin(next3(a)), with u running p0->p1 and v running p0->p3.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateEdgeError, MeshStructureError,
                     UnsupportedFaceError, UnsupportedMeshError)

DEGENERATE_REL_TOL = 1e-12  # edges shorter than this x bbox diagonal are rejected


def edge_key(i, j):
    return (i, j) if i < j else (j, i)


class QuadMesh:
    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(faces, dtype=int).reshape(-1, 4)
        if len(self.faces) and (self.faces.min() < 0
                                or self.faces.max() >= len(self.vertices)):
            raise MeshStructureError("face references a vertex out of range")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshStructureError(
                f"vertex {bad[0]} has a non-finite coordinate")
        # set by build_connectivity
        self.he_twin = None
        self.he_origin = None
        self._valence = None
        self._vertex_boundary = None
        self._vertex_out = None
        # phantom bookkeeping (extrapolated meshes)
        self.real_face_count = len(self.faces)
        self.real_vertex_count = len(self.vertices)
        self.load_warnings = 0

    # -- basic counts ------------------------------------------------------
    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_halfedges(self):
        return 4 * len(self.faces)

    @property
    def has_connectivity(self):
        return self.he_twin is not None

    def edges(self):
        """Sorted list of undirected edges (i, j) with i < j."""
        seen = set()
        out = []
        for f in self.faces:
            for c in range(4):
                k = edge_key(int(f[c]), int(f[(c + 1) % 4]))
                if k not in seen:
                    seen.add(k)
                    out.append(k)
        out.sort()
        return out

    # -- half-edge accessors -----------------------------------------------
    def he_face(self, h):
        return h >> 2

    def he_next(self, h):
        return (h & ~3) | ((h + 1) & 3)

    def he_prev(self, h):
        return (h & ~3) | ((h + 3) & 3)

    def origin(self, h):
        return int(self.he_origin[h])

    def target(self, h):
        return int(self.he_origin[self.he_next(h)])

    def twin(self, h):
        t = int(self.he_twin[h])
        return t if t >= 0 else None

    def halfedges_of_face(self, f):
        return [4 * f + c for c in range(4)]

    def halfedge_between(self, i, j):
        """Half edge i -> j, or None."""
        return self._he_dir.get((i, j))

    def valence(self, v):
        return int(self._valence[v])

    def is_boundary_vertex(self, v):
        return bool(self._vertex_boundary[v])

    def has_boundary(self):
        return bool(np.any(self.he_twin < 0))

    # -- rotations around a vertex -----------------------------------------
    def rot_ccw(self, h):
        """Next outgoing half edge CCW around origin(h), or None at boundary."""
        return self.twin(self.he_prev(h))

    def rot_cw(self, h):
        t = self.twin(h)
        return None if t is None else self.he_next(t)

    def vertex_star(self, v):
        """Outgoing half edges around v in CCW order.

        For interior vertices this is the full cycle; for boundary vertices
        the fan is swept from the outgoing boundary half edge.
        """
        h0 = int(self._vertex_out[v])
        if h0 < 0:
            return []
        out = [h0]
        h = self.rot_ccw(h0)
        while h is not None and h != h0:
            out.append(h)
            h = self.rot_ccw(h)
        return out

    def continuation(self, h):
        """Half edge continuing a grid row through target(h).

        Defined only through interior valence-4 vertices (take the opposite
        edge); returns None at boundary or extraordinary vertices.
        """
        w = self.target(h)
        if self._vertex_boundary[w] or self._valence[w] != 4:
            return None
        t = self.twin(h)
        if t is None:
            return None
        r = self.rot_ccw(t)
        if r is None:
            return None
        return self.rot_ccw(r)

    def edge_faces(self, i, j):
        faces = []
        for key in ((i, j), (j, i)):
            h = self._he_dir.get(key)
            if h is not None:
                faces.append(self.he_face(h))
        return faces

    def polyline_continuation(self, a, b):
        """Vertex c continuing the section polyline a -> b past b, or None.

        The continuation edge is the unique edge at b adjacent to (a, b):
        sharing only the vertex b, no face.  Interior valence-4 vertices give
        the opposite edge; boundary runs continue along the boundary; the
        walk stops where no unique such edge exists (extraordinary vertices,
        corners, T-configurations).
        """
        faces_ab = set(self.edge_faces(a, b))
        candidates = []
        for c in self._vertex_neighbors[b]:
            if c == a:
                continue
            if faces_ab.isdisjoint(self.edge_faces(b, c)):
                candidates.append(c)
        return candidates[0] if len(candidates) == 1 else None

    # -- construction --------------------------------------------------------
    def build_connectivity(self):
        """Fill twin/origin tables, valences and boundary flags."""
        nf = len(self.faces)
        if nf == 0:
            raise MeshStructureError("mesh has no faces")
        self.he_origin = np.empty(4 * nf, dtype=int)
        for f in range(nf):
            quad = self.faces[f]
            if len(set(int(v) for v in quad)) != 4:
                raise MeshStructureError(f"face {f} repeats a vertex")
            for c in range(4):
                self.he_origin[4 * f + c] = quad[c]

        pairs = {}
        for h in range(4 * nf):
            a, b = self.origin(h), self.target(h)
            pairs.setdefault(edge_key(a, b), []).append(h)

        self.he_twin = np.full(4 * nf, -1, dtype=int)
        self._he_dir = {}
        for key, hs in pairs.items():
            if len(hs) > 2:
                raise MeshStructureError(
                    f"non-manifold edge {key}: {len(hs)} incident faces")
            if len(hs) == 2:
                a, b = hs
                if self.origin(a) == self.origin(b):
                    raise MeshStructureError(
                        f"inconsistent orientation across edge {key}")
                self.he_twin[a] = b
                self.he_twin[b] = a
        for h in range(4 * nf):
            self._he_dir[(self.origin(h), self.target(h))] = h

        nv = len(self.vertices)
        self._valence = np.zeros(nv, dtype=int)
        self._vertex_boundary = np.zeros(nv, dtype=bool)
        self._vertex_neighbors = [[] for _ in range(nv)]
        for (a, b), hs in pairs.items():
            self._valence[a] += 1
            self._valence[b] += 1
            self._vertex_neighbors[a].append(b)
            self._vertex_neighbors[b].append(a)
            if len(hs) == 1:
                self._vertex_boundary[a] = True
                self._vertex_boundary[b] = True
        for nbrs in self._vertex_neighbors:
            nbrs.sort()

        # pick one outgoing half edge per vertex; boundary vertices get the
        # outgoing boundary one so vertex_star sweeps the whole fan
        self._vertex_out = np.full(nv, -1, dtype=int)
        for h in range(4 * nf):
            v = self.origin(h)
            if self._vertex_out[v] < 0:
                self._vertex_out[v] = h
        for h in range(4 * nf):
            if self.he_twin[h] < 0:
                self._vertex_out[self.origin(h)] = h
        # the faces at a vertex must form one fan; two fans that share only
        # the vertex (a bowtie) leave some of its half edges off the star
        fan_sizes = np.bincount(self.he_origin, minlength=nv)
        for v in range(nv):
            if len(self.vertex_star(v)) != fan_sizes[v]:
                raise MeshStructureError(
                    f"non-manifold vertex {v}: its faces form more than "
                    "one fan")

        self._reject_degenerate_edges(pairs.keys())
        return self

    def _reject_degenerate_edges(self, keys):
        if not len(self.vertices):
            return
        bbox = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        diag = float(np.linalg.norm(bbox))
        if diag == 0.0:
            raise DegenerateEdgeError("mesh has zero extent")
        tol = DEGENERATE_REL_TOL * diag
        for a, b in keys:
            if np.linalg.norm(self.vertices[a] - self.vertices[b]) < tol:
                raise DegenerateEdgeError(f"edge ({a}, {b}) is degenerate")

    def canonical_halfedge(self, f):
        """Face half edge whose origin has the smallest vertex index."""
        hs = self.halfedges_of_face(f)
        return min(hs, key=lambda h: self.origin(h))


# -- OBJ I/O ----------------------------------------------------------------

def load_obj(path):
    """Read a quad-only Wavefront OBJ (v/f records; everything else skipped)."""
    verts = []
    faces = []
    warnings = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshStructureError(f"malformed vertex line: {line!r}")
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    vi = tok.split("/")[0]
                    idx.append(int(vi))
                if len(idx) != 4:
                    raise UnsupportedFaceError(
                        f"face {len(faces)} has {len(idx)} vertices; "
                        "only quads are supported")
                if any(i <= 0 for i in idx):
                    raise MeshStructureError("only positive OBJ indices supported")
                faces.append([i - 1 for i in idx])
            else:
                warnings += 1
    mesh = QuadMesh(verts, faces)
    mesh.load_warnings = warnings
    return mesh


def save_obj(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in mesh.vertices:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1} {f[3] + 1}\n")


# -- edge parameter intervals -------------------------------------------------

class EdgeParams:
    """Positive parameter interval per undirected mesh edge."""

    def __init__(self, values=None):
        self._d = dict(values) if values else {}

    def get(self, i, j):
        return self._d[edge_key(i, j)]

    def set(self, i, j, value):
        if not 0.0 < value < np.inf:
            raise DegenerateEdgeError(f"edge ({i}, {j}): interval must be "
                                      "finite and > 0")
        self._d[edge_key(i, j)] = float(value)

    def __contains__(self, key):
        return edge_key(*key) in self._d

    def __len__(self):
        return len(self._d)

    def items(self):
        return sorted(self._d.items())

    def copy(self):
        return EdgeParams(self._d)

    def to_json(self):
        return [{"edge": [int(i), int(j)], "d": v} for (i, j), v in self.items()]

    @classmethod
    def from_json(cls, records, mesh=None):
        params = cls()
        for rec in records:
            i, j = rec["edge"]
            params.set(int(i), int(j), float(rec["d"]))
        if mesh is not None:
            for key in mesh.edges():
                if key not in params._d:
                    raise ValueError(f"edge {key} missing from sidecar")
        return params


def _edge_ribbons(mesh):
    """Partition edges into ribbons (chains of pairwise opposite edges)."""
    seen = set()
    ribbons = []
    for a, b in mesh.edges():
        if (a, b) in seen:
            continue
        h0 = mesh.halfedge_between(a, b)
        if h0 is None:
            h0 = mesh.halfedge_between(b, a)
        chain = [edge_key(a, b)]
        seen.add(chain[0])
        closed = False
        # walk through faces on both sides, stepping to the opposite edge
        for start in (h0, mesh.twin(h0)):
            if start is None:
                continue
            h = start
            while True:
                opp = mesh.he_next(mesh.he_next(h))  # opposite edge in face
                k = edge_key(mesh.origin(opp), mesh.target(opp))
                if k == chain[0]:
                    closed = True
                    break
                if k in seen:
                    break
                seen.add(k)
                if start is h0:
                    chain.append(k)
                else:
                    chain.insert(0, k)
                h = mesh.twin(opp)
                if h is None:
                    break
            if closed:
                break
        ribbons.append((chain, closed))
    return ribbons


def assign_edge_params(mesh, method="centripetal", alpha=None):
    """Compute one interval per edge.

    uniform/chordal/centripetal follow |edge|^alpha with alpha 0, 1, 1/2
    (an explicit alpha overrides the exponent; like make_knots, it must lie
    in [0, 1]).  mean averages the centripetal value over each edge ribbon
    and requires a regular mesh.
    """
    if not mesh.has_connectivity:
        raise ValueError("build_connectivity first")
    exponents = {"uniform": 0.0, "chordal": 1.0, "centripetal": 0.5,
                 "mean": 0.5}
    if method not in exponents:
        raise ValueError(f"unknown parametrization {method!r}")
    a = exponents[method] if alpha is None else float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")

    base = EdgeParams()
    for i, j in mesh.edges():
        length = float(np.linalg.norm(mesh.vertices[i] - mesh.vertices[j]))
        if length == 0.0:
            raise DegenerateEdgeError(f"edge ({i}, {j}) has zero length")
        base.set(i, j, length ** a)

    if method != "mean":
        return base

    for v in range(mesh.num_vertices):
        if not mesh.is_boundary_vertex(v) and mesh.valence(v) != 4:
            raise UnsupportedMeshError(
                "mean parametrization requires a regular mesh "
                f"(vertex {v} has valence {mesh.valence(v)})")
    out = EdgeParams()
    for chain, _closed in _edge_ribbons(mesh):
        avg = sum(base.get(*k) for k in chain) / len(chain)
        for i, j in chain:
            out.set(i, j, avg)
    return out


# -- section polylines ---------------------------------------------------------

@dataclass
class SectionPolyline:
    vertices: list  # closed polylines repeat the first vertex at the end
    closed: bool

    def edge_keys(self):
        return [edge_key(self.vertices[k], self.vertices[k + 1])
                for k in range(len(self.vertices) - 1)]


def trace_section_polylines(mesh):
    """All section polylines; every edge belongs to exactly one.

    Consecutive polyline edges share one vertex and no face; a polyline
    closes when it returns to its starting edge and otherwise ends where no
    unique continuation exists.
    """
    visited = set()
    polylines = []
    for a0, b0 in mesh.edges():
        if (a0, b0) in visited:
            continue
        visited.add((a0, b0))
        verts = [a0, b0]
        closed = False
        a, b = a0, b0
        while True:
            c = mesh.polyline_continuation(a, b)
            if c is None:
                break
            if (b, c) == (a0, b0):
                closed = True
                break
            verts.append(c)
            visited.add(edge_key(b, c))
            a, b = b, c
        # a closed walk already ends on the starting vertex
        if not closed:
            a, b = b0, a0
            while True:
                c = mesh.polyline_continuation(a, b)
                if c is None:
                    break
                verts.insert(0, c)
                visited.add(edge_key(b, c))
                a, b = b, c
        polylines.append(SectionPolyline(verts, closed))
    return polylines


def section_polyline_curve(mesh, params, poly, fam):
    """Interpolating curve of a section polyline with its edge intervals."""
    from .splines import PolylineCurve
    verts = poly.vertices[:-1] if poly.closed else poly.vertices
    pts = mesh.vertices[verts]
    knots = [0.0]
    for k in range(len(poly.vertices) - 1):
        i, j = poly.vertices[k], poly.vertices[k + 1]
        knots.append(knots[-1] + params.get(i, j))
    return PolylineCurve(pts, np.asarray(knots), fam, closed=poly.closed)


# -- local grids / classification ---------------------------------------------

@dataclass
class LocalGrid:
    """w x w vertex window around a face plus its boundary intervals.

    points[i + half - 1, j + half - 1] holds p_{i,j} for i, j in
    [-half+1, half]; d0/d1 are the bottom/top row intervals d_{i,0}, d_{i,1}
    and e0/e1 the left/right column intervals, each of length w - 1 indexed
    the same way.
    """
    face: int
    anchor: int
    w: int
    points: np.ndarray
    vertex_ids: np.ndarray
    d0: np.ndarray = field(default=None)
    d1: np.ndarray = field(default=None)
    e0: np.ndarray = field(default=None)
    e1: np.ndarray = field(default=None)


class _GridFail(Exception):
    pass


def _chain(mesh, h, half):
    """Half edges at offsets -half+1..half-1 along the grid line through h
    (offset 0), walked both ways with continuation."""
    if h is None:
        raise _GridFail
    chain = [h]
    ahead = behind = h
    for _ in range(half - 1):
        ahead = mesh.continuation(ahead)
        back = mesh.twin(behind)
        back = None if back is None else mesh.continuation(back)
        behind = None if back is None else mesh.twin(back)
        if ahead is None or behind is None:
            raise _GridFail
        chain = [behind] + chain + [ahead]
    return chain


def _try_extract(mesh, face, w, anchor, params=None):
    half = w // 2
    a = anchor
    # columns 0 and 1 as vertical half edges (i,j)->(i,j+1) and the inner
    # rows j in [-half+2, half-1] as horizontal ones (i,j)->(i+1,j), each
    # indexed by its offset + half - 1
    col0 = _chain(mesh, mesh.rot_ccw(a), half)
    col1 = _chain(mesh, mesh.he_next(a), half)
    rows = {j: _chain(mesh, a if j == 0 else mesh.rot_cw(col0[j + half - 1]),
                      half)
            for j in range(-half + 2, half)}

    vid = {}

    def put(i, j, v):
        if (i, j) in vid and vid[(i, j)] != v:
            raise _GridFail
        vid[(i, j)] = v

    for j, row in rows.items():
        for k, h in enumerate(row):
            i = -half + 1 + k
            put(i, j, mesh.origin(h))
            put(i + 1, j, mesh.target(h))

    # outermost rows from the faces across the extreme inner rows
    jb = -half + 2
    for k, h in enumerate(rows[jb]):
        i = -half + 1 + k
        t = mesh.twin(h)
        if t is None:
            raise _GridFail
        put(i, jb - 1, mesh.target(mesh.he_next(t)))
        put(i + 1, jb - 1, mesh.target(mesh.he_next(mesh.he_next(t))))
    jt = half - 1
    for k, h in enumerate(rows[jt]):
        i = -half + 1 + k
        put(i + 1, jt + 1, mesh.target(mesh.he_next(h)))
        put(i, jt + 1, mesh.target(mesh.he_next(mesh.he_next(h))))

    pts = np.empty((w, w, 3))
    ids = np.empty((w, w), dtype=int)
    for i in range(-half + 1, half + 1):
        for j in range(-half + 1, half + 1):
            v = vid[(i, j)]
            ids[i + half - 1, j + half - 1] = v
            pts[i + half - 1, j + half - 1] = mesh.vertices[v]

    grid = LocalGrid(face=face, anchor=anchor, w=w, points=pts, vertex_ids=ids)
    if params is not None:
        def interval(h):
            return params.get(mesh.origin(h), mesh.target(h))

        grid.d0 = np.array([interval(h) for h in rows[0]])
        grid.d1 = np.array([interval(h) for h in rows[1]])
        grid.e0 = np.array([interval(h) for h in col0])
        grid.e1 = np.array([interval(h) for h in col1])
    return grid


def extract_local_grid(mesh, params, face, w=4, anchor=None):
    """Local grid of a regular face; raises UnsupportedMeshError otherwise."""
    if anchor is None:
        anchor = mesh.canonical_halfedge(face)
    elif mesh.he_face(anchor) != face:
        raise ValueError("anchor half edge does not belong to the face")
    try:
        return _try_extract(mesh, face, w, anchor, params)
    except _GridFail:
        raise UnsupportedMeshError(
            f"face {face} has no {w}x{w} vertex grid") from None


def classify_faces(mesh, w=4, params=None):
    """Split real faces into (regular, extraordinary) for support width w.

    regular maps each regular face, in order, to the LocalGrid its window
    walk built (at the canonical anchor, with intervals when params are
    given); extraordinary lists the other faces.
    """
    regular, extraordinary = {}, []
    for f in range(mesh.real_face_count):
        try:
            regular[f] = _try_extract(mesh, f, w, mesh.canonical_halfedge(f),
                                      params)
        except _GridFail:
            extraordinary.append(f)
    return regular, extraordinary


# -- boundary extrapolation ----------------------------------------------------

def extrapolate_boundary_layer(mesh, params):
    """Append one linearly extrapolated layer of faces outside the boundary.

    Each boundary vertex gains a mirror vertex 2*p - p_inward per transversal
    direction; valence-2 corners additionally get a diagonal mirror and a
    corner face.  Phantom edges copy the interval of the edge they extend
    (transversally) or run parallel to (longitudinally).  Closed meshes are
    returned unchanged.
    """
    if not mesh.has_connectivity:
        raise ValueError("build_connectivity first")
    if not mesh.has_boundary():
        return mesh, params

    verts = [p.copy() for p in mesh.vertices]
    faces = [list(map(int, f)) for f in mesh.faces]
    new_params = params.copy()

    phantom = {}

    def phantom_vertex(v, inward):
        key = (v, inward)
        if key not in phantom:
            verts.append(2.0 * mesh.vertices[v] - mesh.vertices[inward])
            phantom[key] = len(verts) - 1
        return phantom[key]

    boundary_hes = [h for h in range(mesh.num_halfedges)
                    if mesh.twin(h) is None]

    for h in boundary_hes:
        a, b = mesh.origin(h), mesh.target(h)
        ua = mesh.origin(mesh.he_prev(h))     # inward from a along this run
        ub = mesh.target(mesh.he_next(h))     # inward from b
        a2 = phantom_vertex(a, ua)
        b2 = phantom_vertex(b, ub)
        faces.append([b, a, a2, b2])
        if (a, a2) not in new_params:
            new_params.set(a, a2, params.get(a, ua))
        if (b, b2) not in new_params:
            new_params.set(b, b2, params.get(b, ub))
        new_params.set(a2, b2, params.get(a, b))

    # corner faces at valence-2 boundary vertices
    for c in range(mesh.real_vertex_count):
        if not mesh.is_boundary_vertex(c) or mesh.valence(c) != 2:
            continue
        star = mesh.vertex_star(c)
        if len(star) != 1:
            continue
        h_out = star[0]                      # boundary half edge leaving c
        h_in = mesh.he_prev(h_out)           # boundary half edge arriving at c
        cin = phantom[(c, mesh.target(mesh.he_next(h_in)))]
        cout = phantom[(c, mesh.origin(mesh.he_prev(h_out)))]
        if cin == cout:
            continue
        diag = mesh.target(mesh.he_next(h_out))
        verts.append(2.0 * mesh.vertices[c] - mesh.vertices[diag])
        c2 = len(verts) - 1
        faces.append([c, cin, c2, cout])
        new_params.set(cin, c2, new_params.get(c, cout))
        new_params.set(cout, c2, new_params.get(c, cin))

    out = QuadMesh(np.asarray(verts), np.asarray(faces))
    out.real_face_count = mesh.real_face_count
    out.real_vertex_count = mesh.real_vertex_count
    out.build_connectivity()
    return out, new_params
