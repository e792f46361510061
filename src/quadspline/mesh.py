"""Quad-mesh connectivity, per-edge parameter intervals and local grids.

Half edges are indexed 4*f + c for face f and corner c.  All faces are quads
with consistent CCW orientation; an interior edge has exactly two half edges
(twins), a boundary edge one.

build_connectivity fills the half-edge tables next_of, prev_of, twin_of,
origin_of and cont_of.  Each ends in one extra entry -1, so index -1 maps to
-1 in every table and a missing neighbour stays -1 through any composition.

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


def _undirected_edges(faces):
    """Sorted undirected edges (E, 2) of the quads, i < j in each row, and
    the edge of each half edge."""
    ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1)
    lo, hi = np.sort(ends.reshape(-1, 2), axis=1).T
    n = int(hi.max(initial=0)) + 1
    keys, edge = np.unique(lo * n + hi, return_inverse=True)
    return np.stack(np.divmod(keys, n), axis=1), edge.ravel()


def _components(n, a, b):
    """Component label of each of n nodes under the links a[k] - b[k]: the
    smallest node of its component."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


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
        self.next_of = self.prev_of = self.twin_of = None
        self.origin_of = self.cont_of = None
        self._he_dir = None
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
        return self.twin_of is not None

    def edges(self):
        """Sorted list of undirected edges (i, j) with i < j."""
        return list(map(tuple, _undirected_edges(self.faces)[0].tolist()))

    # -- half-edge accessors -----------------------------------------------
    def he_face(self, h):
        return h >> 2

    def he_next(self, h):
        return (h & ~3) | ((h + 1) & 3)

    def he_prev(self, h):
        return (h & ~3) | ((h + 3) & 3)

    def origin(self, h):
        return int(self.origin_of[h])

    def target(self, h):
        return int(self.origin_of[self.he_next(h)])

    def twin(self, h):
        t = int(self.twin_of[h])
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
        return bool(np.any(self.twin_of[:-1] < 0))

    # -- rotations around a vertex -----------------------------------------
    def fans(self, vertices):
        """Stars and fans of an array of vertices, as rows padded with -1.

        Row i of the stars lists the outgoing half edges around vertices[i]
        in CCW order: the full cycle at an interior vertex, swept from the
        outgoing boundary half edge at a boundary vertex.  Row i of the fans
        lists the neighbours in the same order; at a boundary vertex they
        run from one boundary edge to the other, one more than the star.
        """
        vertices = np.asarray(vertices, int)
        # the next outgoing half edge CCW, -1 at the boundary
        rot = self.twin_of[self.prev_of]
        first = self._vertex_out[vertices]
        # at least one column, so that row reductions take no vertices
        width = int(self._valence[vertices].max(initial=1))
        star = np.full((len(vertices), width), -1)
        h = first
        for k in range(width):
            star[:, k] = h
            h = rot[h]
            h[h == first] = -1
        fan = self.origin_of[self.next_of[star]]
        count = (star >= 0).sum(axis=1)
        rows = np.flatnonzero(self._vertex_boundary[vertices] & (count > 0))
        fan[rows, count[rows]] = self.origin_of[
            self.prev_of[star[rows, count[rows] - 1]]]
        return star, fan

    def vertex_star(self, v):
        """Outgoing half edges around v in CCW order (a row of fans)."""
        star = self.fans([v])[0][0]
        return star[star >= 0].tolist()

    def fan(self, v):
        """Neighbours of v in CCW order around it (a row of fans)."""
        fan = self.fans([v])[1][0]
        return fan[fan >= 0].tolist()

    def continuation(self, h):
        """Half edge continuing a grid row through target(h).

        Defined only through interior valence-4 vertices (take the opposite
        edge); returns None at boundary or extraordinary vertices.
        """
        g = int(self.cont_of[h])
        return g if g >= 0 else None

    def polyline_continuation(self, a, b):
        """Vertex c continuing the section polyline a -> b past b, or None.

        Through an interior vertex of valence 4 the polyline takes the
        opposite edge (the continuation table).  At a boundary vertex of
        valence 3 or 4, with its fan neighbours n_0, n_1, ... in order around
        it, n_i and n_(i+2) continue each other: a boundary run, or the two
        grid lines through a concave corner.  Every other vertex ends the
        polyline.  The rule is symmetric, so the polylines do not depend on
        the vertex labels.
        """
        if not self.is_boundary_vertex(b):
            g = self.continuation(self.halfedge_between(a, b))
            return None if g is None else self.target(g)
        k = self.valence(b)
        if k not in (3, 4):
            return None
        nbrs = self.fan(b)
        i = nbrs.index(a)
        j = i + 2 if i + 2 < k else i - 2
        return nbrs[j] if j >= 0 else None

    # -- construction --------------------------------------------------------
    def build_connectivity(self):
        """Fill the half-edge tables, valences and boundary flags."""
        nf, nv = len(self.faces), len(self.vertices)
        if nf == 0:
            raise MeshStructureError("mesh has no faces")
        quads = np.sort(self.faces, axis=1)
        repeats = np.flatnonzero((quads[:, 1:] == quads[:, :-1]).any(axis=1))
        if len(repeats):
            raise MeshStructureError(f"face {repeats[0]} repeats a vertex")

        h = np.arange(4 * nf)
        origin = self.faces.ravel()
        target = origin[self.he_next(h)]
        edges, edge = _undirected_edges(self.faces)
        count = np.bincount(edge)
        # the first and last half edge of each edge; an error names the edge
        # whose first half edge comes first
        order = np.argsort(edge, kind="stable")
        start = np.cumsum(count) - count
        first, last = order[start], order[start + count - 1]
        bad = (count > 2) | ((count == 2) & (origin[first] == origin[last]))
        if bad.any():
            e = np.flatnonzero(bad)[np.argmin(first[bad])]
            key = tuple(edges[e].tolist())
            if count[e] > 2:
                raise MeshStructureError(
                    f"non-manifold edge {key}: {count[e]} incident faces")
            raise MeshStructureError(
                f"inconsistent orientation across edge {key}")

        pair = count == 2
        twin = np.full(4 * nf + 1, -1)
        twin[first[pair]], twin[last[pair]] = last[pair], first[pair]
        self.twin_of = twin
        self.next_of = np.append(self.he_next(h), -1)
        self.prev_of = np.append(self.he_prev(h), -1)
        self.origin_of = np.append(origin, -1)
        self._he_dir = dict(zip(zip(origin.tolist(), target.tolist()),
                                h.tolist()))
        self._valence = np.bincount(edges.ravel(), minlength=nv)
        self._vertex_boundary = np.bincount(edges[count == 1].ravel(),
                                            minlength=nv) > 0

        # the faces at a vertex must form one fan, one orbit of rot; two
        # fans that share only the vertex (a bowtie) are two orbits
        rot = twin[self.prev_of]
        linked = h[rot[:-1] >= 0]
        fan = _components(4 * nf, linked, rot[linked])
        split = np.flatnonzero(
            np.bincount(origin[np.unique(fan)], minlength=nv) > 1)
        if len(split):
            raise MeshStructureError(
                f"non-manifold vertex {split[0]}: its faces form more than "
                "one fan")
        # one outgoing half edge per vertex for vertex_star: the outgoing
        # boundary one at a boundary vertex, else the first
        self._vertex_out = np.full(nv, -1)
        self._vertex_out[origin] = fan
        boundary = h[twin[:-1] < 0]
        self._vertex_out[origin[boundary]] = boundary

        # through an interior valence-4 vertex a grid line leaves target(h)
        # by the edge opposite h
        regular = (self._valence == 4) & ~self._vertex_boundary
        self.cont_of = np.where(np.append(regular[target], False),
                                rot[rot[twin]], -1)

        self._reject_degenerate_edges(edges, first)
        return self

    def _reject_degenerate_edges(self, edges, first):
        bbox = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        diag = float(np.linalg.norm(bbox))
        if diag == 0.0:
            raise DegenerateEdgeError("mesh has zero extent")
        short = np.linalg.norm(self.vertices[edges[:, 0]]
                               - self.vertices[edges[:, 1]], axis=1) \
            < DEGENERATE_REL_TOL * diag
        if short.any():
            a, b = edges[np.flatnonzero(short)[np.argmin(first[short])]]
            raise DegenerateEdgeError(f"edge ({a}, {b}) is degenerate")

    def canonical_halfedge(self, f):
        """Face half edge whose origin has the smallest vertex index."""
        return 4 * f + int(np.argmin(self.faces[f]))


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

    edges, edge = _undirected_edges(mesh.faces)
    edges = edges.tolist()
    values = []
    for i, j in edges:
        length = float(np.linalg.norm(mesh.vertices[i] - mesh.vertices[j]))
        if length == 0.0:
            raise DegenerateEdgeError(f"edge ({i}, {j}) has zero length")
        values.append(length ** a)

    if method == "mean":
        irregular = np.flatnonzero(~mesh._vertex_boundary
                                   & (mesh._valence != 4))
        if len(irregular):
            v = irregular[0]
            raise UnsupportedMeshError(
                "mean parametrization requires a regular mesh "
                f"(vertex {v} has valence {mesh.valence(v)})")
        # a ribbon is a chain of edges pairwise opposite in a face
        quads = edge.reshape(-1, 4)
        _, ribbon = np.unique(_components(len(edges), quads[:, :2].ravel(),
                                          quads[:, 2:].ravel()),
                              return_inverse=True)
        values = (np.bincount(ribbon, values) / np.bincount(ribbon))[ribbon]

    params = EdgeParams()
    for (i, j), value in zip(edges, values):
        params.set(i, j, value)
    return params


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

    Consecutive polyline edges continue each other by
    QuadMesh.polyline_continuation; a polyline closes when it returns to its
    starting edge and otherwise ends where it has no continuation.
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


def _check_width(w):
    if w < 4 or w % 2:
        raise ValueError(f"window width must be even and at least 4, not {w}")


def _grids(mesh, anchors, w, params):
    """{face: LocalGrid} for the anchor half edges whose w x w window exists.

    Every window cell is a fixed composition of the half-edge tables from
    its anchor.  A window exists where every composition is defined and all
    writes to each cell agree.
    """
    N, P, T, O, C = (mesh.next_of, mesh.prev_of, mesh.twin_of,
                     mesh.origin_of, mesh.cont_of)
    half = w // 2

    def line(h):
        """(n, w - 1) half edges at offsets -half+1..half-1 along the grid
        line through h (offset 0), indexed by offset + half - 1."""
        ahead, behind = [h], [h]
        for _ in range(half - 1):
            ahead.append(C[ahead[-1]])
            behind.append(T[C[T[behind[-1]]]])
        return np.stack(behind[:0:-1] + ahead, axis=1)

    # columns 0 and 1 as vertical half edges (0,j)->(0,j+1), (1,j)->(1,j+1)
    # and the window rows y = 1..w-2 as horizontal ones (i,j)->(i+1,j), with
    # y = j + half - 1
    col0, col1 = line(T[P[anchors]]), line(N[anchors])
    rows = np.stack([line(N[T[col0[:, y]]]) for y in range(1, w - 1)], axis=1)
    # [n, y, k]: the vertex each row half edge k writes at x = k (lo) and at
    # x = k + 1 (hi); rows 0 and w - 1 come from the faces across rows 1 and
    # w - 2
    below, above = T[rows[:, 0]], rows[:, -1]
    lo = np.concatenate([O[N[N[below]]][:, None], O[rows],
                         O[P[above]][:, None]], axis=1)
    hi = np.concatenate([O[P[below]][:, None], O[N[rows]],
                         O[N[N[above]]][:, None]], axis=1)
    exists = ((np.minimum(col0, col1).min(axis=1) >= 0)
              & (np.minimum(lo, hi).min(axis=(1, 2)) >= 0)
              & (lo[:, :, 1:] == hi[:, :, :-1]).all(axis=(1, 2)))
    found = np.flatnonzero(exists)
    ids = np.concatenate([lo[found, :, :1], hi[found]],
                         axis=2).transpose(0, 2, 1)
    if params is not None:
        # rows j = 0, 1 and columns 0, 1: d0, d1, e0, e1 of each window
        sides = np.stack([rows[found, half - 2], rows[found, half - 1],
                          col0[found], col1[found]], axis=1)
        hs = np.unique(sides)
        interval = np.zeros(len(O))
        interval[hs] = [params.get(i, j) for i, j in
                        zip(O[hs].tolist(), O[N[hs]].tolist())]
    grids = {}
    for k, a in enumerate(anchors[found].tolist()):
        grid = LocalGrid(face=a >> 2, anchor=a, w=w,
                         points=mesh.vertices[ids[k]], vertex_ids=ids[k])
        if params is not None:
            grid.d0, grid.d1, grid.e0, grid.e1 = interval[sides[k]]
        grids[a >> 2] = grid
    return grids


def extract_local_grid(mesh, params, face, w=4, anchor=None):
    """Local grid of a regular face; raises UnsupportedMeshError otherwise."""
    _check_width(w)
    if anchor is None:
        anchor = mesh.canonical_halfedge(face)
    elif mesh.he_face(anchor) != face:
        raise ValueError("anchor half edge does not belong to the face")
    grid = _grids(mesh, np.array([anchor]), w, params).get(face)
    if grid is None:
        raise UnsupportedMeshError(f"face {face} has no {w}x{w} vertex grid")
    return grid


def classify_faces(mesh, w=4, params=None):
    """Split real faces into (regular, extraordinary) for support width w.

    regular maps each regular face, in order, to its LocalGrid (at the
    canonical anchor, with intervals when params are given); extraordinary
    lists the other faces.
    """
    _check_width(w)
    faces = np.arange(mesh.real_face_count)
    regular = _grids(mesh, 4 * faces + np.argmin(mesh.faces[faces], axis=1),
                     w, params)
    return regular, [f for f in faces.tolist() if f not in regular]


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

    for h in np.flatnonzero(mesh.twin_of[:-1] < 0).tolist():
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
