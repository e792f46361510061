"""Quad-mesh connectivity, per-edge parameter intervals and grid windows.

Half edges are indexed 4*f + c for face f and corner c.  All faces are quads
with consistent CCW orientation; an interior edge has exactly two half edges
(twins), a boundary edge one.

build_connectivity fills the half-edge tables next_of, prev_of, twin_of,
origin_of and cont_of.  Each ends in one extra entry -1, so index -1 maps to
-1 in every table and a missing neighbour stays -1 through any composition.
The edge intervals (assign_edge_params) are a float array in the same
layout: params[h] is the interval of h's edge, equal on twins, and the
extra entry is 1.0.

Local uv frames of a face are fixed by an anchor half edge a: the corners are
p0 = origin(a), p1 = origin(next(a)), p2 = origin(next2(a)), p3 =
origin(next3(a)), with u running p0->p1 and v running p0->p3.

classify_faces gathers the 4 x 4 vertex window of every regular face, with
its row and column intervals, in one pass of table compositions and hands
the windows back as arrays.

section_chains gives the section polylines as chains of half edges, walked
over a successor table of directed edges that the continuation table and
one fans call fill.
"""

import numpy as np

from .errors import (DegenerateEdgeError, MeshStructureError,
                     UnsupportedFaceError, UnsupportedMeshError)

DEGENERATE_REL_TOL = 1e-12  # edges shorter than this x bbox diagonal are rejected


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

    def valence(self, v):
        return int(self._valence[v])

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
        # one outgoing half edge per vertex for fans: the outgoing
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
        """Half edge of face(s) f leaving the face's smallest vertex."""
        return 4 * f + np.argmin(self.faces[f], axis=-1)


# -- OBJ I/O ----------------------------------------------------------------

def load_obj(path):
    """Read a quad-only Wavefront OBJ (v/f records; everything else skipped).
    A malformed v or f record raises an error that names path:line."""
    verts = []
    faces = []
    lines = []   # the line of each face
    warnings = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                try:
                    verts.append([float(parts[k]) for k in (1, 2, 3)])
                except (IndexError, ValueError):
                    raise MeshStructureError(
                        f"{path}:{lineno}: expected 'v x y z'") from None
            elif parts[0] == "f":
                try:
                    idx = [int(tok.split("/")[0]) for tok in parts[1:]]
                except ValueError:
                    raise MeshStructureError(f"{path}:{lineno}: face indices "
                                             "must be integers") from None
                if len(idx) != 4:
                    raise UnsupportedFaceError(
                        f"{path}:{lineno}: face {len(faces)} has {len(idx)} "
                        "vertices; only quads are supported")
                if min(idx) <= 0:
                    raise MeshStructureError(f"{path}:{lineno}: only positive "
                                             "OBJ indices are supported")
                faces.append([i - 1 for i in idx])
                lines.append(lineno)
            else:
                warnings += 1
    faces = np.asarray(faces, int).reshape(-1, 4)
    if faces.size and faces.max() >= len(verts):
        f = np.argmax(faces.max(axis=1) >= len(verts))
        raise MeshStructureError(f"{path}:{lines[f]}: face {f} references "
                                 f"vertex {faces[f].max() + 1}, but the file "
                                 f"has {len(verts)} vertices")
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

def assign_edge_params(mesh, method="centripetal", alpha=None):
    """Interval of each half edge's edge, twins equal, with one trailing
    padding entry 1.0 (the layout of the half-edge tables).

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
    diff = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    # sqrt of vecdot and float_power round as the scalar
    # float(np.linalg.norm(diff[e])) ** a does; norm(axis=1) and the array
    # ** do not
    length = np.sqrt(np.vecdot(diff, diff))
    bad = np.flatnonzero(~((0.0 < length) & (length < np.inf)))
    if len(bad):
        i, j = edges[bad[0]]
        raise DegenerateEdgeError(f"edge ({i}, {j}) has length "
                                  f"{length[bad[0]]}; it must be finite and "
                                  "> 0")
    values = np.float_power(length, a)

    if method == "mean":
        # a vertex with no edge lies on no ribbon
        irregular = np.flatnonzero(~mesh._vertex_boundary
                                   & (mesh._valence != 4)
                                   & (mesh._valence > 0))
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
    return np.append(values[edge], 1.0)


def check_edge_params(mesh, params):
    """params as a float array in the layout of assign_edge_params; raises
    ValueError for a wrong length or twins that differ, and
    DegenerateEdgeError for an interval that is not finite and > 0."""
    params = np.asarray(params, float)
    if params.shape != (mesh.num_halfedges + 1,):
        raise ValueError(f"edge params have shape {params.shape}; the mesh "
                         f"needs ({mesh.num_halfedges + 1},), one per half "
                         "edge and one padding entry")
    values, twin = params[:-1], mesh.twin_of[:-1]
    bad = np.flatnonzero(~((0.0 < values) & (values < np.inf)))
    if len(bad):
        h = bad[0]
        raise DegenerateEdgeError(
            f"edge ({mesh.origin(h)}, {mesh.target(h)}): interval "
            f"{values[h]} must be finite and > 0")
    bad = np.flatnonzero((twin >= 0) & (params[twin] != values))
    if len(bad):
        h = bad[0]
        raise ValueError(
            f"edge ({mesh.origin(h)}, {mesh.target(h)}): its half edges "
            f"hold different intervals {values[h]} and {params[twin[h]]}")
    return params


# -- section polylines ---------------------------------------------------------

def section_chains(mesh):
    """All section polylines as chains of half edges; every edge belongs to
    exactly one.

    Returns one (vertices, halfedges, closed) per polyline: its vertex ids
    (a closed polyline repeats its first vertex at the end) and, for each
    step, the half edge running along it, or its twin where a boundary edge
    runs the other way.  The knots of a polyline are the cumsum of
    params[halfedges] after a 0.

    A polyline passes through an interior vertex of valence 4 by the
    continuation table.  At a boundary vertex of valence 3 or 4, with its
    fan neighbours n_0, n_1, ... in order around it, n_i and n_(i+2)
    continue each other: a boundary run, or the two grid lines through a
    concave corner.  Every other vertex ends a polyline.  The rule is
    symmetric, so the polylines do not depend on the vertex labels.
    Polylines come in ascending order of their lowest edge, run from its
    lower vertex; an open one then extends backwards.
    """
    edges, edge = _undirected_edges(mesh.faces)
    nv = mesh.num_vertices
    keys = edges[:, 0] * nv + edges[:, 1]
    origin = mesh.origin_of[:-1]

    def step(e, v):
        """The directed edge 2e + s: edge e run from its end v = edges[e, s]."""
        return 2 * e + (edges[e, 0] != v)

    def between(i, j):
        return step(np.searchsorted(keys, np.minimum(i, j) * nv
                                    + np.maximum(i, j)), i)

    along = np.full(2 * len(edges), -1)
    along[step(edge, origin)] = np.arange(mesh.num_halfedges)
    succ = np.full(2 * len(edges), -1)
    h = np.flatnonzero(mesh.cont_of[:-1] >= 0)
    g = mesh.cont_of[h]
    succ[step(edge[h], origin[h])] = step(edge[g], origin[g])
    ends = np.flatnonzero(mesh._vertex_boundary
                          & ((mesh._valence == 3) | (mesh._valence == 4)))
    fan = mesh.fans(ends)[1]
    fan = np.pad(fan, ((0, 0), (0, 4 - fan.shape[1])), constant_values=-1)
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        at = mesh._valence[ends] > max(i, j)
        b, a, c = ends[at], fan[at, i], fan[at, j]
        succ[between(a, b)] = between(b, c)

    succ = succ.tolist()
    seen = np.zeros(len(edges), bool)
    chains = []
    for e in range(len(edges)):
        if seen[e]:
            continue
        run = [2 * e]
        while succ[run[-1]] not in (-1, 2 * e):
            run.append(succ[run[-1]])
        closed = succ[run[-1]] == 2 * e
        if not closed:
            back = [2 * e + 1]
            while succ[back[-1]] != -1:
                back.append(succ[back[-1]])
            run = [b ^ 1 for b in back[:0:-1]] + run
        run = np.array(run)
        seen[run >> 1] = True
        verts = np.append(edges[run >> 1, run & 1],
                          edges[run[-1] >> 1, 1 - run[-1] % 2])
        halfedges = np.where(along[run] >= 0, along[run], along[run ^ 1])
        chains.append((verts, halfedges, closed))
    return chains

# -- grid windows / classification -------------------------------------------

def _grids(mesh, anchors, params):
    """(anchors, vertex ids (n, 4, 4), intervals (n, 4, 3)) of the anchor
    half edges whose 4 x 4 window exists, in their given order; a window and
    its rows d0, d1, e0, e1 are laid out as patch.LocalGrid describes.

    Every window cell is a fixed composition of the half-edge tables from
    its anchor.  A window exists where every composition is defined and all
    writes to each cell agree.
    """
    N, P, T, O, C = (mesh.next_of, mesh.prev_of, mesh.twin_of,
                     mesh.origin_of, mesh.cont_of)

    def line(h):
        """(n, 3) half edges at offsets -1, 0, 1 along the grid line through
        h."""
        return np.stack([T[C[T[h]]], h, C[h]], axis=1)

    # columns 0 and 1 as vertical half edges (0,j)->(0,j+1), (1,j)->(1,j+1)
    # and the window rows y = 1, 2 as horizontal ones (i,j)->(i+1,j), with
    # y = j + 1
    col0, col1 = line(T[P[anchors]]), line(N[anchors])
    rows = np.stack([line(N[T[col0[:, y]]]) for y in (1, 2)], axis=1)
    # [n, y, k]: the vertex each row half edge k writes at x = k (lo) and at
    # x = k + 1 (hi); rows 0 and 3 come from the faces across rows 1 and 2
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
    # rows j = 0, 1 and columns 0, 1: d0, d1, e0, e1 of each window
    return anchors[found], ids, params[np.stack(
        [rows[found, 0], rows[found, 1], col0[found], col1[found]], axis=1)]


def classify_faces(mesh, params):
    """Split real faces into regular ones, those with a 4 x 4 window at
    their canonical anchor, and extraordinary ones.

    Returns (anchors, vertex_ids, intervals, extraordinary): the windows of
    the regular faces in ascending face order, at their canonical anchors,
    as _grids gives them, and the other faces as an int array.
    """
    real = np.arange(mesh.real_face_count)
    anchors, ids, intervals = _grids(mesh, mesh.canonical_halfedge(real),
                                     params)
    return anchors, ids, intervals, real[~np.isin(real, anchors >> 2)]


# -- boundary extrapolation ----------------------------------------------------

def extrapolate_boundary_layer(mesh, params):
    """Append one linearly extrapolated layer of faces outside the boundary.

    Each boundary vertex gains a mirror vertex 2*p - p_inward per transversal
    direction; valence-2 corners additionally get a diagonal mirror and a
    corner face.  Each phantom half edge copies the interval of a source
    half edge: the edge it extends (transversally) or runs parallel to
    (longitudinally, and at a corner face a transversal).  Closed meshes are
    returned unchanged.
    """
    if not mesh.has_connectivity:
        raise ValueError("build_connectivity first")
    if not mesh.has_boundary():
        return mesh, params

    O, N, P = mesh.origin_of, mesh.next_of, mesh.prev_of
    nv, V = mesh.num_vertices, mesh.vertices
    # the phantom face [b, a, a2, b2] of each boundary half edge h = a -> b,
    # whose ends mirror their inward neighbours origin(prev h), target(next h)
    h = np.flatnonzero(mesh.twin_of[:-1] < 0)
    a, b = O[h], O[N[h]]
    ends = np.stack([a, b], axis=1).ravel()
    inward = np.stack([O[P[h]], O[N[N[h]]]], axis=1).ravel()
    # one mirror per (vertex, inward neighbour), numbered in order of first use
    keys, first, key_of = np.unique(ends * nv + inward, return_index=True,
                                    return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = nv + np.arange(len(order))
    a2, b2 = number[key_of].reshape(-1, 2).T

    # the corner face [c, cin, c2, cout] at each valence-2 boundary vertex
    # c, whose leaving and arriving boundary half edges share its one face
    corner = np.flatnonzero((mesh._vertex_boundary & (mesh._valence == 2))
                            [:mesh.real_vertex_count])
    h_out = mesh._vertex_out[corner]
    h_in = P[h_out]
    cin = number[np.searchsorted(keys, corner * nv + O[N[h_out]])]
    cout = number[np.searchsorted(keys, corner * nv + O[h_in])]
    c2 = nv + len(keys) + np.arange(len(corner))

    centre = np.concatenate([ends[first[order]], corner])
    across = np.concatenate([inward[first[order]], O[N[N[h_out]]]])
    faces = np.concatenate([mesh.faces, np.stack([b, a, a2, b2], axis=1),
                            np.stack([corner, cin, c2, cout], axis=1)])
    # the source half edge of each phantom half edge, face by face
    source = np.concatenate([np.stack([h, P[h], h, N[h]], axis=1),
                             np.stack([h_out, h_in, h_out, h_in], axis=1)])
    out = QuadMesh(np.concatenate([V, 2.0 * V[centre] - V[across]]), faces)
    out.real_face_count = mesh.real_face_count
    out.real_vertex_count = mesh.real_vertex_count
    out.build_connectivity()
    return out, np.concatenate([params[:-1], params[source.ravel()],
                                params[-1:]])
