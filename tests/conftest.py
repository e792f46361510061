"""Shared mesh builders for the test suite."""

import numpy as np
import pytest

from quadspline import mesh as qm
from quadspline import patch
from quadspline.mesh import QuadMesh
from quadspline.network import VecPoly
from quadspline.splines import PolylineCurve, segment_coefficients


def torus_point(theta, phi, R=2.0, r=1.0):
    return np.array([(R + r * np.cos(phi)) * np.cos(theta),
                     (R + r * np.cos(phi)) * np.sin(theta),
                     r * np.sin(phi)])


def torus_grid(n=8, m=8, thetas=None, phis=None, perturb=0.0, seed=0):
    """Closed n x m quad grid on a torus; optional vertex jitter."""
    if thetas is None:
        thetas = 2.0 * np.pi * np.arange(n) / n
    if phis is None:
        phis = 2.0 * np.pi * np.arange(m) / m
    verts = np.array([torus_point(t, p) for t in thetas for p in phis])
    if perturb:
        rng = np.random.default_rng(seed)
        verts = verts + rng.normal(0.0, perturb, verts.shape)
    faces = []
    for i in range(n):
        for j in range(m):
            faces.append([i * m + j,
                          ((i + 1) % n) * m + j,
                          ((i + 1) % n) * m + (j + 1) % m,
                          i * m + (j + 1) % m])
    return QuadMesh(verts, faces)


def open_grid(nx=5, ny=5, spacing=1.0, height=None):
    """Planar (nx+1) x (ny+1) vertex grid, z from height(x, y) if given."""
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            x, y = i * spacing, j * spacing
            z = height(x, y) if height else 0.0
            verts.append([x, y, z])
    faces = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            faces.append([a, a + 1, a + nx + 2, a + nx + 1])
    return QuadMesh(verts, faces)


def l_grid(n=6, cut=3):
    """Open n x n grid without its top-right cut x cut block of faces: the
    vertex at the inner corner of the L is a boundary vertex of valence 4."""
    grid = open_grid(n, n)
    f = np.arange(len(grid.faces))
    faces = grid.faces[(f % n < n - cut) | (f // n < n - cut)]
    used = np.unique(faces)
    remap = np.full(len(grid.vertices), -1)
    remap[used] = np.arange(len(used))
    return QuadMesh(grid.vertices[used], remap[faces])


def bowtie_grids(n=2):
    """Two open n x n grids that share only one corner vertex: the top-right
    corner of the first is the bottom-left corner of the second."""
    grid = open_grid(n, n)
    nv = len(grid.vertices)
    shared = nv - 1
    verts = np.vstack([grid.vertices,
                       grid.vertices[1:] + grid.vertices[shared]])
    remap = np.concatenate([[shared], nv + np.arange(nv - 1)])
    return QuadMesh(verts, np.vstack([grid.faces, remap[grid.faces]]))


def cube_mesh():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    return QuadMesh(verts, faces)


def grid_with_rotated_edge(nx=8, ny=8, at=(3, 3), height=None):
    """Planar open grid with one interior edge rotated.

    Rotating the vertical edge between face (i,j) and face (i+1,j) produces
    two valence-3 and two valence-5 vertices while keeping the mesh all-quad
    and planar.
    """
    mesh = open_grid(nx, ny, height=height)
    i, j = at

    def vid(ii, jj):
        return jj * (nx + 1) + ii

    # faces (i,j) and (i+1,j) share the vertical edge (i+1, j)-(i+1, j+1)
    f1 = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
    f2 = [vid(i + 1, j), vid(i + 2, j), vid(i + 2, j + 1), vid(i + 1, j + 1)]
    faces = [list(f) for f in mesh.faces]
    idx1 = faces.index(f1)
    idx2 = faces.index(f2)
    # hexagon (i,j),(i+1,j),(i+2,j),(i+2,j+1),(i+1,j+1),(i,j+1); re-split
    # along the other medium diagonal
    faces[idx1] = [vid(i + 2, j), vid(i + 2, j + 1), vid(i + 1, j + 1),
                   vid(i, j + 1)]
    faces[idx2] = [vid(i, j + 1), vid(i, j), vid(i + 1, j), vid(i + 2, j)]
    return QuadMesh(mesh.vertices, faces)


def torus_with_rotated_edge(n=10, m=10, at=(4, 4)):
    mesh = torus_grid(n, m)
    i, j = at

    def vid(ii, jj):
        return (ii % n) * m + (jj % m)

    f1 = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
    f2 = [vid(i + 1, j), vid(i + 2, j), vid(i + 2, j + 1), vid(i + 1, j + 1)]
    faces = [list(f) for f in mesh.faces]
    idx1 = faces.index(f1)
    idx2 = faces.index(f2)
    faces[idx1] = [vid(i + 2, j), vid(i + 2, j + 1), vid(i + 1, j + 1),
                   vid(i, j + 1)]
    faces[idx2] = [vid(i, j + 1), vid(i, j), vid(i + 1, j), vid(i + 2, j)]
    return QuadMesh(mesh.vertices, faces)


def jittered_torus(n=12, m=8, strength=0.55, seed=7):
    """Torus grid with per-vertex angular jitter: every section polyline is
    unevenly spaced in its own way, so ribbon-averaged parameters are poor."""
    rng = np.random.default_rng(seed)
    verts = []
    base_t = 2 * np.pi * np.arange(n) / n
    base_p = 2 * np.pi * np.arange(m) / m
    step_t = 2 * np.pi / n
    for i in range(n):
        for j in range(m):
            th = base_t[i] + strength * step_t * rng.uniform(-0.5, 0.5)
            verts.append(torus_point(th, base_p[j]))
    faces = []
    for i in range(n):
        for j in range(m):
            faces.append([i * m + j,
                          ((i + 1) % n) * m + j,
                          ((i + 1) % n) * m + (j + 1) % m,
                          i * m + (j + 1) % m])
    return QuadMesh(verts, faces)


def subdivide_quads(mesh):
    """One round of linear quad subdivision (midpoints + centroids)."""
    verts = [p.copy() for p in mesh.vertices]
    mid = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in mid:
            verts.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            mid[key] = len(verts) - 1
        return mid[key]

    faces = []
    for quad in mesh.faces:
        a, b, c, d = (int(v) for v in quad)
        ab, bc, cd, da = (midpoint(a, b), midpoint(b, c),
                          midpoint(c, d), midpoint(d, a))
        verts.append(0.25 * (mesh.vertices[a] + mesh.vertices[b]
                             + mesh.vertices[c] + mesh.vertices[d]))
        m = len(verts) - 1
        faces += [[a, ab, m, da], [ab, b, bc, m],
                  [m, bc, c, cd], [da, m, cd, d]]
    return QuadMesh(np.asarray(verts), faces)


def sphere_mesh(rounds=2):
    """Cube subdivided and projected to the unit sphere: eight isolated
    valence-3 vertices, everything else regular."""
    mesh = cube_mesh()
    mesh.vertices[:] = mesh.vertices - 0.5
    for _ in range(rounds):
        mesh = subdivide_quads(mesh)
    lengths = np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    mesh.vertices[:] = mesh.vertices / lengths
    return mesh


# closed convex polyline with one long edge among short ones: uniform
# parametrization wiggles, centripetal does not
FIG1_POLYLINE = np.array([
    [0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [10, 3],
    [4, 6], [3, 6], [2, 6], [1, 6], [0, 6], [-6, 3]], dtype=float)


def halfedge(mesh, i, j):
    """Half edges i -> j, for vertex ids i and j (scalars or arrays), -1
    where there is none, read from the mesh's half-edge tables."""
    h = np.arange(mesh.num_halfedges)
    nv = mesh.num_vertices
    ends = mesh.origin_of[h] * nv + mesh.origin_of[mesh.next_of[h]]
    order = np.argsort(ends)
    key = np.asarray(i) * nv + np.asarray(j)
    at = order[np.minimum(np.searchsorted(ends, key, sorter=order),
                          len(h) - 1)]
    return np.where(ends[at] == key, at, -1)


def interval(mesh, params, i, j):
    """The intervals of edges (i, j), read at either of their half edges."""
    h = halfedge(mesh, i, j)
    return params[np.where(h >= 0, h, halfedge(mesh, j, i))]


def edges(mesh):
    """Sorted undirected edges (i, j), i < j, of a mesh, one per half edge
    whose twin is missing or comes first."""
    h = np.flatnonzero(mesh.twin_of[:-1] < np.arange(mesh.num_halfedges))
    ends = np.stack([mesh.origin_of[h], mesh.origin_of[mesh.next_of[h]]])
    return sorted(zip(*np.sort(ends, axis=0).tolist()))


def boundary_vertices(mesh):
    """Boolean per vertex: whether a boundary half edge leaves it."""
    out = np.zeros(mesh.num_vertices, bool)
    out[mesh.origin_of[:-1][mesh.twin_of[:-1] < 0]] = True
    return out


def fan(mesh, v):
    """Neighbours of vertex v in CCW order around it."""
    row = mesh.fans([v])[1][0]
    return row[row >= 0].tolist()


def chain_edges(chain):
    """The undirected edges (i, j), i < j, of a chain of section_chains,
    in its order."""
    verts = chain[0].tolist()
    return [tuple(sorted(e)) for e in zip(verts[:-1], verts[1:])]


def chain_curve(mesh, params, chain, fam):
    """Interpolating curve of a chain of section_chains with its edge
    intervals as knot steps."""
    verts, halfedges, closed = chain
    knots = np.concatenate([[0.0], np.cumsum(params[halfedges])])
    return PolylineCurve(mesh.vertices[verts[:-1] if closed else verts],
                         knots, fam, closed=closed)


def knot_derivatives(curve, j, r):
    """r-th derivatives at knot j of a closed PolylineCurve, (left, right):
    from the segment that ends there and from the one that starts there,
    each read from its segment_coefficients."""
    n, d = len(curve.points), np.diff(curve.knots)
    out = []
    for s, x in ((j - 1, d[(j - 1) % n]), (j, 0.0)):
        window = (s + np.arange(-1, 3)) % n
        out.append(VecPoly(segment_coefficients(
            curve.points[window], d[window[:3]], curve.family)).eval(x, r))
    return out


def window_patch(mesh, params, face, fam, anchor=None):
    """The grid patch of a face over its 4 x 4 window at anchor (default:
    the face's canonical half edge), a view of a one-slot GridPatchSet."""
    if anchor is None:
        anchor = mesh.canonical_halfedge(face)
    assert mesh.he_face(anchor) == face
    anchors, ids, intervals = qm._grids(mesh, np.array([anchor]), params)
    assert len(anchors) == 1, f"face {face} has no window at {anchor}"
    return patch.RegularPatch.view(patch.GridPatchSet(
        anchors, ids, mesh.vertices[ids], intervals, fam), 0)


def side_length(grid_patch, side):
    """Length of the local variable range along a side (a name in
    patch.SIDES) of a RegularPatch."""
    return grid_patch.patches.intervals[grid_patch.slot,
                                        patch.SIDES.index(side), 1]


def side_field(grid_patch, side, q, x, r=0):
    """r-th x-derivative of the order-q field along a side of a
    RegularPatch at x (a scalar or an array), read by
    GridPatchSet.side_jets; shape x.shape + (3,)."""
    x = np.asarray(x, float)
    slots = np.full(x.size, grid_patch.slot)
    sides = np.full(x.size, patch.SIDES.index(side))
    return grid_patch.patches.side_jets(slots, sides, [(q, r)], x.ravel())[
        0].reshape(x.shape + (3,))


@pytest.fixture
def small_eval_chunk(monkeypatch):
    """Patch sets evaluate in chunks of 64 points, so that a test's few
    hundred points cross several chunk boundaries; the chunk size."""
    monkeypatch.setattr(patch, "EVAL_CHUNK", 64)
    return patch.EVAL_CHUNK


@pytest.fixture
def torus():
    mesh = torus_grid(8, 8)
    mesh.build_connectivity()
    return mesh


@pytest.fixture
def cube():
    mesh = cube_mesh()
    mesh.build_connectivity()
    return mesh
