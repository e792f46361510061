"""Seeded benchmark meshes, written as plain OBJ text.

These functions are the benchmark's own copies of the mesh functions in
``tests/conftest.py``, reduced to numpy arrays so that a change to the test
suite or to the library cannot change a workload.  The seed moves vertices
only; the connectivity, and therefore every per-op count, is fixed.
"""

from dataclasses import dataclass

import numpy as np


def torus_point(theta, phi, R=2.0, r=1.0):
    return np.array([(R + r * np.cos(phi)) * np.cos(theta),
                     (R + r * np.cos(phi)) * np.sin(theta),
                     r * np.sin(phi)])


def open_grid(nx, ny, height):
    """(nx+1) x (ny+1) vertex grid with unit spacing and z = height(x, y)."""
    verts = [[i, j, height(i, j)] for j in range(ny + 1)
             for i in range(nx + 1)]
    faces = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            faces.append([a, a + 1, a + nx + 2, a + nx + 1])
    return np.array(verts, float), faces


def grid_with_rotated_edge(nx=8, ny=8, at=(3, 3), height=None):
    """Open grid whose edge between faces (i, j) and (i+1, j) is rotated,
    giving two valence-3 and two valence-5 vertices."""
    verts, faces = open_grid(nx, ny, height)
    i, j = at

    def vid(ii, jj):
        return jj * (nx + 1) + ii

    f1 = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
    f2 = [vid(i + 1, j), vid(i + 2, j), vid(i + 2, j + 1), vid(i + 1, j + 1)]
    idx1, idx2 = faces.index(f1), faces.index(f2)
    faces[idx1] = [vid(i + 2, j), vid(i + 2, j + 1), vid(i + 1, j + 1),
                   vid(i, j + 1)]
    faces[idx2] = [vid(i, j + 1), vid(i, j), vid(i + 1, j), vid(i + 2, j)]
    return verts, faces


def jittered_torus(n=12, m=8, strength=0.55, seed=7):
    """Torus grid with per-vertex angular jitter along the big circle."""
    rng = np.random.default_rng(seed)
    step_t = 2 * np.pi / n
    verts = []
    for i in range(n):
        for j in range(m):
            th = i * step_t + strength * step_t * rng.uniform(-0.5, 0.5)
            verts.append(torus_point(th, 2 * np.pi * j / m))
    faces = [[i * m + j, ((i + 1) % n) * m + j,
              ((i + 1) % n) * m + (j + 1) % m, i * m + (j + 1) % m]
             for i in range(n) for j in range(m)]
    return np.array(verts), faces


def cube_mesh():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], float)
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    return verts, faces


def subdivide_quads(verts, faces):
    """One round of linear quad subdivision (midpoints + centroids)."""
    out = [p.copy() for p in verts]
    mid = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in mid:
            out.append(0.5 * (verts[a] + verts[b]))
            mid[key] = len(out) - 1
        return mid[key]

    new_faces = []
    for a, b, c, d in faces:
        ab, bc, cd, da = (midpoint(a, b), midpoint(b, c),
                          midpoint(c, d), midpoint(d, a))
        out.append(0.25 * (verts[a] + verts[b] + verts[c] + verts[d]))
        m = len(out) - 1
        new_faces += [[a, ab, m, da], [ab, b, bc, m],
                      [m, bc, c, cd], [da, m, cd, d]]
    return np.array(out), new_faces


def sphere_mesh(rounds=2):
    """Subdivided cube projected to the unit sphere: eight valence-3
    vertices, everything else regular."""
    verts, faces = cube_mesh()
    verts = verts - 0.5
    for _ in range(rounds):
        verts, faces = subdivide_quads(verts, faces)
    return verts / np.linalg.norm(verts, axis=1, keepdims=True), faces


# -- seeded workload meshes ------------------------------------------------------

def ev_sphere(seed):
    verts, faces = sphere_mesh(2)
    rng = np.random.default_rng(seed)
    return verts * rng.uniform(0.97, 1.03, (len(verts), 1)), faces


def jitter_torus(seed):
    return jittered_torus(seed=seed)


def open_ev_grid(seed):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.3, 0.6)
    kx, ky = rng.uniform(0.35, 0.6, 2)
    px, py = rng.uniform(0.0, 2.0 * np.pi, 2)

    def height(x, y):
        return amp * np.sin(kx * x + px) * np.cos(ky * y + py)

    return grid_with_rotated_edge(8, 8, height=height)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object          # seed -> (vertices, faces)
    family: str
    mode: str

    def cli_flags(self):
        return ["--family", self.family, "--mode", self.mode]


WORKLOADS = {w.name: w for w in (
    Workload("ev_sphere_g2", ev_sphere, "d5c2p2s4", "g2"),
    Workload("jitter_torus_g2", jitter_torus, "d5c2p2s4", "g2"),
    Workload("open_ev_grid_g1", open_ev_grid, "d3c1p2s4", "g1"),
)}


def obj_text(verts, faces):
    lines = [f"v {p[0]!r} {p[1]!r} {p[2]!r}" for p in verts.tolist()]
    lines += ["f " + " ".join(str(i + 1) for i in f) for f in faces]
    return "\n".join(lines) + "\n"
