"""Property tests: the surface does not depend on the labels of its input.

Permuting the vertex ids and rolling each face's corner list moves every
canonical half edge, patch anchor and walk order, but must not move the
surface: the tessellated point sets agree to round-off.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import (grid_with_rotated_edge, sphere_mesh,
                      torus_with_rotated_edge)
from quadspline.mesh import QuadMesh
from quadspline.surface import BuildOptions, build_surface, tessellate

MESHES = {"sphere": lambda: sphere_mesh(2),
          "ev_torus": lambda: torus_with_rotated_edge(10, 10),
          "ev_grid": lambda: grid_with_rotated_edge(7, 7)}
OPTIONS = {"g2_r1": {"mode": "g2", "r_degree": 1},
           "g2_r2": {"mode": "g2", "r_degree": 2},
           "g1_d5": {"mode": "g1", "family": "d5c2p2s4"},
           "g1_d3": {"mode": "g1", "family": "d3c1p2s4"}}


def relabelled(mesh, seed):
    """The mesh with permuted vertex ids and every face's corners rolled."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(len(mesh.vertices))
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    faces = [np.roll(new_id[quad], shift) for quad, shift
             in zip(mesh.faces, rng.integers(0, 4, len(mesh.faces)))]
    return QuadMesh(vertices, faces)


def surface_points(mesh, options, n=4):
    return tessellate(build_surface(mesh, BuildOptions(**options)),
                      n).positions


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("name", sorted(MESHES))
def test_relabelling_and_corner_rotation_invariance(name, options):
    mesh = MESHES[name]()
    seed = sorted(MESHES).index(name) * len(OPTIONS) \
        + sorted(OPTIONS).index(options)
    a = surface_points(mesh, OPTIONS[options])
    b = surface_points(relabelled(mesh, seed), OPTIONS[options])
    # every point of each set has a partner in the other
    assert cKDTree(b).query(a)[0].max() < 1e-12
    assert cKDTree(a).query(b)[0].max() < 1e-12
