import numpy as np
import pytest

from conftest import (boundary_vertices, bowtie_grids, chain_edges, edges,
                      grid_with_rotated_edge, halfedge, interval,
                      jittered_torus, l_grid, open_grid, sphere_mesh,
                      torus_grid, torus_with_rotated_edge)
from quadspline.errors import (DegenerateEdgeError, MeshStructureError,
                               UnsupportedFaceError, UnsupportedMeshError)
from quadspline.mesh import (QuadMesh, _components, _grids,
                             assign_edge_params, classify_faces,
                             extrapolate_boundary_layer, load_obj, save_obj,
                             section_chains)
from quadspline.surface import build_surface


def test_load_save_roundtrip(tmp_path, cube):
    path = tmp_path / "cube.obj"
    save_obj(cube, path)
    mesh = load_obj(path)
    assert np.allclose(mesh.vertices, cube.vertices)
    assert np.array_equal(mesh.faces, cube.faces)
    assert mesh.num_vertices == 8 and mesh.num_faces == 6
    assert len(edges(mesh.build_connectivity())) == 12


def test_load_obj_rejects_triangles(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(UnsupportedFaceError):
        load_obj(path)


def test_load_obj_skips_unknown_records(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text("# comment\nvn 0 0 1\nv 0 0 0\nv 1 0 0\nv 1 1 0\n"
                    "v 0 1 0\nusemtl stuff\nf 1 2 3 4\n")
    mesh = load_obj(path)
    assert mesh.num_faces == 1
    assert mesh.load_warnings == 2


def test_half_edge_algebra(torus):
    for h in range(torus.num_halfedges):
        t = int(torus.twin_of[h])
        assert t >= 0 and torus.twin_of[t] == h
        g = h
        for _ in range(4):
            g = torus.he_next(g)
        assert g == h


def test_torus_valences_and_euler(torus):
    for v in range(torus.num_vertices):
        assert torus.valence(v) == 4
    assert not boundary_vertices(torus).any()
    V, E, F = torus.num_vertices, len(edges(torus)), torus.num_faces
    assert V - E + F == 0  # genus 1


def test_cube_valences_and_euler(cube):
    assert all(cube.valence(v) == 3 for v in range(8))
    assert 8 - 12 + 6 == 2
    assert not cube.has_boundary()


def test_open_grid_boundary_count():
    mesh = open_grid(3, 3).build_connectivity()
    boundary = [h for h in range(mesh.num_halfedges) if mesh.twin_of[h] < 0]
    assert len(boundary) == 12  # perimeter edges of a 3x3 face grid
    V, E, F = mesh.num_vertices, len(edges(mesh)), mesh.num_faces
    assert V - E + F == 1  # disk


def test_nonmanifold_edge_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [0, 0, 1], [1, 0, 1], [0, 0, -1], [1, 0, -1]]
    faces = [[0, 1, 2, 3], [0, 1, 5, 4], [0, 1, 7, 6]]
    with pytest.raises(MeshStructureError):
        QuadMesh(verts, faces).build_connectivity()


def test_bowtie_vertex_rejected():
    with pytest.raises(MeshStructureError, match="non-manifold vertex"):
        bowtie_grids().build_connectivity()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_vertex_rejected(tmp_path, bad):
    grid = open_grid(2, 2)
    verts = grid.vertices.copy()
    verts[4, 2] = float(bad)
    with pytest.raises(MeshStructureError, match="vertex 4"):
        QuadMesh(verts, grid.faces)
    path = tmp_path / "grid.obj"
    save_obj(grid, path)
    lines = path.read_text().splitlines()
    lines[4] = f"v 1 1 {bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshStructureError, match="non-finite"):
        load_obj(path)


def test_inconsistent_orientation_rejected():
    mesh = open_grid(2, 1)
    faces = [list(f) for f in mesh.faces]
    faces[1] = faces[1][::-1]
    with pytest.raises(MeshStructureError):
        QuadMesh(mesh.vertices, faces).build_connectivity()


def test_degenerate_edge_rejected():
    verts = [[0, 0, 0], [1e-15, 0, 0], [1, 1, 0], [0, 1, 0],
             [2, 0, 0], [2, 1, 0]]
    faces = [[0, 1, 2, 3], [1, 4, 5, 2]]
    with pytest.raises(DegenerateEdgeError):
        QuadMesh(verts, faces).build_connectivity()


def test_edge_params_methods(torus):
    uniform = assign_edge_params(torus, "uniform")
    assert uniform.shape == (torus.num_halfedges + 1,)
    assert (uniform == 1.0).all()
    chordal = assign_edge_params(torus, "chordal")
    centri = assign_edge_params(torus, "centripetal")
    for i, j in edges(torus):
        ln = np.linalg.norm(torus.vertices[i] - torus.vertices[j])
        assert interval(torus, chordal, i, j) == pytest.approx(ln)
        assert interval(torus, centri, i, j) == pytest.approx(np.sqrt(ln))


PIN_MESHES = {"perturbed_torus": lambda: torus_grid(12, 12, perturb=0.05),
              "rotated_grid": lambda: grid_with_rotated_edge(7, 7)}


def _ribbon_means(mesh, values):
    """{edge: mean of values over its ribbon}, each sum taken in sorted edge
    order, for values {edge: float}."""
    keys = edges(mesh)
    index = {e: k for k, e in enumerate(keys)}
    quads = [[index[tuple(sorted((f[c], f[(c + 1) % 4])))] for c in range(4)]
             for f in mesh.faces.tolist()]
    ribbon = _components(len(keys), [q[c] for q in quads for c in (0, 1)],
                         [q[c] for q in quads for c in (2, 3)]).tolist()
    sums, counts = {}, {}
    for e, r in zip(keys, ribbon):
        sums[r] = sums.get(r, 0.0) + values[e]
        counts[r] = counts.get(r, 0) + 1
    return {e: sums[r] / counts[r] for e, r in zip(keys, ribbon)}


# (method, alpha, exponent); mean needs a regular mesh, so the torus only
PIN_METHODS = [("uniform", None, 0.0), ("chordal", None, 1.0),
               ("centripetal", None, 0.5), ("centripetal", 0.3, 0.3)]


@pytest.mark.parametrize("name, method, alpha, a", [
    (name, *m) for name in sorted(PIN_MESHES) for m in PIN_METHODS]
    + [("perturbed_torus", "mean", None, 0.5)])
def test_edge_params_equal_scalar_norm_powers_bitwise(name, method, alpha, a):
    """Each half edge holds float(np.linalg.norm(p_i - p_j)) ** a of its
    edge (i < j), exactly; mean holds the ribbon average of those."""
    mesh = PIN_MESHES[name]().build_connectivity()
    params = assign_edge_params(mesh, method, alpha)
    P = mesh.vertices
    want = {(i, j): float(np.linalg.norm(P[i] - P[j])) ** a
            for i, j in edges(mesh)}
    if method == "mean":
        want = _ribbon_means(mesh, want)
    got = [params[h] for h in range(mesh.num_halfedges)]
    assert got == [want[tuple(sorted((mesh.origin(h), mesh.target(h))))]
                   for h in range(mesh.num_halfedges)]
    assert params[-1] == 1.0


def test_centripetal_on_unit_edges():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [9, 0, 0], [9, 1, 0], [18, 0, 0], [18, 1, 0]]
    faces = [[0, 1, 2, 3], [1, 4, 5, 2], [4, 6, 7, 5]]
    mesh = QuadMesh(verts, faces).build_connectivity()
    params = assign_edge_params(mesh, "centripetal")
    assert interval(mesh, params, 0, 1) == pytest.approx(1.0)
    # length 8 edge
    assert interval(mesh, params, 1, 4) == pytest.approx(np.sqrt(8.0))
    assert interval(mesh, params, 0, 3) == pytest.approx(1.0)


def test_mean_parametrization_averages_ribbons():
    # trapezoid: the bottom/top edges are one ribbon with centripetal
    # values 1 and 3 (lengths 1 and 9); both receive the average 2
    verts = [[0, 0, 0], [1, 0, 0], [9, 2, 0], [0, 2, 0]]
    faces = [[0, 1, 2, 3]]
    mesh = QuadMesh(verts, faces).build_connectivity()
    params = assign_edge_params(mesh, "mean")
    assert interval(mesh, params, 0, 1) == pytest.approx(2.0)
    assert interval(mesh, params, 2, 3) == pytest.approx(2.0)
    # the side edges form the other ribbon
    assert interval(mesh, params, 0, 3) \
        == pytest.approx(interval(mesh, params, 1, 2))


def test_mean_parametrization_long_ribbon():
    # 1 x 3 vertical stack: all horizontal edges are one ribbon
    verts = []
    widths = [1.0, 4.0, 9.0, 4.0]
    for j, w in enumerate(widths):
        verts += [[0.0, float(j), 0.0], [w, float(j), 0.0]]
    faces = [[2 * j, 2 * j + 1, 2 * j + 3, 2 * j + 2] for j in range(3)]
    mesh = QuadMesh(verts, faces).build_connectivity()
    params = assign_edge_params(mesh, "mean")
    avg = np.mean([np.sqrt(w) for w in widths])
    for j in range(4):
        assert interval(mesh, params, 2 * j, 2 * j + 1) == pytest.approx(avg)


def test_mean_rejects_extraordinary(cube):
    with pytest.raises(UnsupportedMeshError):
        assign_edge_params(cube, "mean")


def test_mean_on_uniform_torus_equals_centripetal(torus):
    mean = assign_edge_params(torus, "mean")
    centri = assign_edge_params(torus, "centripetal")
    for i, j in edges(torus):
        v, ribbonwise = (interval(torus, p, i, j) for p in (mean, centri))
        # uniform-ish torus: meridian ribbons are uniform so values match
        # along meridians; longitudes vary by ring but are constant per ring
        assert v > 0.0 and ribbonwise > 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 0.0, -1.0])
def test_edge_params_reject_non_finite_intervals(torus, bad):
    params = assign_edge_params(torus, "centripetal")
    params[[3, torus.twin_of[3]]] = bad
    edge = rf"edge \({torus.origin(3)}, {torus.target(3)}\)"
    with pytest.raises(DegenerateEdgeError, match=f"{edge}.*finite"):
        build_surface(torus, params=params)


def test_edge_params_reject_wrong_length_and_unequal_twins(torus):
    params = assign_edge_params(torus, "centripetal")
    with pytest.raises(ValueError, match="one per half edge"):
        build_surface(torus, params=params[:-1])
    params[3] *= 2.0
    edge = rf"edge \({torus.origin(3)}, {torus.target(3)}\)"
    with pytest.raises(ValueError, match=f"{edge}.*different intervals"):
        build_surface(torus, params=params)


def test_classify_torus_all_regular(torus):
    anchors, _, _, extra = classify_faces(torus, assign_edge_params(torus))
    assert len(anchors) == torus.num_faces
    assert not len(extra)


def test_classify_cube_all_extraordinary(cube):
    anchors, _, _, extra = classify_faces(cube, assign_edge_params(cube))
    assert not len(anchors)
    assert extra.tolist() == list(range(6))


def test_classify_rotated_torus_matches_enumeration():
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    anchors, _, _, extra = classify_faces(mesh, assign_edge_params(mesh))
    # oracle: a face is extraordinary iff one of its corners has valence != 4
    want_extra = sorted(
        f for f in range(mesh.num_faces)
        if any(mesh.valence(v) != 4 for v in mesh.faces[f]))
    assert extra.tolist() == want_extra
    assert len(anchors) + len(extra) == mesh.num_faces


def _torus_window_case():
    n = m = 8
    mesh = torus_grid(n, m).build_connectivity()
    return (mesh, assign_edge_params(mesh, "centripetal"),
            lambda f: np.array(divmod(f, m)), lambda i, j: (i % n) * m + j % m)


def _open_window_case():
    nx = 4
    mesh = open_grid(nx, 3).build_connectivity()
    mesh, params = extrapolate_boundary_layer(
        mesh, assign_edge_params(mesh, "centripetal"))
    # the phantom layer continues the unit grid: (x, y) is the grid index
    at = {tuple(p): v for v, p in
          enumerate(np.rint(mesh.vertices[:, :2]).astype(int).tolist())}
    return (mesh, params, lambda f: np.array([f % nx, f // nx]),
            lambda i, j: at.get((i, j)))


# (mesh, params, grid index (i, j) of a real face, vertex at grid index)
WINDOW_CASES = {"torus": _torus_window_case, "open": _open_window_case}
# corner c of the face at (i, j) sits at (i, j) + CORNERS[c]
CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])


def all_windows(mesh, params):
    """The window of every half edge that has one, by anchor."""
    anchors, ids, intervals = _grids(mesh, np.arange(mesh.num_halfedges),
                                     params)
    return dict(zip(anchors.tolist(), zip(ids, intervals)))


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_windows_match_the_grid_index_formula(case):
    """At every anchor of every face the window is the one the index formula
    gives for the anchor's rotation: cell (x, y) holds the vertex at
    p0 + s u + t v, with (s, t) = (x, y) - 1, p0 the anchor's origin and u,
    v its edge and the edge before it.  The window exists exactly where
    every such vertex does; phantom faces touch the outer boundary and have
    none."""
    mesh, params, face_at, vertex_at = WINDOW_CASES[case]()
    windows = all_windows(mesh, params)
    offsets = np.arange(4) - 1
    checked = 0
    for f in range(mesh.num_faces):
        for c, anchor in enumerate(range(4 * f, 4 * f + 4)):
            want = None
            if f < mesh.real_face_count:
                p0 = face_at(f) + CORNERS[c]
                u = CORNERS[(c + 1) % 4] - CORNERS[c]
                v = CORNERS[(c - 1) % 4] - CORNERS[c]
                want = [[vertex_at(*(p0 + s * u + t * v)) for t in offsets]
                        for s in offsets]
            if want is None or None in sum(want, []):
                assert anchor not in windows
                continue
            assert windows[anchor][0].tolist() == want
            checked += 1
    assert checked > 0


def test_adjacent_grids_overlap():
    n = m = 8
    mesh = torus_grid(n, m).build_connectivity()
    params = assign_edge_params(mesh, "centripetal")
    # face 3 m + 4 and the face one step in i
    faces = np.array([3 * m + 4, 4 * m + 4])
    anchors, ids, _ = _grids(mesh, mesh.canonical_halfedge(faces), params)
    assert len(anchors) == 2
    ids_a, ids_b = (set(window.ravel().tolist()) for window in ids)
    assert len(ids_a & ids_b) == 12  # 3 x 4 shared block


WINDOW_MESHES = {
    "sphere": lambda: sphere_mesh(3),
    "open_rotated": lambda: grid_with_rotated_edge(6, 6),
    "torus_rotated": lambda: torus_with_rotated_edge(10, 10),
    "jittered_torus": lambda: jittered_torus(),
}


@pytest.mark.parametrize("name", sorted(WINDOW_MESHES))
def test_windows_follow_mesh_edges(name):
    mesh = WINDOW_MESHES[name]().build_connectivity()
    mesh, params = extrapolate_boundary_layer(
        mesh, assign_edge_params(mesh, "centripetal"))
    windows = all_windows(mesh, params)
    assert windows

    def intervals(line):
        return interval(mesh, params, line[:-1], line[1:]).tolist()

    for anchor, (ids, (d0, d1, e0, e1)) in windows.items():
        # p_{0,0} -> p_{1,0} is the anchor, p_{0,0} -> p_{0,1} the edge
        # before it
        assert (ids[1, 1], ids[2, 1]) == (mesh.origin(anchor),
                                          mesh.target(anchor))
        assert ids[1, 2] == mesh.origin(mesh.he_prev(anchor))
        lines = [ids[:, j] for j in range(4)] + [ids[i] for i in range(4)]
        for line in lines:
            assert (np.maximum(halfedge(mesh, line[:-1], line[1:]),
                               halfedge(mesh, line[1:], line[:-1]))
                    >= 0).all()
        assert list(d0) == intervals(ids[:, 1])
        assert list(d1) == intervals(ids[:, 2])
        assert list(e0) == intervals(ids[1])
        assert list(e1) == intervals(ids[2])


def test_extraordinary_faces_have_no_window(cube):
    params = assign_edge_params(cube, "centripetal")
    assert not all_windows(cube, params)


def test_section_polylines_torus(torus):
    chains = section_chains(torus)
    assert len(chains) == 16  # 8 + 8 on an 8x8 torus
    assert all(closed for _v, _h, closed in chains)
    lengths = sorted(len(verts) - 1 for verts, _h, _c in chains)
    assert lengths == [8] * 16
    covered = [k for c in chains for k in chain_edges(c)]
    assert len(covered) == len(edges(torus))
    assert len(set(covered)) == len(covered)


def test_section_polylines_rectangular_torus():
    mesh = torus_grid(6, 4).build_connectivity()
    chains = section_chains(mesh)
    assert len(chains) == 6 + 4
    lengths = sorted(len(verts) - 1 for verts, _h, _c in chains)
    assert lengths == [4] * 6 + [6] * 4  # 6 rings of 4 and 4 rings of 6


def test_section_polylines_open_grid():
    mesh = open_grid(4, 3).build_connectivity()
    chains = section_chains(mesh)
    assert all(not closed for _v, _h, closed in chains)
    # rows and columns of the grid
    assert len(chains) == (4 + 1) + (3 + 1)
    covered = [k for c in chains for k in chain_edges(c)]
    assert len(covered) == len(edges(mesh))
    assert len(set(covered)) == len(covered)


def test_section_polylines_stop_at_extraordinary():
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    chains = section_chains(mesh)
    covered = [k for c in chains for k in chain_edges(c)]
    assert len(set(covered)) == len(covered) == len(edges(mesh))
    for verts, _h, closed in chains:
        if not closed:
            assert mesh.valence(verts[0]) != 4
            assert mesh.valence(verts[-1]) != 4
            for v in verts[1:-1]:
                assert mesh.valence(v) == 4


@pytest.mark.parametrize("name", ["torus", "open_grid", "l_grid",
                                  "torus_rotated", "grid_rotated"])
def test_section_chain_half_edges_run_along_their_steps(name):
    mesh = {"torus": lambda: torus_grid(6, 4),
            "open_grid": lambda: open_grid(4, 3), "l_grid": l_grid,
            "torus_rotated": lambda: torus_with_rotated_edge(10, 10),
            "grid_rotated": grid_with_rotated_edge}[name]().build_connectivity()
    for verts, halfedges, closed in section_chains(mesh):
        assert len(halfedges) == len(verts) - 1
        assert verts[0] == verts[-1] or not closed
        ends = np.sort([mesh.origin_of[halfedges],
                        mesh.origin_of[mesh.next_of[halfedges]]], axis=0)
        assert np.array_equal(ends, np.sort([verts[:-1], verts[1:]], axis=0))
        # the half edge runs the chain's way wherever one does
        ahead = halfedge(mesh, verts[:-1], verts[1:])
        assert np.array_equal(halfedges[ahead >= 0], ahead[ahead >= 0])


def test_section_polylines_do_not_depend_on_labels():
    # the inner corner of the L is a boundary vertex of valence 4: both grid
    # lines run straight through it, whatever the vertex labels
    mesh = l_grid().build_connectivity()
    back = np.arange(mesh.num_vertices)[::-1]   # new label -> old label
    relabelled = QuadMesh(mesh.vertices[back],
                          back.argsort()[mesh.faces]).build_connectivity()
    partitions = []
    for m, old in ((mesh, np.arange(mesh.num_vertices)), (relabelled, back)):
        chains = section_chains(m)
        covered = [k for c in chains for k in chain_edges(c)]
        assert len(set(covered)) == len(covered) == len(edges(m)) == 66
        assert len(chains) == 7 + 7
        for verts, _h, _c in chains:
            xy = m.vertices[verts, :2]
            assert (xy[:, 0] == xy[0, 0]).all() or (xy[:, 1] == xy[0, 1]).all()
        partitions.append({frozenset(tuple(sorted((int(old[a]), int(old[b]))))
                                     for a, b in chain_edges(c))
                           for c in chains})
    assert partitions[0] == partitions[1]


def test_extrapolate_closed_mesh_unchanged(torus):
    params = assign_edge_params(torus, "centripetal")
    mesh2, params2 = extrapolate_boundary_layer(torus, params)
    assert mesh2 is torus and params2 is params


def test_extrapolate_straight_boundary_collinear():
    mesh = open_grid(3, 3).build_connectivity()
    params = assign_edge_params(mesh, "centripetal")
    mesh2, params2 = extrapolate_boundary_layer(mesh, params)
    # uniform grid: phantom layer continues the unit spacing
    assert mesh2.real_face_count == 9
    assert mesh2.num_faces == 9 + 12 + 4  # edge faces + corner faces
    for v in range(mesh2.real_vertex_count, mesh2.num_vertices):
        p = mesh2.vertices[v]
        assert np.allclose(p[2], 0.0)
        assert (abs(p[0] - round(p[0])) < 1e-12
                and abs(p[1] - round(p[1])) < 1e-12)
    # former boundary faces become regular
    anchors, _, _, extra = classify_faces(mesh2, params2)
    assert not len(extra)
    assert len(anchors) == 9
    # phantom params copied, all positive
    assert (params2 > 0.0).all()


def test_extrapolated_intervals_copy_their_source_edges():
    """An open grid with x steps 1, 2, 4 and y steps 1, 3, column i
    stretched in y by 1 + i / 2 so that neighbouring edges differ in
    length, in chordal.  A phantom half edge between two real vertices
    copies its twin, a transversal phantom edge v -> 2 v - q the edge (v,
    q) it extends, and an edge between two phantom vertices the edge
    opposite it in its face: the boundary edge it runs parallel to or, in a
    corner face, a transversal."""
    xs, ys = [0.0, 1.0, 3.0, 7.0], [0.0, 1.0, 4.0]
    verts = [[x, y * (1 + i / 2), 0.0] for y in ys
             for i, x in enumerate(xs)]
    faces = [[4 * j + i, 4 * j + i + 1, 4 * j + i + 5, 4 * j + i + 4]
             for j in range(2) for i in range(3)]
    mesh = QuadMesh(verts, faces).build_connectivity()
    real = assign_edge_params(mesh, "chordal")
    mesh2, params = extrapolate_boundary_layer(mesh, real)
    assert mesh2.num_faces == 6 + 10 + 4  # edge faces + corner faces
    assert params.shape == (mesh2.num_halfedges + 1,) and params[-1] == 1.0
    assert np.array_equal(params[:mesh.num_halfedges], real[:-1])
    P, nv = mesh2.vertices, mesh.num_vertices
    at = {tuple(p): v for v, p in enumerate(P.tolist())}
    for h in range(mesh.num_halfedges, mesh2.num_halfedges):
        v, p = sorted((mesh2.origin(h), mesh2.target(h)))
        if p < nv:
            assert params[h] == interval(mesh, real, v, p)
        elif v < nv:
            q = at[tuple((2.0 * P[v] - P[p]).tolist())]
            assert params[h] == interval(mesh, real, v, q)
        else:
            assert params[h] == params[mesh2.next_of[mesh2.next_of[h]]]
    h = np.arange(mesh2.num_halfedges)
    twin = mesh2.twin_of[h]
    assert np.array_equal(params[twin[twin >= 0]], params[h[twin >= 0]])


def test_extrapolated_interior_face_count_unaffected():
    mesh = open_grid(5, 4).build_connectivity()
    params = assign_edge_params(mesh, "uniform")
    mesh2, params2 = extrapolate_boundary_layer(mesh, params)
    assert mesh2.real_face_count == 20
    anchors, _, _, extra = classify_faces(mesh2, params2)
    assert len(anchors) == 20 and not len(extra)
