import numpy as np
import pytest

from conftest import (cube_mesh, grid_with_rotated_edge, jittered_torus,
                      open_grid, sphere_mesh, torus_grid,
                      torus_with_rotated_edge)
from quadspline.mesh import classify_faces, edge_key, extract_local_grid
from quadspline.patch import GridPatchSet, RegularPatch
from quadspline.surface import (SIDE_OF_CORNER, BuildOptions,
                                _interior_shared_edges,
                                _seam_table, analysis_fields, build_surface,
                                continuity_report, export_obj, export_ply,
                                tessellate, write_report)


def test_build_options_validation():
    with pytest.raises(ValueError):
        BuildOptions(family="d3c1p2s4", mode="g2")
    with pytest.raises(ValueError):
        BuildOptions(mode="g3")
    with pytest.raises(ValueError):
        BuildOptions(r_degree=3)
    opts = BuildOptions(family="d3c1p2s4", mode="g1")
    assert opts.k == 1


def test_torus_all_regular(torus):
    surf = build_surface(torus, BuildOptions())
    assert len(surf.regular) == torus.num_faces
    assert not surf.gregory


def test_cube_all_gregory(cube):
    surf = build_surface(cube, BuildOptions())
    assert not surf.regular
    assert len(surf.gregory) == 6
    # corners of every patch land on the cube vertices
    for f, patch in surf.gregory.items():
        quad = cube.faces[f]
        anchor = surf.anchors[f]
        assert np.allclose(patch.eval(0, 0),
                           cube.vertices[cube.origin(anchor)], atol=1e-12)


def test_gregory_count_matches_classification():
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    regular, extra = classify_faces(mesh, 4)
    surf = build_surface(mesh, BuildOptions())
    assert sorted(surf.gregory) == sorted(extra)
    assert sorted(surf.regular) == sorted(regular)


def test_watertight_seams_torus_with_evs():
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    rep = continuity_report(surf, samples=8)
    assert rep["summary"]["position_gap"]["max"] < 1e-8
    for e in rep["edges"]:
        if e["kinds"] == ["regular", "regular"]:
            assert max(e["delta_residual"].values()) < 1e-4
        if "gregory" in e["kinds"] and "regular" in e["kinds"]:
            assert e["position_gap"] < 1e-8
            assert e["normal_angle_deg"] < 0.1


def test_regular_seam_residuals_on_a_height_field():
    # second-order finite differences read up to 2.2e-5 on these seams; the
    # exact derivatives leave round-off, 7.0e-12 of the surface's largest
    # |d2| (1.7e-10 of a seam's own largest |d2|, which on four seams stays
    # near 1.7e-3)
    mesh = grid_with_rotated_edge(
        8, 8, height=lambda x, y: 0.1 * np.sin(0.7 * x) * np.cos(0.5 * y))
    surf = build_surface(mesh.build_connectivity(), BuildOptions())
    residuals = [e["delta_residual"] for e in continuity_report(surf)["edges"]
                 if e["delta_residual"]]
    assert residuals
    assert max(d["2"] for d in residuals) <= 1e-11


@pytest.mark.parametrize("make, options", [
    (lambda: sphere_mesh(2), BuildOptions()),
    (lambda: grid_with_rotated_edge(7, 7, height=lambda x, y: 0.1 * np.sin(
        0.7 * x) * np.cos(0.5 * y)),
     BuildOptions(family="d3c1p2s4", mode="g1")),
    (lambda: torus_with_rotated_edge(10, 10),
     BuildOptions(family="d3c1p2s4", mode="g1")),
], ids=["sphere_g2", "rotated_grid_g1", "ev_torus_g1"])
def test_grid_seam_normals_are_exact(make, options):
    # frames from the side fields and arctan2: round-off only; FD stencils
    # and arccos read 1.5e-6 to 2.1e-6 degrees here
    surf = build_surface(make().build_connectivity(), options)
    angles = [e["normal_angle_deg"]
              for e in continuity_report(surf, samples=8)["edges"]
              if e["kinds"] == ["regular", "regular"]]
    assert angles
    assert max(angles) <= 1e-9


def _fd4(fn, t, h):
    """First derivative of fn at t in [0, 1] to 4th order: central where
    t +- 2h stays inside, one sided otherwise."""
    if 2 * h <= t <= 1 - 2 * h:
        return (fn(t - 2 * h) - 8 * fn(t - h) + 8 * fn(t + h)
                - fn(t + 2 * h)) / (12 * h)
    s = 1.0 if t < 0.5 else -1.0
    return s * (-25 * fn(t) + 48 * fn(t + s * h) - 36 * fn(t + 2 * s * h)
                + 16 * fn(t + 3 * s * h) - 3 * fn(t + 4 * s * h)) / (12 * h)


def test_grid_side_audit_normals_match_finite_differences():
    surf = build_surface(torus_with_rotated_edge(10, 10).build_connectivity(),
                         BuildOptions())
    mesh, samples, h = surf.mesh, 5, 1e-3
    ts = np.linspace(0.0, 1.0, samples)
    hes = np.array(_interior_shared_edges(surf)).reshape(-1, 2)
    normal = _seam_table(surf, hes, ts, surf.options.k)[1]
    checked = 0
    for (he, tw), pair in zip(hes, normal):
        for side, (e, t) in enumerate(((he, ts), (tw, 1.0 - ts))):
            f = mesh.he_face(e)
            if f not in surf.regular:
                continue
            fn = surf.patch(f).eval
            for ti, n in zip(t, pair[side]):
                u, v = (float(c) for c in surf._edge_uv(f, e, ti))
                su = _fd4(lambda x: fn(x, v), u, h)
                sv = _fd4(lambda y: fn(u, y), v, h)
                want = np.cross(su, sv)
                want /= np.linalg.norm(want)
                angle = np.arctan2(np.linalg.norm(np.cross(n, want)),
                                   abs(n @ want))
                assert angle <= 1e-8
                checked += 1
    assert checked > samples * len(hes)


def test_watertight_seams_g1_mode():
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    surf = build_surface(mesh, BuildOptions(family="d3c1p2s4", mode="g1"))
    rep = continuity_report(surf, samples=8)
    assert rep["summary"]["position_gap"]["max"] < 1e-8
    assert rep["summary"]["normal_angle_deg"]["max"] < 0.1


def test_open_mesh_boundary_patches():
    mesh = open_grid(5, 5, height=lambda x, y: 0.2 * x * y).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    # extrapolation makes every real face regular
    assert len(surf.regular) == 25
    # the surface interpolates all mesh vertices: corners of each patch
    for f in surf.regular:
        patch = surf.regular[f]
        anchor = surf.anchors[f]
        v0 = surf.mesh.origin(anchor)
        assert np.allclose(patch.eval(0, 0), surf.mesh.vertices[v0],
                           atol=1e-12)


def test_tessellate_counts_and_welding(torus):
    surf = build_surface(torus, BuildOptions())
    for n in (1, 2, 4, 8):
        tri = tessellate(surf, n)
        # welding leaves the V mesh vertices, n - 1 samples per edge and
        # (n - 1)^2 per face: V + E (n - 1) + F (n - 1)^2 = F n^2 on a torus
        assert len(tri.positions) == torus.num_faces * n * n
        assert len(tri.triangles) == torus.num_faces * 2 * n * n


def test_tessellation_planar_mesh_stays_planar():
    mesh = grid_with_rotated_edge(6, 6, at=(2, 2)).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    tri = tessellate(surf, 4)
    assert np.abs(tri.positions[:, 2]).max() < 1e-10


def test_analysis_fields_plane_and_isophote():
    mesh = grid_with_rotated_edge(6, 6, at=(2, 2)).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    tri = tessellate(surf, 4)
    info = analysis_fields(surf, tri)
    H = tri.channels["mean_curvature"]
    iso = tri.channels["isophote"]
    assert info["degenerate_samples"] == 0
    assert np.nanmax(np.abs(H)) < 1e-6
    assert np.all(iso[np.isfinite(iso)] <= 1.0 + 1e-12)
    assert np.all(iso[np.isfinite(iso)] >= -1.0 - 1e-12)


def test_analysis_fields_flags_degenerate_samples():
    from quadspline.surface import TriangleMesh

    class PointPatch:
        def eval(self, u, v):
            return np.zeros(np.shape(u) + (3,))

    class FakeSurface:
        def patch(self, f):
            return PointPatch()

        def eval(self, faces, u, v):
            return PointPatch().eval(u, v)

    tri = TriangleMesh(positions=np.zeros((3, 3)),
                       triangles=np.array([[0, 1, 2]]),
                       src_face=np.zeros(3, dtype=int),
                       src_uv=np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]]))
    info = analysis_fields(FakeSurface(), tri)
    assert info["degenerate_samples"] == 3
    assert np.all(np.isnan(tri.channels["mean_curvature"]))
    assert np.all(np.isnan(tri.channels["isophote"]))


def test_mean_curvature_mirror_invariance():
    mesh = torus_grid(6, 6).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    tri = tessellate(surf, 3)
    analysis_fields(surf, tri, richardson=True)

    mirrored = torus_grid(6, 6)
    mirrored.vertices[:, 0] *= -1.0
    # mirroring flips orientation; flip faces to stay consistently wound
    mirrored.faces[:] = mirrored.faces[:, ::-1]
    mirrored.build_connectivity()
    surf_m = build_surface(mirrored, BuildOptions())
    tri_m = tessellate(surf_m, 3)
    analysis_fields(surf_m, tri_m, richardson=True)

    H = tri.channels["mean_curvature"]
    Hm = tri_m.channels["mean_curvature"]
    # compare |H| distributions at mirrored sample points
    order = np.lexsort(np.round(tri.positions * 1e6).T)
    pos_m = tri_m.positions.copy()
    pos_m[:, 0] *= -1.0
    order_m = np.lexsort(np.round(pos_m * 1e6).T)
    assert np.allclose(np.abs(H[order]), np.abs(Hm[order_m]), atol=1e-8)


def test_torus_mean_curvature_against_analytic():
    # torus R=2, r=1: H = (R + 2 r cos(phi)) / (2 r (R + r cos(phi)))
    mesh = torus_grid(24, 24).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    tri = tessellate(surf, 2)
    analysis_fields(surf, tri)
    R, r = 2.0, 1.0
    errs = []
    for p, H in zip(tri.positions, tri.channels["mean_curvature"]):
        rho = np.hypot(p[0], p[1])
        phi = np.arctan2(p[2], rho - R)
        want = (R + 2 * r * np.cos(phi)) / (2 * r * (R + r * np.cos(phi)))
        errs.append(abs(abs(H) - abs(want)))
    # interpolant of a coarse sampling: curvature is approximate
    assert np.median(errs) < 0.08


def test_exports_roundtrip(tmp_path, torus):
    surf = build_surface(torus, BuildOptions())
    tri = tessellate(surf, 2)
    analysis_fields(surf, tri)
    ply = tmp_path / "out.ply"
    export_ply(tri, ply, channels=("mean_curvature", "isophote"))
    text = ply.read_text().splitlines()
    assert text[0] == "ply"
    nv = len(tri.positions)
    nf = len(tri.triangles)
    assert f"element vertex {nv}" in text
    assert f"element face {nf}" in text
    assert sum(1 for ln in text if ln.startswith("property float")) == 5
    header_end = text.index("end_header")
    nv_lines = text[header_end + 1:header_end + 1 + nv]
    parsed = np.array([ln.split()[:3] for ln in nv_lines], dtype=float)
    scale = np.abs(tri.positions).max()
    assert np.allclose(parsed, tri.positions, atol=1e-7 * scale)

    obj = tmp_path / "out.obj"
    export_obj(tri, obj)
    mesh2 = [ln for ln in obj.read_text().splitlines() if ln.startswith("v ")]
    assert len(mesh2) == nv


def _ply_rows(tri, channels):
    """The PLY body written one row at a time: the reference for the
    vectorized export."""
    rows = []
    for i, p in enumerate(tri.positions):
        row = [f"{p[0]:.9g}", f"{p[1]:.9g}", f"{p[2]:.9g}"]
        row += [f"{tri.channels[name][i]:.9g}" for name in channels]
        rows.append(" ".join(row) + "\n")
    rows += [f"3 {t[0]} {t[1]} {t[2]}\n" for t in tri.triangles]
    return "".join(rows)


@pytest.mark.parametrize("channels", [(), ("mean_curvature", "isophote")])
def test_export_ply_bytes_match_row_writer(tmp_path, torus, channels):
    surf = build_surface(torus, BuildOptions())
    tri = tessellate(surf, 2)
    analysis_fields(surf, tri)
    tri.channels["mean_curvature"][[0, 3]] = (np.nan, -0.0)
    tri.positions[1] = (-0.0, 1e-300, -123456.789)
    ply = tmp_path / "out.ply"
    export_ply(tri, ply, channels=channels)
    text = ply.read_text(encoding="utf-8")
    body = text[text.index("end_header\n") + len("end_header\n"):]
    assert body == _ply_rows(tri, channels)
    if channels:
        assert " nan " in body.splitlines()[0] + " "
        assert body.splitlines()[3].split()[3] == "-0"


def test_export_empty_mesh(tmp_path):
    from quadspline.surface import TriangleMesh
    tri = TriangleMesh(positions=np.zeros((0, 3)),
                       triangles=np.zeros((0, 3), dtype=int))
    ply = tmp_path / "empty.ply"
    export_ply(tri, ply)
    assert "element vertex 0" in ply.read_text()


def test_report_json_schema(tmp_path, torus):
    import json
    surf = build_surface(torus, BuildOptions())
    rep = continuity_report(surf, samples=4)
    path = tmp_path / "rep.json"
    write_report(rep, path)
    loaded = json.loads(path.read_text())
    assert "edges" in loaded and "summary" in loaded
    for e in loaded["edges"]:
        assert set(e) == {"faces", "kinds", "position_gap",
                          "normal_angle_deg", "delta_residual"}
        assert e["position_gap"] >= 0.0
    assert loaded["summary"]["edge_count"] == len(loaded["edges"])


def test_identical_patch_against_itself_zero_gap(torus):
    surf = build_surface(torus, BuildOptions())
    f = 0
    anchor = surf.anchors[f]
    for t in np.linspace(0, 1, 5):
        a = surf.eval(f, *surf._edge_uv(f, anchor, t))
        b = surf.eval(f, *surf._edge_uv(f, anchor, t))
        assert np.linalg.norm(a - b) == 0.0


def assert_vertices_interpolated(surf):
    """Every real mesh vertex is a corner of some patch and is hit exactly."""
    mesh = surf.mesh
    worst = 0.0
    for f in range(mesh.real_face_count):
        patch = surf.patch(f)
        g = surf.anchors[f]
        for (u, v) in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            vid = mesh.origin(g)
            err = np.linalg.norm(patch.eval(u, v) - mesh.vertices[vid])
            worst = max(worst, float(err))
            g = mesh.he_next(g)
    assert worst < 1e-10


def test_sphere_with_eight_valence3_vertices():
    """Subdivided cube projected to the unit sphere: the composite stays on
    the sphere, interpolates every vertex, and does not fold."""
    mesh = sphere_mesh(2).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    assert len(surf.gregory) == 24  # three faces per valence-3 vertex
    assert_vertices_interpolated(surf)
    rep = continuity_report(surf, samples=6)
    assert rep["summary"]["position_gap"]["max"] < 1e-8
    assert rep["summary"]["normal_angle_deg"]["max"] < 0.01
    tri = tessellate(surf, 5)
    r = np.linalg.norm(tri.positions, axis=1)
    assert r.min() > 0.98 and r.max() < 1.02  # no ballooning at the corners
    analysis_fields(surf, tri)
    H = np.abs(tri.channels["mean_curvature"])
    assert 0.9 < float(np.nanmedian(H)) < 1.1  # unit sphere: H = 1
    # consistently outward-facing triangles: no local folds
    P = tri.positions
    a, b, c = (P[tri.triangles[:, k]] for k in range(3))
    n = np.cross(b - a, c - a)
    outward = np.einsum("ij,ij->i", n, (a + b + c) / 3.0)
    assert np.all(outward > 0)


def test_vertices_interpolated_on_ev_torus():
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    assert_vertices_interpolated(surf)


def test_guide_derivatives_keep_tangent_scale():
    """Fitted directional derivatives stay at the tangent-estimate scale.

    Guards the guide-fit parametrization: a radius law proportional to the
    square root of the spatial distance makes the fitted gradient collapse
    to zero, which this test catches by magnitude.
    """
    from quadspline.surface import _GregoryBuilder
    from quadspline import network as net
    mesh = sphere_mesh(2).build_connectivity()
    surf = build_surface(mesh, BuildOptions())
    # valence-3 vertices sit at the cube corners (first 8 vertices)
    fits = _GregoryBuilder(surf)._vertex_fits(np.arange(8))
    for v in range(8):
        assert mesh.valence(v) == 3
        nbrs = mesh.fan(v)
        ds = [surf.params.get(v, c) for c in nbrs]
        pts = mesh.vertices[nbrs]
        tans = [net.tangent_with_fallback(mesh.vertices[v], pts, ds, i)
                for i in range(3)]
        assert fits.fan[v].tolist() == nbrs
        for c, t in zip(nbrs, tans):
            fitted = fits.first[v, nbrs.index(c)]
            ratio = np.linalg.norm(fitted) / np.linalg.norm(t)
            assert 0.5 < ratio < 1.5
            # and it points the way the raw estimate does
            cosang = float(fitted @ t) / (np.linalg.norm(fitted)
                                          * np.linalg.norm(t))
            assert cosang > 0.9


@pytest.mark.parametrize("at", [(0, 3), (0, 0), (5, 6)])
def test_extraordinary_cluster_touching_boundary(at):
    # rotated edges near the border push extraordinary faces against the
    # phantom layer; the build must stay total and watertight
    mesh = grid_with_rotated_edge(7, 7, at=at).build_connectivity()
    surf = build_surface(mesh, BuildOptions(family="d5c2p2s4", mode="g2"))
    assert surf.gregory
    rep = continuity_report(surf, samples=6)
    assert rep["summary"]["position_gap"]["max"] < 1e-8


def test_linear_ruled_direction_mode():
    mesh = torus_with_rotated_edge(8, 8).build_connectivity()
    surf = build_surface(mesh, BuildOptions(r_degree=1))
    rep = continuity_report(surf, samples=6)
    assert rep["summary"]["position_gap"]["max"] < 1e-8
    assert rep["summary"]["normal_angle_deg"]["max"] < 0.1


def test_alpha_override():
    mesh = torus_grid(6, 6, perturb=0.05, seed=2).build_connectivity()
    s_default = build_surface(mesh, BuildOptions())
    s_alpha = build_surface(mesh, BuildOptions(param_method="centripetal",
                                               alpha=0.8))
    p1 = s_default.patch(0).eval(0.37, 0.41)
    p2 = s_alpha.patch(0).eval(0.37, 0.41)
    assert not np.allclose(p1, p2, atol=1e-6)  # different parametrization
    rep = continuity_report(s_alpha, samples=5)
    assert rep["summary"]["position_gap"]["max"] < 1e-8


def test_build_with_user_supplied_params():
    from quadspline.mesh import EdgeParams, assign_edge_params
    mesh = torus_grid(6, 6).build_connectivity()
    base = assign_edge_params(mesh, "centripetal")
    sidecar = EdgeParams.from_json(base.to_json(), mesh=mesh)
    s1 = build_surface(mesh, BuildOptions(), params=sidecar)
    s2 = build_surface(mesh, BuildOptions())
    for (u, v) in ((0.2, 0.7), (0.9, 0.1)):
        assert np.allclose(s1.patch(3).eval(u, v), s2.patch(3).eval(u, v),
                           atol=1e-14)


def test_randomized_multi_ev_meshes_watertight():
    """Sweep: perturbed tori with two separated irregularity clusters."""
    from conftest import torus_grid as make_torus
    for seed, spots in ((1, ((2, 2), (7, 6))), (2, ((3, 8), (8, 3)))):
        base = make_torus(12, 12, perturb=0.05, seed=seed)
        faces = [list(f) for f in base.faces]
        n = m = 12
        for (i, j) in spots:
            def vid(ii, jj):
                return (ii % n) * m + (jj % m)
            f1 = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            f2 = [vid(i + 1, j), vid(i + 2, j), vid(i + 2, j + 1),
                  vid(i + 1, j + 1)]
            i1, i2 = faces.index(f1), faces.index(f2)
            faces[i1] = [vid(i + 2, j), vid(i + 2, j + 1),
                         vid(i + 1, j + 1), vid(i, j + 1)]
            faces[i2] = [vid(i, j + 1), vid(i, j), vid(i + 1, j),
                         vid(i + 2, j)]
        from quadspline.mesh import QuadMesh
        mesh = QuadMesh(base.vertices, faces).build_connectivity()
        for mode, fam in (("g2", "d5c2p2s4"), ("g1", "d3c1p2s4")):
            surf = build_surface(mesh, BuildOptions(family=fam, mode=mode))
            assert len(surf.gregory) >= 16
            rep = continuity_report(surf, samples=5)
            assert rep["summary"]["position_gap"]["max"] < 1e-8
            assert rep["summary"]["normal_angle_deg"]["max"] < 0.1
            assert_vertices_interpolated(surf)


def test_w6_grid_extraction_with_intervals():
    from quadspline.mesh import assign_edge_params, extract_local_grid
    from quadspline.patch import RegularPatch
    from quadspline.splines import D5C2P2S4
    mesh = torus_grid(8, 8, perturb=0.04, seed=9).build_connectivity()
    params = assign_edge_params(mesh, "centripetal")
    grid = extract_local_grid(mesh, params, 12, w=6)
    with pytest.raises(ValueError):
        RegularPatch(grid, D5C2P2S4)  # support width mismatch
    assert grid.points.shape == (6, 6, 3)
    assert grid.d0.shape == (5,) and grid.e1.shape == (5,)
    assert np.all(grid.d0 > 0) and np.all(grid.e1 > 0)
    # the 4-wide window sits inside the 6-wide one
    g4 = extract_local_grid(mesh, params, 12, w=4)
    assert np.allclose(grid.points[1:5, 1:5], g4.points, atol=0)
    assert np.allclose(grid.d0[1:4], g4.d0, atol=0)
    assert np.allclose(grid.e0[1:4], g4.e0, atol=0)


def test_determinism_same_inputs_same_surface():
    mesh1 = torus_with_rotated_edge(8, 8).build_connectivity()
    mesh2 = torus_with_rotated_edge(8, 8).build_connectivity()
    s1 = build_surface(mesh1, BuildOptions())
    s2 = build_surface(mesh2, BuildOptions())
    t1 = tessellate(s1, 3)
    t2 = tessellate(s2, 3)
    assert np.array_equal(t1.positions, t2.positions)
    assert np.array_equal(t1.triangles, t2.triangles)


# -- Gregory side contract ----------------------------------------------------

SIDE_CASES = {
    "sphere_g2": (lambda: sphere_mesh(2), BuildOptions()),
    "open_ev_grid_g1": (
        lambda: grid_with_rotated_edge(
            8, 8, height=lambda x, y: 0.1 * np.sin(0.7 * x) * np.cos(0.5 * y)),
        BuildOptions(family="d3c1p2s4", mode="g1")),
}


def _gregory_sides(case):
    """The surface, then (role, half edge, side) of every Gregory side;
    role 0..3 is the side's place gamma0..gamma3 in its face's frame."""
    make, options = SIDE_CASES[case]
    surf = build_surface(make().build_connectivity(), options)
    mesh = surf.mesh
    sides = []
    for f, patch in sorted(surf.gregory.items()):
        a = surf.anchors[f]
        hes = (a, mesh.he_next(a), mesh.he_next(mesh.he_next(a)),
               mesh.he_prev(a))
        sides += [(role, h, side)
                  for role, (h, side) in enumerate(zip(hes, patch.data.sides))]
    return surf, sides


@pytest.mark.parametrize("case", sorted(SIDE_CASES))
def test_sampled_sides_match_neighbouring_patch(case):
    surf, sides = _gregory_sides(case)
    mesh, k = surf.mesh, surf.options.k
    checked = 0
    for role, h, side in sides:
        twin = mesh.twin(h)
        g = None if twin is None else mesh.he_face(twin)
        if g is None or g >= mesh.real_face_count or g not in surf.regular:
            continue
        nbr = surf.regular[g]
        c = (twin - surf.anchors[g]) % 4
        nside = ("v0", "u1", "v1", "u0")[c]
        # the Gregory side runs along h for roles 0, 1; the neighbour's side
        # runs along the twin, i.e. against h, for c = 0, 1
        same_way = (role < 2) != (c < 2)
        # chi points into the Gregory face for roles 0, 3; the neighbour's
        # cross derivative points into the neighbour for c = 0, 3
        same_cross = (role in (0, 3)) != (c in (0, 3))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            tn = t if same_way else 1.0 - t
            for q in range(k + 1):
                # the neighbour's uv cross derivative of order q over the
                # q-th power of its blend: its order-q field
                want = nbr.field(nside, q).eval(tn * nbr.side_interval(nside))
                if q % 2 and not same_cross:
                    want = -want
                assert np.linalg.norm(side.field(q, t * side.d) - want) \
                    < 1e-12
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("case", sorted(SIDE_CASES))
def test_network_sides_share_one_curve(case):
    surf, sides = _gregory_sides(case)
    mesh = surf.mesh
    views = {}
    for role, h, side in sides:
        rec = surf.edge_records.get(edge_key(mesh.origin(h), mesh.target(h)))
        if rec is None:
            continue
        start = mesh.origin(h) if role < 2 else mesh.target(h)
        views.setdefault(id(rec), []).append((start != rec.a, side))
    shared = [v for v in views.values() if len(v) == 2]
    assert shared
    for pair in shared:
        # the view that reads the record forwards first
        (rev1, s1), (rev2, s2) = sorted(pair, key=lambda view: view[0])
        d = s1.d
        for x in d * np.linspace(0.0, 1.0, 5):
            for r in range(surf.options.k + 1):
                if rev1 == rev2:
                    assert np.array_equal(s1.field(0, x, r),
                                          s2.field(0, x, r))
                else:
                    assert np.array_equal(s2.field(0, x, r),
                                          (-1.0) ** r * s1.field(0, d - x, r))


@pytest.mark.parametrize("case, patches", [("open_ev_grid_g1", 54),
                                           ("sphere_g2", 72)])
def test_sampled_sides_read_the_neighbours_own_patch(case, patches,
                                                     monkeypatch):
    built, standalone = [], []
    init = GridPatchSet.__init__

    def counting_init(self, grids, fam):
        grids = list(grids)
        built.extend(grid.face for grid in grids)
        init(self, grids, fam)

    monkeypatch.setattr(GridPatchSet, "__init__", counting_init)
    monkeypatch.setattr(RegularPatch, "__init__",
                        lambda self, grid, fam: standalone.append(grid.face))
    surf, sides = _gregory_sides(case)
    # one patch per regular face, all in the surface's one set, and nothing
    # else
    assert sorted(built) == sorted(surf.regular)
    assert len(built) == patches
    assert not standalone
    mesh = surf.mesh
    sampled = 0
    for _role, h, side in sides:
        twin = mesh.twin(h)
        g = None if twin is None else mesh.he_face(twin)
        if g not in surf.regular:
            continue
        nbr = surf.regular[g]
        assert all(fld.patches is nbr.patches is surf.grid_patches
                   and fld.slot == nbr.slot for fld in side.fields)
        sampled += 1
    assert sampled > 0


def _rotated_uv(u, v, c):
    """Canonical (u, v) of the point at (u, v) in the frame anchored c half
    edges further along the face."""
    for _ in range(c):
        u, v = 1.0 - v, u
    return u, v


@pytest.mark.parametrize("family", ["d3c1p2s4", "d5c2p2s4"])
@pytest.mark.parametrize("make", [lambda: sphere_mesh(2), jittered_torus,
                                  lambda: torus_with_rotated_edge(10, 10)],
                         ids=["sphere", "jittered_torus", "rotated_torus"])
def test_grid_patch_is_independent_of_its_anchor(make, family):
    surf = build_surface(make().build_connectivity(),
                         BuildOptions(family=family, mode="g1"))
    mesh = surf.mesh
    t = np.linspace(0.0, 1.0, 5)
    u, v = np.meshgrid(t, t)
    for f, patch in surf.regular.items():
        for c in (1, 2, 3):
            anchor = 4 * f + (surf.anchors[f] + c) % 4
            other = RegularPatch(extract_local_grid(
                mesh, surf.params, f, patch.patches.family.support,
                anchor=anchor), patch.patches.family)
            want = patch.eval(*_rotated_uv(u, v, c))
            assert np.abs(other.eval(u, v) - want).max() < 1e-13


def _height(x, y):
    return 0.1 * np.sin(0.7 * x) * np.cos(0.5 * y)


GREGORY_SEAM_CASES = {
    "sphere_g2_r1": (lambda: sphere_mesh(2), BuildOptions(r_degree=1)),
    "sphere_g2_r2": (lambda: sphere_mesh(2), BuildOptions()),
    "sphere_g1_d5": (lambda: sphere_mesh(2), BuildOptions(mode="g1")),
    "ev_torus_g2": (lambda: torus_with_rotated_edge(10, 10), BuildOptions()),
    "ev_torus_g1_d3": (lambda: torus_with_rotated_edge(10, 10),
                       BuildOptions(family="d3c1p2s4", mode="g1")),
    "height_grid_g2": (lambda: grid_with_rotated_edge(7, 7, height=_height),
                       BuildOptions()),
    "height_grid_g1_d3": (
        lambda: grid_with_rotated_edge(7, 7, height=_height),
        BuildOptions(family="d3c1p2s4", mode="g1")),
    "cube_g2": (cube_mesh, BuildOptions()),
    "cube_g1_d3": (cube_mesh, BuildOptions(family="d3c1p2s4", mode="g1")),
}


def _unit(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _angle_deg(n1, n2):
    return np.degrees(np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=-1),
                                 np.abs(np.einsum("...d,...d", n1, n2))))


def _data_normals(surf, h, t):
    """Unit normals at the fractions t along half edge h of the side of its
    face there, from the side's data: a Coons-Gregory side's boundary curve
    derivative and chi, a grid patch's own side fields."""
    f = h >> 2
    c = (h - surf.anchors[f]) % 4
    # sides c = 0, 1 run along their half edge, c = 2, 3 against it
    t = t if c < 2 else 1.0 - t
    if f in surf.gregory:
        side = surf.gregory[f].data.sides[c]
        along, cross = side.field(0, t * side.d, 1), side.field(1, t * side.d)
    else:
        patch, name = surf.regular[f], SIDE_OF_CORNER[c]
        x = t * patch.side_interval(name)
        along = patch.field(name, 0).eval(x, 1)
        cross = patch.field(name, 1).eval(x)
    return _unit(np.cross(along, cross))


@pytest.mark.parametrize("case", sorted(GREGORY_SEAM_CASES))
def test_gregory_seams_are_g1_in_the_data(case):
    # the two sides' data normals agree to round-off (at most 9.2e-12
    # degrees, ev_torus_g1_d3); the FD audit reads up to 0.021 degrees on
    # these seams
    make, options = GREGORY_SEAM_CASES[case]
    surf = build_surface(make().build_connectivity(), options)
    t = np.linspace(0.0, 1.0, 16)
    seams = [(h, g) for h, g in _interior_shared_edges(surf)
             if {h >> 2, g >> 2} & set(surf.gregory)]
    assert seams
    worst = max(_angle_deg(_data_normals(surf, h, t),
                           _data_normals(surf, g, 1.0 - t)).max()
                for h, g in seams)
    assert worst <= 1e-9


# the inward direction in (u, v) at side c of a patch
_INWARD = np.array([(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)])
# one-sided first derivative from 6 points, error O(h^5)
_FD6 = np.array([-137.0 / 60.0, 5.0, -5.0, 10.0 / 3.0, -5.0 / 4.0, 0.2])


@pytest.mark.parametrize("case", sorted(GREGORY_SEAM_CASES))
def test_gregory_patches_carry_their_data(case):
    make, options = GREGORY_SEAM_CASES[case]
    surf = build_surface(make().build_connectivity(), options)
    t = np.linspace(0.0, 1.0, 16)
    zero, one = np.zeros_like(t), np.ones_like(t)
    gap, fd = 0.0, {1e-3: 0.0, 5e-4: 0.0}
    for patch in surf.gregory.values():
        for c, side in enumerate(patch.data.sides):
            x = t * side.d
            uv = np.stack([(t, zero), (one, t), (t, one), (zero, t)][c], 1)
            # positions along a side are its boundary curve (at most 1.1e-14
            # here)
            gap = max(gap, np.abs(patch.eval(*uv.T)
                                  - side.field(0, x)).max())
            along = side.field(0, x, 1)
            normal = _unit(np.cross(along, side.field(1, x)))
            for h in fd:
                at = uv[:, None] + h * np.arange(6)[:, None] * _INWARD[c]
                inward = np.einsum("k,nkd->nd", _FD6,
                                   patch.eval(at[..., 0], at[..., 1])) / h
                fd[h] = max(fd[h], _angle_deg(
                    normal, _unit(np.cross(along, inward))).max())
    assert gap <= 1e-13
    # the patch's own FD normal converges to the data normal as h^5: the
    # worst angle falls 22-36x from h = 1e-3 to 5e-4; on the spheres it
    # already sits at the round-off floor (about 4e-9 degrees) at 5e-4
    if not case.startswith("sphere"):
        assert fd[1e-3] >= 16.0 * fd[5e-4]

