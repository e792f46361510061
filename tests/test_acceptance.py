"""Acceptance suite: one test per release criterion, tolerances as stated.

Each test prints a PASS line once its assertions held, so `pytest -s`
doubles as the acceptance checklist.
"""

import json
import time

import numpy as np
import pytest

from conftest import (FIG1_POLYLINE, boundary_vertices, chain_curve,
                      chain_edges, grid_with_rotated_edge, jittered_torus,
                      knot_derivatives, side_length, torus_grid,
                      torus_with_rotated_edge, window_patch)
from test_gregory import fd_cross_v, one_patch, random_boundary_data
from quadspline.cli import count_sign_changes, main
from quadspline.mesh import assign_edge_params, save_obj, section_chains
from quadspline.network import tangent_with_fallback
from quadspline.patch import SIDES, _blend
from quadspline.splines import (D3C1P2S4, D5C2P2S4, PolylineCurve,
                                fundamental_weights)
from quadspline.surface import (BuildOptions, analysis_fields, build_surface,
                                tessellate)

BOTH = (D3C1P2S4, D5C2P2S4)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_fundamental_function_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for fam in BOTH:
        # delta property at the knots
        for _ in range(25):
            d = tuple(rng.uniform(0.1, 4.0, 3))
            assert np.allclose(fundamental_weights(fam, 0.0, d),
                               [0, 1, 0, 0], atol=1e-12)
            assert np.allclose(fundamental_weights(fam, d[1], d),
                               [0, 0, 1, 0], atol=1e-12)
        # partition of unity
        for _ in range(100):
            d = tuple(rng.uniform(0.05, 5.0, 3))
            x = rng.uniform(0.0, d[1])
            assert abs(sum(fundamental_weights(fam, x, d)) - 1.0) < 1e-10
        # compact support: out-of-window points do not move curve values
        pts = rng.normal(size=(10, 3))
        curve = PolylineCurve.from_points(pts, fam, closed=False)
        x = 0.5 * (curve.knots[4] + curve.knots[5])
        base = curve.eval(x)
        moved = pts.copy()
        moved[[0, 1, 8, 9]] += rng.normal(0.0, 4.0, (4, 3))
        curve2 = PolylineCurve(moved, curve.knots, fam, closed=False)
        assert np.allclose(curve2.eval(x), base, atol=1e-14)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"fundamental-function suite (delta 1e-12, unity 1e-10, "
              f"support) in {elapsed:.2f}s")


def test_criterion_02_uniform_midpoint_weights():
    d = (1.0, 1.0, 1.0)
    want = (-1 / 16, 9 / 16, 9 / 16, -1 / 16)
    for fam in BOTH:
        for off, w in zip((-1, 0, 1, 2), want):
            assert abs(fundamental_weights(fam, 0.5, d)[off + 1] - w) < 1e-14
    report(2, "uniform midpoint weights (-1/16, 9/16, 9/16, -1/16) to 1e-14")


def test_criterion_03_knot_continuity():
    rng = np.random.default_rng(103)
    for fam in BOTH:
        pts = rng.normal(size=(12, 3))
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.5, 12))])
        curve = PolylineCurve(pts, knots, fam, closed=True)
        for j in range(1, 11):
            for r in range(fam.continuity + 1):
                left, right = knot_derivatives(curve, j, r)
                scale = max(np.linalg.norm(left), np.linalg.norm(right), 1.0)
                assert np.linalg.norm(left - right) / scale < 1e-9
    report(3, "one-sided derivatives agree through order k at interior "
              "knots (rel 1e-9)")


def test_criterion_04_quadratic_reproduction():
    rng = np.random.default_rng(104)
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.5, 8))])
    pts = np.stack([ts, ts * ts], axis=1)
    for fam in BOTH:
        curve = PolylineCurve(pts, ts, fam, closed=False)
        lo, hi = curve.domain()
        for x in rng.uniform(lo, hi, 20):
            assert np.allclose(curve.eval(x), [x, x * x], atol=1e-9)
    report(4, "quadratic functional data reproduced to 1e-9 at 20 "
              "random parameters")


@pytest.fixture(scope="module")
def perturbed_torus_12():
    mesh = torus_grid(12, 12, perturb=0.06, seed=5).build_connectivity()
    params = assign_edge_params(mesh, "centripetal")
    return mesh, params


def test_criterion_05_section_curves(perturbed_torus_12):
    start = time.perf_counter()
    mesh, params = perturbed_torus_12
    fam = D5C2P2S4
    by_edge = {}
    for chain in section_chains(mesh):
        curve = chain_curve(mesh, params, chain, fam)
        for k, key in enumerate(chain_edges(chain)):
            by_edge[key] = (chain, curve, k)
    rng = np.random.default_rng(105)
    side_ids = {"v0": ((1, 1), (2, 1)), "v1": ((1, 2), (2, 2)),
                "u0": ((1, 1), (1, 2)), "u1": ((2, 1), (2, 2))}
    uv_of = {"v0": lambda t: (t, 0.0), "v1": lambda t: (t, 1.0),
             "u0": lambda t: (0.0, t), "u1": lambda t: (1.0, t)}
    for f in range(mesh.num_faces):
        patch = window_patch(mesh, params, f, fam)
        ids = patch.grid.vertex_ids
        for side, ((ia, ja), (ib, jb)) in side_ids.items():
            a, b = int(ids[ia, ja]), int(ids[ib, jb])
            chain, curve, seg = by_edge[tuple(sorted((a, b)))]
            verts = chain[0]
            forward = verts[seg] == a
            x0 = curve.knots[seg if forward else seg + 1]
            d_edge = side_length(patch, side)
            t = rng.uniform(0.0, 1.0, 20)
            x = x0 + t * d_edge if forward else x0 - t * d_edge
            gap = patch.eval(*uv_of[side](t)) - curve.eval(x)
            assert np.linalg.norm(gap, axis=-1).max() < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"all patch boundaries on their section curves to 1e-10 "
              f"({mesh.num_faces} faces x 4 sides x 20 samples, "
              f"{elapsed:.2f}s)")


def test_criterion_06_cross_boundary_scaling(perturbed_torus_12):
    mesh, params = perturbed_torus_12
    rng = np.random.default_rng(106)
    interior = np.flatnonzero(mesh.twin_of[:mesh.num_halfedges] >= 0)
    picked = rng.choice(interior, size=50, replace=False)
    h = 5e-3
    cs2 = (45.0, -154.0, 214.0, -156.0, 61.0, -10.0)
    for fam in BOTH:
        k = fam.continuity
        for h_s in picked:
            h_n = int(mesh.twin_of[h_s])
            ps = window_patch(mesh, params, mesh.he_face(int(h_s)), fam,
                              anchor=mesh.he_next(int(h_s)))
            pn = window_patch(mesh, params, mesh.he_face(h_n), fam,
                              anchor=mesh.he_prev(h_n))
            v = rng.uniform(0.1, 0.9)
            delta = ps.patches.side_blend(ps.slot, SIDES.index("u0"), v) \
                / pn.patches.side_blend(pn.slot, SIDES.index("u1"), v)
            for r in range(1, k + 1):
                if r == 1:
                    ds = (-25 * ps.eval(0, v) + 48 * ps.eval(h, v)
                          - 36 * ps.eval(2 * h, v) + 16 * ps.eval(3 * h, v)
                          - 3 * ps.eval(4 * h, v)) / (12 * h)
                    dn = (25 * pn.eval(1, v) - 48 * pn.eval(1 - h, v)
                          + 36 * pn.eval(1 - 2 * h, v)
                          - 16 * pn.eval(1 - 3 * h, v)
                          + 3 * pn.eval(1 - 4 * h, v)) / (12 * h)
                else:
                    ds = sum(c * ps.eval(i * h, v)
                             for i, c in enumerate(cs2)) / (12 * h * h)
                    dn = sum(c * pn.eval(1 - i * h, v)
                             for i, c in enumerate(cs2)) / (12 * h * h)
                want = delta ** r * dn
                scale = max(np.linalg.norm(ds), np.linalg.norm(want), 1e-9)
                assert np.linalg.norm(ds - want) / scale < 1e-4
    report(6, "cross-derivative scaling law on 50 random shared edges, "
              "orders 1..k, rel 1e-4 (finite differences)")


def test_criterion_07_gregory_interpolation_contract():
    rng = np.random.default_rng(107)
    for trial in range(20):
        k = 1 if trial % 2 == 0 else 2
        data = random_boundary_data(rng, k)
        patch = one_patch(data)
        corners = data.corners
        assert np.linalg.norm(patch.eval(0, 0) - corners[0]) < 1e-12
        assert np.linalg.norm(patch.eval(1, 0) - corners[1]) < 1e-12
        assert np.linalg.norm(patch.eval(1, 1) - corners[2]) < 1e-12
        assert np.linalg.norm(patch.eval(0, 1) - corners[3]) < 1e-12
        for t in rng.uniform(0, 1, 5):
            assert np.linalg.norm(patch.eval(t, 0)
                                  - data.field(0, 0, t * data.d0)) < 1e-10
        for u in rng.uniform(0.05, 0.95, 4):
            # the column blend, which scales cross fields along v = 0
            eps = data.e0 + (data.e1 - data.e0) * _blend(k, u)
            want = eps * data.field(0, 1, u * data.d0)
            got = fd_cross_v(patch, u, 0.0, order=1, sign=1)
            assert np.linalg.norm(got - want) / max(np.linalg.norm(want),
                                                    1.0) < 1e-4
            if k == 2:
                want2 = eps ** 2 * data.field(0, 2, u * data.d0)
                got2 = fd_cross_v(patch, u, 0.0, h=2e-3, order=2, sign=1)
                assert np.linalg.norm(got2 - want2) / max(
                    np.linalg.norm(want2), 1.0) < 1e-3
    report(7, "20 randomized boundary data sets: corners 1e-12, "
              "boundaries 1e-10, cross fields rel 1e-4 / 1e-3")


def test_criterion_08_planar_end_to_end():
    start = time.perf_counter()
    mesh = grid_with_rotated_edge(8, 8, at=(3, 3)).build_connectivity()
    valences = {mesh.valence(v) for v in
                np.flatnonzero(~boundary_vertices(mesh))}
    assert {3, 4, 5} <= valences
    surf = build_surface(mesh, BuildOptions(family="d5c2p2s4", mode="g2"))
    tri = tessellate(surf, 6)
    info = analysis_fields(surf, tri)
    out_of_plane = float(np.abs(tri.positions[:, 2]).max())
    assert out_of_plane < 1e-8
    H = tri.channels["mean_curvature"]
    assert info["degenerate_samples"] == 0
    assert float(np.nanmax(np.abs(H))) < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, f"planar mesh with valence-3/5 vertices: out-of-plane "
              f"{out_of_plane:.1e}, |H| < 1e-5, {elapsed:.2f}s")


def test_criterion_09_curve_wiggle_ordering(tmp_path):
    pts_file = tmp_path / "fig1.txt"
    with open(pts_file, "w", encoding="utf-8") as fh:
        for p in FIG1_POLYLINE:
            fh.write(f"{p[0]} {p[1]}\n")
    counts = {}
    for param in ("uniform", "centripetal"):
        out = tmp_path / param
        assert main(["curve", str(pts_file), "--param", param,
                     "--samples", "400", "--out", str(out)]) == 0
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        counts[param] = count_sign_changes(
            [float(r.split(",")[3]) for r in rows])
    assert counts["centripetal"] <= counts["uniform"]
    report(9, f"curvature sign changes centripetal {counts['centripetal']} "
              f"<= uniform {counts['uniform']}")


def test_criterion_10_compare_parametrizations(tmp_path):
    path = tmp_path / "jt.obj"
    save_obj(jittered_torus(), path)
    assert main(["compare", str(path), "--samples", "2",
                 "--out", str(tmp_path / "jt")]) == 0
    results = json.loads((tmp_path / "jt.compare.json").read_text())
    aug = results["augmented"]["section_sign_changes"]
    mean = results["mean"]["section_sign_changes"]
    assert aug <= mean
    assert results["augmented"]["continuity"]["position_gap"]["max"] < 1e-8
    assert results["mean"]["continuity"]["position_gap"]["max"] < 1e-8
    report(10, f"augmented section sign changes {aug} <= mean {mean}; "
               "position gaps < 1e-8 for both")


def test_criterion_11_bessel_reduction():
    rng = np.random.default_rng(111)
    for _ in range(20):
        p0 = rng.normal(size=3)
        nbrs = np.array([p0 + rng.normal(size=3) for _ in range(4)])
        ds = rng.uniform(0.3, 2.0, 4)
        i = int(rng.integers(0, 4))
        T = tangent_with_fallback(p0, nbrs, ds, i)
        opp = (i + 2) % 4
        # independent parabola-through-three-points oracle
        ts = np.array([-ds[opp], 0.0, ds[i]])
        V = np.vander(ts, 3)
        coef = np.linalg.solve(V, np.stack([nbrs[opp], p0, nbrs[i]]))
        want = coef[1]
        assert np.linalg.norm(T - want) / max(np.linalg.norm(want),
                                              1e-12) < 1e-10
    report(11, "valence-4 tangent estimate matches the three-point "
               "parabola oracle (rel 1e-10, 20 configurations)")


def test_criterion_12_deterministic_outputs(tmp_path):
    path = tmp_path / "in.obj"
    save_obj(torus_with_rotated_edge(8, 8), path)
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.ply"
        rep = tmp_path / f"{tag}.json"
        assert main(["build", str(path), "--samples", "3",
                     "--out", str(out), "--report", str(rep)]) == 0
        blobs.append((out.read_bytes(), rep.read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    report(12, "two identical builds produce byte-identical PLY and "
               "JSON outputs")
