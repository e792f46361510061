"""The array-in evaluation path against point-by-point evaluation.

Patch evaluation takes arrays of (u, v); tessellate, analysis_fields and
continuity_report evaluate each face's points in one call.  The oracles
below evaluate one point per call with the same complex steps and step
sizes; a finite-difference oracle checks the channels' accuracy.
"""

from functools import lru_cache

import numpy as np
import pytest

from conftest import (grid_with_rotated_edge, jittered_torus, side_field,
                      side_length, sphere_mesh, torus_grid,
                      torus_with_rotated_edge)
from quadspline import surface as qsurface
from quadspline.gregory import GregoryPatchSet
from quadspline.patch import GridPatchSet
from quadspline.surface import (AUDIT_STEP, FD_STEP, WELD_REL_TOL,
                                BuildOptions, CompositeSurface, _cross_frame,
                                _interior_shared_edges, _seam_table,
                                analysis_fields, build_surface,
                                continuity_report, tessellate)

CASES = {
    "sphere_g2": (lambda: sphere_mesh(2), BuildOptions()),
    "open_ev_grid_g1": (
        lambda: grid_with_rotated_edge(
            8, 8, height=lambda x, y: 0.1 * np.sin(0.7 * x) * np.cos(0.5 * y)),
        BuildOptions(family="d3c1p2s4", mode="g1")),
    "ev_torus_g2_r1": (lambda: torus_with_rotated_edge(10, 10),
                       BuildOptions(r_degree=1)),
}


@lru_cache(maxsize=None)
def surface_of(case):
    make, options = CASES[case]
    return build_surface(make().build_connectivity(), options)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_eval_equals_scalar(case):
    surf = surface_of(case)
    assert surf.gregory and surf.regular
    # the grid holds the corners and edges, where the Gregory twist weights
    # are 0/0
    t = np.linspace(0.0, 1.0, 9)
    U, V = np.meshgrid(t, t)
    for f in surf.real_faces:
        patch = surf.patch(f)
        got = patch.eval(U, V)
        assert got.shape == (9, 9, 3)
        want = np.array([[patch.eval(u, v) for u, v in zip(ur, vr)]
                         for ur, vr in zip(U, V)])
        assert np.abs(got - want).max() <= 1e-14
        assert patch.eval(0.25, 0.75).shape == (3,)
        assert patch.eval(U[0], V[0]).shape == (9, 3)
        assert np.array_equal(patch.eval(U[0], V[0]), got[0])


@pytest.mark.parametrize("case", ["open_ev_grid_g1", "sphere_g2"])
def test_batched_side_fields_equal_scalar(case):
    surf = surface_of(case)
    k = surf.options.k
    for patch in surf.regular.values():
        for side in ("v0", "v1", "u0", "u1"):
            d = side_length(patch, side)
            x = np.array([0.0, 0.3 * d, d])
            for q in range(k + 1):
                for r in range(k + 1):
                    # cross-field x-derivatives exist at the endpoints only
                    xs = x[[0, 2]] if q and r else x
                    got = side_field(patch, side, q, xs, r)
                    want = [side_field(patch, side, q, xi, r) for xi in xs]
                    assert np.abs(got - want).max() <= 1e-14 * max(
                        1.0, np.abs(want).max())


def test_one_x_outside_the_segment_raises():
    surf = surface_of("sphere_g2")
    patch = surf.regular[min(surf.regular)]
    u = np.linspace(0.0, 1.0, 5)
    v = np.full(5, 0.5)
    patch.eval(u, v)
    u[3] = 1.5
    with pytest.raises(ValueError):
        patch.eval(u, v)
    d = side_length(patch, "v0")
    x = np.linspace(0.0, d, 5)
    side_field(patch, "v0", 0, x)
    side_field(patch, "v0", 1, x)
    x[1] = -0.1 * d
    with pytest.raises(ValueError):
        side_field(patch, "v0", 0, x)
    with pytest.raises(ValueError):
        side_field(patch, "v0", 1, x)


# -- point-by-point oracles ---------------------------------------------------

def stencils(t, h):
    """First/second derivative stencils at t, one sided at the edges."""
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


def partials(fn, u, v, h, hs):
    (ou1, wu1), (ou2, wu2) = stencils(u, hs)
    (ov1, wv1), (ov2, wv2) = stencils(v, hs)
    at = lru_cache(maxsize=None)(lambda a, b: fn(u + a * h, v + b * h))
    su = sum(w * at(o, 0) for o, w in zip(ou1, wu1)) / h
    sv = sum(w * at(0, o) for o, w in zip(ov1, wv1)) / h
    suu = sum(w * at(o, 0) for o, w in zip(ou2, wu2)) / (h * h)
    svv = sum(w * at(0, o) for o, w in zip(ov2, wv2)) / (h * h)
    suv = sum(a * b * at(p, q) for p, a in zip(ou1, wu1)
              for q, b in zip(ov1, wv1)) / (h * h)
    return su, sv, suu, suv, svv


def oracle_tessellation(surf, n):
    """(positions, triangles, source faces, source uv), welding each sample
    to the first one seen within the weld tolerance."""
    verts = surf.mesh.vertices
    tol = WELD_REL_TOL * np.linalg.norm(verts.max(axis=0) - verts.min(axis=0))
    positions, triangles, src = [], [], []
    weld = {}
    for f in sorted(surf.real_faces):
        index = {}
        for j in range(n + 1):
            for i in range(n + 1):
                p = surf.patch(f).eval(i / n, j / n)
                key = tuple(np.round(p / tol).astype(np.int64))
                if key not in weld:
                    weld[key] = len(positions)
                    positions.append(p)
                    src.append((f, i / n, j / n))
                index[i, j] = weld[key]
        for j in range(n):
            for i in range(n):
                a, b = index[i, j], index[i + 1, j]
                c, d = index[i + 1, j + 1], index[i, j + 1]
                triangles += [(a, b, c), (a, c, d)]
    src = np.array(src)
    return np.array(positions), np.array(triangles), src[:, 0], src[:, 1:]


def step_partials(fn, u, v, h):
    """(su, sv, suu, suv, svv) at (u, v) from complex steps of size h, one
    point per call."""
    p = fn(u, v)
    e1, e2, e3 = fn(u + 1j * h, v), fn(u, v + 1j * h), fn(u + 1j * h,
                                                            v + 1j * h)
    suu, svv = (2 * (p - e.real) / (h * h) for e in (e1, e2))
    suv = (2 * (p - e3.real) / (h * h) - suu - svv) / 2
    return e1.imag / h, e2.imag / h, suu, suv, svv


def curvature_and_isophote(su, sv, suu, suv, svv):
    light = np.ones(3) / np.sqrt(3.0)
    n = np.cross(su, sv)
    n = n / np.linalg.norm(n)
    E, F, G = su @ su, su @ sv, sv @ sv
    L, M, N = suu @ n, suv @ n, svv @ n
    return (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F)), n @ light


def oracle_channels(surf, tri, richardson):
    """(mean curvature, isophote) per vertex.  With richardson, steps 1e-3
    and 2e-3 combine for two extra orders of accuracy."""
    h = 1e-3 if richardson else FD_STEP
    out = []
    for f, (u, v) in zip(tri.src_face, tri.src_uv):
        fn = surf.patch(int(f)).eval
        if richardson:
            fine = step_partials(fn, u, v, h)
            coarse = step_partials(fn, u, v, 2 * h)
            parts = ((4 * a - b) / 3 for a, b in zip(fine, coarse))
        else:
            parts = step_partials(fn, u, v, h)
        out.append(curvature_and_isophote(*parts))
    return np.array(out)


def fd_oracle_channels(surf, faces, uv, h=FD_STEP):
    """(mean curvature, isophote) at the points by finite differences."""
    out = []
    for f, (u, v) in zip(faces, uv):
        out.append(curvature_and_isophote(
            *partials(surf.patch(int(f)).eval, u, v, h, h)))
    return np.array(out)


def normal(fn, u, v, h=AUDIT_STEP):
    n = np.cross(fn(u + 1j * h, v).imag, fn(u, v + 1j * h).imag)
    return n / np.linalg.norm(n)


def cross_derivative(fn, u, v, axis, inward, r, h):
    def at(k):
        k = k * inward
        return fn(u + k * h, v) if axis == 0 else fn(u, v + k * h)
    if r == 1:
        return (-25 * at(0) + 48 * at(1) - 36 * at(2) + 16 * at(3)
                - 3 * at(4)) / (12 * h)
    return (45 * at(0) - 154 * at(1) + 214 * at(2) - 156 * at(3)
            + 61 * at(4) - 10 * at(5)) / (12 * h * h)


def oracle_edge(surf, h, t, samples, k, fd_step=5e-3):
    """(position gap, normal angle, {order: delta residual}) of one seam."""
    mesh = surf.mesh
    f1, f2 = mesh.he_face(h), mesh.he_face(t)
    p1, p2 = surf.patch(f1).eval, surf.patch(f2).eval
    gap = angle = 0.0
    residual = {}
    ts = np.linspace(0.0, 1.0, samples)
    for i, tv in enumerate(ts):
        u1, v1 = (float(c) for c in surf._edge_uv(f1, h, tv))
        u2, v2 = (float(c) for c in surf._edge_uv(f2, t, 1.0 - tv))
        gap = max(gap, float(np.linalg.norm(p1(u1, v1) - p2(u2, v2))))
        cos = min(abs(float(normal(p1, u1, v1) @ normal(p2, u2, v2))), 1.0)
        angle = max(angle, float(np.degrees(np.arccos(cos))))
        if f1 not in surf.regular or f2 not in surf.regular \
                or i in (0, samples - 1):
            continue
        _, s1, _, in1, b1 = _cross_frame(surf, f1, h, u1, v1)
        _, s2, _, in2, b2 = _cross_frame(surf, f2, t, u2, v2)
        # sides v0, v1 (indices 0, 1) are crossed along v
        ax1, ax2 = int(s1 < 2), int(s2 < 2)
        for r in range(1, k + 1):
            d1 = cross_derivative(p1, u1, v1, ax1, in1, r, fd_step)
            d2 = (-1) ** r * cross_derivative(p2, u2, v2, ax2, in2, r,
                                              fd_step)
            res = np.linalg.norm(d1 - (b1 / b2) ** r * d2) \
                / max(np.linalg.norm(d1), 1e-12)
            residual[str(r)] = max(residual.get(str(r), 0.0), float(res))
    return gap, angle, residual


# -- tessellation, analysis and audit against the oracles -----------------------------------

@pytest.mark.parametrize("case", ["open_ev_grid_g1", "sphere_g2"])
def test_tessellate_matches_pointwise_oracle(case):
    surf = surface_of(case)
    tri = tessellate(surf, 3)
    positions, triangles, faces, uv = oracle_tessellation(surf, 3)
    assert np.abs(tri.positions - positions).max() <= 1e-12
    assert np.array_equal(tri.triangles, triangles)
    assert np.array_equal(tri.src_face, faces)
    assert np.array_equal(tri.src_uv, uv)


def position_weld(surf, n):
    """(positions, triangles, source faces, source uv) of the (n+1)^2
    samples of every face, all evaluated in one call and welded where their
    positions round to the same multiple of the weld tolerance; a vertex
    keeps its first sample (faces ascending, u running fastest)."""
    verts = surf.mesh.vertices
    tol = WELD_REL_TOL * np.linalg.norm(verts.max(axis=0) - verts.min(axis=0))
    t = np.arange(n + 1) / n
    u, v = (g.ravel() for g in np.meshgrid(t, t))
    faces = np.repeat(np.asarray(surf.real_faces, int), len(u))
    uv = np.tile(np.stack([u, v], axis=1), (len(surf.real_faces), 1))
    positions = surf.eval(faces, uv[:, 0], uv[:, 1])
    keys = np.round(positions / tol).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    idx = np.arange(len(u)).reshape(n + 1, n + 1)
    a, b, c, d = idx[:-1, :-1], idx[:-1, 1:], idx[1:, 1:], idx[1:, :-1]
    cells = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    vertex = rank[inverse.reshape(-1)].reshape(len(surf.real_faces), -1)
    keep = first[order]
    return (positions[keep], vertex[:, cells].reshape(-1, 3), faces[keep],
            uv[keep])


WELD_MESHES = {"torus": lambda: torus_grid(8, 8),
               "sphere": lambda: sphere_mesh(2),
               "open_ev_grid": grid_with_rotated_edge}
WELD_OPTIONS = {"g2": BuildOptions(),
                "g1_d3": BuildOptions(family="d3c1p2s4", mode="g1")}


@pytest.mark.parametrize("options", sorted(WELD_OPTIONS))
@pytest.mark.parametrize("mesh", sorted(WELD_MESHES))
def test_topology_weld_is_bitwise_the_position_weld(mesh, options):
    # a vertex is evaluated at the sample the position weld keeps, and the
    # kernels give every point the same bits in any batch
    surf = build_surface(WELD_MESHES[mesh]().build_connectivity(),
                         WELD_OPTIONS[options])
    for n in (1, 2, 3, 5):
        tri = tessellate(surf, n)
        got = (tri.positions, tri.triangles, tri.src_face, tri.src_uv)
        for x, y in zip(got, position_weld(surf, n)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("case", ["open_ev_grid_g1", "sphere_g2"])
def test_analysis_fields_match_pointwise_oracle(case):
    surf = surface_of(case)
    tri = tessellate(surf, 2)
    info = analysis_fields(surf, tri)
    assert info["degenerate_samples"] == 0
    want = oracle_channels(surf, tri, richardson=False)
    H = tri.channels["mean_curvature"]
    # last-ulp differences of eval are amplified by 1/h^2
    assert np.all(np.abs(H - want[:, 0]) <= 1e-5 * (1 + np.abs(want[:, 0])))
    assert np.abs(tri.channels["isophote"] - want[:, 1]).max() <= 1e-9


@pytest.mark.parametrize("case", ["open_ev_grid_g1", "sphere_g2"])
def test_channels_match_finite_differences_at_interior_nodes(case):
    # central differences at FD_STEP, the channels' definition before
    # complex steps: at interior nodes the two agree to the differences'
    # own error, at most 4.2e-6 (mean curvature, next to the rational twist
    # blend of a Gregory patch) and 8.9e-9 (isophote) here
    surf = surface_of(case)
    tri = tessellate(surf, 4)
    analysis_fields(surf, tri)
    inside = ((tri.src_uv > 0.0) & (tri.src_uv < 1.0)).all(axis=1)
    want = fd_oracle_channels(surf, tri.src_face[inside], tri.src_uv[inside])
    got = np.stack([tri.channels["mean_curvature"][inside],
                    tri.channels["isophote"][inside]], axis=1)
    err = np.abs(got - want) / (1.0 + np.abs(want))
    assert err[:, 0].max() <= 1e-5
    assert err[:, 1].max() <= 1e-7


@pytest.mark.parametrize("case", ["open_ev_grid_g1", "sphere_g2"])
def test_continuity_report_matches_pointwise_oracle(case):
    surf = surface_of(case)
    samples = 5
    report = continuity_report(surf, samples=samples)
    edges = _interior_shared_edges(surf)
    assert len(report["edges"]) == len(edges)
    k = surf.options.family.continuity
    audited = 0
    for (h, t), got in zip(edges, report["edges"]):
        gap, angle, residual = oracle_edge(surf, h, t, samples, k)
        assert got["faces"] == [surf.mesh.he_face(h), surf.mesh.he_face(t)]
        assert abs(got["position_gap"] - gap) <= 1e-12
        assert abs(got["normal_angle_deg"] - angle) <= 1e-5
        assert sorted(got["delta_residual"]) == sorted(residual)
        for r, value in residual.items():
            assert abs(got["delta_residual"][r] - value) <= 1e-6
            # exact cross derivatives: only round-off is left
            assert got["delta_residual"][r] <= 1e-11
        audited += bool(residual)
    assert audited > 0


@pytest.fixture
def evaluated_points(monkeypatch):
    """The number of points of every CompositeSurface.eval call."""
    counts = []
    real = CompositeSurface.eval

    def counting(self, faces, u, v):
        counts.append(np.broadcast(faces, u, v).size)
        return real(self, faces, u, v)

    monkeypatch.setattr(CompositeSurface, "eval", counting)
    return counts


@pytest.fixture
def seam_samples(monkeypatch):
    """The number of samples of every GridPatchSet.side_jets call with rows
    of samples, the seam audit's."""
    counts = []
    real = GridPatchSet.side_jets

    def counting(self, slots, sides, jets, x):
        if np.ndim(x) == 2:
            counts.append(np.size(x))
        return real(self, slots, sides, jets, x)

    monkeypatch.setattr(GridPatchSet, "side_jets", counting)
    return counts


@pytest.fixture
def evaluated_faces(monkeypatch):
    """The faces of the points of every CompositeSurface.eval call."""
    calls = []
    real = CompositeSurface.eval

    def recording(self, faces, u, v):
        calls.append(np.broadcast_arrays(faces, u, v)[0].ravel())
        return real(self, faces, u, v)

    monkeypatch.setattr(CompositeSurface, "eval", recording)
    return calls


@pytest.fixture
def gregory_passes(monkeypatch):
    """The number of points of every GregoryPatchSet._eval pass."""
    counts = []
    real = GregoryPatchSet._eval

    def counting(self, slots, u, v):
        counts.append(len(slots))
        return real(self, slots, u, v)

    monkeypatch.setattr(GregoryPatchSet, "_eval", counting)
    return counts


@pytest.fixture
def side_field_points(monkeypatch):
    """The number of side points of every GregoryPatchSet.side_fields
    call."""
    counts = []
    real = GregoryPatchSet.side_fields

    def counting(self, slots, sides, x, r=0):
        counts.append(len(slots))
        return real(self, slots, sides, x, r)

    monkeypatch.setattr(GregoryPatchSet, "side_fields", counting)
    return counts


def test_analysis_and_audit_evaluate_each_point_once(evaluated_points,
                                                     seam_samples):
    surf = build_surface(jittered_torus().build_connectivity(),
                         BuildOptions())
    assert not surf.gregory
    n = 4
    tri = tessellate(surf, n)
    # one point per welded vertex: V + E (n - 1) + F (n - 1)^2, counting
    # the vertices, edges and faces of the real faces
    real = surf.mesh.faces[:surf.mesh.real_face_count]
    ends = np.stack([real, np.roll(real, -1, axis=1)], axis=-1)
    edges = np.unique(np.sort(ends.reshape(-1, 2), axis=1), axis=0)
    assert sum(evaluated_points) == len(tri.positions) == (
        len(np.unique(real)) + len(edges) * (n - 1)
        + len(real) * (n - 1) ** 2)
    # three complex steps per vertex
    evaluated_points.clear()
    analysis_fields(surf, tri)
    assert sum(evaluated_points) == 3 * len(tri.positions)
    # grid seam sides read one seam pass, one sample per side sample, and
    # make no surface.eval call
    evaluated_points.clear()
    report = continuity_report(surf)
    assert evaluated_points == []
    assert sum(seam_samples) == 32 * len(report["edges"])


def test_audit_evaluates_two_complex_points_per_gregory_sample(
        evaluated_points, seam_samples):
    surf = surface_of("sphere_g2")
    samples = 5
    report = continuity_report(surf, samples=samples)
    sides = np.array([[kind == "gregory" for kind in e["kinds"]]
                      for e in report["edges"]])
    assert sides.any() and not sides.all()
    assert sum(evaluated_points) == samples * 2 * sides.sum()
    assert sum(seam_samples) == samples * (~sides).sum()


def test_analysis_batches_vertices_by_patch_kind(evaluated_faces,
                                                 gregory_passes):
    surf = surface_of("sphere_g2")
    tri = tessellate(surf, 4)
    evaluated_faces.clear()
    gregory_passes.clear()
    analysis_fields(surf, tri)
    # all Coons-Gregory vertices, fewer than EVAL_CHUNK // 4, make one
    # Coons-Gregory pass of three complex points a vertex
    on_gregory = np.isin(tri.src_face, list(surf.gregory)).sum()
    assert 0 < on_gregory < len(tri.positions)
    assert gregory_passes == [3 * on_gregory]
    # and every call covers one patch kind
    kinds = [np.unique(surf._slot[1, faces] >= 0) for faces in evaluated_faces]
    assert [len(kind) for kind in kinds] == [1] * len(kinds)
    assert sum(map(len, evaluated_faces)) == 3 * len(tri.positions)


def test_audit_reads_each_gregory_samples_side_fields_once(
        gregory_passes, side_field_points):
    surf = surface_of("sphere_g2")
    continuity_report(surf)
    # both complex points of a sample share their step along the side, so
    # the side fields along it are read once a sample
    assert 0 < sum(side_field_points) <= sum(gregory_passes)


@pytest.mark.parametrize("case", ["open_ev_grid_g1", "sphere_g2"])
def test_channels_do_not_depend_on_the_analysis_batch(case, monkeypatch):
    surf = surface_of(case)
    tri = tessellate(surf, 4)
    analysis_fields(surf, tri)
    want = dict(tri.channels)
    monkeypatch.setattr(qsurface, "EVAL_CHUNK", 64)
    analysis_fields(surf, tri)
    for name, values in want.items():
        assert np.array_equal(tri.channels[name], values, equal_nan=True)


SEAM_MESHES = {"sphere": lambda: sphere_mesh(2),
               "jittered_torus": jittered_torus,
               "open_ev_grid": CASES["open_ev_grid_g1"][0]}
SEAM_OPTIONS = {"d5c2p2s4_g2": BuildOptions(),
                "d5c2p2s4_g1": BuildOptions(mode="g1"),
                "d3c1p2s4_g1": BuildOptions(family="d3c1p2s4", mode="g1")}


@pytest.mark.parametrize("options", sorted(SEAM_OPTIONS))
@pytest.mark.parametrize("mesh", sorted(SEAM_MESHES))
def test_seam_pass_equals_eval_and_side_fields(mesh, options):
    surf = build_surface(SEAM_MESHES[mesh]().build_connectivity(),
                         SEAM_OPTIONS[options])
    # every grid side sample of the audit, laid out as _seam_table does
    hes = _interior_shared_edges(surf)
    faces = surf.mesh.he_face(hes)
    ts = np.linspace(0.0, 1.0, 16)
    u, v = surf._edge_uv(faces[..., None], hes[..., None],
                         np.stack([ts, 1.0 - ts]))
    grid = surf._slot[0, faces] >= 0
    faces, hes, u, v = faces[grid], hes[grid], u[grid], v[grid]
    slots, sides, x, _, _ = _cross_frame(surf, faces[:, None],
                                         hes[:, None], u, v)
    slots, sides = slots[:, 0], sides[:, 0]
    # the position, the boundary tangent and the cross fields of orders 1..k
    jets = [(0, 0), (0, 1)] + [(q, 0)
                               for q in range(1, surf.grid_patches.k + 1)]
    got = surf.grid_patches.side_jets(slots, sides, jets, x)
    # the patch's own position
    want = surf.eval(np.broadcast_to(faces[:, None], u.shape), u, v)
    assert np.all(np.linalg.norm(got[0] - want, axis=-1) <= 1e-14
                  * np.maximum(1.0, np.linalg.norm(want, axis=-1)))
    # rows of samples give the bits of one point a side
    want = surf.grid_patches.side_jets(np.repeat(slots, 16),
                                       np.repeat(sides, 16), jets, x.ravel())
    assert np.array_equal(got.reshape(want.shape), want)


@pytest.mark.parametrize("mesh, options", [("sphere", "d5c2p2s4_g2"),
                                           ("open_ev_grid", "d3c1p2s4_g1")])
def test_gregory_side_normals_equal_two_independent_complex_steps(mesh,
                                                                  options):
    surf = build_surface(SEAM_MESHES[mesh]().build_connectivity(),
                         SEAM_OPTIONS[options])
    hes = _interior_shared_edges(surf)
    faces = surf.mesh.he_face(hes)
    ts = np.linspace(0.0, 1.0, 16)
    _, got, degenerate, _, _ = _seam_table(surf, hes, ts,
                                           surf.options.family.continuity)
    # every Coons-Gregory side sample, by separate steps along u and v
    gregory = surf._slot[0, faces] < 0
    u, v = surf._edge_uv(faces[..., None], hes[..., None],
                         np.stack([ts, 1.0 - ts]))
    f, u, v = faces[gregory, None], u[gregory], v[gregory]
    step = 1j * AUDIT_STEP
    want = np.cross(surf.eval(f, u + step, v).imag / AUDIT_STEP,
                    surf.eval(f, u, v + step).imag / AUDIT_STEP)
    want /= np.linalg.norm(want, axis=-1, keepdims=True)
    assert gregory.any() and not degenerate[gregory].any()
    assert np.abs(got[gregory] - want).max() <= 1e-13
