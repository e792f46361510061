import numpy as np
import pytest

from conftest import (chain_curve, chain_edges, halfedge, side_field,
                      side_length, torus_grid, window_patch)
from quadspline.mesh import assign_edge_params, section_chains
from quadspline.patch import SIDES, GridPatchSet, RegularPatch, _blend
from quadspline.splines import D3C1P2S4, D5C2P2S4, fundamental_weights

BOTH = [D3C1P2S4, D5C2P2S4]


def perturbed_torus(fam, n=8, m=8, perturb=0.07, seed=3):
    mesh = torus_grid(n, m, perturb=perturb, seed=seed).build_connectivity()
    params = assign_edge_params(mesh, "centripetal")
    return mesh, params


def side_blend(patch, side, t):
    """The blend that scales cross derivatives on a side of a patch, at the
    fraction t along it."""
    return patch.patches.side_blend(patch.slot, SIDES.index(side), t)


@pytest.mark.parametrize("fam", BOTH)
def test_patch_corners(fam):
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 10, fam)
    g = patch.grid
    assert np.allclose(patch.eval(0, 0), g.points[1, 1], atol=1e-12)
    assert np.allclose(patch.eval(1, 0), g.points[2, 1], atol=1e-12)
    assert np.allclose(patch.eval(0, 1), g.points[1, 2], atol=1e-12)
    assert np.allclose(patch.eval(1, 1), g.points[2, 2], atol=1e-12)


@pytest.mark.parametrize("fam", BOTH)
def test_patch_planar_grid_stays_planar(fam):
    rng = np.random.default_rng(1)
    n = m = 8
    mesh = torus_grid(n, m).build_connectivity()
    verts = mesh.vertices.copy()
    # flatten to z = 0 but keep an uneven xy layout
    verts[:, 2] = 0.0
    verts[:, :2] += rng.normal(0.0, 0.1, (len(verts), 2))
    mesh.vertices[:] = verts
    params = assign_edge_params(mesh, "centripetal")
    patch = window_patch(mesh, params, 12, fam)
    for u, v in rng.uniform(0, 1, (20, 2)):
        assert abs(patch.eval(u, v)[2]) < 1e-12


@pytest.mark.parametrize("fam", BOTH)
def test_section_curve_property(fam):
    """Patch boundaries lie on the univariate curves of the section
    polylines."""
    mesh, params = perturbed_torus(fam)
    by_edge = {}
    for chain in section_chains(mesh):
        for k in chain_edges(chain):
            by_edge[k] = chain
    rng = np.random.default_rng(5)
    for face in (0, 9, 27):
        patch = window_patch(mesh, params, face, fam)
        ids = patch.grid.vertex_ids
        # v1 boundary runs between grid vertices (0,1) and (1,1)
        a, b = int(ids[1, 2]), int(ids[2, 2])
        chain = by_edge[tuple(sorted((a, b)))]
        curve = chain_curve(mesh, params, chain, fam)
        verts = chain[0][:-1].tolist()
        ia = verts.index(a)
        d_edge = side_length(patch, "v1")
        forward = verts[(ia + 1) % len(verts)] == b
        x0 = curve.knots[ia]
        for u in rng.uniform(0, 1, 20):
            on_patch = patch.eval(u, 1.0)
            x = x0 + u * d_edge if forward else x0 - u * d_edge
            on_curve = curve.eval(x)
            assert np.linalg.norm(on_patch - on_curve) < 1e-10


@pytest.mark.parametrize("fam", BOTH)
def test_boundary_curve_restriction(fam):
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 5, fam)
    for side in ("v0", "v1", "u0", "u1"):
        d = side_length(patch, side)
        for t in np.linspace(0, 1, 7):
            gamma = side_field(patch, side, 0, t * d)
            if side == "v0":
                direct = patch.eval(t, 0.0)
            elif side == "v1":
                direct = patch.eval(t, 1.0)
            elif side == "u0":
                direct = patch.eval(0.0, t)
            else:
                direct = patch.eval(1.0, t)
            assert np.allclose(gamma, direct, atol=1e-12)


@pytest.mark.parametrize("fam", BOTH)
def test_boundary_cross_deriv_matches_fd(fam):
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 17, fam)
    h = 1e-5
    rng = np.random.default_rng(6)
    for side in ("v0", "v1", "u0", "u1"):
        for t in rng.uniform(0.05, 0.95, 10):
            d = side_length(patch, side)
            exact = side_blend(patch, side, t) \
                * side_field(patch, side, 1, t * d)
            if side == "v0":
                fd = (patch.eval(t, h) - patch.eval(t, 0.0)) / h \
                    - 0.5 * (patch.eval(t, 2 * h) - 2 * patch.eval(t, h)
                             + patch.eval(t, 0.0)) / h
            elif side == "v1":
                fd = (patch.eval(t, 1.0) - patch.eval(t, 1.0 - h)) / h \
                    + 0.5 * (patch.eval(t, 1.0) - 2 * patch.eval(t, 1 - h)
                             + patch.eval(t, 1 - 2 * h)) / h
            elif side == "u0":
                fd = (patch.eval(h, t) - patch.eval(0.0, t)) / h \
                    - 0.5 * (patch.eval(2 * h, t) - 2 * patch.eval(h, t)
                             + patch.eval(0.0, t)) / h
            else:
                fd = (patch.eval(1.0, t) - patch.eval(1.0 - h, t)) / h \
                    + 0.5 * (patch.eval(1.0, t) - 2 * patch.eval(1 - h, t)
                             + patch.eval(1 - 2 * h, t)) / h
            scale = max(np.linalg.norm(exact), 1.0)
            assert np.linalg.norm(exact - fd) / scale < 1e-5


def test_uniform_intervals_cross_equals_local():
    fam = D5C2P2S4
    mesh = torus_grid(8, 8).build_connectivity()
    params = assign_edge_params(mesh, "uniform")
    patch = window_patch(mesh, params, 20, fam)
    for t in np.linspace(0.1, 0.9, 5):
        local = side_field(patch, "v0", 1, t * side_length(patch, "v0"))
        uv = side_blend(patch, "v0", t) * local
        assert np.allclose(uv, local, atol=1e-12)


@pytest.mark.parametrize("fam", BOTH)
def test_cross_boundary_scaling_law(fam):
    """Adjacent patches: one-sided cross derivatives match after scaling by
    the blend ratio, orders 1..k (finite-difference oracle)."""
    mesh, params = perturbed_torus(fam)
    rng = np.random.default_rng(8)
    h = 5e-3
    k = fam.continuity
    checked = 0
    for h_s in range(0, mesh.num_halfedges, 37):
        h_n = int(mesh.twin_of[h_s])
        face_s = mesh.he_face(h_s)
        face_n = mesh.he_face(h_n)
        ps = window_patch(mesh, params, face_s, fam,
                          anchor=mesh.he_next(h_s))
        pn = window_patch(mesh, params, face_n, fam,
                          anchor=mesh.he_prev(h_n))
        for v in rng.uniform(0.1, 0.9, 3):
            delta = side_blend(ps, "u0", v) / side_blend(pn, "u1", v)
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
                    cs = (45.0, -154.0, 214.0, -156.0, 61.0, -10.0)
                    ds = sum(c * ps.eval(i * h, v)
                             for i, c in enumerate(cs)) / (12 * h * h)
                    dn = sum(c * pn.eval(1 - i * h, v)
                             for i, c in enumerate(cs)) / (12 * h * h)
                want = delta ** r * dn
                scale = max(np.linalg.norm(ds), np.linalg.norm(want), 1e-9)
                assert np.linalg.norm(ds - want) / scale < 1e-4
            checked += 1
    assert checked >= 20


def test_boundary_scaling_delta_values():
    fam = D5C2P2S4
    mesh = torus_grid(8, 8).build_connectivity()
    uniform = assign_edge_params(mesh, "uniform")
    h_s = 40
    h_n = int(mesh.twin_of[h_s])
    ps = window_patch(mesh, uniform, mesh.he_face(h_s), fam,
                      anchor=mesh.he_next(h_s))
    pn = window_patch(mesh, uniform, mesh.he_face(h_n), fam,
                      anchor=mesh.he_prev(h_n))
    for v in np.linspace(0, 1, 5):
        assert side_blend(ps, "u0", v) / side_blend(pn, "u1", v) \
            == pytest.approx(1.0)

    # making every row interval of the patch's central cell 4x the rest
    # turns the blend ratio into the constant 4
    params = uniform.copy()
    ids = ps.grid.vertex_ids
    for j in range(4):
        h = int(halfedge(mesh, ids[1, j], ids[2, j]))
        params[[h, int(mesh.twin_of[h])]] = 4.0
    ps2 = window_patch(mesh, params, mesh.he_face(h_s), fam,
                       anchor=mesh.he_next(h_s))
    pn2 = window_patch(mesh, params, mesh.he_face(h_n), fam,
                       anchor=mesh.he_prev(h_n))
    for v in np.linspace(0, 1, 5):
        assert side_blend(ps2, "u0", v) / side_blend(pn2, "u1", v) \
            == pytest.approx(4.0)
    # endpoint value is the interval ratio at v = 0
    assert side_blend(ps2, "u0", 0.0) / side_blend(pn2, "u1", 0.0) \
        == pytest.approx(ps2.grid.d0[1] / ps2.grid.d0[0])


@pytest.mark.parametrize("fam", BOTH)
def test_affine_invariance(fam):
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 33, fam)
    A = np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.2, 1.1]])
    t = np.array([3.0, -1.0, 2.0])
    g = patch.grid
    patch2 = RegularPatch.view(GridPatchSet(
        [g.anchor], [g.vertex_ids], [g.points @ A.T + t],
        [[g.d0, g.d1, g.e0, g.e1]], fam), 0)
    rng = np.random.default_rng(9)
    for u, v in rng.uniform(0, 1, (10, 2)):
        assert np.allclose(patch2.eval(u, v), A @ patch.eval(u, v) + t,
                           atol=1e-10)


@pytest.mark.parametrize("fam", BOTH)
def test_mirror_symmetry(fam):
    # symmetric grid about the x = 0 plane with symmetric intervals
    ys = np.array([0.0, 1.0, 2.5, 3.5])
    xs = np.array([-2.0, -0.7, 0.7, 2.0])
    pts = np.zeros((4, 4, 3))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            pts[i, j] = (x, y, np.cos(x) + 0.1 * y * y)
    dd = np.abs(np.diff(xs))
    ee = np.abs(np.diff(ys))
    patch = RegularPatch.view(GridPatchSet(
        [0], [np.arange(16).reshape(4, 4)], [pts], [[dd, dd, ee, ee]], fam), 0)
    for u in np.linspace(0, 1, 9):
        for v in (0.0, 0.3, 1.0):
            a = patch.eval(u, v)
            b = patch.eval(1.0 - u, v)
            assert np.allclose(a * [-1, 1, 1], b, atol=1e-12)


def test_mixed_corner_derivative_fd():
    fam = D5C2P2S4
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 11, fam)
    h = 1e-4
    # d2/dudv at (0,0): the x-derivative of chi, scaled to uv
    mixed = side_length(patch, "v0") * side_blend(patch, "v0", 0.0) \
        * side_field(patch, "v0", 1, 0.0, 1)
    # one-sided mixed difference at the corner
    fd = (patch.eval(2 * h, 2 * h) - patch.eval(2 * h, 0.0)
          - patch.eval(0.0, 2 * h) + patch.eval(0.0, 0.0)) / (4 * h * h)
    scale = max(np.linalg.norm(mixed), 1.0)
    assert np.linalg.norm(mixed - fd) / scale < 2e-3


@pytest.mark.parametrize("fam", BOTH)
def test_frozen_vector_tensor_interpretation(fam):
    """At any fixed (u, v) the patch value equals a plain tensor-product
    evaluation over the interval vectors frozen at that point."""
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 21, fam)
    g = patch.grid
    rng = np.random.default_rng(77)
    for u, v in rng.uniform(0, 1, (10, 2)):
        dvec = tuple(g.d0 + (g.d1 - g.d0) * _blend(fam.continuity, v))
        evec = tuple(g.e0 + (g.e1 - g.e0) * _blend(fam.continuity, u))
        x = u * dvec[1]
        y = v * evec[1]
        # two-stage univariate evaluation of the frozen tensor product
        wy = fundamental_weights(fam, y, evec)
        rows = np.tensordot(np.asarray(wy), patch.grid.points, axes=(0, 1))
        wx = fundamental_weights(fam, x, dvec)
        tensor = np.asarray(wx) @ rows
        assert np.allclose(tensor, patch.eval(u, v), atol=1e-12)


def test_r_cross_capped_at_continuity():
    fam = D3C1P2S4
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 2, fam)
    d = side_length(patch, "v0")
    with pytest.raises(ValueError):
        side_field(patch, "v0", 2, 0.5 * d)


@pytest.mark.parametrize("fam", BOTH)
def test_side_field_contract(fam):
    mesh, params = perturbed_torus(fam)
    patch = window_patch(mesh, params, 3, fam)
    d = side_length(patch, "v1")
    ids = patch.grid.vertex_ids
    assert np.allclose(side_field(patch, "v1", 0, 0.0),
                       mesh.vertices[ids[1, 2]], atol=1e-12)
    assert np.allclose(side_field(patch, "v1", 0, d),
                       mesh.vertices[ids[2, 2]], atol=1e-12)
    # chi in local variables: the uv cross derivative divided by the blend.
    # On v = 1 the row blend is flat, so that quotient is the tensor product
    # of the row weights at v = 1 and the y-derivative of the column
    # weights frozen at u.
    g = patch.grid
    for t in (0.2, 0.7):
        evec = g.e0 + (g.e1 - g.e0) * _blend(fam.continuity, t)
        wx = fundamental_weights(fam, t * g.d1[1], g.d1)
        wy = fundamental_weights(fam, evec[1], evec, 1)
        assert np.allclose(side_field(patch, "v1", 1, t * d),
                           np.einsum("i,j,ijd->d", wx, wy, g.points),
                           atol=1e-10)
    if fam.continuity >= 2:
        xi = side_field(patch, "v1", 2, 0.3 * d)
        assert xi.shape == (3,)
    else:
        with pytest.raises(ValueError):
            side_field(patch, "v1", 2, 0.3 * d)


def test_sampled_fields_planar_grid():
    fam = D5C2P2S4
    mesh = torus_grid(8, 8).build_connectivity()
    verts = mesh.vertices.copy()
    verts[:, 2] = 0.0
    mesh.vertices[:] = verts
    params = assign_edge_params(mesh, "centripetal")
    patch = window_patch(mesh, params, 14, fam)
    d = side_length(patch, "v0")
    for t in np.linspace(0, 1, 5):
        assert abs(side_field(patch, "v0", 1, t * d)[2]) < 1e-12
        assert abs(side_field(patch, "v0", 2, t * d)[2]) < 1e-12
