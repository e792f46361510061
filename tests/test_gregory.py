from dataclasses import dataclass

import numpy as np
import pytest

from conftest import grid_with_rotated_edge, sphere_mesh
from quadspline.errors import ConstructionError
from quadspline.gregory import GregoryPatch, GregoryPatchSet, hermite_basis
from quadspline.network import (VecPoly, hermite_curve3, hermite_curve5)
from quadspline.patch import _blend
from quadspline.surface import BuildOptions, build_surface


@dataclass
class Boundary:
    """The boundary data of one patch: corners (4, 3), the side intervals
    (d0, e1, d1, e0) and, for each side, the VecPolys of its fields of
    orders 0..k in patch orientation; or, with polys None, slot `slot` of a
    built GregoryPatchSet, read through its side_fields."""
    corners: np.ndarray
    lengths: tuple
    k: int
    polys: list = None
    patches: GregoryPatchSet = None
    slot: int = 0

    @classmethod
    def of(cls, patches, slot):
        return cls(patches.corners[slot], tuple(patches.lengths[slot]),
                   patches.k, patches=patches, slot=slot)

    d0 = property(lambda self: self.lengths[0])
    e1 = property(lambda self: self.lengths[1])
    d1 = property(lambda self: self.lengths[2])
    e0 = property(lambda self: self.lengths[3])

    def field(self, s, q, x, r=0):
        """r-th x-derivative at x of the order-q field of side s."""
        if self.polys is not None:
            return self.polys[s][q].eval(x, r)
        return self.patches.side_fields(np.array([self.slot]), np.array([s]),
                                        np.array([float(x)]), r)[0, q]


def set_args(datas, faces=None):
    """GregoryPatchSet arguments for VecPoly boundary data, one slot each:
    no side is sampled and none is flipped or negated."""
    k = datas[0].k
    width = max(len(p.coeffs) for data in datas for side in data.polys
                for p in side)
    coeffs = np.zeros((len(datas), 4, k + 1, width, 3))
    for i, data in enumerate(datas):
        for s, side in enumerate(data.polys):
            for q, poly in enumerate(side):
                coeffs[i, s, q, :len(poly.coeffs)] = poly.coeffs
    shape = (len(datas), 4, k + 1)
    return ([data.corners for data in datas],
            [data.lengths for data in datas], coeffs, np.zeros(shape, bool),
            np.ones(shape, np.int8), np.full(shape[:2] + (2,), -1), None,
            np.arange(len(datas)) if faces is None else faces)


def one_patch(data):
    """A GregoryPatch over VecPoly boundary data, in a set of one."""
    return GregoryPatch.view(GregoryPatchSet(*set_args([data])), 0)


def rand_curve(rng, k, p0, p1, d, m0=None, m1=None, a0=None, a1=None):
    def pick(v):
        return rng.normal(size=3) if v is None else np.asarray(v, float)

    m0, m1 = pick(m0), pick(m1)
    if k == 1:
        return hermite_curve3(p0, m0, p1, m1, d)
    return hermite_curve5(p0, m0, pick(a0), p1, m1, pick(a1), d)


def value_interp(rng, v0, v1, d):
    """Cubic through the two endpoint values with random end slopes."""
    return hermite_curve3(v0, rng.normal(size=3), v1, rng.normal(size=3), d)


def random_boundary_data(rng, k, bottom=None, const_intervals=False):
    """Random Boundary whose fields satisfy the corner compatibility
    conditions, so the patch must interpolate everything exactly."""
    if const_intervals:
        d0 = d1 = rng.uniform(0.6, 1.6)
        e0 = e1 = rng.uniform(0.6, 1.6)
    else:
        d0, d1, e0, e1 = rng.uniform(0.6, 1.6, 4)
    corners = rng.normal(size=(4, 3))
    p0, p1, p2, p3 = corners

    if bottom is not None:
        gamma0, chi0, xi0, d0 = bottom
        p0 = gamma0.eval(0.0)
        p1 = gamma0.eval(d0)
        corners[0], corners[1] = p0, p1
    else:
        gamma0 = rand_curve(rng, k, p0, p1, d0)

    gamma2 = rand_curve(rng, k, p3, p2, d1)

    if bottom is not None:
        # side curves must take on the prescribed cross-field values at the
        # shared corners
        gamma3 = rand_curve(rng, k, p0, p3, e0, m0=chi0.eval(0.0),
                            a0=None if k == 1 else xi0.eval(0.0))
        gamma1 = rand_curve(rng, k, p1, p2, e1, m0=chi0.eval(d0),
                            a0=None if k == 1 else xi0.eval(d0))
    else:
        gamma3 = rand_curve(rng, k, p0, p3, e0)
        gamma1 = rand_curve(rng, k, p1, p2, e1)

    if bottom is None:
        chi0 = value_interp(rng, gamma3.eval(0.0, 1), gamma1.eval(0.0, 1),
                            d0)
    chi1 = value_interp(rng, gamma0.eval(d0, 1), gamma2.eval(d1, 1), e1)
    chi2 = value_interp(rng, gamma3.eval(e0, 1), gamma1.eval(e1, 1), d1)
    chi3 = value_interp(rng, gamma0.eval(0.0, 1), gamma2.eval(0.0, 1), e0)

    xis = [None] * 4
    if k == 2:
        if bottom is None:
            xi0 = value_interp(rng, gamma3.eval(0.0, 2),
                               gamma1.eval(0.0, 2), d0)
        xi1 = value_interp(rng, gamma0.eval(d0, 2), gamma2.eval(d1, 2), e1)
        xi2 = value_interp(rng, gamma3.eval(e0, 2), gamma1.eval(e1, 2), d1)
        xi3 = value_interp(rng, gamma0.eval(0.0, 2), gamma2.eval(0.0, 2), e0)
        xis = [xi0, xi1, xi2, xi3]

    sides = [[g, c, x][:k + 1] for g, c, x in
             zip((gamma0, gamma1, gamma2, gamma3), (chi0, chi1, chi2, chi3),
                 xis)]
    return Boundary(corners, (d0, e1, d1, e0), k, sides)


def test_hermite_basis_printed_values():
    assert np.allclose(hermite_basis(3, 0.0), [-1, 1, 0, 0, 0], atol=1e-15)
    assert np.allclose(hermite_basis(3, 1.0), [-1, 0, 1, 0, 0], atol=1e-15)
    assert np.allclose(hermite_basis(5, 0.0), [-1, 1, 0, 0, 0, 0, 0],
                       atol=1e-15)
    assert np.allclose(hermite_basis(5, 1.0), [-1, 0, 1, 0, 0, 0, 0],
                       atol=1e-15)
    # interpolation structure at the midpoint
    h = hermite_basis(3, 0.5)
    assert h[1] + h[2] == pytest.approx(1.0)
    h5 = hermite_basis(5, 0.5)
    assert h5[1] + h5[2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hermite_basis(4, 0.5)


@pytest.mark.parametrize("k", [1, 2])
def test_corner_interpolation(k):
    rng = np.random.default_rng(40)
    for _ in range(5):
        data = random_boundary_data(rng, k)
        patch = one_patch(data)
        p = data.corners
        assert np.linalg.norm(patch.eval(0, 0) - p[0]) < 1e-12
        assert np.linalg.norm(patch.eval(1, 0) - p[1]) < 1e-12
        assert np.linalg.norm(patch.eval(1, 1) - p[2]) < 1e-12
        assert np.linalg.norm(patch.eval(0, 1) - p[3]) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_boundary_interpolation(k):
    rng = np.random.default_rng(41)
    data = random_boundary_data(rng, k)
    patch = one_patch(data)
    for t in rng.uniform(0, 1, 20):
        assert np.linalg.norm(patch.eval(t, 0)
                              - data.field(0, 0, t * data.d0)) < 1e-10
        assert np.linalg.norm(patch.eval(t, 1)
                              - data.field(2, 0, t * data.d1)) < 1e-10
        assert np.linalg.norm(patch.eval(0, t)
                              - data.field(3, 0, t * data.e0)) < 1e-10
        assert np.linalg.norm(patch.eval(1, t)
                              - data.field(1, 0, t * data.e1)) < 1e-10


def column_blend(data, u):
    """The blend that scales cross fields along v = 0 and v = 1."""
    return data.e0 + (data.e1 - data.e0) * _blend(data.k, u)


def fd_cross_v(patch, u, v0, h=1e-3, order=1, sign=1):
    def at(k):
        return patch.eval(u, v0 + sign * k * h)

    if order == 1:
        val = (-25 * at(0) + 48 * at(1) - 36 * at(2) + 16 * at(3)
               - 3 * at(4)) / (12 * h)
        return sign * val
    val = (45 * at(0) - 154 * at(1) + 214 * at(2) - 156 * at(3)
           + 61 * at(4) - 10 * at(5)) / (12 * h * h)
    return val


@pytest.mark.parametrize("k", [1, 2])
def test_first_cross_derivative_interpolation(k):
    rng = np.random.default_rng(42)
    data = random_boundary_data(rng, k)
    patch = one_patch(data)
    for u in rng.uniform(0.05, 0.95, 10):
        want = column_blend(data, u) * data.field(0, 1, u * data.d0)
        got = fd_cross_v(patch, u, 0.0, order=1, sign=1)
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want),
                                                1.0) < 1e-4
        want2 = column_blend(data, u) * data.field(2, 1, u * data.d1)
        got2 = fd_cross_v(patch, u, 1.0, order=1, sign=-1)
        assert np.linalg.norm(got2 - want2) / max(np.linalg.norm(want2),
                                                  1.0) < 1e-4


def test_second_cross_derivative_interpolation():
    rng = np.random.default_rng(43)
    data = random_boundary_data(rng, 2)
    patch = one_patch(data)
    for u in rng.uniform(0.05, 0.95, 10):
        want = column_blend(data, u) ** 2 * data.field(0, 2, u * data.d0)
        got = fd_cross_v(patch, u, 0.0, h=2e-3, order=2, sign=1)
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want),
                                                1.0) < 1e-3


def test_bilinear_reproduction():
    rng = np.random.default_rng(44)
    corners = rng.normal(size=(4, 3))
    p0, p1, p2, p3 = corners
    d = 1.3
    e = 0.8

    def bilinear(u, v):
        return ((1 - u) * (1 - v) * p0 + u * (1 - v) * p1
                + u * v * p2 + (1 - u) * v * p3)

    # constant intervals: local variables are affine in (u, v)
    gamma0 = VecPoly(np.stack([p0, (p1 - p0) / d]))
    gamma2 = VecPoly(np.stack([p3, (p2 - p3) / d]))
    gamma3 = VecPoly(np.stack([p0, (p3 - p0) / e]))
    gamma1 = VecPoly(np.stack([p1, (p2 - p1) / e]))
    # cross fields: d(bilinear)/dv / e as linear functions of x = u d
    chi0 = VecPoly(np.stack([(p3 - p0) / e, (p2 - p1 - p3 + p0) / (e * d)]))
    chi2 = chi0
    chi3 = VecPoly(np.stack([(p1 - p0) / d, (p2 - p3 - p1 + p0) / (d * e)]))
    chi1 = chi3
    data = Boundary(corners, (d, e, d, e), 1,
                    [[gamma0, chi0], [gamma1, chi1], [gamma2, chi2],
                     [gamma3, chi3]])
    patch = one_patch(data)
    for u, v in rng.uniform(0, 1, (20, 2)):
        assert np.linalg.norm(patch.eval(u, v) - bilinear(u, v)) < 1e-10


def test_compatible_twists_make_blend_irrelevant():
    rng = np.random.default_rng(45)
    data = random_boundary_data(rng, 1)

    # the twist ratios of the corner (u, v) = (1, 0) resp. (0, 1)
    class LeftOnly(GregoryPatchSet):
        def _ratio(self, u, v):
            return super()._ratio(np.ones_like(u), np.zeros_like(v))

    class RightOnly(GregoryPatchSet):
        def _ratio(self, u, v):
            return super()._ratio(np.zeros_like(u), np.ones_like(v))

    # the hook is live: on incompatible twist data the two ratios disagree
    uv = rng.uniform(0.05, 0.95, (10, 2))
    left = GregoryPatch.view(LeftOnly(*set_args([data])), 0)
    right = GregoryPatch.view(RightOnly(*set_args([data])), 0)
    assert np.abs(left.eval(*uv.T) - right.eval(*uv.T)).max() > 1e-3

    # force compatible twist data: all chi derivatives at a corner equal
    twist = rng.normal(size=3)
    for side in data.polys:
        c = side[1].coeffs.copy()
        # linear field with slope `twist`: endpoint derivative everywhere
        c[1] = twist
        c[2:] = 0.0
        side[1] = VecPoly(c)
    blended = one_patch(data)
    left = GregoryPatch.view(LeftOnly(*set_args([data])), 0)
    right = GregoryPatch.view(RightOnly(*set_args([data])), 0)
    for u, v in uv:
        a = blended.eval(u, v)
        assert np.linalg.norm(left.eval(u, v) - a) < 1e-11
        assert np.linalg.norm(right.eval(u, v) - a) < 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_affine_equivariance(k):
    rng = np.random.default_rng(46)
    data = random_boundary_data(rng, k)
    A = np.array([[1.1, 0.2, 0.0], [-0.3, 0.9, 0.1], [0.0, 0.4, 1.2]])
    t = np.array([1.0, -2.0, 0.5])

    def map_side(side):
        mapped = [VecPoly(p.coeffs @ A.T) for p in side]
        mapped[0].coeffs[0] += t
        return mapped

    mapped = Boundary(data.corners @ A.T + t, data.lengths, k,
                      [map_side(s) for s in data.polys])
    pa = one_patch(data)
    pb = one_patch(mapped)
    for u, v in np.random.default_rng(47).uniform(0, 1, (10, 2)):
        assert np.allclose(pb.eval(u, v), A @ pa.eval(u, v) + t, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2])
def test_g1_join_tangent_planes(k):
    """Two patches sharing a curve and its transversal field meet with
    matching tangent planes along the curve."""
    rng = np.random.default_rng(48)
    data1 = random_boundary_data(rng, k)
    d = data1.d0
    gamma0, chi0, *xi0 = data1.polys[0]
    flipped_gamma = gamma0.reversed(d)
    flipped_chi = VecPoly(-chi0.reversed(d).coeffs)
    flipped_xi = xi0[0].reversed(d) if xi0 else None
    data2 = random_boundary_data(
        rng, k, bottom=(flipped_gamma, flipped_chi, flipped_xi, d))
    patch1 = one_patch(data1)
    patch2 = one_patch(data2)
    for u in np.linspace(0.05, 0.95, 10):
        a = patch1.eval(u, 0.0)
        b = patch2.eval(1.0 - u, 0.0)
        assert np.linalg.norm(a - b) < 1e-10
        # normals from one-sided partials
        du1 = fd_cross_u(patch1, u, 0.0)
        dv1 = fd_cross_v(patch1, u, 0.0, order=1, sign=1)
        du2 = fd_cross_u(patch2, 1.0 - u, 0.0)
        dv2 = fd_cross_v(patch2, 1.0 - u, 0.0, order=1, sign=1)
        n1 = np.cross(du1, dv1)
        n2 = np.cross(du2, dv2)
        n1 /= np.linalg.norm(n1)
        n2 /= np.linalg.norm(n2)
        assert min(np.linalg.norm(n1 - n2), np.linalg.norm(n1 + n2)) < 1e-6


def fd_cross_u(patch, u0, v, h=1e-3):
    if u0 > 0.5:
        def at(k):
            return patch.eval(u0 - k * h, v)
        sign = -1.0
    else:
        def at(k):
            return patch.eval(u0 + k * h, v)
        sign = 1.0
    return sign * (-25 * at(0) + 48 * at(1) - 36 * at(2) + 16 * at(3)
                   - 3 * at(4)) / (12 * h)


def test_order_count_rejected():
    # fields of orders 0..k for k = 1 (G1) or 2 (G2), and no other count
    for orders in (1, 4):
        shape = (1, 4, orders)
        with pytest.raises(ValueError, match="cross orders"):
            GregoryPatchSet(np.zeros((1, 4, 3)), np.ones((1, 4)),
                            np.zeros(shape + (4, 3)), np.zeros(shape, bool),
                            np.ones(shape, np.int8), np.full((1, 4, 2), -1),
                            None, [0])


def test_mismatched_shapes_and_intervals_rejected():
    data = random_boundary_data(np.random.default_rng(50), 1)
    args = set_args([data])
    for i, bad in ((1, np.ones((1, 3))), (3, np.zeros((1, 4, 3), bool)),
                   (5, np.full((1, 4), -1)), (7, [0, 1])):
        with pytest.raises(ValueError, match="shape"):
            GregoryPatchSet(*args[:i], bad, *args[i + 1:])
    with pytest.raises(ValueError, match="positive"):
        GregoryPatchSet(args[0], [(1.0, 0.0, 1.0, 1.0)], *args[2:])


def test_corner_mismatch_rejected():
    rng = np.random.default_rng(51)
    data = random_boundary_data(rng, 1)
    bad = data.polys[0][0].coeffs.copy()
    bad[0] += 0.5
    data.polys[0][0] = VecPoly(bad)
    with pytest.raises(ConstructionError, match="face 17: gamma0"):
        GregoryPatchSet(*set_args([data], faces=[17]))


def oracle_eval(data, u, v):
    """-H(u)^T M H(v) point by point, with M assembled entry by entry from
    the fields of a Boundary, read one point at a time."""
    k, p = data.k, data.corners
    d, e = (data.d0, data.d1), (data.e0, data.e1)
    rows, cols = (3, 1), (0, 2)   # sides along u = 0, 1 / v = 0, 1
    field = data.field
    out = []
    for s, t in zip(u, v):
        M = np.zeros((2 * k + 3, 2 * k + 3, 3))
        eps = e[0] + (e[1] - e[0]) * _blend(k, s)
        dlt = d[0] + (d[1] - d[0]) * _blend(k, t)
        M[1:3, 1:3] = [[p[0], p[3]], [p[1], p[2]]]
        for i in (0, 1):
            for q in range(k + 1):
                M[0, 1 + 2 * q + i] = eps ** q * field(cols[i], q, s * d[i])
                M[1 + 2 * q + i, 0] = dlt ** q * field(rows[i], q, t * e[i])
        for r in range(1, k + 1):
            for i in (0, 1):
                for end in (0, 1):
                    M[1 + i, 1 + 2 * r + end] = \
                        e[i] ** r * field(rows[i], 0, end * e[i], r)
                    M[1 + 2 * r + end, 1 + i] = \
                        d[i] ** r * field(cols[i], 0, end * d[i], r)
        wu, wv = (s ** k, (1 - s) ** k), (t ** k, (1 - t) ** k)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                for a in (0, 1):
                    for b in (0, 1):
                        scale = d[b] ** i * e[a] ** j
                        A = scale * field(rows[a], i, b * e[a], j)
                        B = scale * field(cols[b], j, a * d[b], i)
                        den = wu[a] + wv[b]
                        M[1 + 2 * i + a, 1 + 2 * j + b] = (
                            0.5 * (A + B) if den < 1e-12
                            else (wu[a] * A + wv[b] * B) / den)
        hu = hermite_basis(2 * k + 1, s)
        hv = hermite_basis(2 * k + 1, t)
        out.append(-np.einsum("i,ijk,j->k", hu, M, hv))
    return np.array(out)


def oracle_points(rng, count):
    """Slots and (u, v) over `count` patches: random points, the four domain
    edges, the corners, and repeated u and v values; longer than several
    evaluation chunks of small_eval_chunk."""
    n = 612
    u, v = rng.uniform(0, 1, (2, n))
    u[:40], v[40:80] = 0.0, 1.0                       # the four edges
    u[80:120], v[120:160] = 1.0, 0.0
    u[160:200], v[160:200] = np.repeat([[0, 1, 1, 0], [0, 0, 1, 1]], 10, 1)
    u[200:400] = rng.choice(rng.uniform(0, 1, 5), 200)   # repeated u
    v[300:500] = rng.choice(rng.uniform(0, 1, 5), 200)   # repeated v
    return rng.integers(0, count, n), u, v


def random_case(k):
    datas = [random_boundary_data(np.random.default_rng(52 + k), k)
             for _ in range(3)]
    return GregoryPatchSet(*set_args(datas)), datas


def built_case(make, options):
    patches = build_surface(make().build_connectivity(),
                            options).gregory_patches
    return patches, [Boundary.of(patches, i)
                     for i in range(len(patches.lengths))]


ORACLE_CASES = {
    "random_k1": lambda: random_case(1),
    "random_k2": lambda: random_case(2),
    "sphere_g2": lambda: built_case(lambda: sphere_mesh(2), BuildOptions()),
    "rotated_edge_g1": lambda: built_case(
        lambda: grid_with_rotated_edge(7, 7),
        BuildOptions(family="d3c1p2s4", mode="g1")),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_patch_set_matches_the_assembled_matrix(case, small_eval_chunk):
    patches, datas = ORACLE_CASES[case]()
    slots, u, v = oracle_points(np.random.default_rng(53), len(datas))
    got = patches.eval(slots, u, v)
    want = np.concatenate([
        oracle_eval(datas[s], u[i:i + 1], v[i:i + 1])
        for i, s in enumerate(slots)])
    assert np.abs(got - want).max() <= 1e-12
