import numpy as np
import pytest

from conftest import sphere_mesh
from quadspline import network
from quadspline.errors import ConstructionError, FitError
from quadspline.network import (BASES, VecPoly, _monomials,
                                build_cross_field_chi,
                                build_cross_field_xi,
                                build_missing_boundary_curve,
                                directional_derivs, fit_common_plane,
                                fit_guide_polynomial, guide_points,
                                interpolant, make_ruled_direction,
                                normal_curvature_vector, planar_angles,
                                principal_curvatures, project_to_plane,
                                tangent_with_fallback)
from quadspline.surface import BuildOptions, build_surface


def bessel_oracle(p_prev, p0, p_next, d_prev, d_next):
    """Tangent at p0 of the parabola through three consecutive points.

    Independent quadratic-interpolation construction: fit q(t) through the
    points at parameters -d_prev, 0, d_next and differentiate at 0.
    """
    ts = np.array([-d_prev, 0.0, d_next])
    V = np.vander(ts, 3)  # columns t^2, t, 1
    coef = np.linalg.solve(V, np.stack([p_prev, p0, p_next]))
    return coef[1]  # derivative of t at 0


def cubic_hermite_oracle(p0, m0, p1, m1, d, t):
    s = t / d
    h0 = 2 * s ** 3 - 3 * s ** 2 + 1
    h1 = -2 * s ** 3 + 3 * s ** 2
    g0 = s ** 3 - 2 * s ** 2 + s
    g1 = s ** 3 - s ** 2
    return h0 * p0 + h1 * p1 + d * g0 * m0 + d * g1 * m1


def test_bessel_reduces_at_valence_four():
    p0 = np.zeros(3)
    nbrs = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    T = tangent_with_fallback(p0, nbrs, [1.0] * 4, 0)
    assert np.allclose(T, [1.0, 0, 0], atol=1e-14)


def test_bessel_matches_three_point_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p0 = rng.normal(size=3)
        nbrs = np.array([p0 + rng.normal(size=3) for _ in range(4)])
        ds = rng.uniform(0.3, 2.5, 4)
        for i in range(4):
            T = tangent_with_fallback(p0, nbrs, ds, i)
            opp = (i + 2) % 4
            want = bessel_oracle(nbrs[opp], p0, nbrs[i], ds[opp], ds[i])
            assert np.linalg.norm(T - want) / max(np.linalg.norm(want),
                                                  1e-12) < 1e-10


def test_bessel_linearity_in_points():
    p0 = np.zeros(3)
    nbrs = np.array([[1.0, 0.2, 0], [0, 1.0, 0.1], [-1.0, 0, 0],
                     [0.2, -1.0, 0]])
    ds = [1.0, 0.8, 1.3, 0.7]
    T1 = tangent_with_fallback(p0, nbrs, ds, 0)
    T2 = tangent_with_fallback(p0, 2.0 * nbrs, ds, 0)
    assert np.allclose(T2, 2.0 * T1, atol=1e-14)


def test_bessel_collinear_symmetric():
    p0 = np.zeros(3)
    nbrs = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    T = tangent_with_fallback(p0, nbrs, [1.0, 2.0, 1.0, 2.0], 0)
    assert abs(T[1]) < 1e-14 and abs(T[2]) < 1e-14


def test_bessel_degenerate_interval_fallback():
    # valence 5 with huge direct neighbors and tiny across ones drives the
    # cosine-weighted opposite interval negative
    p0 = np.zeros(3)
    angles = 2 * np.pi * np.arange(5) / 5
    nbrs = np.array([[np.cos(a), np.sin(a), 0.0] for a in angles])
    ds = [1.0, 10.0, 0.1, 0.1, 10.0]
    T = tangent_with_fallback(p0, nbrs, ds, 0)
    assert np.allclose(T, nbrs[0] / ds[0], atol=1e-14)  # chord fallback


def test_guide_points_match_hermite_oracle():
    # expected values computed with the cubic-Hermite oracle at d/4 and d/2
    p0 = np.zeros(3)
    pi = np.array([1.0, 0, 0])
    t0i = np.array([1.0, 0, 0])
    ti0 = np.array([-1.0, 0, 0])  # derivative at pi oriented back toward p0
    want_q1 = cubic_hermite_oracle(p0, t0i, pi, ti0, 1.0, 0.25)
    want_q2 = cubic_hermite_oracle(p0, t0i, pi, ti0, 1.0, 0.5)
    assert np.allclose(want_q1, [0.34375, 0, 0], atol=1e-15)
    assert np.allclose(want_q2, [0.75, 0, 0], atol=1e-15)
    q1, q2 = guide_points(p0, pi, 1.0, t0i, ti0)
    assert np.allclose(q1, want_q1, atol=1e-15)
    assert np.allclose(q2, want_q2, atol=1e-15)
    # random data against the same oracle
    rng = np.random.default_rng(22)
    for _ in range(10):
        p0, pi, a, b = rng.normal(size=(4, 3))
        d = rng.uniform(0.2, 2.0)
        q1, q2 = guide_points(p0, pi, d, a, b)
        assert np.allclose(q1, cubic_hermite_oracle(p0, a, pi, b, d, d / 4),
                           atol=1e-12)
        assert np.allclose(q2, cubic_hermite_oracle(p0, a, pi, b, d, d / 2),
                           atol=1e-12)


def test_guide_points_midpoint_identity():
    rng = np.random.default_rng(23)
    p0, pi, a, b = rng.normal(size=(4, 3))
    d = 1.3
    _q1, q2 = guide_points(p0, pi, d, a, b)
    assert np.allclose(q2, (p0 + pi) / 2 + d * (a - b) / 8, atol=1e-14)


def test_guide_points_degenerate_collapse():
    p = np.array([2.0, -1.0, 0.5])
    z = np.zeros(3)
    q1, q2 = guide_points(p, p, 1.0, z, z)
    assert np.allclose(q1, p) and np.allclose(q2, p)


def test_planar_angles_equal_spacing():
    # five tangents with equal inter-tangent angles
    n = 5
    tans = [np.array([np.cos(2 * np.pi * i / n),
                      np.sin(2 * np.pi * i / n), 0.0]) for i in range(n)]
    etas = planar_angles(tans)
    for i, eta in enumerate(etas):
        assert eta == pytest.approx(2 * np.pi * i / n)


def test_planar_angles_orthogonal():
    tans = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
            np.array([-1.0, 0, 0]), np.array([0, -1.0, 0])]
    etas = planar_angles(tans)
    assert np.allclose(etas, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_planar_angles_total_turning():
    rng = np.random.default_rng(24)
    raw = np.sort(rng.uniform(0, 2 * np.pi, 5))
    tans = [np.array([np.cos(a), np.sin(a), 0.0]) for a in raw]
    etas = planar_angles(tans)
    # closing increment returns to 2*pi
    zeta_last = np.arccos(np.clip(tans[-1] @ tans[0], -1, 1))
    zetas = [np.arccos(np.clip(tans[i] @ tans[(i + 1) % 5], -1, 1))
             for i in range(5)]
    total = sum(zetas)
    assert etas[-1] + zeta_last * 2 * np.pi / total == pytest.approx(
        2 * np.pi)


def guide_eval(p0, coeffs, x, y):
    """The fitted guide polynomial at (x, y), read from its coefficients."""
    degree = 3 if coeffs.shape[-2] == 9 else 2
    return p0 + np.array(_monomials(x, y, degree)) @ coeffs


def guide_jets(coeffs):
    """(Px, Py, Pxx, Pxy, Pyy) at the origin of a degree-2 or 3 fit."""
    c = coeffs[..., :5, :]
    return np.moveaxis(c * np.array([1.0, 1, 2, 1, 2])[:, None], -2, 0)


def test_guide_polynomial_pins_origin_and_plane():
    rng = np.random.default_rng(25)
    p0 = np.array([0.5, -0.2, 0.0])
    xys = rng.normal(size=(8, 2))
    qs = np.stack([p0 + [x, y, 0.0] for x, y in xys])
    coeffs = fit_guide_polynomial(p0, qs, xys, degree=2)
    assert np.allclose(guide_eval(p0, coeffs, 0.0, 0.0), p0, atol=1e-14)
    for x, y in rng.normal(size=(10, 2)):
        assert abs(guide_eval(p0, coeffs, x, y)[2]) < 1e-12


def test_guide_polynomial_reproduces_quadratic():
    rng = np.random.default_rng(26)
    coeffs = rng.normal(size=5)

    def height(x, y):
        return (coeffs[0] * x + coeffs[1] * y + coeffs[2] * x * x
                + coeffs[3] * x * y + coeffs[4] * y * y)

    p0 = np.zeros(3)
    xys = rng.normal(size=(8, 2))
    qs = np.stack([[x, y, height(x, y)] for x, y in xys])
    fit = fit_guide_polynomial(p0, qs, xys, degree=2)
    for x, y in rng.normal(size=(10, 2)):
        got = guide_eval(p0, fit, x, y)
        assert np.allclose(got, [x, y, height(x, y)], atol=1e-10)


def test_guide_polynomial_reproduces_cubic():
    # 12 samples, valence 6, select degree 3
    rng = np.random.default_rng(33)
    coeffs = rng.normal(size=9)

    def height(x, y):
        return np.array(_monomials(x, y, 3)) @ coeffs

    p0 = np.array([0.3, 0.1, -0.4])
    xys = rng.normal(size=(12, 2))
    qs = np.stack([p0 + [x, y, height(x, y)] for x, y in xys])
    fit = fit_guide_polynomial(p0, qs, xys)
    assert fit.shape == (9, 3)
    for x, y in rng.normal(size=(10, 2)):
        got = guide_eval(p0, fit, x, y)
        assert np.allclose(got, p0 + [x, y, height(x, y)], rtol=0,
                           atol=1e-12)


def test_guide_polynomial_rank_deficient():
    p0 = np.zeros(3)
    xys = [(t, t) for t in np.linspace(0.1, 1.0, 8)]  # collinear parameters
    qs = [np.array([x, y, 0.0]) for x, y in xys]
    with pytest.raises(FitError):
        fit_guide_polynomial(p0, qs, xys, degree=2)


def test_guide_polynomial_stack_is_its_entries():
    # valence 3, 5 and 7 fans: two samples per neighbour, degrees 2, 3, 3
    rng = np.random.default_rng(34)
    for n in (3, 5, 7):
        p0 = rng.normal(size=(4, 3))
        xys = rng.normal(size=(4, 2 * n, 2))
        qs = p0[:, None] + rng.normal(size=(4, 2 * n, 3))
        got = fit_guide_polynomial(p0, qs, xys)
        assert got.shape == (4, 5 if n == 3 else 9, 3)
        for i in range(4):
            want = fit_guide_polynomial(p0[i], qs[i], xys[i])
            assert np.allclose(got[i], want, rtol=1e-14, atol=0)


def test_guide_polynomial_stack_with_a_deficient_entry_raises():
    rng = np.random.default_rng(35)
    xys = rng.normal(size=(3, 8, 2))
    xys[1] = np.linspace(0.1, 1.0, 8)[:, None]   # collinear parameters
    qs = rng.normal(size=(3, 8, 3))
    with pytest.raises(FitError):
        fit_guide_polynomial(np.zeros((3, 3)), qs, xys, degree=2)


def test_directional_derivs():
    # P = (x, y, x^2)
    p0 = np.zeros(3)
    xys = np.random.default_rng(27).normal(size=(10, 2))
    qs = np.stack([[x, y, x * x] for x, y in xys])
    jets = guide_jets(fit_guide_polynomial(p0, qs, xys, degree=2))
    for eta in (0.0, 0.7, 2.0):
        t1, t2 = directional_derivs(jets, eta)
        assert np.allclose(t1, [np.cos(eta), np.sin(eta), 0.0], atol=1e-9)
        assert np.allclose(t2, [0.0, 0.0, 2 * np.cos(eta) ** 2], atol=1e-9)
        t1b, t2b = directional_derivs(jets, eta + np.pi)
        assert np.allclose(t1b, -t1, atol=1e-9)
        assert np.allclose(t2b, t2, atol=1e-9)


def test_g2_build_fits_each_valence_in_one_call(monkeypatch):
    calls = []
    fit = network.fit_guide_polynomial

    def counting(p0, qs, xys, degree=None):
        calls.append(np.shape(p0))
        return fit(p0, qs, xys, degree)

    monkeypatch.setattr(network, "fit_guide_polynomial", counting)
    # the cube corners: eight vertices of valence 3
    build_surface(sphere_mesh(2).build_connectivity(),
                  BuildOptions(mode="g2"))
    assert calls == [(8, 3)]


def test_hermite_curves_interpolate():
    rng = np.random.default_rng(28)
    for _ in range(5):
        p0, m0, p1, m1, a0, a1 = rng.normal(size=(6, 3))
        d = rng.uniform(0.3, 2.0)
        c3 = interpolant("cubic", [p0, p1, m0, m1], d)
        assert np.allclose(c3.eval(0.0), p0, atol=1e-14)
        assert np.allclose(c3.eval(d), p1, atol=1e-12)
        assert np.allclose(c3.eval(0.0, 1), m0, atol=1e-13)
        assert np.allclose(c3.eval(d, 1), m1, atol=1e-12)
        c5 = interpolant("quintic", [p0, p1, m0, m1, a0, a1], d)
        assert np.allclose(c5.eval(0.0), p0, atol=1e-14)
        assert np.allclose(c5.eval(d), p1, atol=1e-12)
        assert np.allclose(c5.eval(0.0, 1), m0, atol=1e-13)
        assert np.allclose(c5.eval(d, 1), m1, atol=1e-11)
        assert np.allclose(c5.eval(0.0, 2), a0, atol=1e-12)
        assert np.allclose(c5.eval(d, 2), a1, atol=1e-11)


def test_hermite_reproduces_polynomials():
    rng = np.random.default_rng(29)
    d = 1.7
    # straight line data
    p0 = rng.normal(size=3)
    vel = rng.normal(size=3)
    line3 = interpolant("cubic", [p0, p0 + d * vel, vel, vel], d)
    line5 = interpolant("quintic", [p0, p0 + d * vel, vel, vel, np.zeros(3),
                                    np.zeros(3)], d)
    for x in np.linspace(0, d, 9):
        assert np.allclose(line3.eval(x), p0 + x * vel, atol=1e-12)
        assert np.allclose(line5.eval(x), p0 + x * vel, atol=1e-12)
    # quintic round trip
    quintic = VecPoly(rng.normal(size=(6, 3)))
    c5 = interpolant("quintic", [quintic.eval(0.0), quintic.eval(d),
                                 quintic.eval(0.0, 1), quintic.eval(d, 1),
                                 quintic.eval(0.0, 2), quintic.eval(d, 2)],
                     d)
    for x in np.linspace(0, d, 20):
        assert np.allclose(c5.eval(x), quintic.eval(x), atol=1e-9)


# where each condition of a BASES kind sits, as a fraction of the interval
CONDITION_AT = {"linear": (0, 1), "quadratic": (0, 1, 0.5),
                "cubic": (0, 1, 0, 1), "quartic": (0, 1, 0, 1, 0.5),
                "quintic": (0, 1, 0, 1, 0, 1)}


def test_every_kind_has_its_conditions_placed():
    assert sorted(CONDITION_AT) == sorted(BASES)
    for kind, (orders, rows) in BASES.items():
        assert rows.shape == (len(orders), len(CONDITION_AT[kind]))


@pytest.mark.parametrize("kind", sorted(BASES))
def test_interpolant_meets_its_conditions(kind):
    # a batch of 7 intervals and condition sets; each condition is checked
    # through VecPoly.eval at 0, d/2 or d, in the frame of [0, 1] (an
    # order-r derivative times d^r), relative to the largest condition there
    rng = np.random.default_rng(38)
    orders, _ = BASES[kind]
    d = rng.uniform(0.2, 2.0, 7)
    conditions = rng.normal(size=(len(orders), 7, 3))
    poly = interpolant(kind, conditions, d)
    assert poly.coeffs.shape == (7, len(orders), 3)
    unit = conditions * (d ** orders[:, None])[..., None]
    scale = np.abs(unit).max(axis=(0, 2))
    for c, order, at in zip(conditions, orders, CONDITION_AT[kind]):
        err = np.abs(poly.eval(at * d, order) - c).max(axis=-1) * d ** order
        assert (err <= 1e-12 * scale).all(), (order, at, err / scale)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_interpolant_reproduces_polynomials_of_its_degree(kind):
    rng = np.random.default_rng(39)
    orders, rows = BASES[kind]
    d = rng.uniform(0.2, 2.0, 5)
    poly = VecPoly(rng.normal(size=(5, rows.shape[1], 3)))
    again = interpolant(kind, [poly.eval(at * d, order) for order, at
                               in zip(orders, CONDITION_AT[kind])], d)
    x = d * np.linspace(0.0, 1.0, 9)[:, None]
    want = poly.eval(x)
    assert np.abs(again.eval(x) - want).max() <= 1e-12 * np.abs(want).max()


def test_build_missing_boundary_curve_dispatch():
    p0 = np.zeros(3)
    p1 = np.array([1.0, 0, 0])
    m = np.array([1.0, 0, 0])
    cubic = build_missing_boundary_curve(p0, p1, 1.0, m, m)
    assert cubic.degree == 3
    quintic = build_missing_boundary_curve(p0, p1, 1.0, m, m,
                                           np.zeros(3), np.zeros(3))
    assert quintic.degree == 5
    with pytest.raises(ValueError):
        build_missing_boundary_curve(p0, p1, 0.0, m, m)


def _planar_setup(rng, d=1.4):
    """Boundary curve in the z = 0 plane with in-plane corner targets."""
    p0 = np.zeros(3)
    p1 = np.array([d, 0.3, 0.0])
    m0 = np.array([1.0, 0.5, 0.0])
    m1 = np.array([1.0, -0.4, 0.0])
    gamma = interpolant("cubic", [p0, p1, m0, m1], d)
    n = np.array([0.0, 0.0, 1.0])
    target0 = np.array([-0.2, 1.0, 0.0])
    target1 = np.array([0.3, 1.1, 0.0])
    return gamma, d, n, target0, target1


def test_chi_planar_stays_planar_and_matches_targets():
    rng = np.random.default_rng(30)
    gamma, d, n, t0, t1 = _planar_setup(rng)
    ruled = make_ruled_direction(gamma, d, n, n, degree=1)
    chi, a, b = build_cross_field_chi(gamma, d, ruled, t0, t1)
    assert np.allclose(chi.eval(0.0), t0, atol=1e-12)
    assert np.allclose(chi.eval(d), t1, atol=1e-12)
    for x in np.linspace(0, d, 9):
        assert abs(chi.eval(x)[2]) < 1e-12


def test_chi_rotation_equivariance():
    rng = np.random.default_rng(31)
    gamma, d, n, t0, t1 = _planar_setup(rng)
    ruled = make_ruled_direction(gamma, d, n, n, degree=1)
    chi, _a, _b = build_cross_field_chi(gamma, d, ruled, t0, t1)
    theta = 0.83
    R = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0],
                  [0, 0, 1.0]])
    gamma_r = VecPoly(gamma.coeffs @ R.T)
    ruled_r = make_ruled_direction(gamma_r, d, R @ n, R @ n, degree=1)
    chi_r, _a2, _b2 = build_cross_field_chi(gamma_r, d, ruled_r,
                                            R @ t0, R @ t1)
    for x in np.linspace(0, d, 7):
        assert np.allclose(chi_r.eval(x), R @ chi.eval(x), atol=1e-10)


def test_chi_singular_frame_raises():
    rng = np.random.default_rng(32)
    gamma, d, n, t0, t1 = _planar_setup(rng)
    degenerate = VecPoly(np.zeros((2, 3)))  # ruled direction vanishes
    with pytest.raises(ConstructionError):
        build_cross_field_chi(gamma, d, degenerate, t0, t1)


def test_xi_planar_and_endpoint_match():
    rng = np.random.default_rng(33)
    gamma, d, n, t0, t1 = _planar_setup(rng)
    ruled = make_ruled_direction(gamma, d, n, n, degree=2, nm=n)
    chi, a, b = build_cross_field_chi(gamma, d, ruled, t0, t1)
    w = VecPoly(np.zeros((2, 3)))  # planar: both curvatures vanish
    s0 = np.array([0.1, -0.4, 0.0])
    s1 = np.array([-0.2, 0.6, 0.0])
    xi = build_cross_field_xi(gamma, d, a, b, ruled, w, s0, s1)
    assert np.allclose(xi.eval(0.0), s0, atol=1e-10)
    assert np.allclose(xi.eval(d), s1, atol=1e-10)
    for x in np.linspace(0, d, 9):
        assert abs(xi.eval(x)[2]) < 1e-12


def test_xi_matches_realizable_targets_in_3d():
    # targets generated from the field structure itself are recovered
    rng = np.random.default_rng(34)
    d = 1.1
    p0, m0, a0, p1, m1, a1 = (rng.normal(size=3) for _ in range(6))
    gamma = interpolant("quintic", [p0, p1, m0, m1, a0, a1], d)
    n0 = rng.normal(size=3)
    n0 /= np.linalg.norm(n0)
    n1 = rng.normal(size=3)
    n1 /= np.linalg.norm(n1)
    ruled = make_ruled_direction(gamma, d, n0, n1, degree=1)
    t0 = 0.3 * gamma.eval(0.0, 1) + 0.8 * ruled.eval(0.0)
    t1 = -0.5 * gamma.eval(d, 1) + 1.2 * ruled.eval(d)
    chi, a, b = build_cross_field_chi(gamma, d, ruled, t0, t1)
    w = VecPoly(rng.normal(size=(2, 3)))
    g1 = gamma.deriv(1)
    g2 = gamma.deriv(2)
    rp = ruled.deriv(1)

    def structure(x, s, t):
        av = a[0] + a[1] * x
        bv = b[0] + b[1] * x
        return (av * av * g2.eval(x) + s * g1.eval(x) + t * ruled.eval(x)
                + 2 * av * bv * rp.eval(x) + bv * bv * w.eval(x))

    s_target0 = structure(0.0, 0.45, -0.3)
    s_target1 = structure(d, -0.15, 0.9)
    xi = build_cross_field_xi(gamma, d, a, b, ruled, w, s_target0, s_target1)
    assert np.allclose(xi.eval(0.0), s_target0, atol=1e-10)
    assert np.allclose(xi.eval(d), s_target1, atol=1e-10)


def test_xi_assembly_formula():
    # with constant components and a constant ruled direction the assembly
    # reduces to a^2 gamma'' + s gamma' + t r + b^2 w pointwise
    rng = np.random.default_rng(35)
    d = 1.0
    gamma = VecPoly(rng.normal(size=(4, 3)))
    r_const = rng.normal(size=3)
    ruled = VecPoly(np.stack([r_const, np.zeros(3)]))
    w_const = rng.normal(size=3)
    w = VecPoly(np.stack([w_const, np.zeros(3)]))
    g1 = gamma.deriv(1)
    t0 = 2.0 * g1.eval(0.0) + 0.7 * r_const
    t1 = 2.0 * g1.eval(d) + 0.7 * r_const
    chi, a, b = build_cross_field_chi(gamma, d, ruled, t0, t1)
    assert a[1] == pytest.approx(0.0, abs=1e-10)
    assert b[1] == pytest.approx(0.0, abs=1e-10)
    g2 = gamma.deriv(2)
    s_t0 = 4.0 * g2.eval(0.0) + 0.5 * g1.eval(0.0) - 0.2 * r_const \
        + 0.49 * w_const
    s_t1 = 4.0 * g2.eval(d) + 0.5 * g1.eval(d) - 0.2 * r_const \
        + 0.49 * w_const
    xi = build_cross_field_xi(gamma, d, a, b, ruled, w, s_t0, s_t1)
    for x in np.linspace(0, d, 7):
        want = (4.0 * g2.eval(x) + 0.5 * g1.eval(x) - 0.2 * r_const
                + 0.49 * w_const)
        assert np.allclose(xi.eval(x), want, atol=1e-9)


def test_common_plane_projection():
    rng = np.random.default_rng(36)
    normal = np.array([0.0, 0.0, 1.0])
    vecs = [np.array([np.cos(a), np.sin(a), 0.0])
            for a in rng.uniform(0, 2 * np.pi, 5)]
    n = fit_common_plane(vecs)
    assert abs(abs(n @ normal) - 1.0) < 1e-12
    v = np.array([1.0, 2.0, 3.0])
    proj = project_to_plane(v, normal)
    assert np.allclose(proj, [1.0, 2.0, 0.0])


def test_normal_curvature_vector():
    n = np.array([0.0, 0.0, 1.0])
    d1 = np.array([1.0, 0.0, 0.0])
    d2 = np.array([0.0, 1.0, 0.0])
    r0 = np.array([0.6, 0.8, 0.0])
    w = normal_curvature_vector(r0, 2.0, -1.0, d1, d2, n)
    assert np.allclose(w, (0.36 * 2.0 + 0.64 * -1.0) * n, atol=1e-14)


def test_batches_are_stacks_of_their_entries():
    # every function takes leading batch axes: a batch of fields is the
    # stack of its entries' fields, bit for bit
    rng = np.random.default_rng(37)
    count = 6
    d = rng.uniform(0.5, 2.0, count)
    p0, m0, a0, p1, m1, a1 = rng.normal(size=(6, count, 3))
    gamma = interpolant("quintic", [p0, p1, m0, m1, a0, a1], d)
    normals = rng.normal(size=(3, count, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    curvature = principal_curvatures(*rng.normal(size=(5, count, 3)))
    targets = rng.normal(size=(4, count, 3))

    # the curvature at the far ends: the same frames in another order
    far = tuple(x[::-1] for x in curvature)

    def fields(at):
        g = VecPoly(gamma.coeffs[at])
        k0, k1 = (tuple(x[at] for x in k) for k in (curvature, far))
        ruled = make_ruled_direction(g, d[at], normals[0][at],
                                     normals[1][at], 2, normals[2][at],
                                     curv0=k0, curv1=k1)
        chi, a, b = build_cross_field_chi(g, d[at], ruled, targets[0][at],
                                          targets[1][at])
        w = VecPoly(np.stack([normal_curvature_vector(ruled.eval(0.0), *k0),
                              normal_curvature_vector(ruled.eval(d[at]),
                                                      *k1)], axis=-2))
        xi = build_cross_field_xi(g, d[at], a, b, ruled, w, targets[2][at],
                                  targets[3][at])
        return [ruled.coeffs, chi.coeffs, xi.coeffs,
                g.reversed(d[at]).coeffs]

    batch = fields(slice(None))
    for i in range(count):
        for stacked, single in zip(batch, fields(i)):
            assert np.array_equal(stacked[i], single)
    fans = rng.normal(size=(count, 5, 3))
    ds = rng.uniform(0.5, 2.0, (count, 5))
    p0 = rng.normal(size=(count, 3))
    tangents = tangent_with_fallback(p0[:, None], fans[:, None], ds[:, None],
                                     np.arange(5))
    etas = planar_angles(tangents)
    planes = fit_common_plane(tangents)
    for i in range(count):
        one = [tangent_with_fallback(p0[i], fans[i], ds[i], j)
               for j in range(5)]
        assert np.array_equal(tangents[i], one)
        assert np.array_equal(etas[i], planar_angles(one))
        assert np.array_equal(planes[i], fit_common_plane(one))
