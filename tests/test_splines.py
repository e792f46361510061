import warnings

import numpy as np
import pytest

from conftest import knot_derivatives
from quadspline.errors import DegenerateEdgeError
from quadspline.network import VecPoly
from quadspline.splines import (D3C1P2S4, D5C2P2S4, PolylineCurve, family,
                                fundamental_weights, make_knots,
                                segment_coefficients, signed_curvature)

BOTH = [D3C1P2S4, D5C2P2S4]


# independent transcription of the closed-form segment polynomials, used to
# cross-check the expanded-coefficient evaluation path
def factored_basis(fam, off, x, d):
    dm, d0, dp = d
    if fam.name == "d3c1p2s4":
        if off == -1:
            return -x * (x - d0) ** 2 / (dm * d0 * (dm + d0))
        if off == 0:
            return (x - d0) / d0 ** 2 * (x * x / (d0 + dp)
                                         + x * (x - d0) / dm - d0)
        if off == 1:
            return x / d0 ** 2 * ((d0 * (dm + 2 * x) - x * x) / (dm + d0)
                                  - x * (x - d0) / dp)
        return x * x * (x - d0) / (d0 * dp * (d0 + dp))
    if off == -1:
        return x * (x - d0) ** 3 * (d0 + 2 * x) / (dm * d0 ** 3 * (dm + d0))
    if off == 0:
        num = dm * (-3 * x ** 3 * d0 + d0 ** 4 + d0 ** 3 * dp + 2 * x ** 4) \
            + x * (d0 + dp) * (d0 + 2 * x) * (x - d0) ** 2
        return (d0 - x) * num / (dm * d0 ** 4 * (d0 + dp))
    if off == 1:
        return x / d0 ** 4 * (x * x * (2 * x - 3 * d0) * (x - d0) / dp
                              + (-5 * x ** 3 * d0 + 3 * x * x * d0 * d0
                                 + d0 ** 3 * (dm + x) + 2 * x ** 4)
                              / (dm + d0))
    return -x ** 3 * (2 * x - 3 * d0) * (x - d0) \
        / (d0 ** 3 * dp * (d0 + dp))


@pytest.mark.parametrize("fam", BOTH)
def test_coefficients_match_factored_forms(fam):
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = tuple(rng.uniform(0.2, 3.0, 3))
        x = rng.uniform(0.0, d[1])
        for off in (-1, 0, 1, 2):
            got = fundamental_weights(fam, x, d)[off + 1]
            want = factored_basis(fam, off, x, d)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("fam", BOTH)
def test_uniform_midpoint_weights(fam):
    d = (1.0, 1.0, 1.0)
    expected = (-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0)
    for off, want in zip((-1, 0, 1, 2), expected):
        assert abs(fundamental_weights(fam, 0.5, d)[off + 1] - want) < 1e-14


@pytest.mark.parametrize("fam", BOTH)
def test_delta_property(fam):
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = tuple(rng.uniform(0.1, 4.0, 3))
        # at x = 0 the center function is 1, at x = d0 the next one
        vals0 = fundamental_weights(fam, 0.0, d)
        vals1 = fundamental_weights(fam, d[1], d)
        assert np.allclose(vals0, [0.0, 1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(vals1, [0.0, 0.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("fam", BOTH)
def test_partition_of_unity(fam):
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = tuple(rng.uniform(0.05, 5.0, 3))
        x = rng.uniform(0.0, d[1])
        assert abs(sum(fundamental_weights(fam, x, d)) - 1.0) < 1e-10


@pytest.mark.parametrize("fam", BOTH)
def test_derivative_matches_finite_differences(fam):
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(10):
        d = tuple(rng.uniform(0.5, 2.0, 3))
        x = rng.uniform(2 * h, d[1] - 2 * h)
        for off in (-1, 0, 1, 2):
            for r in range(1, fam.continuity + 2):
                exact = fundamental_weights(fam, x, d, r)[off + 1]
                if r == 1:
                    fd = (fundamental_weights(fam, x + h, d)[off + 1]
                          - fundamental_weights(fam, x - h, d)[off + 1]
                          ) / (2 * h)
                else:
                    fd = (fundamental_weights(fam, x + h, d, r - 1)[off + 1]
                          - fundamental_weights(fam, x - h, d, r - 1)[off + 1]
                          ) / (2 * h)
                assert fd == pytest.approx(exact, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("fam", BOTH)
def test_deriv_order_zero_and_cap(fam):
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = tuple(rng.uniform(0.2, 2.0, 3))
        x = rng.uniform(0.0, d[1])
        for off in (-1, 0, 1, 2):
            assert fundamental_weights(fam, x, d, 0)[off + 1] == \
                pytest.approx(fundamental_weights(fam, x, d)[off + 1],
                              abs=1e-15)
            assert fundamental_weights(fam, x, d,
                                       fam.degree + 1)[off + 1] == 0.0
    # derivative of the partition of unity vanishes
    d = (0.7, 1.3, 0.4)
    for x in np.linspace(0.0, d[1], 7):
        total = sum(fundamental_weights(fam, x, d, 1)[off + 1]
                    for off in (-1, 0, 1, 2))
        assert abs(total) < 1e-10


def test_family_lookup():
    assert family("D5C2P2S4") is D5C2P2S4
    with pytest.raises(ValueError):
        family("d4c2p1s4")


def test_make_knots_examples():
    k = make_knots([(0, 0), (1, 0), (1, 1)], alpha=0.5)
    assert np.allclose(k, [0.0, 1.0, 2.0])
    k = make_knots([(0, 0), (4, 0)], alpha=0.5)
    assert np.allclose(k, [0.0, 2.0])
    k = make_knots([(0, 0), (4, 0), (5, 0)], alpha=1.0)
    assert np.allclose(k, [0.0, 4.0, 5.0])
    k = make_knots([(0, 0), (1, 0), (1, 1), (0, 1)], alpha=0.5, closed=True)
    assert len(k) == 5 and np.allclose(np.diff(k), 1.0)


def test_make_knots_rejects_coincident_points():
    with pytest.raises(DegenerateEdgeError):
        make_knots([(0, 0), (0, 0), (1, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_rejected(bad):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [1.0, 2.0],
                    [0.0, 2.0], [-1.0, 1.0]])
    pts[3, 1] = bad
    with pytest.raises(DegenerateEdgeError):
        make_knots(pts)
    with pytest.raises(DegenerateEdgeError):
        PolylineCurve.from_points(pts, D5C2P2S4, closed=True)
    # knots from the finite points do not make the curve acceptable
    knots = np.arange(len(pts) + 1, dtype=float)
    with pytest.raises(DegenerateEdgeError):
        PolylineCurve(pts, knots, D5C2P2S4, closed=True)
    good = pts.copy()
    good[3, 1] = 2.0
    knots[2] = bad
    with pytest.raises(DegenerateEdgeError):
        PolylineCurve(good, knots, D5C2P2S4, closed=True)


@pytest.mark.parametrize("fam", BOTH)
def test_weights_broadcast_over_x_and_intervals(fam):
    rng = np.random.default_rng(12)
    d = tuple(rng.uniform(0.3, 1.8, (3, 5, 2)))
    x = rng.uniform(0.0, 1.0, (5, 2)) * d[1]
    for r in range(fam.degree + 2):
        got = fundamental_weights(fam, x, d, r)
        assert got.shape == (4, 5, 2)
        for idx in np.ndindex(5, 2):
            want = fundamental_weights(fam, x[idx],
                                       tuple(di[idx] for di in d), r)
            # array powers may round the last bit differently
            assert np.allclose(got[(slice(None),) + idx], want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())
    # scalar x, array intervals
    assert fundamental_weights(fam, 0.0, d).shape == (4, 5, 2)
    # several orders from one call
    orders = range(fam.degree + 2)
    assert np.array_equal(fundamental_weights(fam, x, d, orders),
                          [fundamental_weights(fam, x, d, r) for r in orders])


def test_weights_reject_one_x_outside_the_segment():
    d = (0.5, 1.0, 0.7)
    x = np.linspace(0.0, 1.0, 7)
    fundamental_weights(D5C2P2S4, x, d)
    x[4] = 1.01
    with pytest.raises(ValueError, match="x=1.01"):
        fundamental_weights(D5C2P2S4, x, d)
    x[4] = -0.01
    with pytest.raises(ValueError):
        fundamental_weights(D5C2P2S4, x, d, 2)


@pytest.mark.parametrize("fam", BOTH)
def test_curve_interpolates_at_knots(fam):
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(9, 3))
    curve = PolylineCurve.from_points(pts, fam, closed=True)
    for j in range(9):
        assert np.allclose(curve.eval(curve.knots[j]), pts[j], atol=1e-12)
    open_curve = PolylineCurve.from_points(pts, fam, closed=False)
    for j in range(1, 8):
        assert np.allclose(open_curve.eval(open_curve.knots[j]), pts[j],
                           atol=1e-12)


@pytest.mark.parametrize("fam", BOTH)
def test_quadratic_reproduction(fam):
    ts = np.array([0.0, 0.7, 1.6, 2.2, 3.1])
    pts = np.stack([ts, ts * ts], axis=1)
    curve = PolylineCurve(pts, ts, fam, closed=False)
    rng = np.random.default_rng(7)
    lo, hi = curve.domain()
    for x in rng.uniform(lo, hi, 20):
        p = curve.eval(x)
        assert np.allclose(p, [x, x * x], atol=1e-9)


@pytest.mark.parametrize("fam", BOTH)
def test_compact_support(fam):
    # values on a segment ignore points outside the four-point window
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(10, 3))
    curve = PolylineCurve.from_points(pts, fam, closed=False)
    x = 0.5 * (curve.knots[4] + curve.knots[5])  # segment 4: window 3..6
    base = curve.eval(x)
    pts2 = pts.copy()
    pts2[0] += 5.0
    pts2[1] -= 3.0
    pts2[8] += 2.0
    pts2[9] -= 7.0
    moved = PolylineCurve(pts2, curve.knots, fam, closed=False)
    assert np.allclose(moved.eval(x), base, atol=1e-14)


@pytest.mark.parametrize("fam", BOTH)
def test_knot_continuity_one_sided(fam):
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 3))
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 2.0, 10))])
    curve = PolylineCurve(pts, knots, fam, closed=True)
    for j in range(1, 9):
        for r in range(fam.continuity + 1):
            left, right = knot_derivatives(curve, j, r)
            scale = max(np.linalg.norm(left), np.linalg.norm(right), 1.0)
            assert np.linalg.norm(left - right) / scale < 1e-9


@pytest.mark.parametrize("fam", BOTH)
def test_closed_square_symmetry(fam):
    pts = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    curve = PolylineCurve.from_points(pts, fam, closed=True)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    period = curve.knots[-1] - curve.knots[0]
    for x in np.linspace(0.0, period, 17, endpoint=False):
        a = curve.eval(x)
        b = curve.eval(x + period / 4.0)
        assert np.allclose(rot @ a, b, atol=1e-12)


@pytest.mark.parametrize("fam", BOTH)
def test_open_curve_domain_error(fam):
    pts = np.random.default_rng(10).normal(size=(6, 2))
    curve = PolylineCurve.from_points(pts, fam, closed=False)
    lo, hi = curve.domain()
    with pytest.raises(ValueError):
        curve.eval(lo - 0.5)
    with pytest.raises(ValueError):
        curve.eval(hi + 0.5)


def segment_oracle(curve, x, r):
    """r-th derivative of a PolylineCurve at one x, from the
    segment_coefficients of the segment holding x, found by a scan of the
    knots."""
    n, knots = len(curve.points), curve.knots
    segments = range(n) if curve.closed else range(1, n - 2)
    if curve.closed:
        x = knots[0] + (x - knots[0]) % (knots[-1] - knots[0])
    s = max([k for k in segments if knots[k] <= x], default=segments[0])
    window = (s + np.arange(-1, 3)) % n
    coeffs = segment_coefficients(curve.points[window],
                                  np.diff(knots)[window[:3]], curve.family)
    return VecPoly(coeffs).eval(x - knots[s], r)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("fam", BOTH)
def test_curve_eval_on_arrays_matches_segment_polynomials(fam, closed, r):
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(9, 3))
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 2.0, 9))])
    curve = PolylineCurve(pts, knots if closed else knots[:-1], fam, closed)
    lo, hi = curve.domain()
    # closed curves wrap: x runs over three periods
    span = hi - lo if closed else 0.0
    x = rng.uniform(lo - span, hi + span, (4, 25))
    x[0, :4] = lo, hi, curve.knots[2], curve.knots[3]
    got = curve.eval(x, r)
    assert got.shape == x.shape + (3,)
    want = np.array([segment_oracle(curve, t, r)
                     for t in x.ravel()]).reshape(got.shape)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # a scalar x gives one point, and a sequence of orders stacks them
    assert np.array_equal(curve.eval(x[1, 3], r), got[1, 3])
    assert np.array_equal(curve.eval(x, (r, 0))[0], got)


@pytest.mark.parametrize("fam", BOTH)
def test_signed_curvature_of_a_stalled_curve_is_zero(fam):
    """Where a curve's speed is 0, as everywhere on a curve whose points all
    coincide, its signed curvature reads 0, without a RuntimeWarning."""
    curve = PolylineCurve(np.zeros((5, 2)), np.arange(6.0), fam, closed=True)
    x = np.linspace(0.0, 5.0, 23)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = signed_curvature(curve, x)
        assert signed_curvature(curve, 2.5) == 0.0
    assert kappa.shape == x.shape and not kappa.any()


@pytest.mark.parametrize("fam", BOTH)
def test_segment_coefficients_match_eval(fam):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(4, 3))
    d = tuple(rng.uniform(0.4, 1.7, 3))
    coeffs = segment_coefficients(pts, d, fam)
    for x in np.linspace(0.0, d[1], 9):
        w = fundamental_weights(fam, x, d)
        direct = np.asarray(w) @ pts
        horner = np.zeros(3)
        for row in coeffs[::-1]:
            horner = horner * x + row
        assert np.allclose(direct, horner, atol=1e-12)

