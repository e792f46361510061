"""Accuracy against analytic surfaces: how close the surface comes to the
surface its vertices were sampled from, and how fast it converges.

Each surface is tessellated at n = 6 and its largest distance to the exact
surface measured; the order of a refinement step from N to 2N vertices a
ring is log2 of the ratio of the two errors.  Chordal intervals keep the
full order on any spacing; uniform and centripetal ones only where the
spacing varies smoothly (Floater, "Chordal cubic spline interpolation is
fourth-order accurate", IMA J. Numer. Anal. 26, 2006).  The measured values
in the comments were taken with numpy 2.4.
"""

import numpy as np
import pytest

from conftest import sphere_mesh, torus_grid
from quadspline.surface import BuildOptions, build_surface, tessellate

FAMILIES = {"d5c2p2s4_g2": {},
            "d3c1p2s4_g1": {"family": "d3c1p2s4", "mode": "g1"}}
SIZES = (8, 16, 32)


def random_angles(n, seed):
    """n angles 2 pi (k + 0.8 U(-1/2, 1/2)) / n: randomly uneven spacing."""
    jitter = np.random.default_rng(seed).uniform(-0.5, 0.5, n)
    return 2.0 * np.pi * (np.arange(n) + 0.8 * jitter) / n


def smooth_angles(n):
    """n angles s + 0.6 sin s at even s: smoothly uneven spacing."""
    s = 2.0 * np.pi * np.arange(n) / n
    return s + 0.6 * np.sin(s)


def torus_errors(angles, param, family):
    """Largest distance to the torus R = 2, r = 1 of the surfaces through
    n x n/2 vertices on it, for n in SIZES."""
    errors = []
    for n in SIZES:
        mesh = torus_grid(n, n // 2, *angles(n)).build_connectivity()
        surf = build_surface(mesh, BuildOptions(param_method=param,
                                                **FAMILIES[family]))
        p = tessellate(surf, 6).positions
        ring = np.hypot(np.hypot(p[:, 0], p[:, 1]) - 2.0, p[:, 2])
        errors.append(np.abs(ring - 1.0).max())
    return np.array(errors)


def orders(errors):
    return np.log2(errors[:-1] / errors[1:])


def random_torus(n):
    return random_angles(n, 1), random_angles(n // 2, 2)


def smooth_torus(n):
    return smooth_angles(n), smooth_angles(n // 2)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chordal_intervals_converge_at_full_order_on_uneven_spacing(family):
    # orders 3.53 and 3.69; errors 0.275, 0.0239, 0.00185
    assert orders(torus_errors(random_torus, "chordal", family)).min() >= 3.3


@pytest.mark.parametrize("param", ["uniform", "centripetal"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_other_intervals_lose_order_on_uneven_spacing(family, param):
    # orders 2.03-2.04 and 1.53-1.54 (uniform), 2.21 and 1.59-1.61
    # (centripetal); at n = 32 the error is 0.048 (uniform) and 0.032
    # (centripetal), against chordal's 0.0019
    errors = torus_errors(random_torus, param, family)
    assert orders(errors).min() >= 1.4
    chordal = torus_errors(random_torus, "chordal", family)
    assert errors[-1] > 5.0 * chordal[-1]


@pytest.mark.parametrize("param", ["chordal", "centripetal", "uniform"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_parametrization_converges_at_full_order_on_smooth_spacing(
        family, param):
    # last-step orders 3.63 (chordal), 3.59 (centripetal), 3.49-3.54
    # (uniform); the first step, from 8 vertices a ring, reads 2.6-2.8
    assert orders(torus_errors(smooth_torus, param, family))[-1] >= 3.3


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sphere_converges_under_subdivision(family):
    # max |‖p‖ - 1| on sphere_mesh(2..4): 7.2e-3, 7.8e-4, 1.5e-4 in
    # d5c2p2s4 G2 and 7.2e-3, 9.5e-4, 6.2e-5 in d3c1p2s4 G1, a fall of 5.1x
    # or more a round
    errors = []
    for rounds in (2, 3, 4):
        surf = build_surface(sphere_mesh(rounds).build_connectivity(),
                             BuildOptions(**FAMILIES[family]))
        p = tessellate(surf, 6).positions
        errors.append(np.abs(np.linalg.norm(p, axis=1) - 1.0).max())
    assert np.all(np.array(errors[:-1]) >= 4.0 * np.array(errors[1:]))
