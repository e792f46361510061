"""The paper's shape claim: on unevenly spaced data, uniform intervals make
curvature wiggles, and non-uniform ones remove them.

The surface is the randomly uneven torus of test_accuracy (R = 2, r = 1, n x
n/2 vertices), built with each --param, tessellated at 6 and run through
analysis_fields.  "max |dH|" is the largest | |H| - H_exact | over the
tessellation's vertices, with H_exact = (R + 2r cos phi) / (2r (R + r cos
phi)) and phi read from each vertex's position; "signs" counts the
curvature sign changes over the mesh's closed section curves
(cli.section_sign_changes).  The torus has only regular faces.  The measured
values in the comments were taken with numpy 2.4.
"""

from functools import lru_cache

import numpy as np
import pytest

from conftest import torus_grid
from quadspline.cli import section_sign_changes
from quadspline.mesh import assign_edge_params, section_chains
from quadspline.surface import (BuildOptions, analysis_fields, build_surface,
                                tessellate)
from test_accuracy import FAMILIES, random_torus

R, r = 2.0, 1.0
SIZES = (16, 32)


@lru_cache(maxsize=None)
def shape_measures(n, param, family):
    """(max |dH|, signs) of the surface through n x n/2 randomly spaced
    torus vertices."""
    mesh = torus_grid(n, n // 2, *random_torus(n)).build_connectivity()
    options = BuildOptions(param_method=param, **FAMILIES[family])
    params = assign_edge_params(mesh, param)
    surf = build_surface(mesh, options, params=params)
    tri = tessellate(surf, 6)
    analysis_fields(surf, tri)
    p = tri.positions
    cos_phi = np.cos(np.arctan2(p[:, 2], np.hypot(p[:, 0], p[:, 1]) - R))
    exact = (R + 2.0 * r * cos_phi) / (2.0 * r * (R + r * cos_phi))
    dh = np.abs(np.abs(tri.channels["mean_curvature"]) - exact).max()
    signs = section_sign_changes(mesh, section_chains(mesh), params,
                                 options.family)
    return dh, signs


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_uniform_intervals_make_curvature_wiggles(family, n):
    # max |dH| 170 and 181 (d5c2p2s4 G2, n = 16 and 32), 65 and 121
    # (d3c1p2s4 G1); signs 96, 768, 192 and 640
    dh, signs = shape_measures(n, "uniform", family)
    assert dh > 50.0
    assert signs >= 48


@pytest.mark.parametrize("param", ["centripetal", "chordal"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_non_uniform_intervals_remove_the_wiggles(family, n, param):
    # no sign change in any case; max |dH| 2.17 and 2.60 (centripetal,
    # d5c2p2s4 G2, n = 16 and 32), 1.66 and 2.04 (d3c1p2s4 G1); chordal
    # 0.197, 0.054, 0.423 and 0.098
    dh, signs = shape_measures(n, param, family)
    assert signs == 0
    assert dh < 3.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chordal_curvature_converges(family):
    # max |dH| falls 3.6x (d5c2p2s4 G2) and 4.3x (d3c1p2s4 G1) from n = 16
    # to 32; centripetal intervals, the default, grow from 2.17 to 2.60 and
    # from 1.66 to 2.04 on this spacing, which no test pins
    coarse, fine = (shape_measures(n, "chordal", family)[0] for n in SIZES)
    assert fine < coarse / 3.0
    assert fine < 0.15
