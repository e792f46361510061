"""Patch sets: one evaluation call per patch kind for the whole surface.

CompositeSurface.eval takes arrays of (face, u, v) and evaluates every grid
patch through one GridPatchSet call and every Coons-Gregory patch through one
GregoryPatchSet call; the per-face views evaluate through the same sets.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from conftest import (grid_with_rotated_edge, sphere_mesh, torus_grid,
                      torus_with_rotated_edge)
from quadspline import gregory
from quadspline import mesh as qm
from quadspline import patch
from quadspline.surface import (BuildOptions, analysis_fields, build_surface,
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


def mixed_points(surf, per_face, seed=0):
    """A shuffled mix of (face, u, v) over every real face, corners and
    edges included."""
    rng = np.random.default_rng(seed)
    faces = np.repeat(np.asarray(surf.real_faces), per_face)
    u = rng.choice([0.0, 0.5, 1.0, *rng.uniform(0, 1, 8)], faces.size)
    v = rng.uniform(0.0, 1.0, faces.size)
    v[::7] = 1.0
    order = rng.permutation(faces.size)
    return faces[order], u[order], v[order]


@pytest.mark.parametrize("case", sorted(CASES))
def test_surface_eval_equals_per_face_views(case, small_eval_chunk):
    chunk = small_eval_chunk
    surf = surface_of(case)
    assert surf.gregory and surf.regular
    faces, u, v = mixed_points(surf, 40)
    assert faces.size > 2 * chunk
    # both kinds within one chunk
    assert {f in surf.gregory for f in faces[:chunk].tolist()} \
        == {True, False}
    got = surf.eval(faces, u, v)
    want = np.array([surf.patch(int(f)).eval(a, b)
                     for f, a, b in zip(faces, u, v)])
    assert np.abs(got - want).max() <= 1e-14
    # the same points split into other batches give the same bits
    cuts = [0, 7, chunk - 3, chunk + 100, faces.size]
    parts = [surf.eval(faces[a:b], u[a:b], v[a:b])
             for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), got)
    # shapes follow the (broadcast) input
    assert surf.eval(faces[:12].reshape(3, 4), u[:12].reshape(3, 4),
                     0.5).shape == (3, 4, 3)


@pytest.mark.parametrize("case", ["sphere_g2", "open_ev_grid_g1"])
def test_grid_side_fields_of_several_orders_in_one_call(case):
    surf = surface_of(case)
    patches = surf.grid_patches
    rng = np.random.default_rng(3)
    slots = rng.integers(0, len(patches.anchors), 50)
    sides = rng.integers(0, 4, 50)
    x = rng.uniform(0, 1, 50) * patches.intervals[slots, sides, 1]
    orders = range(patches.k + 1)
    got = patches.side_jets(slots, sides, [(q, 0) for q in orders], x)
    for q in orders:
        for i in (0, 17, 49):
            want = patches.side_jets(slots[i:i + 1], sides[i:i + 1],
                                     [(q, 0)], x[i:i + 1])[0, 0]
            assert np.abs(got[q, i] - want).max() <= 1e-14


@pytest.mark.parametrize("case", ["sphere_g2", "open_ev_grid_g1"])
def test_seam_frame_in_one_pass_equals_side_fields(case, small_eval_chunk):
    # the Gregory builder reads several jets of a grid side from one
    # side_jets pass, equal to one pass for each
    patches = surface_of(case).grid_patches
    k = patches.k
    rng = np.random.default_rng(5)
    count = small_eval_chunk + 300
    slots = rng.integers(0, len(patches.anchors), count)
    sides = rng.integers(0, 4, count)
    x = rng.uniform(0.0, 1.0, count)
    x[::5], x[1::5] = 0.0, 1.0
    x *= patches.intervals[slots, sides, 1]
    got = patches.side_jets(slots, sides,
                            [(0, 1)] + [(q, 0) for q in range(1, k + 1)], x)
    assert got.shape == (k + 1, count, 3)
    assert np.array_equal(got[0], patches.side_jets(slots, sides, [(0, 1)],
                                                    x)[0])
    assert np.array_equal(got[1:], patches.side_jets(
        slots, sides, [(q, 0) for q in range(1, k + 1)], x))


@pytest.mark.parametrize("case", ["sphere_g2", "open_ev_grid_g1"])
def test_side_fields_of_all_orders_in_one_pass_equal_one_pass_each(case):
    # the ends of every side of every Coons-Gregory patch, network and
    # sampled sides alike, as the set's constructor reads them
    patches = surface_of(case).gregory_patches
    n, k = len(patches.lengths), patches.k
    entry = np.arange(8 * n)
    slots, sides = entry // 8, entry // 2 % 4
    net = patches.grid[slots, sides, 0] < 0
    assert net.any() and not net.all()
    for step in (0.0, 1e-5j):
        x = patches.lengths[slots, sides] * (entry % 2) + step
        got = patches.side_fields(slots, sides, x, range(k + 1))
        assert got.shape == (k + 1, 8 * n, k + 1, 3)
        for r in range(k + 1):
            assert np.array_equal(got[r],
                                  patches.side_fields(slots, sides, x, r))


def test_coons_gregory_set_reads_its_end_jets_in_one_grid_call(monkeypatch):
    calls, depth = [], [0]
    side_jets = patch.GridPatchSet.side_jets
    init = gregory.GregoryPatchSet.__init__

    def counting(self, *args):
        calls.append(depth[0])
        return side_jets(self, *args)

    def constructing(self, *args):
        depth[0] += 1
        try:
            init(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(patch.GridPatchSet, "side_jets", counting)
    monkeypatch.setattr(gregory.GregoryPatchSet, "__init__", constructing)
    surf = build_surface(sphere_mesh(2).build_connectivity())
    assert surf.gregory and surf.gregory_patches.k == 2
    assert sum(calls) == 1


def test_unknown_face_raises():
    surf = surface_of("open_ev_grid_g1")
    phantom = surf.mesh.real_face_count   # extrapolated faces get no patch
    with pytest.raises(KeyError):
        surf.eval(np.array([0, phantom]), 0.5, 0.5)
    with pytest.raises(KeyError, match=f"face {phantom} has no patch"):
        surf.patch(phantom)


def test_face_outside_the_mesh_raises():
    # a negative id must not wrap around to the last faces, nor one past
    # the per-face tables raise IndexError
    surf = build_surface(torus_grid(6, 6).build_connectivity(),
                         BuildOptions())
    for f in (-2, surf.mesh.num_faces + 1):
        with pytest.raises(KeyError, match=f"face {f} has no patch"):
            surf.eval(f, 0.3, 0.4)
        with pytest.raises(KeyError, match=f"face {f} has no patch"):
            surf.patch(f)


def test_classification_hands_back_the_window_grids(monkeypatch):
    mesh = torus_with_rotated_edge(10, 10).build_connectivity()
    params = qm.assign_edge_params(mesh)
    anchors, ids, intervals, extraordinary = qm.classify_faces(mesh, params)
    assert len(extraordinary) and len(anchors)
    assert np.all(np.diff(anchors >> 2) > 0)
    assert np.array_equal(np.sort(np.concatenate([anchors >> 2,
                                                  extraordinary])),
                          np.arange(mesh.num_faces))
    assert np.array_equal(anchors, mesh.canonical_halfedge(anchors >> 2))
    assert ids.shape == (len(anchors), 4, 4)
    assert intervals.shape == (len(anchors), 4, 3)
    # every row is the face's own window, bitwise, as _grids gives it over
    # all half edges at once
    every = qm._grids(mesh, np.arange(mesh.num_halfedges), params)
    at = np.searchsorted(every[0], anchors)
    assert np.array_equal(every[0][at], anchors)
    assert np.array_equal(every[1][at], ids)
    assert np.array_equal(every[2][at], intervals)
    # the build walks every window once: no second gather
    calls = []
    grids = qm._grids

    def counting(*args):
        calls.append(args)
        return grids(*args)

    monkeypatch.setattr(qm, "_grids", counting)
    surf = build_surface(mesh, BuildOptions())
    assert len(calls) == 1
    assert sorted(surf.regular) == (anchors >> 2).tolist()
    # and each patch's grid is that window again
    for a, window, rows in zip(anchors.tolist(), ids, intervals):
        got = surf.regular[a >> 2].grid
        assert got.anchor == a
        assert np.array_equal(got.vertex_ids, window)
        assert np.array_equal(got.points, mesh.vertices[window])
        assert np.array_equal([got.d0, got.d1, got.e0, got.e1], rows)


@pytest.mark.parametrize("make, options", [
    (lambda: torus_with_rotated_edge(10, 10), BuildOptions()),
    (lambda: grid_with_rotated_edge(7, 7),
     BuildOptions(family="d3c1p2s4", mode="g1"))],
    ids=["rotated_torus_g2", "rotated_grid_g1_d3"])
def test_a_build_makes_no_local_grid(make, options, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a build made a LocalGrid")

    monkeypatch.setattr(patch, "LocalGrid", refuse)
    surf = build_surface(make().build_connectivity(), options)
    assert surf.regular and surf.gregory


def test_grid_side_jets_of_a_build_follow_the_gregory_faces(monkeypatch):
    # the builder evaluates grid corner jets only where it reads them: both
    # spheres have 24 Coons-Gregory faces, around their 8 valence-3
    # vertices, and 72 or 1512 grid patches
    points = []
    side_jets = patch.GridPatchSet.side_jets

    def counting(self, slots, sides, jets, x):
        points[-1] += len(x)
        return side_jets(self, slots, sides, jets, x)

    monkeypatch.setattr(patch.GridPatchSet, "side_jets", counting)
    for rounds in (2, 4):
        points.append(0)
        surf = build_surface(sphere_mesh(rounds).build_connectivity())
        assert len(surf.gregory) == 24
    assert points[0] == points[1] > 0


# tracemalloc peaks of analysis_fields and continuity_report on
# sphere_mesh(2) at n = 4, numpy 2.4: 1.81 and 1.41 MB (1.81 MB for both in
# one trace), with the analysis taking EVAL_CHUNK // 4 = 512 vertices of one
# patch kind and the report EVAL_CHUNK // 32 = 64 seams per batch, and
# EVAL_CHUNK = 2048 points per patch-set pass.  The analysis peaks in a
# complex grid pass of 1536 points, the report in a complex Coons-Gregory
# pass.  With analysis batches that mix the kinds and an audit that reads
# each Coons-Gregory sample's side fields twice: 1.54 and 1.64 MB, the
# report then peaking in the grid side fields of a Coons-Gregory pass.
# With 512-point passes: 1.48 and 1.92 MB; with
# 2048-point passes of kernels that gather every per-patch table and side
# field for all points at once: 1.75 and 3.55 MB; 10.1 and 15.9 MB with
# each whole-surface table evaluated in one piece.
PEAK_BOUND_MB = 2.0


def test_whole_surface_audits_stay_in_bounded_memory():
    surf = build_surface(sphere_mesh(2).build_connectivity(), BuildOptions())
    tri = tessellate(surf, 4)
    tracemalloc.start()
    try:
        analysis_fields(surf, tri)
        continuity_report(surf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_MB * 1e6


# tracemalloc peaks of one full EVAL_CHUNK = 2048 of complex points, in bytes
# per point, on sphere_mesh(2), numpy 2.4: GregoryPatchSet.eval 1974 (2556
# when side_fields held its field array beside the grid kernel's gathers),
# GridPatchSet.side_jets with the jets (0, 1), (1, 0), (2, 0) 1059 and, with
# the seam audit's jets over 128 real rows of 16 samples, 517.  A Gregory
# kernel that gathers the per-patch tables of M and the side fields of all
# four sides for every point at once reads 2940.
KERNEL_BYTES_PER_POINT = {"gregory": 2600, "grid_side_jets": 1200,
                          "grid_side_jets_rows": 700}


def test_one_chunk_of_each_kernel_stays_in_its_bytes_per_point():
    surf = surface_of("sphere_g2")
    gregory, grid = surf.gregory_patches, surf.grid_patches
    n = patch.EVAL_CHUNK
    rng = np.random.default_rng(11)
    u, v = rng.uniform(0.0, 1.0, (2, n)) + 1e-4j
    slots = rng.integers(0, len(gregory.lengths), n)
    grid_slots = rng.integers(0, len(grid.anchors), n)
    sides = rng.integers(0, 4, n)
    x = u * grid.intervals[grid_slots, sides, 1]
    jets = [(0, 1)] + [(q, 0) for q in range(1, grid.k + 1)]
    # the seam audit's layout: sides of 16 real samples each
    seam_slots, seam_sides = grid_slots[::16], sides[::16]
    seam_x = u.real.reshape(-1, 16) \
        * grid.intervals[seam_slots, seam_sides, 1, None]
    calls = {"gregory": lambda: gregory.eval(slots, u, v),
             "grid_side_jets": lambda: grid.side_jets(grid_slots, sides,
                                                      jets, x),
             "grid_side_jets_rows": lambda: grid.side_jets(
                 seam_slots, seam_sides, [(0, 0)] + jets, seam_x)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < KERNEL_BYTES_PER_POINT[name] * n, (name, peak / n)
