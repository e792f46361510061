"""Output checks for one `quadspline build` op.

The op writes an ASCII PLY (positions plus mean-curvature and isophote
channels) and a continuity report.  Every op is checked against an
`Expected` record made once per run from the same OBJ:

- the PLY holds the same vertex set as an in-process tessellation of the
  same input, up to the PLY's 9 significant digits, and the same triangle
  count;
- every input mesh vertex is reproduced by a PLY vertex;
- the report's largest seam gap stays under a watertightness bound;
- both channels are finite everywhere, and at interior tessellation nodes
  they agree with the benchmark's own central-difference oracle.

For the default seed the in-process positions must also match the stored
reference to 1e-12 and the channels the stored reference at every interior
node.  All comparisons match points by nearest neighbour, so a change that
only reorders the welded vertices still passes.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

LIGHT_DIRECTION = np.ones(3) / np.sqrt(3.0)
# The oracle's central differences have O(h^2) truncation error, about
# 1e-5 relative on these meshes at h = 1e-3.  The library's own step-1e-4
# differences, or exact derivatives, sit far closer to the truth than that,
# so the tolerance is three orders above the oracle's h^2.
ORACLE_STEP = 1e-3
CHANNEL_TOL = 1e3 * ORACLE_STEP ** 2
# The ROADMAP rule for a faster path: the same positions to 1e-12.
REFERENCE_POSITION_TOL = 1e-12
# PLY coordinates carry 9 significant digits.
PLY_REL_TOL = 1e-8
WATERTIGHT_REL_TOL = 1e-9
INTERPOLATION_REL_TOL = 1e-7
ORACLE_NODES = 32


class CheckFailure(Exception):
    """An op's output is wrong; the message says which check failed."""


def read_ply(path):
    """(positions, channels dict, triangle count) of an ASCII PLY."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    end = lines.index("end_header")
    header = lines[:end]
    nv = nf = None
    props = []
    for line in header:
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nv = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            nf = int(parts[2])
        elif parts[:2] == ["property", "float"] and nf is None:
            props.append(parts[2])
    rows = lines[end + 1:end + 1 + nv]
    data = np.array([r.split() for r in rows], float).reshape(nv, len(props))
    cols = {name: data[:, i] for i, name in enumerate(props)}
    positions = np.stack([cols.pop("x"), cols.pop("y"), cols.pop("z")], 1)
    if len(lines) - end - 1 - nv < nf:
        raise CheckFailure("PLY is truncated")
    return positions, cols, nf


def match_points(a, b, tol):
    """Largest distance from a point of either set to the other set, and
    whether it is within tol."""
    if len(a) != len(b):
        return float("inf"), False
    da, _ = cKDTree(b).query(a)
    db, _ = cKDTree(a).query(b)
    worst = float(max(da.max(), db.max())) if len(a) else 0.0
    return worst, worst <= tol


def fd_channels(fn, u, v, h=ORACLE_STEP):
    """(mean curvature, isophote, position) at (u, v) by central differences."""
    s = {(a, b): fn(u + a * h, v + b * h)
         for a in (-1, 0, 1) for b in (-1, 0, 1)}
    su = (s[1, 0] - s[-1, 0]) / (2 * h)
    sv = (s[0, 1] - s[0, -1]) / (2 * h)
    suu = (s[1, 0] - 2 * s[0, 0] + s[-1, 0]) / h ** 2
    svv = (s[0, 1] - 2 * s[0, 0] + s[0, -1]) / h ** 2
    suv = (s[1, 1] - s[1, -1] - s[-1, 1] + s[-1, -1]) / (4 * h * h)
    n = np.cross(su, sv)
    n = n / np.linalg.norm(n)
    E, F, G = su @ su, su @ sv, sv @ sv
    L, M, N = suu @ n, suv @ n, svv @ n
    H = (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F))
    return float(H), float(n @ LIGHT_DIRECTION), s[0, 0]


def interior_nodes(surface, samples):
    """(face, u, v) of every tessellation node strictly inside a face."""
    return [(f, i / samples, j / samples) for f in surface.real_faces
            for j in range(1, samples) for i in range(1, samples)]


@dataclass
class Expected:
    """What every op of one run must produce."""
    positions: np.ndarray        # in-process tessellation, full precision
    triangles: int
    mesh_vertices: np.ndarray
    diag: float
    edge_count: int
    oracle_points: np.ndarray    # interior nodes with oracle channels
    oracle_channels: np.ndarray  # (k, 2): mean curvature, isophote
    ref_points: np.ndarray = None    # default seed: all interior nodes
    ref_channels: np.ndarray = None


def channel_error(points, channels, positions, out_channels, tol):
    """Largest relative channel error at the PLY vertices nearest points."""
    dist, idx = cKDTree(positions).query(points)
    if len(dist) and dist.max() > tol:
        raise CheckFailure(f"no PLY vertex at an interior node "
                           f"(off by {dist.max():.3g})")
    got = np.stack([out_channels["mean_curvature"][idx],
                    out_channels["isophote"][idx]], 1)
    return float((np.abs(got - channels) / (1.0 + np.abs(channels))).max())


def check_op(expected, ply_path, report_path):
    """Raise CheckFailure unless the op's PLY and report are correct."""
    positions, channels, triangles = read_ply(ply_path)
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    ply_tol = PLY_REL_TOL * max(1.0, float(np.abs(expected.positions).max()))
    worst, ok = match_points(positions, expected.positions, ply_tol)
    if not ok:
        raise CheckFailure(f"PLY vertices differ from the tessellation "
                           f"({len(positions)} vs {len(expected.positions)} "
                           f"vertices, worst {worst:.3g})")
    if triangles != expected.triangles:
        raise CheckFailure(f"{triangles} triangles, expected "
                           f"{expected.triangles}")
    dist, _ = cKDTree(positions).query(expected.mesh_vertices)
    if dist.max() > INTERPOLATION_REL_TOL * expected.diag:
        raise CheckFailure(f"mesh vertex not interpolated "
                           f"(off by {dist.max():.3g})")
    summary = report["summary"]
    gap = summary["position_gap"]["max"]
    if not gap <= WATERTIGHT_REL_TOL * expected.diag:
        raise CheckFailure(f"seam gap {gap:.3g} is not watertight")
    if summary["edge_count"] != expected.edge_count:
        raise CheckFailure(f"report covers {summary['edge_count']} edges, "
                           f"expected {expected.edge_count}")
    for name in ("mean_curvature", "isophote"):
        if name not in channels or not np.all(np.isfinite(channels[name])):
            raise CheckFailure(f"channel {name} missing or not finite")
    err = channel_error(expected.oracle_points, expected.oracle_channels,
                        positions, channels, ply_tol)
    if err > CHANNEL_TOL:
        raise CheckFailure(f"channels differ from the oracle by {err:.3g}")
    if expected.ref_points is not None:
        err = channel_error(expected.ref_points, expected.ref_channels,
                            positions, channels, ply_tol)
        if err > CHANNEL_TOL:
            raise CheckFailure(f"channels differ from the stored reference "
                               f"by {err:.3g}")
