"""Regenerate reference.npz: the default-seed outputs every op is checked
against.

Run from the root of a checkout, only when a change is meant to alter the
surface:

    python3 perfbench/make_reference.py

For each workload it stores the structural counts, the full-precision
tessellation positions and the library's analysis channels at every interior
tessellation node.
"""

import sys

import run


def main():
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import numpy as np
    from scipy.spatial import cKDTree

    import bench
    import checks
    from workloads import WORKLOADS

    qs = bench.import_library()
    data = {}
    for name, workload in WORKLOADS.items():
        ws = bench.Workspace(qs, workload, bench.DEFAULT_SEED, bench.SAMPLES,
                             bench.HERE / "out" / name)
        surface, tri = ws.surface, ws.tri
        qs.surface.analysis_fields(surface, tri)
        report = qs.surface.continuity_report(surface)
        nodes = checks.interior_nodes(surface, ws.samples)
        points = np.array([surface.patch(f).eval(u, v) for f, u, v in nodes])
        _, idx = cKDTree(tri.positions).query(points)
        channels = np.stack([tri.channels["mean_curvature"][idx],
                             tri.channels["isophote"][idx]], 1)
        counts = dict(ws.counts, edges=report["summary"]["edge_count"],
                      samples=ws.samples)
        for key, value in counts.items():
            data[f"{name}.{key}"] = np.array(value)
        data[f"{name}.positions"] = tri.positions
        data[f"{name}.node_points"] = points
        data[f"{name}.node_channels"] = channels
        print(name, counts)
    np.savez_compressed(bench.REFERENCE, **data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
