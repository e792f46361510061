"""quadspline benchmark: `quadspline build` end to end, and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ev_sphere_g2 --seed 1 --seconds 25 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment and the workload's structural counts.
Outputs of the last run (input OBJ, PLY, report, spans) stay under
``perfbench/out/<workload>/``.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("ev_sphere_g2", "jitter_torus_g2", "open_ev_grid_g1")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare():
    """Pin BLAS to one thread and import quadspline from this checkout's
    sources; an error message, or None when ready."""
    if not (SRC / "quadspline" / "__init__.py").is_file():
        return f"no quadspline sources at {SRC}"
    # one thread: the load is one client in one process on a shared machine
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import quadspline
    if Path(quadspline.__file__).resolve().parent != SRC / "quadspline":
        return f"imported quadspline from {quadspline.__file__}, not {SRC}"
    return None


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
