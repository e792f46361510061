"""Benchmark engine: one workload, one seed, untraced or traced.

An op is one `quadspline build` through `cli.main` (OBJ in, PLY and report
JSON out), run as a closed loop by one client in one process: the next op
starts when the previous one has returned and its output has been checked.
"""

import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks
from run import BLAS_THREAD_VARS
from spans import Tracer, span_targets
from workloads import WORKLOADS, obj_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.npz"
DEFAULT_SEED = 0      # the seed whose outputs are stored in REFERENCE
SAMPLES = 4           # --samples of every op
MIN_OPS = 3
COUNT_KEYS = ("faces", "regular_faces", "gregory_faces", "phantom_faces",
              "edges", "vertices", "triangles")


def import_library():
    """The quadspline modules of this checkout, as one namespace."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"quadspline.{name}")
        for name in ("cli", "mesh", "splines", "patch", "network",
                     "gregory", "surface")})


class Workspace:
    """One workload at one seed: its OBJ, op arguments, an in-process
    build of the same input and, once expect() ran, the expected output."""

    def __init__(self, qs, workload, seed, samples, out):
        self.qs, self.workload, self.seed, self.samples = \
            qs, workload, seed, samples
        out.mkdir(parents=True, exist_ok=True)
        self.out = out
        self.vertices, self.faces = workload.make(seed)
        self.obj = out / "input.obj"
        self.obj.write_text(obj_text(self.vertices, self.faces),
                            encoding="utf-8")
        self.ply = out / "op.ply"
        self.report = out / "op.report.json"
        self.argv = ["build", str(self.obj), *workload.cli_flags(),
                     "--samples", str(samples), "--out", str(self.ply),
                     "--report", str(self.report)]
        self.surface, self.tri = self.preview()
        mesh = self.surface.mesh
        self.counts = {
            "faces": len(self.faces),
            "regular_faces": len(self.surface.regular),
            "gregory_faces": len(self.surface.gregory),
            "phantom_faces": mesh.num_faces - mesh.real_face_count,
            "vertices": len(self.tri.positions),
            "triangles": len(self.tri.triangles),
        }
        self.run_errors = []
        self.expected = None

    def options(self):
        return self.qs.surface.BuildOptions(family=self.workload.family,
                                            mode=self.workload.mode)

    def setup(self):
        """OBJ path to a built CompositeSurface."""
        mesh = self.qs.mesh.load_obj(str(self.obj))
        mesh.build_connectivity()
        return self.qs.surface.build_surface(mesh, self.options())

    def preview(self):
        surface = self.setup()
        return surface, self.qs.surface.tessellate(surface, self.samples)

    def expect(self, ref):
        """Compare the in-process build with the stored reference and fix
        what every op must produce.  Mismatches go to run_errors."""
        surface, tri = self.surface, self.tri
        self.counts["edges"] = ref["edges"]
        for key in COUNT_KEYS:
            if key in ("vertices", "triangles") and \
                    self.samples != ref["samples"]:
                continue
            if self.counts[key] != ref[key]:
                self.run_errors.append(
                    f"workload drifted: {key} is {self.counts[key]}, "
                    f"stored {ref[key]}")
        ref_points = ref_channels = None
        if self.seed == DEFAULT_SEED and self.samples == ref["samples"]:
            worst, ok = checks.match_points(
                tri.positions, ref["positions"],
                checks.REFERENCE_POSITION_TOL)
            if not ok:
                self.run_errors.append(
                    f"positions differ from the stored reference by "
                    f"{worst:.3g}")
            ref_points, ref_channels = ref["node_points"], ref["node_channels"]

        nodes = checks.interior_nodes(surface, self.samples)
        rng = np.random.default_rng([self.seed, 99])
        greg = [n for n in nodes if n[0] in surface.gregory]
        reg = [n for n in nodes if n[0] not in surface.gregory]
        k = min(len(greg), checks.ORACLE_NODES // 2)
        picks = [greg[i] for i in rng.choice(len(greg), k, replace=False)]
        picks += [reg[i] for i in rng.choice(
            len(reg), min(len(reg), checks.ORACLE_NODES - k), replace=False)]
        oracle = [checks.fd_channels(surface.patch(f).eval, u, v)
                  for f, u, v in picks]
        bbox = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        self.expected = checks.Expected(
            positions=tri.positions, triangles=len(tri.triangles),
            mesh_vertices=self.vertices, diag=float(np.linalg.norm(bbox)),
            edge_count=ref["edges"],
            oracle_points=np.array([o[2] for o in oracle]),
            oracle_channels=np.array([o[:2] for o in oracle]),
            ref_points=ref_points, ref_channels=ref_channels)

    def op(self, around=nullcontext):
        """Run one op; (seconds, failure message or None).  around() wraps
        exactly the cli.main call, as the traced run's root span."""
        sink = io.StringIO()
        gc.collect()   # start every op from the same heap state
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = perf_counter()
                with around():
                    code = self.qs.cli.main(self.argv)
                dt = perf_counter() - t0
        except Exception:  # an op that raises is a failed op
            return None, "op raised " + traceback.format_exc(limit=-3)
        if code != 0:
            return dt, f"exit code {code}: {sink.getvalue().strip()}"
        try:
            checks.check_op(self.expected, self.ply, self.report)
        except (checks.CheckFailure, OSError, ValueError, KeyError) as exc:
            return dt, f"output check failed: {exc}"
        return dt, None


def load_reference(name):
    with np.load(REFERENCE) as ref:
        out = {k.split(".", 1)[1]: ref[k] for k in ref.files
               if k.startswith(name + ".")}
    for key in COUNT_KEYS + ("samples",):
        out[key] = int(out[key])
    return out


class OpLog:
    """Times and failures of the ops of one run."""

    def __init__(self):
        self.times = []
        self.failures = []
        self.attempted = 0

    def record(self, dt, failure):
        self.attempted += 1
        if failure is None:
            self.times.append(dt)
        else:
            self.failures.append(failure)

    def run_until(self, ws, seconds, min_ops, extra=None, root_span=None):
        """Run ops for at least `seconds` and `min_ops` ops.  extra() runs
        before each op; root_span(op index) wraps each op's cli.main call."""
        start = perf_counter()
        while self.attempted < min_ops or perf_counter() - start < seconds:
            if extra:
                extra()
            op = self.attempted
            self.record(*ws.op(
                (lambda: root_span(op)) if root_span else nullcontext))


def median(values):
    return statistics.median(values) if values else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(ws, seconds, min_ops):
    """End-to-end metrics: per iteration one set-up plus tessellation timed
    in process, then one op."""
    setups, previews = [], []

    def preview():
        gc.collect()
        t0 = perf_counter()
        surface = ws.setup()
        t1 = perf_counter()
        tri = ws.qs.surface.tessellate(surface, ws.samples)
        t2 = perf_counter()
        setups.append(t1 - t0)
        previews.append(t2 - t0)
        worst, ok = checks.match_points(tri.positions, ws.tri.positions, 0.0)
        if not ok:
            ws.run_errors.append(f"set-up is not deterministic ({worst:.3g})")

    ws.op()   # warm-up
    log = OpLog()
    log.run_until(ws, seconds, min_ops, extra=preview)
    metrics = {"build_s": (median(log.times), "s"),
               "setup_s": (median(setups), "s"),
               "preview_s": (median(previews), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    return log, metrics


# -- traced run ------------------------------------------------------------------

def per_call_us(fn, points, repeats=7, min_time=0.05):
    """Median per-call time of fn over the fixed points, after a warm-up."""
    for p in points:
        fn(*p)
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            for p in points:
                fn(*p)
        if perf_counter() - t0 >= min_time:
            break
        loops *= 2
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(loops):
            for p in points:
                fn(*p)
        times.append((perf_counter() - t0) / (loops * len(points)))
    return statistics.median(times) * 1e6


def microbenchmarks(ws):
    """Untraced per-call times at fixed (u, v) points on the workload."""
    surface = ws.surface
    uv = [(i / 4, j / 4) for i in range(5) for j in range(5)]
    regular = sorted(surface.regular)[:4]
    gregory = sorted(surface.gregory)[:4]
    grid = surface.regular[regular[0]].grid
    d = tuple(float(x) for x in grid.d0)
    fam = surface.options.family
    weights = ws.qs.splines.fundamental_weights
    out = {"splines.weights_us": per_call_us(
        lambda x: weights(fam, x, d), [(t * d[1],) for t in np.linspace(
            0.0, 1.0, 17)])}
    out["patch.eval_us"] = per_call_us(
        lambda ev, u, v: ev(u, v),
        [(surface.patch(f).eval, u, v) for f in regular for u, v in uv])
    out["gregory.eval_us"] = per_call_us(
        lambda ev, u, v: ev(u, v),
        [(surface.patch(f).eval, u, v) for f in gregory for u, v in uv]) \
        if gregory else 0.0
    return out


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def op_layers(tracer, lo, hi, ws):
    """Per-layer numbers of the traced op whose spans are lo..hi-1."""
    a = tracer.arrays(lo, hi)
    names = tracer.names
    name, dur, self_t, info = a["name"], a["dur"], a["self"], a["info"]
    ph = tracer.phase_of(a["parent"], name, PHASES)

    def ids(*labels):
        return [names.index(x) for x in labels if x in names]

    def mask(label):
        return np.isin(name, ids(label))

    def calls(label):
        return int(mask(label).sum())

    def total(label, arr=dur):
        return float(arr[mask(label)].sum())

    evals = np.isin(name, ids("patch.eval", "gregory.eval"))

    def points_in(label):
        return int(info[evals & np.isin(ph, ids(label))].sum())

    construct = mask("patch.construct")
    samples = points_in("surface.tessellate")
    return {
        "mesh.load_obj_s": total("mesh.load_obj"),
        "mesh.connectivity_s": total("mesh.connectivity"),
        "mesh.params_s": total("mesh.params"),
        "mesh.extrapolate_s": total("mesh.extrapolate"),
        "mesh.classify_s": total("mesh.classify"),
        "mesh.grid_extract_calls": calls("mesh.grid_extract"),
        "mesh.grid_extract_s": total("mesh.grid_extract"),
        "mesh.phantom_faces": ws.counts["phantom_faces"],
        "splines.weights_calls": calls("splines.weights"),
        "splines.weights_s": total("splines.weights"),
        "splines.segment_coeff_calls": calls("splines.segment_coeff"),
        "patch.construct_calls": int(construct.sum()),
        "patch.construct_s": total("patch.construct"),
        "patch.eval_calls": calls("patch.eval"),
        "patch.eval_points": int(info[mask("patch.eval")].sum()),
        "patch.eval_self_s": total("patch.eval", self_t),
        "patch.boundary_calls": calls("patch.boundary"),
        "patch.boundary_s": total("patch.boundary"),
        "patch.construct_reuse_ratio":
            len(set(info[construct].tolist())) / max(int(construct.sum()), 1),
        "network.guide_fits": calls("network.guide_fit"),
        "network.guide_fit_s": total("network.guide_fit"),
        "network.plane_fits": calls("network.plane_fit"),
        "network.cross_fields": calls("network.cross_field"),
        "network.cross_field_s": total("network.cross_field"),
        "network.tangent_calls": calls("network.tangent"),
        "gregory.construct_calls": calls("gregory.construct"),
        "gregory.construct_s": total("gregory.construct"),
        "gregory.eval_calls": calls("gregory.eval"),
        "gregory.eval_points": int(info[mask("gregory.eval")].sum()),
        "gregory.eval_self_s": total("gregory.eval", self_t),
        "surface.build_self_s": total("surface.build", self_t),
        "surface.tessellate_s": total("surface.tessellate"),
        "surface.tessellate_self_s": total("surface.tessellate", self_t),
        "surface.samples_evaluated": samples,
        "surface.weld_ratio": ws.counts["vertices"] / max(samples, 1),
        "surface.analysis_s": total("surface.analysis"),
        "surface.analysis_self_s": total("surface.analysis", self_t),
        "surface.analysis_evals_per_vertex":
            points_in("surface.analysis") / ws.counts["vertices"],
        "surface.report_s": total("surface.report"),
        "surface.report_self_s": total("surface.report", self_t),
        "surface.report_evals_per_edge":
            points_in("surface.report") / ws.counts["edges"],
        "surface.export_s": total("surface.export"),
        "surface.export_bytes": ws.ply.stat().st_size
        + ws.report.stat().st_size,
        "cli.overhead_s": total("cli.main", self_t),
        "trace.build_s": total("cli.main"),
        "trace.self_sum_s": float(self_t.sum()),
    }


PHASES = ("surface.build", "surface.tessellate", "surface.analysis",
          "surface.report", "surface.export")


def run_traced(ws, seconds, min_ops):
    """Per-layer metrics: microbenchmarks and untraced ops first, then ops
    with every span installed."""
    micro = microbenchmarks(ws)
    ws.op()   # warm-up
    plain = OpLog()
    plain.run_until(ws, seconds / 3.0, min_ops)
    tracer = Tracer()
    traced = OpLog()
    with tracer.installed(span_targets(ws.qs)):
        traced.run_until(ws, seconds * 2.0 / 3.0, min_ops, root_span=lambda op:
                         tracer.root("cli.main", op))
    tracer.save(ws.out / "spans.npz")
    per_op = [op_layers(tracer, lo, hi, ws) for lo, hi in tracer.op_ranges]
    layers = {k: (statistics.median_low if isinstance(v, int) else median)(
        [p[k] for p in per_op]) for k, v in per_op[0].items()}
    layers.pop("trace.self_sum_s")
    layers["trace.overhead_s"] = layers["trace.build_s"] - median(plain.times)
    layers.update(micro)
    layers["repo.src_lines"] = src_lines()
    traced.attempted += plain.attempted
    traced.failures += plain.failures
    return traced, {k: (v, unit_of(k)) for k, v in layers.items()}, per_op


def unit_of(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_vertex") \
            or name.endswith("_per_edge"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_lines"):
        return "lines"
    return "count"


# -- environment and result ------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(ws):
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": ws.workload.name,
        "seed": ws.seed,
        "samples": ws.samples,
        "counts": ws.counts,
    }


def run(workload, seed, seconds, trace, samples=SAMPLES, out_root=None,
        min_ops=MIN_OPS):
    """Run one workload; (result dict, environment dict, extra details)."""
    qs = import_library()
    out = Path(out_root or HERE / "out") / workload
    ws = Workspace(qs, WORKLOADS[workload], seed, samples, out)
    ws.expect(load_reference(workload))
    if trace:
        log, metrics, details = run_traced(ws, seconds, min_ops)
    else:
        log, metrics = run_untraced(ws, seconds, min_ops)
        details = None
    failed = log.attempted if ws.run_errors else len(log.failures)
    result = {
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    env = environment(ws)
    env["ops_timed"] = len(log.times)
    env["errors"] = ws.run_errors + log.failures[:5]
    return result, env, details


def main(args):
    result, env, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"{args.workload}: times are medians over {env['ops_timed']} "
          f"{'traced ' if args.trace else ''}ops")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_share "
          f"{result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} ops)")
    for err in env["errors"]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0
