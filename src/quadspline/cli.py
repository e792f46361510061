"""Command-line frontend: build surfaces, plot curves, compare parametrizations.

Exit codes: 0 success, 1 data or construction error, 2 usage error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import mesh as qm
from . import splines as sp
from . import surface as sf
from .errors import (ConstructionError, DegenerateEdgeError,
                     MeshStructureError, UnsupportedFaceError,
                     UnsupportedMeshError)

DATA_ERRORS = (ConstructionError, DegenerateEdgeError, MeshStructureError,
               UnsupportedFaceError, UnsupportedMeshError, OSError,
               ValueError)


class UsageError(Exception):
    """Bad invocation detectable before any real work."""


def positive_int(text):
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text} is below 1")
    return value


def _add_common_flags(p):
    p.add_argument("--family", default="d5c2p2s4",
                   choices=sorted(sp.FAMILIES))
    p.add_argument("--samples", type=positive_int, default=16,
                   help="tessellation/sampling density per patch edge")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="quadspline",
        description="Interpolating spline surfaces on quad meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="interpolate a quad mesh")
    b.add_argument("input", help="quad-only OBJ file")
    _add_common_flags(b)
    b.add_argument("--mode", default="g2", choices=("g1", "g2"))
    b.add_argument("--param", default="centripetal",
                   choices=("uniform", "chordal", "centripetal", "mean"))
    b.add_argument("--alpha", type=float, default=None,
                   help="override the parametrization exponent")
    b.add_argument("--r-degree", type=int, default=2, choices=(1, 2))
    b.add_argument("--out", default=None, help="output PLY path")
    b.add_argument("--report", default=None, help="continuity report JSON")
    b.add_argument("--config", default=None,
                   help="JSON file with flag defaults (flags win)")

    c = sub.add_parser("curve", help="interpolate a planar polyline")
    c.add_argument("input", help="text file with one 'x y' pair per line")
    _add_common_flags(c)
    c.add_argument("--param", default="centripetal",
                   choices=("uniform", "chordal", "centripetal"))
    c.add_argument("--alpha", type=float, default=None)
    c.add_argument("--open", dest="closed", action="store_false",
                   help="treat the polyline as open")
    c.add_argument("--out", default=None, help="output prefix (.csv/.svg)")

    m = sub.add_parser("compare",
                       help="per-edge versus ribbon-averaged parameters")
    m.add_argument("input")
    _add_common_flags(m)
    m.add_argument("--mode", default="g2", choices=("g1", "g2"))
    m.add_argument("--out", default=None, help="output prefix")
    return parser, {"build": b, "curve": c, "compare": m}


def _config_value(action, value):
    """A config value read like the flag's own argument: a string or a
    number, converted by the flag's type and checked against its choices."""
    bad = isinstance(value, (list, dict))
    if not bad and action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            bad = True
    if bad or action.choices is not None and value not in action.choices:
        choices = f"; choose from {list(action.choices)}" \
            if action.choices else ""
        raise ValueError(f"invalid config value {value!r} for {action.dest}"
                         f"{choices}")
    return value


def _apply_config(subparsers, argv):
    """Seed the build parser's defaults from --config PATH or --config=PATH;
    explicit flags win, and a JSON null keeps a flag's default."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:   # left to the full parse to report
        return
    if path is None:
        return
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    build = subparsers["build"]
    actions = {a.dest: a for a in build._actions}
    bad = set(cfg) - set(actions)
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    build.set_defaults(**{key: _config_value(actions[key], value)
                          for key, value in cfg.items() if value is not None})


def _analysis_fields(surf, tri):
    """sf.analysis_fields, with a warning on stderr when samples with a
    degenerate normal leave NaN channel values."""
    bad = sf.analysis_fields(surf, tri)["degenerate_samples"]
    if bad:
        print(f"warning: {bad} of {len(tri.positions)} samples have a "
              f"degenerate normal; their channels are NaN", file=sys.stderr)


def cmd_build(args):
    mesh = qm.load_obj(args.input)
    mesh.build_connectivity()
    options = sf.BuildOptions(family=args.family, mode=args.mode,
                              param_method=args.param, alpha=args.alpha,
                              r_degree=args.r_degree)
    surf = sf.build_surface(mesh, options)
    tri = sf.tessellate(surf, args.samples)
    _analysis_fields(surf, tri)
    report = sf.continuity_report(surf)

    stem = Path(args.input).with_suffix("")
    out = Path(args.out) if args.out else Path(f"{stem}.ply")
    report_path = Path(args.report) if args.report else \
        Path(f"{stem}.report.json")
    sf.export_ply(tri, out, channels=("mean_curvature", "isophote"))
    sf.write_report(report, report_path)
    print(f"wrote {out} ({len(tri.positions)} vertices, "
          f"{len(tri.triangles)} triangles) and {report_path}")
    return 0


def load_points_file(path):
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                pts.append([float(parts[0]), float(parts[1])])
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{lineno}: expected 'x y', got "
                                 f"{line.strip()!r}") from None
    return np.asarray(pts)


def curvature_profile(curve, samples):
    """(x, positions, signed curvatures), arrays along the whole curve."""
    lo, hi = curve.domain()
    xs = np.linspace(lo, hi, samples, endpoint=not curve.closed)
    return xs, curve.eval(xs), sp.signed_curvature(curve, xs)


def count_sign_changes(values, rel_tol=1e-9):
    vals = np.asarray(values, float)
    scale = np.abs(vals).max() if len(vals) else 0.0
    if scale == 0.0:
        return 0
    positive = vals[np.abs(vals) > rel_tol * scale] > 0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def write_curve_csv(profile, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,px,py,curvature\n")
        for x, p, kappa in zip(*profile):
            fh.write(f"{x:.12g},{p[0]:.12g},{p[1]:.12g},{kappa:.12g}\n")


def write_curve_svg(curve, profile, path, comb_scale=0.25):
    _xs, pts, kap = profile
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), 1e-12)

    def map_pt(p):
        q = (p - lo) / span * 800.0 + 50.0
        return q[0], 900.0 - q[1]

    kmax = max(abs(kap).max(), 1e-12)
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'width="900" height="950">']
    poly = " ".join("%.2f,%.2f" % map_pt(p) for p in pts)
    lines.append(f'<polyline points="{poly}" fill="none" stroke="black"/>')
    # curvature comb: offset along the curve normal, taken from the chord
    # of the neighbouring samples (one-sided at the ends of an open curve)
    n = len(pts)
    for i in range(n):
        a, b = i - 1, (i + 1) % n
        if not curve.closed:
            a, b = max(i - 1, 0), min(i + 1, n - 1)
        tang = pts[b] - pts[a]
        nrm = np.array([-tang[1], tang[0]])
        ln = np.linalg.norm(nrm)
        if ln == 0:
            continue
        tip = pts[i] + nrm / ln * (kap[i] / kmax) * span * comb_scale
        x0, y0 = map_pt(pts[i])
        x1, y1 = map_pt(tip)
        lines.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                     f'y2="{y1:.2f}" stroke="crimson" stroke-width="0.5"/>')
    ctrl = " ".join("%.2f,%.2f" % map_pt(p) for p in curve.points)
    lines.append(f'<polyline points="{ctrl}" fill="none" stroke="steelblue" '
                 'stroke-dasharray="4 3"/>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_curve(args):
    if args.samples < 3:
        raise UsageError(f"curve needs --samples of at least 3, got "
                         f"{args.samples}")
    pts = load_points_file(args.input)
    fam = sp.family(args.family)
    need = fam.support if args.closed else fam.support + 1
    if len(pts) < need:
        raise UsageError(f"need at least {need} points, got {len(pts)}")
    alphas = {"uniform": 0.0, "chordal": 1.0, "centripetal": 0.5}
    alpha = alphas[args.param] if args.alpha is None else args.alpha
    curve = sp.PolylineCurve.from_points(pts, fam, alpha=alpha,
                                         closed=args.closed)
    profile = curvature_profile(curve, args.samples)
    stem = args.out or str(Path(args.input).with_suffix(""))
    write_curve_csv(profile, f"{stem}.csv")
    write_curve_svg(curve, profile, f"{stem}.svg")
    changes = count_sign_changes(profile[2])
    print(f"wrote {stem}.csv and {stem}.svg; "
          f"curvature sign changes: {changes}")
    return 0


def section_sign_changes(mesh, chains, params, fam, samples=200):
    """Total curvature sign changes over the closed section curves of the
    chains of qm.section_chains.

    Curves are projected to their best-fit plane, where a signed curvature
    is well defined; open polylines are skipped.
    """
    total = 0
    for verts, halfedges, closed in chains:
        if not closed:
            continue
        pts = mesh.vertices[verts[:-1]]
        knots = np.concatenate([[0.0], np.cumsum(params[halfedges])])
        _u, _s, vt = np.linalg.svd(pts - pts.mean(axis=0),
                                   full_matrices=False)
        flat = sp.PolylineCurve(pts @ vt[:2].T, knots, fam, closed=True)
        lo, hi = flat.domain()
        total += count_sign_changes(sp.signed_curvature(
            flat, np.linspace(lo, hi, samples, endpoint=False)))
    return total


def cmd_compare(args):
    mesh = qm.load_obj(args.input)
    mesh.build_connectivity()
    fam = sp.family(args.family)
    chains = qm.section_chains(mesh)
    results = {}
    tris = {}
    for label, method in (("augmented", "centripetal"), ("mean", "mean")):
        params = qm.assign_edge_params(mesh, method)
        options = sf.BuildOptions(family=fam, mode=args.mode,
                                  param_method=method)
        surf = sf.build_surface(mesh, options, params=params)
        tri = sf.tessellate(surf, args.samples)
        _analysis_fields(surf, tri)
        report = sf.continuity_report(surf)
        curv = tri.channels["mean_curvature"]
        finite = curv[np.isfinite(curv)]
        results[label] = {
            "section_sign_changes": section_sign_changes(mesh, chains,
                                                         params, fam),
            "continuity": report["summary"],
            "mean_curvature": dict.fromkeys(("min", "max")) if not finite.size
            else {"min": float(finite.min()), "max": float(finite.max())},
        }
        tris[label] = tri

    delta = np.linalg.norm(
        tris["augmented"].positions[:len(tris["mean"].positions)]
        - tris["mean"].positions[:len(tris["augmented"].positions)], axis=1) \
        if len(tris["augmented"].positions) == len(tris["mean"].positions) \
        else None
    results["position_delta"] = (
        {"max": float(delta.max()), "mean": float(delta.mean())}
        if delta is not None else None)

    stem = args.out or str(Path(args.input).with_suffix(""))
    for label, tri in tris.items():
        sf.export_ply(tri, f"{stem}.{label}.ply",
                      channels=("mean_curvature", "isophote"))
    with open(f"{stem}.compare.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {stem}.augmented.ply, {stem}.mean.ply, "
          f"{stem}.compare.json")
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = make_parser()
    try:
        _apply_config(subparsers, argv)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    if getattr(args, "mode", None) == "g2" \
            and sp.family(args.family).continuity < 2:
        print(f"error: g2 mode requires a C2 family; {args.family} is not",
              file=sys.stderr)
        return 2
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "curve":
            return cmd_curve(args)
        return cmd_compare(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
