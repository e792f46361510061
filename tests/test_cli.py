import json
import re

import numpy as np
import pytest

from conftest import (FIG1_POLYLINE, bowtie_grids, cube_mesh,
                      grid_with_rotated_edge, jittered_torus, l_grid,
                      open_grid, torus_grid)
from quadspline.cli import count_sign_changes, main
from quadspline.mesh import QuadMesh, load_obj, save_obj
from quadspline.splines import PolylineCurve, family
from quadspline.surface import BuildOptions, build_surface, tessellate


def write_points(path, pts):
    with open(path, "w", encoding="utf-8") as fh:
        for p in pts:
            fh.write(f"{p[0]} {p[1]}\n")


@pytest.fixture
def torus_obj(tmp_path):
    path = tmp_path / "torus.obj"
    save_obj(torus_grid(6, 6), path)
    return path


def test_build_happy_path(tmp_path, torus_obj):
    out = tmp_path / "surf.ply"
    rep = tmp_path / "surf.json"
    code = main(["build", str(torus_obj), "--family", "d5c2p2s4",
                 "--mode", "g2", "--param", "centripetal",
                 "--samples", "3", "--out", str(out), "--report", str(rep)])
    assert code == 0
    assert out.exists() and rep.exists()
    report = json.loads(rep.read_text())
    assert report["summary"]["position_gap"]["max"] < 1e-8
    header = out.read_text().splitlines()
    assert "property float mean_curvature" in header
    assert "property float isophote" in header


def test_build_usage_error_exit_2(torus_obj):
    code = main(["build", str(torus_obj), "--mode", "g2",
                 "--family", "d3c1p2s4"])
    assert code == 2


def test_build_mean_on_cube_exit_1(tmp_path):
    path = tmp_path / "cube.obj"
    save_obj(cube_mesh(), path)
    code = main(["build", str(path), "--param", "mean",
                 "--samples", "2"])
    assert code == 1


def test_build_mean_ignores_unused_vertices(tmp_path):
    # an L-shaped grid that keeps the four vertices of its cut-out block
    grid = open_grid(5, 5)
    f = np.arange(len(grid.faces))
    kept = QuadMesh(grid.vertices, grid.faces[(f % 5 < 3) | (f // 5 < 3)])
    path = tmp_path / "l.obj"
    save_obj(kept, path)
    code = main(["build", str(path), "--param", "mean", "--samples", "2",
                 "--out", str(tmp_path / "l.ply")])
    assert code == 0
    options = BuildOptions(param_method="mean")
    got = tessellate(build_surface(kept.build_connectivity(), options), 4)
    want = tessellate(build_surface(l_grid(5, 2).build_connectivity(),
                                    options), 4)
    assert np.array_equal(got.positions, want.positions)


def test_build_missing_file_exit_1(tmp_path):
    code = main(["build", str(tmp_path / "nope.obj")])
    assert code == 1


# records that load_obj cannot read, by line number in the OBJ of
# open_grid(2, 2), whose 9 vertex lines come before its 4 face lines
UNREADABLE = {"coordinate": (5, "v 1 1 x"), "short_vertex": (5, "v 0 0"),
              "face_index": (10, "f 1 2 5 x"), "index_0": (10, "f 0 1 4 3")}


@pytest.mark.parametrize("kind", ["bowtie", "nan", *UNREADABLE])
def test_build_malformed_mesh_exit_1(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.obj"
    save_obj(bowtie_grids() if kind == "bowtie" else open_grid(2, 2), path)
    lineno, record = UNREADABLE.get(kind, (5, "v 1 1 nan"))
    if kind != "bowtie":
        lines = path.read_text().splitlines()
        lines[lineno - 1] = record
        path.write_text("\n".join(lines) + "\n")
    code = main(["build", str(path), "--samples", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    if kind in UNREADABLE:
        assert f"{path}:{lineno}: " in err


def test_build_face_index_past_the_last_vertex_exit_1(tmp_path, capsys):
    # one quad over four vertices, whose last corner is vertex 9
    path = tmp_path / "past.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 9\n")
    code = main(["build", str(path), "--samples", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}:5: face 0 references vertex 9, but the file has 4 "
        "vertices\n")


@pytest.mark.parametrize("alpha", ["nan", "3", "-1"])
def test_build_alpha_outside_unit_interval_exit_1(capfd, torus_obj, alpha):
    code = main(["build", str(torus_obj), "--alpha", alpha, "--samples", "2",
                 "--out", str(torus_obj.with_suffix(".ply"))])
    out, err = capfd.readouterr()
    assert code == 1
    assert err == "error: alpha must lie in [0, 1]\n"
    assert "DLASCL" not in out + err


def test_build_mesh_without_faces_exit_1(tmp_path, capsys):
    path = tmp_path / "points.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n", encoding="utf-8")
    code = main(["build", str(path), "--samples", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: mesh has no faces\n"


@pytest.mark.parametrize("flags, code", [
    (["--mode", "g2"], 1),
    (["--mode", "g1", "--family", "d3c1p2s4"], 0)], ids=["g2", "g1_d3"])
def test_build_thin_fan_fails_instead_of_welding_garbage(tmp_path, capsys,
                                                         flags, code):
    # 8 x 8e-9: the G2 network overshoots on this anisotropic fan until
    # some samples lie beyond 2^62 weld tolerances (near 1.4e16 at most);
    # g1 stays on the plane
    mesh = grid_with_rotated_edge()
    vertices = mesh.vertices * [1.0, 1e-9, 1.0]
    path = tmp_path / "thin.obj"
    save_obj(QuadMesh(vertices, mesh.faces), path)
    out = tmp_path / "thin.ply"
    assert main(["build", str(path), *flags, "--samples", "4",
                 "--out", str(out), "--report",
                 str(tmp_path / "thin.json")]) == code
    err = capsys.readouterr().err
    if code:
        assert re.fullmatch(r"error: face \d+ evaluates to \[.*\], which "
                            r"cannot be welded at tolerance 1e-08\n", err)
        assert not out.exists()
    else:
        assert out.exists()


# one quad on a line: every sample has a degenerate normal
COLLINEAR_QUAD = "v 0 0 0\nv 1 0 0\nv 2 0 0\nv 3 0 0\nf 1 2 3 4\n"


def test_build_warns_of_nan_channels(tmp_path, capsys):
    path = tmp_path / "line.obj"
    path.write_text(COLLINEAR_QUAD, encoding="utf-8")
    code = main(["build", str(path), "--samples", "2"])
    err = capsys.readouterr().err
    assert code == 0
    assert err == ("warning: 9 of 9 samples have a degenerate normal; "
                   "their channels are NaN\n")
    assert "nan" in (tmp_path / "line.ply").read_text()


@pytest.mark.parametrize("n", [2, 4])
def test_folded_quad_tessellates_without_degenerate_triangles(tmp_path, n):
    # the quad folds onto its line, so distinct samples coincide in space;
    # welding by topology keeps all (n + 1)^2 of them apart
    path = tmp_path / "line.obj"
    path.write_text(COLLINEAR_QUAD, encoding="utf-8")
    tri = tessellate(build_surface(load_obj(path).build_connectivity()), n)
    assert len(tri.positions) == (n + 1) ** 2
    t = np.sort(tri.triangles, axis=1)
    assert (t[:, 1:] != t[:, :-1]).all()


def test_compare_without_finite_curvature_writes_null(tmp_path, capsys):
    path = tmp_path / "line.obj"
    path.write_text(COLLINEAR_QUAD, encoding="utf-8")
    code = main(["compare", str(path), "--samples", "2",
                 "--out", str(tmp_path / "cmp")])
    err = capsys.readouterr().err
    assert code == 0
    assert err.startswith("warning: 9 of 9 samples")
    results = json.loads((tmp_path / "cmp.compare.json").read_text())
    for label in ("augmented", "mean"):
        assert results[label]["mean_curvature"] == {"min": None, "max": None}


def test_build_bad_flag_exit_2(torus_obj):
    code = main(["build", str(torus_obj), "--param", "bogus"])
    assert code == 2


def test_build_determinism(tmp_path, torus_obj):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.ply"
        rep = tmp_path / f"{tag}.json"
        assert main(["build", str(torus_obj), "--samples", "3",
                     "--out", str(out), "--report", str(rep)]) == 0
        outs.append((out.read_bytes(), rep.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_build_config_file(tmp_path, torus_obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 2, "mode": "g1",
                               "family": "d3c1p2s4"}))
    out = tmp_path / "out.ply"
    code = main(["build", str(torus_obj), "--config", str(cfg),
                 "--out", str(out),
                 "--report", str(tmp_path / "r.json")])
    assert code == 0
    # flags win over config
    code = main(["build", str(torus_obj), "--config", str(cfg),
                 "--samples", "3", "--out", str(out),
                 "--report", str(tmp_path / "r.json")])
    assert code == 0
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["build", str(torus_obj), "--config", str(cfg)]) == 2


def test_build_config_equals_form(tmp_path, torus_obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1}))
    plys = []
    for flags in (["--config=" + str(cfg)], ["--samples", "1"]):
        out = tmp_path / f"{len(plys)}.ply"
        assert main(["build", str(torus_obj), *flags, "--out", str(out),
                     "--report", str(tmp_path / "r.json")]) == 0
        plys.append(out.read_bytes())
    assert plys[0] == plys[1]


@pytest.mark.parametrize("form", ["split", "equals"])
@pytest.mark.parametrize("cfg", [{"family": "xyz"}, {"samples": 2.5},
                                 {"mode": "g3"}, {"r_degree": 5},
                                 {"out": ["a.ply"]}],
                         ids=["family", "samples", "mode", "r_degree", "out"])
def test_build_bad_config_value_is_a_usage_error(tmp_path, capsys, cfg,
                                                 form):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    flag = ["--config", str(path)] if form == "split" \
        else ["--config=" + str(path)]
    # the input does not exist: exit 2 rather than 1 shows that the value
    # was refused before any work
    code = main(["build", str(tmp_path / "missing.obj"), *flag])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert next(iter(cfg)) in err


@pytest.mark.parametrize("argv", [
    ["build", "--samples", "0"], ["compare", "--samples", "0"],
    ["curve", "--samples", "0"], ["build", "--samples", "-2"],
    ["build", "--config", "CFG"]],
    ids=["build", "compare", "curve", "negative", "config"])
def test_samples_below_one_is_a_usage_error(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 0}))
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    # the input does not exist: exit 2 rather than 1 shows that the value
    # was refused before any input was read
    code = main([argv[0], str(tmp_path / "missing.obj"), *argv[1:]])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert code == 2
    assert len(errors) == 1 and "samples" in errors[0]


@pytest.mark.parametrize("samples", ["1", "2"])
def test_curve_samples_below_three_is_a_usage_error(tmp_path, capsys,
                                                    samples):
    # the input does not exist: exit 2 rather than 1 shows that the value
    # was refused before the points file was read
    code = main(["curve", str(tmp_path / "missing.txt"), "--samples",
                 samples])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert code == 2
    assert len(errors) == 1 and "samples" in errors[0]


@pytest.mark.parametrize("content", ["5", "[1, 2]", "null"])
def test_build_non_object_config_exit_2(tmp_path, capsys, torus_obj,
                                        content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code = main(["build", str(torus_obj), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "JSON object" in err


def test_curve_square_symmetry(tmp_path):
    pts_file = tmp_path / "square.txt"
    write_points(pts_file, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    code = main(["curve", str(pts_file), "--param", "centripetal",
                 "--samples", "40", "--out", str(tmp_path / "sq")])
    assert code == 0
    rows = (tmp_path / "sq.csv").read_text().splitlines()
    assert rows[0] == "x,px,py,curvature"
    assert len(rows) - 1 == 40
    data = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
    pts = data[:, 1:3]
    kappa = data[:, 3]
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    # 40 samples over 4 equal intervals: sample i + 10 is the quarter-turn
    # image of sample i, and the curvature profile repeats
    for i in range(10):
        assert np.allclose(rot @ pts[i], pts[i + 10], atol=1e-12)
        assert kappa[i] == pytest.approx(kappa[i + 10], abs=1e-9)
    assert (tmp_path / "sq.svg").exists()


@pytest.mark.parametrize("closed", [True, False])
def test_curve_non_finite_point_exit_1(tmp_path, capsys, closed):
    pts_file = tmp_path / "nan.txt"
    write_points(pts_file, [(0, 0), (1, 0), (2, 1), (1, 2), (0, 2), (-1, 1)])
    lines = pts_file.read_text().splitlines()
    lines[3] = "nan 2"
    pts_file.write_text("\n".join(lines) + "\n")
    argv = ["curve", str(pts_file), "--out", str(tmp_path / "nan")]
    code = main(argv + ([] if closed else ["--open"]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "nan.csv").exists()


def test_curve_one_number_line_exit_1(tmp_path, capsys):
    pts_file = tmp_path / "short.txt"
    write_points(pts_file, [(0, 0), (1, 0), (2, 1), (1, 2), (0, 2), (-1, 1)])
    lines = pts_file.read_text().splitlines()
    lines[2] = "3"
    pts_file.write_text("\n".join(lines) + "\n")
    code = main(["curve", str(pts_file), "--out", str(tmp_path / "short")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and ":3:" in err
    assert not (tmp_path / "short.csv").exists()


def test_curve_non_numeric_coordinate_exit_1(tmp_path, capsys):
    pts_file = tmp_path / "word.txt"
    pts_file.write_text("0 0\n1 x\n2 1\n1 2\n")
    code = main(["curve", str(pts_file), "--out", str(tmp_path / "word")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {pts_file}:2: expected 'x y', got '1 x'\n")
    assert not (tmp_path / "word.csv").exists()


def test_curve_closing_repeat_names_the_first_point(tmp_path, capsys):
    pts_file = tmp_path / "loop.txt"
    write_points(pts_file, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    code = main(["curve", str(pts_file), "--out", str(tmp_path / "loop")])
    assert code == 1
    assert capsys.readouterr().err == "error: points 4 and 0 coincide\n"


def test_open_curve_comb_ends_are_normal_to_the_curve(tmp_path):
    """The first and last tooth of an open curve's curvature comb lie within
    2 degrees of the curve normal at the ends of its domain.  Their one-sided
    chords span one of 49 sample steps; a chord wrapped round to the other
    end tilted both by 74 degrees."""
    pts = [(x, x * x) for x in np.linspace(-2.0, 2.0, 9)]
    pts_file = tmp_path / "parabola.txt"
    write_points(pts_file, pts)
    assert main(["curve", str(pts_file), "--open", "--samples", "50",
                 "--out", str(tmp_path / "parabola")]) == 0
    teeth = [line for line in (tmp_path / "parabola.svg").read_text()
             .splitlines() if line.startswith("<line")]
    assert len(teeth) == 50
    curve = PolylineCurve.from_points(pts, family("d5c2p2s4"))
    for tooth, x in zip((teeth[0], teeth[-1]), curve.domain()):
        x1, y1, x2, y2 = map(float, re.findall(r'"(-?[0-9.]+)"', tooth)[:4])
        # the SVG's y axis points down
        direction = np.array([x2 - x1, y1 - y2])
        tangent = curve.eval(x, 1)
        cos = abs(direction @ tangent) / (np.linalg.norm(direction)
                                          * np.linalg.norm(tangent))
        assert np.degrees(np.arcsin(cos)) < 2.0


def test_curve_too_few_points_is_usage_error(tmp_path):
    pts_file = tmp_path / "two.txt"
    write_points(pts_file, [(0, 0), (1, 0)])
    assert main(["curve", str(pts_file)]) == 2


def test_curve_centripetal_no_worse_than_uniform(tmp_path):
    pts_file = tmp_path / "fig1.txt"
    write_points(pts_file, FIG1_POLYLINE)
    counts = {}
    for param in ("uniform", "centripetal"):
        out = tmp_path / param
        assert main(["curve", str(pts_file), "--param", param,
                     "--samples", "400", "--out", str(out)]) == 0
        rows = (out.with_suffix(".csv")).read_text().splitlines()[1:]
        kappa = [float(r.split(",")[3]) for r in rows]
        counts[param] = count_sign_changes(kappa)
    assert counts["centripetal"] <= counts["uniform"]
    assert counts["centripetal"] < counts["uniform"]  # strict on this data


def test_compare_uniform_grid_surfaces_coincide(tmp_path):
    path = tmp_path / "grid.obj"
    save_obj(open_grid(4, 4), path)
    code = main(["compare", str(path), "--samples", "3",
                 "--out", str(tmp_path / "cmp")])
    assert code == 0
    results = json.loads((tmp_path / "cmp.compare.json").read_text())
    assert results["position_delta"]["max"] < 1e-10
    assert set(results["augmented"]) == {"section_sign_changes",
                                         "continuity", "mean_curvature"}


def test_compare_rejects_extraordinary(tmp_path):
    path = tmp_path / "cube.obj"
    save_obj(cube_mesh(), path)
    assert main(["compare", str(path)]) == 1


def test_compare_uneven_torus_wiggle_ordering(tmp_path):
    path = tmp_path / "jt.obj"
    save_obj(jittered_torus(), path)
    code = main(["compare", str(path), "--samples", "2",
                 "--out", str(tmp_path / "jt")])
    assert code == 0
    results = json.loads((tmp_path / "jt.compare.json").read_text())
    aug = results["augmented"]["section_sign_changes"]
    mean = results["mean"]["section_sign_changes"]
    assert aug <= mean
    assert aug < mean  # strict on this mesh
    assert results["augmented"]["continuity"]["position_gap"]["max"] < 1e-8
    assert results["mean"]["continuity"]["position_gap"]["max"] < 1e-8
    assert (tmp_path / "jt.augmented.ply").exists()
    assert (tmp_path / "jt.mean.ply").exists()


def test_count_sign_changes():
    assert count_sign_changes([1.0, 2.0, -1.0, 3.0]) == 2
    assert count_sign_changes([1.0, 1e-15, -1.0]) == 1
    assert count_sign_changes([0.0, 0.0]) == 0
    assert count_sign_changes([1.0, 1.0]) == 0
