"""The benchmark's own tests: smoke runs, metric names, output checks and
span accounting."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 2   # samples per patch edge in the smoke runs


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return {name: bench.run(name, seed=1, seconds=0, trace=False,
                            samples=TINY, out_root=out, min_ops=1)
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return bench.run("open_ev_grid_g1", seed=2, seconds=0, trace=True,
                     samples=TINY, out_root=out, min_ops=1)


def test_smoke_every_workload(smoke):
    for name, (result, env, _) in smoke.items():
        assert result["correct"], (name, env["errors"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert env["counts"]["faces"] == {"ev_sphere_g2": 96,
                                          "jitter_torus_g2": 96,
                                          "open_ev_grid_g1": 64}[name]


def test_metric_names_match_spec(smoke, traced):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    for result, _, _ in smoke.values():
        assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        assert all(m["value"] > 0 for m in result["metrics"].values())
    result, _, _ = traced
    assert result["correct"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_traced_self_times_add_up_to_build(traced):
    _, _, per_op = traced
    for op in per_op:
        assert op["trace.self_sum_s"] == pytest.approx(op["trace.build_s"],
                                                       rel=1e-9)
        assert op["gregory.eval_calls"] > 0
        assert op["network.plane_fits"] > 0 and op["network.guide_fits"] == 0
        assert op["mesh.phantom_faces"] == 36


def test_output_check_rejects_perturbed_positions(tmp_path):
    workload = WORKLOADS["open_ev_grid_g1"]
    ws = bench.Workspace(bench.import_library(), workload, bench.DEFAULT_SEED,
                         bench.SAMPLES, tmp_path)
    ws.expect(bench.load_reference(workload.name))
    assert ws.run_errors == []
    _, failure = ws.op()
    assert failure is None
    checks.check_op(ws.expected, ws.ply, ws.report)

    lines = ws.ply.read_text(encoding="utf-8").splitlines()
    first = lines.index("end_header") + 1
    x, rest = lines[first].split(" ", 1)
    lines[first] = f"{float(x) + 1e-6:.9g} {rest}"
    ws.ply.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailure, match="PLY vertices differ"):
        checks.check_op(ws.expected, ws.ply, ws.report)

    stored = bench.load_reference(workload.name)["positions"]
    tol = checks.REFERENCE_POSITION_TOL
    assert checks.match_points(ws.tri.positions, stored, tol)[1]
    shifted = ws.tri.positions.copy()
    shifted[7, 2] += 1e-11
    assert not checks.match_points(shifted, stored, tol)[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jitter_torus_g2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
