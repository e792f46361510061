"""The library runs on numpy alone, and exports a pinned set of names.

pyproject.toml declares numpy as the only runtime dependency; scipy, sympy
and hypothesis are test extras.  Every quadspline module must import with
them blocked.  EXPORTS lists the names that quadspline/__init__.py exports,
so a change that adds or drops one edits this list on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import quadspline

EXPORTS = {
    "BuildOptions", "CompositeSurface", "ConstructionError", "D3C1P2S4",
    "D5C2P2S4", "DegenerateEdgeError", "FAMILIES", "FitError",
    "GregoryPatch", "LocalGrid", "MeshStructureError", "PolylineCurve",
    "QuadMesh", "RegularPatch", "SplineFamily", "TriangleMesh",
    "UnsupportedFaceError", "UnsupportedMeshError", "analysis_fields",
    "assign_edge_params", "build_cross_field_chi", "build_cross_field_xi",
    "build_missing_boundary_curve", "build_surface", "classify_faces",
    "continuity_report", "directional_derivs", "export_ply",
    "extrapolate_boundary_layer", "family",
    "fit_guide_polynomial", "fundamental_weights", "guide_points",
    "hermite_basis", "load_obj", "make_knots", "planar_angles", "save_obj",
    "section_chains", "tessellate",
}

BLOCK_EXTRAS = """
import importlib, pkgutil, sys
for name in ("scipy", "sympy", "hypothesis"):
    sys.modules[name] = None   # any import of it raises ImportError
import quadspline
for module in pkgutil.iter_modules(quadspline.__path__):
    importlib.import_module("quadspline." + module.name)
"""


def test_library_imports_without_test_extras():
    src = str(Path(quadspline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", BLOCK_EXTRAS], env=env, check=True,
                   timeout=60)


def test_exports_are_pinned():
    names = {name for name, value in vars(quadspline).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == EXPORTS
