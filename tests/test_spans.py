"""The benchmark's span targets still resolve.

perfbench/spans.py wraps library attributes by name and skips the ones it
cannot find, so a renamed or deleted function would silently zero the
per-layer metric built from its spans.  This pins the attributes that
resolve, so such a change fails here and updates the list on purpose.
"""

import sys
from pathlib import Path
from types import ModuleType

import quadspline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import span_targets  # noqa: E402

RESOLVED = {
    ("quadspline.mesh", "load_obj"),
    ("quadspline.mesh.QuadMesh", "build_connectivity"),
    ("quadspline.mesh", "assign_edge_params"),
    ("quadspline.mesh", "extrapolate_boundary_layer"),
    ("quadspline.mesh", "classify_faces"),
    ("quadspline.patch", "fundamental_weights"),
    ("quadspline.surface", "segment_coefficients"),
    ("quadspline.patch.RegularPatch", "__init__"),
    ("quadspline.patch.RegularPatch", "eval"),
    ("quadspline.network", "fit_guide_polynomial"),
    ("quadspline.network", "fit_common_plane"),
    ("quadspline.network", "build_cross_field_chi"),
    ("quadspline.network", "build_cross_field_xi"),
    ("quadspline.network", "tangent_with_fallback"),
    ("quadspline.gregory.GregoryPatch", "__init__"),
    ("quadspline.gregory.GregoryPatch", "eval"),
    ("quadspline.surface", "build_surface"),
    ("quadspline.surface", "tessellate"),
    ("quadspline.surface", "analysis_fields"),
    ("quadspline.surface", "continuity_report"),
    ("quadspline.surface", "export_ply"),
    ("quadspline.surface", "write_report"),
}


def _name(owner):
    if isinstance(owner, ModuleType):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


def test_span_targets_resolve():
    got = [(_name(owner), attr) for owner, attr, *_ in span_targets(quadspline)]
    assert len(got) == len(set(got))
    assert set(got) == RESOLVED
