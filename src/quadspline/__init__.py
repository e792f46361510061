"""Interpolating spline surfaces over quad meshes with per-edge parameters."""

from .errors import (ConstructionError, DegenerateEdgeError, FitError,
                     MeshStructureError, UnsupportedFaceError,
                     UnsupportedMeshError)
from .splines import (D3C1P2S4, D5C2P2S4, FAMILIES, PolylineCurve,
                      SplineFamily, family, fundamental_weights, make_knots)
from .mesh import (QuadMesh, assign_edge_params, classify_faces,
                   extrapolate_boundary_layer, load_obj, save_obj,
                   section_chains)
from .patch import LocalGrid, RegularPatch
from .network import (build_cross_field_chi, build_cross_field_xi,
                      build_missing_boundary_curve, directional_derivs,
                      fit_guide_polynomial, guide_points, planar_angles)
from .gregory import GregoryPatch, hermite_basis
from .surface import (BuildOptions, CompositeSurface, TriangleMesh,
                      analysis_fields, build_surface, continuity_report,
                      export_ply, tessellate)

__version__ = "0.1.0"
