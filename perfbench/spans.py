"""Spans around calls into each quadspline module, installed at run time.

A span records a name, start, end, parent span and op id.  Spans live in
flat arrays while the run lasts and are written out when it ends.  The
wrappers replace the attribute that callers actually look up: a class
attribute for methods, and the calling module's own global where a module
imported a function by name (``patch`` imports ``fundamental_weights``;
``surface`` imports ``segment_coefficients`` and ``_endpoint_cross_deriv``).
"""

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _points(args):
    """Number of (u, v) points of an eval call: 1 for scalars, else the
    size of the u argument, so a batched eval counts every point."""
    return int(np.size(args[1]))


def _grid_face(args):
    return int(args[1].face)


def span_targets(qs):
    """(owner, attribute, span name, info) for every wrapped call site.

    info, when given, maps the call's arguments to an integer stored with
    the span.
    """
    mesh, splines, patch, network, gregory, surface = (
        qs.mesh, qs.splines, qs.patch, qs.network, qs.gregory, qs.surface)
    targets = [
        (mesh, "load_obj", "mesh.load_obj", None),
        (mesh.QuadMesh, "build_connectivity", "mesh.connectivity", None),
        (mesh, "assign_edge_params", "mesh.params", None),
        (mesh, "extrapolate_boundary_layer", "mesh.extrapolate", None),
        (mesh, "classify_faces", "mesh.classify", None),
        (mesh, "extract_local_grid", "mesh.grid_extract", None),
        (patch, "fundamental_weights", "splines.weights", None),
        (patch, "segment_coefficients", "splines.segment_coeff", None),
        (surface, "segment_coefficients", "splines.segment_coeff", None),
        (patch.RegularPatch, "__init__", "patch.construct", _grid_face),
        (patch.RegularPatch, "eval", "patch.eval", _points),
        (patch.RegularPatch, "eval_boundary", "patch.boundary", None),
        (patch.RegularPatch, "cross_field", "patch.boundary", None),
        (surface, "_endpoint_cross_deriv", "patch.boundary", None),
        (network, "fit_guide_polynomial", "network.guide_fit", None),
        (network, "fit_common_plane", "network.plane_fit", None),
        (network, "build_cross_field_chi", "network.cross_field", None),
        (network, "build_cross_field_xi", "network.cross_field", None),
        (network, "tangent_with_fallback", "network.tangent", None),
        (gregory.GregoryPatch, "__init__", "gregory.construct", None),
        (gregory.GregoryPatch, "eval", "gregory.eval", _points),
        (surface, "build_surface", "surface.build", None),
        (surface, "tessellate", "surface.tessellate", None),
        (surface, "analysis_fields", "surface.analysis", None),
        (surface, "continuity_report", "surface.report", None),
        (surface, "export_ply", "surface.export", None),
        (surface, "write_report", "surface.export", None),
    ]
    return [t for t in targets if hasattr(t[0], t[1])]


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("h")
        self.info = array("i")
        self._stack = []
        self.current_op = -1
        self.op_ranges = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, info):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.info.append(info)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name, op):
        """The root span of op; the op's spans are kept in op_ranges as the
        index range they occupy."""
        self.current_op = op
        idx = self._open(self._name_id(name), 0)
        try:
            yield
        finally:
            self._close(idx)
            self.op_ranges.append((idx, len(self.start)))

    def wrap(self, fn, name, info=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid, info(args) if info else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return traced

    @contextmanager
    def installed(self, targets):
        """Replace every target attribute by its traced wrapper."""
        saved = []
        try:
            for owner, attr, name, info in targets:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                saved.append((owner, attr, original, own))
                setattr(owner, attr, self.wrap(original, name, info))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- aggregation ---------------------------------------------------------
    def arrays(self, lo, hi):
        """Spans lo..hi-1 as numpy arrays, parents indexed within the slice;
        self time is the duration minus that of the direct children."""
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        parent = np.array(self.parent[lo:hi], np.int64) - lo
        parent[parent < 0] = -1
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.array(self.name[lo:hi]), "dur": dur,
                "self": dur - child, "parent": parent,
                "info": np.array(self.info[lo:hi])}

    def phase_of(self, parent, name, phases):
        """For every span, the name id of its nearest ancestor-or-self span
        whose name is in phases, or -1."""
        ids = [self._name_ids[p] for p in phases if p in self._name_ids]
        out = np.where(np.isin(name, ids), name, -1)
        up = parent.copy()
        todo = (out < 0) & (up >= 0)
        while todo.any():   # one nesting level per pass
            out[todo] = out[up[todo]]
            up[todo] = parent[up[todo]]
            todo &= (out < 0) & (up >= 0)
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **{
            key: np.frombuffer(getattr(self, key), dtype=getattr(self, key)
                               .typecode)
            for key in ("name", "start", "end", "parent", "op", "info")})
