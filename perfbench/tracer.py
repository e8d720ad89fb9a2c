"""Span tracer for the traced benchmark run.

The package source is not edited: `install` replaces public callables of
the hkflow modules with timing wrappers at every place a caller looks the
name up.  The modules import names directly (`from .util import
format_float`), so a function is rebound in every hkflow module that holds
it, methods are replaced on their class, and the numpy and scipy entry
points hkflow calls (`np.fft.fft`, `np.loadtxt`, `scipy.sparse.linalg.cg`)
are replaced on their modules.  The wrappers return exactly what the
wrapped call returns, so traced runs write the same bytes as untraced ones.

Self time of a span is its duration minus the durations of the spans it
encloses.  Spans are aggregated by name in memory and read out once, when
the run ends.
"""
from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute): module-level functions, rebound wherever
# an hkflow module binds them.
FUNCTIONS = [
    ("cli", "hkflow.cli", "main"),
    ("mesh.tangent_frames", "hkflow.mesh", "mesh_tangent_frames"),
    ("mesh.bnorm", "hkflow.mesh", "mesh_bnorm"),
    ("mesh.mean_curvature", "hkflow.mesh", "mesh_mean_curvature"),
    ("flow.run_mcf", "hkflow.flow", "run_mcf"),
    ("flow.mcf_step", "hkflow.flow", "mcf_step"),
    ("flow.type1_monitor", "hkflow.flow", "type1_monitor"),
    ("curves.run_csf", "hkflow.curves", "run_csf"),
    ("curves.csf_step", "hkflow.curves", "csf_step"),
    ("curves.spectral_derivative", "hkflow.curves", "spectral_derivative"),
    ("curves.b_norm_history", "hkflow.curves", "b_norm_history"),
    ("surfaces.frames", "hkflow.surfaces", "frames"),
    ("surfaces.second_fundamental_form", "hkflow.surfaces",
     "second_fundamental_form"),
    ("phase.phase_differential", "hkflow.phase", "phase_differential"),
    ("phase.phase_sample_exact", "hkflow.phase", "phase_sample_exact"),
    ("phase.degree", "hkflow.phase", "degree"),
    ("phase.euler_numbers", "hkflow.phase", "euler_numbers"),
    ("io.format_float", "hkflow.util", "format_float"),
    ("io.json_dumps", "hkflow.util", "json_dumps"),
    ("io.write_curve_csv", "hkflow.curves", "write_curve_csv"),
    ("io.write_phase_field_csv", "hkflow.phase", "write_phase_field_csv"),
]

# (span name, module, class, attribute): methods, replaced on the class.
METHODS = [
    ("mesh.surface_mesh_init", "hkflow.mesh", "SurfaceMesh", "__post_init__"),
    ("mesh.vertex_neighbors", "hkflow.mesh", "SurfaceMesh",
     "vertex_neighbors"),
    ("mesh.cotangent_matrix", "hkflow.mesh", "SurfaceMesh",
     "cotangent_matrix"),
    ("mesh.mixed_areas", "hkflow.mesh", "SurfaceMesh", "mixed_areas"),
    ("flow.measure", "hkflow.flow", "FlowState", "measure"),
    ("curves.plane_curve_init", "hkflow.curves", "PlaneCurve",
     "__post_init__"),
]


class Tracer:
    """Per-name span aggregates [calls, total_s, self_s] and plain counts."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # one child-time accumulator per open span; the bottom one is the
        # time spent in top-level spans
        self._open = [[0.0]]

    def span(self, name: str, fn):
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                open_spans[-1][0] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - children[0]

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def report(self) -> dict:
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def _hkflow_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "hkflow"
                                  or name.startswith("hkflow."))]


def _rebind(orig, new) -> None:
    for mod in _hkflow_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _wrap_method(tracer: Tracer, name: str, cls, attr: str) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.span(name, raw.__func__)))
    else:
        setattr(cls, attr, tracer.span(name, raw))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap the traced callables; hkflow and hkflow.cli must be imported."""
    import numpy
    import scipy.sparse.linalg as spla

    for name, modname, attr in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        _rebind(orig, tracer.span(name, orig))
    for name, modname, clsname, attr in METHODS:
        _wrap_method(tracer, name, getattr(sys.modules[modname], clsname),
                     attr)

    # every family's jet, TorusFromCurve's (defined in curves) included
    base = sys.modules["hkflow.surfaces"].ParametricSurface
    for cls in [base, *_subclasses(base)]:
        if "jet" in cls.__dict__:
            _wrap_method(tracer, "surfaces.jet", cls, "jet")

    # hkflow.curves reaches the FFT as np.fft.fft / np.fft.ifft
    for attr in ("fft", "ifft"):
        setattr(numpy.fft, attr,
                tracer.counter("curves.fft", getattr(numpy.fft, attr)))

    # the CSV re-read in cmd_phase
    numpy.loadtxt = tracer.span("io.csv_reread", numpy.loadtxt)

    # CG iterations through the callback, which leaves the iterate unchanged
    orig_cg = spla.cg
    tracer.counts["flow.cg.iters"] = 0

    def cg(*args, callback=None, **kwargs):
        def count(xk):
            tracer.counts["flow.cg.iters"] += 1
            if callback is not None:
                callback(xk)
        return orig_cg(*args, callback=count, **kwargs)

    spla.cg = tracer.span("flow.cg", functools.wraps(orig_cg)(cg))
