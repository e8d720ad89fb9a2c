"""Surface geometry in flat hyperkaehler R^4.

Quaternionic structure triples, the sphere-valued phase map of a surface
with its differential identities, mean curvature flow for triangle meshes
and for equivariant Lagrangian tori (reduced to a plane-curve flow), soliton
residuals and Type-I blow-up monitoring.
"""
from .structure import StructureTriple, standard_structure
from .surfaces import (Cylinder, FrameData, GrimReaper, NumericalJetSurface,
                       ParametricSurface, Plane, QuadraticGraph, Sphere,
                       SurfaceJet, frames, mean_curvature, normal_projection,
                       second_fundamental_form, tangential_projection)
from .phase import (ContainmentReport, PhaseSample, SphereChart,
                    arc_distance, chart, closed_invariants, containment_margin,
                    coupling_residual, curvature_form, degree, energy_split,
                    euler_numbers, gauss_normal_curvatures, phase_differential,
                    phase_sample_exact, tension, write_phase_field_csv)
from .mesh import (SurfaceMesh, flat_square, grid_torus_mesh, icosphere,
                   mesh_bnorm, mesh_mean_curvature, mesh_tangent_frames,
                   read_off4, write_off4)
from .flow import (FlowHistory, FlowState, PhaseEvolutionReport, Type1Report,
                   mcf_step, parabolic_rescale, phase_evolution_check,
                   run_mcf, shrinker_radius_by_bisection, shrinker_residual,
                   shrinker_residual_of_family, translator_residual,
                   type1_monitor)
from .curves import (CurveDiagnostics, CurveFlowResult, PlaneCurve,
                     TorusFromCurve, b_norm_history, csf_step,
                     curvature_vector, diagnostics, embed_torus, run_csf,
                     spectral_derivative, torus_area, torus_bnorm2,
                     winding_number, write_curve_csv)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "StructureTriple", "standard_structure",
    "SurfaceJet", "FrameData", "frames", "second_fundamental_form",
    "mean_curvature", "tangential_projection", "normal_projection",
    "ParametricSurface", "Plane", "Cylinder", "Sphere", "GrimReaper",
    "QuadraticGraph", "NumericalJetSurface",
    "PhaseSample", "SphereChart", "ContainmentReport",
    "phase_differential", "phase_sample_exact", "curvature_form",
    "energy_split", "gauss_normal_curvatures", "coupling_residual",
    "tension", "closed_invariants", "degree", "euler_numbers", "chart",
    "arc_distance", "containment_margin", "write_phase_field_csv",
    "SurfaceMesh", "icosphere", "flat_square", "grid_torus_mesh",
    "mesh_mean_curvature", "mesh_tangent_frames", "mesh_bnorm",
    "read_off4", "write_off4",
    "FlowState", "FlowHistory", "Type1Report", "PhaseEvolutionReport",
    "mcf_step", "run_mcf", "shrinker_residual",
    "shrinker_residual_of_family", "shrinker_radius_by_bisection",
    "translator_residual", "type1_monitor", "parabolic_rescale",
    "phase_evolution_check",
    "PlaneCurve", "CurveFlowResult", "CurveDiagnostics", "TorusFromCurve",
    "spectral_derivative", "curvature_vector", "csf_step", "run_csf",
    "winding_number", "diagnostics",
    "embed_torus", "torus_bnorm2", "torus_area", "b_norm_history",
    "write_curve_csv",
    "errors",
]
