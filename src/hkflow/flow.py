"""Mean curvature flow on meshes, soliton residuals, blow-up monitoring.

The time steppers move raw vertex positions with the cotangent mean
curvature; statistics (max |B|, max |H|, area, phase containment margin) are
measured fresh on every emitted state, so scaling laws in the tests are
observed rather than assumed.  The Type-I monitor fits the blow-up time from
a 1/max|B|^2 regression, and parabolic rescaling reproduces the standard
zoom-in normalization around a chosen space-time point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (InsufficientHistory, NotBlowingUp, SolveFailure,
                     StabilityViolation)
from .mesh import (SurfaceMesh, mesh_bnorm, mesh_mean_curvature,
                   mesh_tangent_frames, write_off4)
from .phase import arc_distance, tension
from .structure import StructureTriple, standard_structure
from .surfaces import (ParametricSurface, frames, mean_curvature,
                       normal_projection)
from .util import json_dumps


@dataclass
class FlowState:
    """One time slice of a mesh flow with measured statistics.

    cot_matrix and mixed_areas are the operators of mesh that measure
    assembled for |H|; the next step solves with them instead of building
    them again.
    """

    t: float
    mesh: SurfaceMesh
    max_b: float
    max_h: float
    area: float
    margin: float
    cot_matrix: sp.csr_matrix = field(repr=False, compare=False)
    mixed_areas: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def measure(cls, mesh: SurfaceMesh, t: float) -> "FlowState":
        w = mesh.cotangent_matrix()
        areas = mesh.mixed_areas()
        h, valid = mesh_mean_curvature(mesh, w, areas)
        max_h = float(np.nanmax(np.linalg.norm(h[valid], axis=1))) if valid.any() else 0.0
        fr = mesh_tangent_frames(mesh)
        b = mesh_bnorm(mesh, fr)
        max_b = float(np.nanmax(b)) if np.any(np.isfinite(b)) else 0.0
        margin = float(np.min(arc_distance(fr[4])))
        return cls(t=t, mesh=mesh, max_b=max_b, max_h=max_h,
                   area=mesh.area(), margin=margin, cot_matrix=w,
                   mixed_areas=areas)

    def record(self) -> dict:
        return {"t": self.t, "max_B": self.max_b, "max_H": self.max_h,
                "area": self.area, "margin": self.margin}


@dataclass
class FlowHistory:
    """Trajectory summary: times, max |B|, areas, and truncation status."""

    t: np.ndarray
    max_b: np.ndarray
    area: np.ndarray
    truncated: bool = False
    states: list = field(default_factory=list)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("history times must be strictly increasing")


def _advance_vertices(state: FlowState, dt: float, scheme: str,
                      stability_c: float = 0.25) -> np.ndarray:
    """New vertex positions after one step from state, using the cotangent
    matrix and mixed areas that its measurement assembled."""
    mesh = state.mesh
    if scheme == "explicit":
        h_min = mesh.min_edge_length()
        if dt > stability_c * h_min * h_min:
            raise StabilityViolation(
                f"explicit dt={dt:g} exceeds {stability_c:g}*h_min^2="
                f"{stability_c * h_min * h_min:g}")
        h, valid = mesh_mean_curvature(mesh, state.cot_matrix,
                                       state.mixed_areas)
        disp = np.where(valid[:, None], h, 0.0)
        return mesh.vertices + dt * disp
    if scheme != "semi-implicit":
        raise ValueError(f"unknown scheme {scheme!r}")

    m = sp.diags(state.mixed_areas)
    a = (m - dt * state.cot_matrix).tocsr()
    rhs = m @ mesh.vertices
    x0 = mesh.vertices
    bdry = mesh.boundary_vertex_mask
    if bdry.any():
        # pin boundary vertices: identity rows, move their columns to the rhs
        keep = ~bdry
        rhs = rhs[keep] - a[keep][:, bdry] @ mesh.vertices[bdry]
        a = a[keep][:, keep]
        x0 = x0[keep]
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolveFailure("implicit operator lost positivity")
    precond = sp.diags(1.0 / diag)
    out = np.empty_like(x0)
    for k in range(4):
        sol, info = spla.cg(a, rhs[:, k], x0=x0[:, k], M=precond,
                            rtol=1e-10, atol=0.0, maxiter=10000)
        if info != 0:
            raise SolveFailure(f"conjugate gradient failed (info={info})")
        out[:, k] = sol
    if bdry.any():
        full = mesh.vertices.copy()
        full[~bdry] = out
        return full
    return out


def mcf_step(state: FlowState, dt: float,
             scheme: str = "semi-implicit") -> FlowState:
    """Advance the mesh by one step of mean curvature motion."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    verts = _advance_vertices(state, dt, scheme)
    return FlowState.measure(state.mesh.with_vertices(verts), state.t + dt)


def run_mcf(mesh: SurfaceMesh, dt: float, t_end: float,
            scheme: str = "semi-implicit", log_path=None,
            checkpoint_every: int = 0, checkpoint_dir=None,
            keep_states: bool = False) -> FlowHistory:
    """Run the flow to t_end, logging one JSON record per emitted state.

    Stops early (and marks the history truncated) once max|B| * h_min
    exceeds 0.5: beyond that the discrete curvature is under-resolved.
    """
    state = FlowState.measure(mesh, 0.0)
    records = [state.record()]
    states = [state]
    n_steps = int(round(t_end / dt))
    truncated = False
    for k in range(n_steps):
        if state.max_b * state.mesh.min_edge_length() > 0.5:
            truncated = True
            break
        state = mcf_step(state, dt, scheme)
        records.append(state.record())
        if keep_states:
            states.append(state)
        if checkpoint_every and checkpoint_dir is not None \
                and (k + 1) % checkpoint_every == 0:
            write_off4(state.mesh, f"{checkpoint_dir}/checkpoint_{k + 1:06d}.off")
    if log_path is not None:
        with open(log_path, "w") as fh:
            for rec in records:
                fh.write(json_dumps(rec) + "\n")
    hist = FlowHistory(
        t=np.array([r["t"] for r in records]),
        max_b=np.array([r["max_B"] for r in records]),
        area=np.array([r["area"] for r in records]),
        truncated=truncated,
        states=states if keep_states else [states[0], state],
    )
    return hist


# ---------------------------------------------------------------------------
# Soliton residuals
# ---------------------------------------------------------------------------

def shrinker_residual(x, fr, h_vec) -> float:
    """max |H + X^perp / 2| over the samples: zero exactly on self-shrinkers."""
    xperp = normal_projection(fr, np.asarray(x, dtype=float))
    return float(np.max(np.linalg.norm(h_vec + 0.5 * xperp, axis=-1)))


def translator_residual(fr, h_vec, v0) -> float:
    """Deviation from the translator equation H = V0^perp.

    The sign convention is pinned by the grim reaper moving along +x3: a
    graph translating with unit velocity V0 satisfies H = V0^perp, and this
    residual vanishes on it.
    """
    v0 = np.asarray(v0, dtype=float)
    if abs(np.linalg.norm(v0) - 1.0) > 1e-12:
        raise ValueError("V0 must be a unit vector")
    vperp = normal_projection(fr, np.broadcast_to(v0, np.shape(h_vec)))
    return float(np.max(np.linalg.norm(h_vec - vperp, axis=-1)))


def shrinker_residual_of_family(family: ParametricSurface, n: int = 24,
                                s: StructureTriple | None = None) -> float:
    """Shrinker residual sampled on an n x n parameter grid."""
    if s is None:
        s = standard_structure()
    (u0, u1), (v0, v1) = family.domain
    u0, u1 = max(u0, -4 * family.scale), min(u1, 4 * family.scale)
    v0, v1 = max(v0, -4 * family.scale), min(v1, 4 * family.scale)
    uu = u0 + (np.arange(n) + 0.5) * (u1 - u0) / n
    vv = v0 + (np.arange(n) + 0.5) * (v1 - v0) / n
    ug, vg = np.meshgrid(uu, vv, indexing="ij")
    jet = family.jet(ug, vg)
    fr = frames(jet, s)
    h = mean_curvature(jet, fr)
    return shrinker_residual(jet.x, fr, h)


def shrinker_radius_by_bisection(make_family, lo: float = 1.0, hi: float = 2.0,
                                 tol: float = 1e-12) -> float:
    """Root of the signed shrinker defect over a radius family.

    make_family(r) must return a ParametricSurface whose outward normal is
    well defined at the probe point; the signed defect <H + X^perp/2, nu>
    changes sign across the shrinking radius.
    """

    def signed(r: float) -> float:
        family = make_family(r)
        jet = family.jet(0.0, 0.1)
        fr = frames(jet)
        h = mean_curvature(jet, fr)
        xperp = normal_projection(fr, jet.x)
        nu_out = xperp / max(np.linalg.norm(xperp), 1e-300)
        return float(np.dot(h + 0.5 * xperp, nu_out))

    f_lo, f_hi = signed(lo), signed(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = signed(mid)
        if f_mid == 0.0 or hi - lo < tol:
            return mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Type-I monitoring and parabolic rescaling
# ---------------------------------------------------------------------------

@dataclass
class Type1Report:
    t_est: float
    ci_halfwidth: float
    sup_rescaled: float


def type1_monitor(history: FlowHistory, tail_frac: float = 0.4) -> Type1Report:
    """Blow-up time estimate from the Type-I model.

    Fits 1/max|B|^2 linearly against t on the trailing tail_frac of the
    history (the model is asymptotic); the fitted zero crossing is T_est.
    The returned sup is max over the tail of sqrt(T_est - t) * max|B|.
    """
    t = np.asarray(history.t, dtype=float)
    b = np.asarray(history.max_b, dtype=float)
    if len(t) < 5:
        raise InsufficientHistory(f"need at least 5 history points, got {len(t)}")
    n_tail = max(2, int(math.ceil(tail_frac * len(t))))
    tt, bb = t[-n_tail:], b[-n_tail:]
    y = 1.0 / (bb * bb)
    a_mat = np.stack([np.ones_like(tt), tt], axis=1)
    coef, res, rank, _sv = np.linalg.lstsq(a_mat, y, rcond=None)
    alpha, beta = coef
    if beta >= 0 or b[-1] <= b[0]:
        raise NotBlowingUp("max|B| is not increasing along the history")
    t_est = -alpha / beta
    dof = len(tt) - 2
    if dof > 0:
        resid = y - a_mat @ coef
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(a_mat.T @ a_mat)
        grad = np.array([-1.0 / beta, alpha / (beta * beta)])
        var_t = float(grad @ cov @ grad)
        ci = 1.96 * math.sqrt(max(var_t, 0.0))
    else:
        ci = 0.0
    gap = np.maximum(t_est - tt, 0.0)
    sup = float(np.max(np.sqrt(gap) * bb))
    return Type1Report(t_est=float(t_est), ci_halfwidth=ci, sup_rescaled=sup)


def blowup_point(state: FlowState) -> tuple[int, np.ndarray]:
    """First vertex (in index order) attaining max|B|, and its position."""
    b = mesh_bnorm(state.mesh)
    idx = int(np.nanargmax(b))
    return idx, state.mesh.vertices[idx].copy()


def parabolic_rescale(state: FlowState, eps: float, q, t_k: float) -> FlowState:
    """Zoom-in normalization X -> eps (X - q), t -> eps^2 (t - t_k).

    Statistics of the output are measured on the rescaled mesh, so the
    |B| -> |B|/eps scaling law is observed, not imputed.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = np.asarray(q, dtype=float)
    verts = eps * (state.mesh.vertices - q)
    return FlowState.measure(state.mesh.with_vertices(verts),
                             eps * eps * (state.t - t_k))


# ---------------------------------------------------------------------------
# Phase evolution along a flow of parametric states
# ---------------------------------------------------------------------------

@dataclass
class PhaseEvolutionReport:
    residual: float
    times: np.ndarray
    per_snapshot: np.ndarray


def phase_evolution_check(states, u, v,
                          s: StructureTriple | None = None) -> PhaseEvolutionReport:
    """Residual of d(lambda)/dt = tau along a trajectory of surfaces.

    states is a sequence of (t, family) with uniform time spacing; the time
    derivative of the phase is taken by a centered five-point stencil when
    enough snapshots exist (three-point otherwise), and tau is evaluated on
    the middle snapshot.  Both sides are independent discretizations, so the
    maximum residual converges under refinement of the trajectory.
    """
    if len(states) < 3:
        raise InsufficientHistory("need at least 3 time levels")
    if s is None:
        s = standard_structure()
    times = np.array([t for t, _ in states], dtype=float)
    steps = np.diff(times)
    delta = steps[0]
    if np.max(np.abs(steps - delta)) > 1e-9 * max(abs(delta), 1e-300):
        raise ValueError("snapshot times must be uniformly spaced")

    def lam_of(k):
        fam = states[k][1]
        return frames(fam.jet(u, v), s).lam

    wide = len(states) >= 5
    lo, hi = (2, len(states) - 2) if wide else (1, len(states) - 1)
    per = []
    mids = []
    for k in range(lo, hi):
        if wide:
            ldot = (-lam_of(k + 2) + 8 * lam_of(k + 1)
                    - 8 * lam_of(k - 1) + lam_of(k - 2)) / (12 * delta)
        else:
            ldot = (lam_of(k + 1) - lam_of(k - 1)) / (2 * delta)
        tau = tension(states[k][1], u, v, s)
        per.append(float(np.max(np.abs(ldot - tau))))
        mids.append(times[k])
    return PhaseEvolutionReport(residual=float(np.max(per)),
                                times=np.array(mids),
                                per_snapshot=np.array(per))
