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
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientHistory, NotBlowingUp, SolveFailure
from .mesh import (PaddedMatrix, SurfaceMesh, mesh_bnorm,
                   mesh_mean_curvature, mesh_tangent_frames, write_off4)
from .phase import containment_margin, tension
from .surfaces import (ParametricSurface, frames, mean_curvature,
                       midpoint_grid, normal_projection)
from .util import write_jsonl

MCF_SCHEMES = ("semi-implicit",)   # the integrators mcf_step has
TYPE1_TAIL = 0.4   # trailing fraction of a history that the Type-I fit reads
CG_RTOL = 1e-10    # the implicit solve stops at |b - a x| < CG_RTOL |b|
CG_MAXITER = 10000


@dataclass(eq=False)
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
    cot_matrix: PaddedMatrix = field(repr=False)
    mixed_areas: np.ndarray = field(repr=False)

    @classmethod
    def measure(cls, mesh: SurfaceMesh, t: float) -> "FlowState":
        w = mesh.cotangent_matrix()
        areas = mesh.mixed_areas()
        h, valid = mesh_mean_curvature(mesh, w, areas)
        max_h = float(np.nanmax(np.linalg.norm(h[valid], axis=1))) if valid.any() else 0.0
        fr = mesh_tangent_frames(mesh)
        b = mesh_bnorm(mesh, fr)
        max_b = float(np.nanmax(b)) if np.any(np.isfinite(b)) else 0.0
        return cls(t=t, mesh=mesh, max_b=max_b, max_h=max_h,
                   area=mesh.area(), margin=containment_margin(fr[4]).margin,
                   cot_matrix=w, mixed_areas=areas)

    def record(self) -> dict:
        return {"t": self.t, "max_B": self.max_b, "max_H": self.max_h,
                "area": self.area, "margin": self.margin}


@dataclass(eq=False)
class FlowHistory:
    """Trajectory summary: times, max |B|, areas, truncation status, the
    first and last FlowState of a run_mcf run, and the phase containment
    margins where the producer measures them."""

    t: np.ndarray
    max_b: np.ndarray
    area: np.ndarray
    truncated: bool = False
    states: list = field(default_factory=list)
    margin: np.ndarray | None = None

    def __post_init__(self):
        # a NaN fails every comparison: test for increase, not against it
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("history times must be strictly increasing")

    @classmethod
    def from_records(cls, records, **kwargs) -> "FlowHistory":
        """History of trajectory-log records with keys t, max_B and area,
        and margin when every record carries one."""
        records = list(records)
        cols = {key: np.array([r[key] for r in records])
                for key in ("t", "max_B", "area", "margin")
                if all(key in r for r in records)}
        return cls(t=cols["t"], max_b=cols["max_B"], area=cols["area"],
                   margin=cols.get("margin"), **kwargs)


def _implicit_system(state: FlowState, dt: float):
    """(a, rhs, x0) of the semi-implicit step (m - dt W) x = m x_old, m the
    mixed areas, with the boundary vertices pinned: their rows are dropped
    and their columns moved to the rhs.  a is on W's pattern; its entries
    and rhs are those that scipy's CSR and DIA matrices formed, bit for
    bit."""
    mesh = state.mesh
    areas = state.mixed_areas
    w = state.cot_matrix
    # (-dt) w = -(dt w), and areas + (-(dt w_ii)) = areas - dt w_ii
    vals = (-dt) * w.values
    vals[w.diag, np.arange(len(areas))] += areas
    a = PaddedMatrix(w.cols, vals, w.diag)
    # scipy's diagonal product adds into zeros, which turns -0.0 into 0.0
    rhs = 0.0 + areas[:, None] * mesh.vertices
    x0 = mesh.vertices
    bdry = mesh.boundary_vertex_mask
    if bdry.any():
        keep = ~bdry
        # the full product sums each kept row in the same slot order
        rhs = rhs[keep] - (a @ np.where(bdry[:, None], x0, 0.0))[keep]
        a = a.principal(keep)
        x0 = x0[keep]
    return a, rhs, x0


def _pcg(a: PaddedMatrix, b: np.ndarray, x0: np.ndarray,
         inv_diag: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve a x = b by conjugate gradients with the Jacobi preconditioner
    inv_diag (positive), from x0, until |b - a x| < CG_RTOL |b|.  b holds
    no -0.0.  Returns x and the number of iterations made; raises
    SolveFailure after CG_MAXITER.

    The iteration is scipy 1.17's `cg` (atol 0) line for line, on
    contiguous copies of b and x0 as its `make_system` makes, so every
    iterate is scipy's to the last bit.
    """
    x = np.array(x0)
    bnrm2 = np.linalg.norm(b)
    atol = CG_RTOL * bnrm2
    if bnrm2 == 0:
        return b, 0
    r = b - a @ x if x.any() else b.copy()
    rho_prev, p = None, None
    for iteration in range(CG_MAXITER):
        if np.linalg.norm(r) < atol:
            return x, iteration
        # scipy's diagonal product adds inv_diag * r into zeros; r holds no
        # -0.0 (b holds none, and x - y is -0.0 only for x = -0.0) and
        # inv_diag > 0, so that addition changes no bit
        z = inv_diag * r
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = a @ p
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    raise SolveFailure(f"conjugate gradient failed to converge in "
                       f"{CG_MAXITER} iterations")


def mcf_step(state: FlowState, dt: float) -> FlowState:
    """Advance the mesh by one semi-implicit step of mean curvature motion,
    solving with the cotangent matrix and mixed areas that the measurement
    of state assembled; the boundary vertices stay where they are."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    a, rhs, x0 = _implicit_system(state, dt)
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolveFailure("implicit operator lost positivity")
    inv_diag = 1.0 / diag
    verts = np.empty_like(x0)
    for k, b in enumerate(np.ascontiguousarray(rhs.T)):
        verts[:, k] = _pcg(a, b, x0[:, k], inv_diag)[0]
    # freed before the measurement, where a step peaks in memory
    del a, rhs, x0, b, diag, inv_diag
    bdry = state.mesh.boundary_vertex_mask
    if bdry.any():
        full = state.mesh.vertices.copy()
        full[~bdry] = verts
        verts = full
    return FlowState.measure(state.mesh.with_vertices(verts), state.t + dt)


def march(state, advance, t_end: float, dt: float | None, every: int = 1,
          bound=None, guard=None, stops=()):
    """Yield (k, t, state) after k steps state = advance(state, h), at
    k = 0, every every-th step and the last state reached.

    A fixed dt takes n = floor(t_end (1 + 1e-12) / dt) steps of dt at the
    counted times k dt, then, if t_end - n dt exceeds 1e-12 t_end, one
    step onto t_end.  dt=None steps by bound(state), landing on t_end.
    The march stops early when guard(state) holds before a step, when a
    step raises one of stops, or when t no longer advances (near a blow-up
    the bound falls below half an ulp of t).  So a run is truncated
    exactly when its last t falls short of t_end.
    """
    if dt is not None:
        n_whole = max(0, math.floor(t_end * (1 + 1e-12) / dt))
        n_steps = n_whole + (t_end - n_whole * dt > 1e-12 * t_end)
    k, t = 0, 0.0
    yield k, t, state
    # both clocks put the last step on t_end itself
    while t < t_end:
        if guard is not None and guard(state):
            break
        if dt is None:
            h = min(bound(state), t_end - t)
            t_next = t_end if h == t_end - t else t + h
            if t_next == t:
                break
        else:
            # t_end - n dt is exact, as n dt is 0 or past t_end / 2
            h = dt if k < n_whole else t_end - n_whole * dt
            t_next = (k + 1) * dt if k + 1 < n_steps else t_end
        try:
            state = advance(state, h)
        except stops:
            break
        k, t = k + 1, t_next
        if k % every == 0:
            yield k, t, state
    if k % every:
        yield k, t, state


def run_mcf(mesh: SurfaceMesh, dt: float | None, t_end: float,
            log_path=None, checkpoint_every: int = 0,
            checkpoint_dir=None) -> FlowHistory:
    """march to t_end, logging one flushed JSON record per state, so a run
    that an exception stops leaves every state it reached.  dt=None steps
    0.2 h_min^2 of the initial mesh throughout."""
    if dt is None:
        dt = 0.2 * mesh.min_edge_length() ** 2
    first = state = FlowState.measure(mesh, 0.0)

    def trajectory():
        nonlocal state
        # past max|B| h_min = 0.5 the discrete curvature is under-resolved
        for k, t, state in march(
                first, mcf_step, t_end, dt,
                guard=lambda s: s.max_b * s.mesh.min_edge_length() > 0.5):
            state.t = t   # the march's counted clock
            yield state.record()
            if checkpoint_every and checkpoint_dir is not None \
                    and k and k % checkpoint_every == 0:
                write_off4(state.mesh,
                           f"{checkpoint_dir}/checkpoint_{k:06d}.off")

    records = write_jsonl(log_path or os.devnull, trajectory())
    return FlowHistory.from_records(records, truncated=state.t < t_end,
                                    states=[first, state])


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


def shrinker_residual_of_family(family: ParametricSurface,
                                n: int = 24) -> float:
    """Shrinker residual on the n x n midpoint grid of family.window()."""
    ug, vg, _, _ = midpoint_grid(family.window(), n)
    jet = family.jet(ug, vg)
    fr = frames(jet)
    h = mean_curvature(jet, fr)
    return shrinker_residual(jet.x, fr, h)


def shrinker_radius_by_bisection(make_family, lo: float = 1.0,
                                 hi: float = 2.0) -> float:
    """Root of the signed shrinker defect over [lo, hi], to within 1e-12.

    The probe point is the centre of make_family(r).window(), where its
    outward normal must be well defined; the signed defect
    <H + X^perp/2, nu> changes sign across the shrinking radius.
    ValueError when it does not change sign on [lo, hi].
    """
    # imported here: scipy.optimize takes 0.22-0.25 s to import (2-core
    # x86-64), which a module-level import would add to every command
    from scipy.optimize import bisect

    def signed(r: float) -> float:
        family = make_family(r)
        (u0, u1), (v0, v1) = family.window()
        jet = family.jet(0.5 * (u0 + u1), 0.5 * (v0 + v1))
        fr = frames(jet)
        h = mean_curvature(jet, fr)
        xperp = normal_projection(fr, jet.x)
        nu_out = xperp / max(np.linalg.norm(xperp), 1e-300)
        return float(np.dot(h + 0.5 * xperp, nu_out))

    return bisect(signed, lo, hi, xtol=1e-12)


# ---------------------------------------------------------------------------
# Type-I monitoring and parabolic rescaling
# ---------------------------------------------------------------------------

@dataclass
class Type1Report:
    t_est: float
    ci_halfwidth: float
    sup_rescaled: float


def type1_monitor(history: FlowHistory) -> Type1Report:
    """Blow-up time estimate from the Type-I model.

    Fits 1/max|B|^2 linearly against t on the trailing TYPE1_TAIL of the
    history (the model is asymptotic); the fitted zero crossing is T_est.
    The returned sup is max over the tail of sqrt(T_est - t) * max|B|.
    """
    t = np.asarray(history.t, dtype=float)
    b = np.asarray(history.max_b, dtype=float)
    if len(t) < 5:
        raise InsufficientHistory(f"need at least 5 history points, got {len(t)}")
    n_tail = max(2, int(math.ceil(TYPE1_TAIL * len(t))))
    tt, bb = t[-n_tail:], b[-n_tail:]
    # a run stopped at the blow-up time: its tail times agree to about the
    # square root of the rounding unit, and no fit resolves them
    if tt[-1] - tt[0] <= math.sqrt(np.finfo(float).eps) * abs(tt[-1]):
        raise InsufficientHistory("the tail times are too close together "
                                  "to fit")
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
        # the covariance sigma2 (A^T A)^-1 is sigma2 R^-1 R^-T for the R
        # factor of A
        grad = np.array([-1.0 / beta, alpha / (beta * beta)])
        w = grad @ np.linalg.inv(np.linalg.qr(a_mat, mode="r"))
        ci = 1.96 * math.sqrt(sigma2 * float(w @ w))
    else:
        ci = 0.0
    gap = np.maximum(t_est - tt, 0.0)
    sup = float(np.max(np.sqrt(gap) * bb))
    return Type1Report(t_est=float(t_est), ci_halfwidth=ci, sup_rescaled=sup)


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

@dataclass(eq=False)
class PhaseEvolutionReport:
    residual: float
    times: np.ndarray
    per_snapshot: np.ndarray


def phase_evolution_check(states, u, v) -> PhaseEvolutionReport:
    """Residual of d(lambda)/dt = tau along a trajectory of surfaces.

    states is a sequence of (t, family) with uniform time spacing; the time
    derivative of the phase is taken by a centered five-point stencil when
    enough snapshots exist (three-point otherwise), and tau is evaluated on
    the middle snapshot.  Both sides are independent discretizations, so the
    maximum residual converges under refinement of the trajectory.
    """
    if len(states) < 3:
        raise InsufficientHistory("need at least 3 time levels")
    times = np.array([t for t, _ in states], dtype=float)
    steps = np.diff(times)
    delta = steps[0]
    if np.max(np.abs(steps - delta)) > 1e-9 * max(abs(delta), 1e-300):
        raise ValueError("snapshot times must be uniformly spaced")

    lam = [frames(fam.jet(u, v)).lam for _, fam in states]
    wide = len(states) >= 5
    lo, hi = (2, len(states) - 2) if wide else (1, len(states) - 1)
    per = []
    for k in range(lo, hi):
        if wide:
            ldot = (-lam[k + 2] + 8 * lam[k + 1]
                    - 8 * lam[k - 1] + lam[k - 2]) / (12 * delta)
        else:
            ldot = (lam[k + 1] - lam[k - 1]) / (2 * delta)
        tau = tension(states[k][1], u, v)
        per.append(float(np.max(np.abs(ldot - tau))))
    return PhaseEvolutionReport(residual=float(np.max(per)),
                                times=times[lo:hi],
                                per_snapshot=np.array(per))
