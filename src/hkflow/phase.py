"""The phase direction of a surface, its differential, and identity checks.

Every oriented tangent plane of a surface in R^4 pairs with the three Kahler
forms of the standard triple to give a unit vector lam in S^2 (rotating the
triple by A in SO(3) would only rotate the sphere, lam -> A lam, so one
triple is enough).  This module computes the differential dJ of that map
(two independent routes, cross-checked), the curvature form, the energy
splitting driven by det dJ, the tension field, the mapping degree, and the
chart/containment bookkeeping for the closed half great circle
{lam_1 = 0, lam_2 >= 0} that the singularity analysis excludes.

Conventions are pinned numerically rather than by external references: the
normal-curvature sign is the one that makes det dJ = kappa + kappa_perp hold
against a brute-force finite-difference oracle, and the same convention then
feeds every identity below.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (IdentityViolation, NonClosedSurface, NonNormalInput,
                     OnForbiddenSet)
from .structure import apply_j
from .surfaces import (FrameData, ParametricSurface, frames, grid_geometry,
                       mean_curvature, midpoint_grid, second_fundamental_form)
from .util import format_float, write_csv

FD_STEP = 1e-4   # step of the dJ and tension stencils, times family.scale
ENERGY_TOL = 1e-6   # max residual of the energy identity e_del = |H|^2/4


@dataclass(eq=False)
class PhaseSample:
    """Phase direction and first-order data at one (or a grid of) point(s).

    dj rows are dJ(e_1), dJ(e_2) in R^3, tangent to the sphere at lam.  The
    energy split satisfies, by construction,
        e_del + e_delbar = |dJ|^2 / 2,    e_del - e_delbar = det dJ.
    route_gap records the disagreement between the finite-difference dJ and
    the shape-operator dJ, an end-to-end consistency measure.
    """

    lam: np.ndarray
    dj: np.ndarray
    e_del: np.ndarray
    e_delbar: np.ndarray
    detdj: np.ndarray
    route_gap: float

    def dj_norm2(self):
        return np.sum(self.dj * self.dj, axis=(-2, -1))


class SphereChart(NamedTuple):
    r: np.ndarray
    phi: np.ndarray


class ContainmentReport(NamedTuple):
    margin: float
    violation: bool


# ---------------------------------------------------------------------------
# Differential of the phase map
# ---------------------------------------------------------------------------

def _dj_shape_operator(fr: FrameData, sff: np.ndarray) -> np.ndarray:
    """dJ from the second fundamental form.

    Differentiating lam_a = <J_a e1, e2> with the ambient-parallel triple
    gives dlam_a(X) = <B(X, e2), J_a e1> - <B(X, e1), J_a e2>, which in the
    adapted normal frame collapses to two sff combinations:
        dJ(e_i) = (h^1_{2i} + h^2_{1i}) a2 + (h^2_{2i} - h^1_{1i}) a3
    with a2, a3 the S^2-frame rows of nu1, nu2.
    """
    je1 = apply_j(fr.e1)
    a2 = np.einsum("...ai,...i->...a", je1, fr.nu1)
    a3 = np.einsum("...ai,...i->...a", je1, fr.nu2)
    p = sff[..., 0, 1, :] + sff[..., 1, 0, :]
    q = sff[..., 1, 1, :] - sff[..., 0, 0, :]
    return (p[..., :, None] * a2[..., None, :]
            + q[..., :, None] * a3[..., None, :])


def _stencil_gradient(family: ParametricSurface, u, v, fr: FrameData,
                      h: float, field) -> np.ndarray:
    """Derivatives along (e1, e2) of field(jet), by centered differences of
    step h over the parameters; shape (..., 2) + the field's shape."""
    du = (field(family.jet(u + h, v)) - field(family.jet(u - h, v))) / (2 * h)
    dv = (field(family.jet(u, v + h)) - field(family.jet(u, v - h))) / (2 * h)
    grad = np.stack([du, dv], axis=-2)
    return np.einsum("...ia,...ab->...ib", fr.coeffs, grad)


def _check_routes(a, b, h: float, what: str, where: str = "") -> float:
    """Max-norm gap between two routes to one quantity; IdentityViolation
    beyond max(1e-6, 10 h^2), above the O(h^2) error of a step-h stencil."""
    gap = float(np.max(np.abs(a - b)))
    tol = max(1e-6, 10 * h * h)
    if gap > tol:
        detail = f" (tol {format_float(tol)}) on {where}" if where else ""
        raise IdentityViolation(
            f"{what} disagree by {format_float(gap)}{detail}")
    return gap


def phase_differential(family: ParametricSurface, u, v) -> PhaseSample:
    """Phase sample with dJ computed two ways and cross-checked.

    The returned dJ is the finite-difference one (step h = FD_STEP * scale),
    so downstream identity tests do not merely re-derive the shape-operator
    algebra from itself.  Raises StencilOutOfDomain if the stencil leaves
    the parameter domain and IdentityViolation if the routes disagree
    beyond max(1e-6, 10 h^2).
    """
    # checked before the centre's jet too, which may not exist off the domain
    family.check_stencil(u, v, FD_STEP * family.scale)
    jet = family.jet(u, v)
    fr = frames(jet)
    return _phase_differential(family, u, v, fr,
                               second_fundamental_form(jet, fr))


def _phase_differential(family: ParametricSurface, u, v, fr: FrameData,
                        sff: np.ndarray) -> PhaseSample:
    """phase_differential with the frames and sff at (u, v) given."""
    h = FD_STEP * family.scale
    family.check_stencil(u, v, h)
    dj_b = _dj_shape_operator(fr, sff)
    dj_a = _stencil_gradient(family, u, v, fr, h, lambda j: frames(j).lam)
    gap = _check_routes(dj_a, dj_b, h, "dJ routes", family.name)
    return PhaseSample(*_dj_fields(fr.lam, dj_a), route_gap=gap)


def _dj_fields(lam, dj):
    """The PhaseSample fields lam, dj, e_del, e_delbar, detdj, in order."""
    cross = np.cross(dj[..., 0, :], dj[..., 1, :])
    detdj = np.einsum("...a,...a->...", lam, cross)
    nrm2 = np.sum(dj * dj, axis=(-2, -1))
    e_del = np.maximum(0.25 * nrm2 + 0.5 * detdj, 0.0)
    e_delbar = np.maximum(0.25 * nrm2 - 0.5 * detdj, 0.0)
    return lam, dj, e_del, e_delbar, detdj


def phase_sample_exact(family: ParametricSurface, u, v) -> PhaseSample:
    """PhaseSample from the shape-operator route alone (no FD stencil).

    Used where stencils are unavailable or quadrature wants exact values;
    route_gap is reported as 0 since only one route runs.  A grid is
    evaluated one block of points at a time (grid_geometry).
    """
    fields = grid_geometry(family, u, v, lambda fr, sff: _dj_fields(
        fr.lam, _dj_shape_operator(fr, sff)))
    return PhaseSample(*fields, route_gap=0.0)


# ---------------------------------------------------------------------------
# Curvature form and energy identities
# ---------------------------------------------------------------------------

def curvature_form(fr: FrameData, h_vec) -> np.ndarray:
    """Rows <H, J_a e_i>, a = 1..3, for i = 1, 2, shape (..., 2, 3); tangent
    to S^2 at lam.  Requires h_vec normal to the tangent plane (tangential
    components up to 1e-8)."""
    h_vec = np.asarray(h_vec, dtype=float)
    t1 = np.abs(np.sum(h_vec * fr.e1, axis=-1))
    t2 = np.abs(np.sum(h_vec * fr.e2, axis=-1))
    worst = float(np.max(np.maximum(t1, t2)))
    if worst > 1e-8:
        raise NonNormalInput(
            f"input vector has tangential component {format_float(worst)}")
    je = apply_j(np.stack([fr.e1, fr.e2], axis=-2))       # (..., 2, 3, 4)
    return np.einsum("...k,...iak->...ia", h_vec, je)


def energy_split(sample: PhaseSample, h_vec):
    """Check |dJ|^2-splitting against the mean curvature: e_del = |H|^2/4.

    Returns the pointwise residual; raises IdentityViolation above
    ENERGY_TOL (which would indicate a convention bug, not a numerical
    failure).
    """
    h2 = np.sum(np.asarray(h_vec, dtype=float) ** 2, axis=-1)
    residual = np.abs(sample.e_del - 0.25 * h2)
    worst = float(np.max(residual))
    if worst > ENERGY_TOL:
        raise IdentityViolation(
            f"energy identity residual {format_float(worst)} exceeds "
            f"{format_float(ENERGY_TOL)}")
    return residual


def gauss_normal_curvatures(sff: np.ndarray):
    """(kappa, kappa_perp) from sff components.

    kappa is the Gauss curvature (flat ambient), kappa_perp the normal-bundle
    curvature; the sign of kappa_perp is the one that satisfies
    det dJ = kappa + kappa_perp against the finite-difference oracle.
    """
    kappa = (sff[..., 0, 0, 0] * sff[..., 0, 1, 1] - sff[..., 0, 0, 1] ** 2
             + sff[..., 1, 0, 0] * sff[..., 1, 1, 1] - sff[..., 1, 0, 1] ** 2)
    kperp = np.sum(sff[..., 0, 0, :] * sff[..., 1, 1, :]
                   - sff[..., 0, 1, :] * sff[..., 1, 0, :], axis=-1)
    return kappa, kperp


def coupling_residual(fr: FrameData, sff: np.ndarray,
                      dj: np.ndarray) -> np.ndarray:
    """First-order coupling of the shape operator to the phase differential.

    On any immersed surface the second fundamental form, the tangent
    rotation Jt (e1 -> e2 -> -e1) and its normal companion (nu1 -> nu2 ->
    -nu1) satisfy

        B(X, Jt Y) - Jt_perp B(X, Y) = sum_a dlam_a(X) J_a Y,

    pointwise in flat ambient space.  Returns the max-norm residual per
    point; anything above finite-difference noise means the frame, sff and
    dJ conventions have drifted apart.
    """
    bvec = (sff[..., 0, :, :, None] * fr.nu1[..., None, None, :]
            + sff[..., 1, :, :, None] * fr.nu2[..., None, None, :])
    bjt = np.stack([bvec[..., :, 1, :], -bvec[..., :, 0, :]], axis=-2)
    jperp = (sff[..., 0, :, :, None] * fr.nu2[..., None, None, :]
             - sff[..., 1, :, :, None] * fr.nu1[..., None, None, :])
    jae = apply_j(np.stack([fr.e1, fr.e2], axis=-2))      # (..., 2, 3, 4)
    third = np.einsum("...ia,...jak->...ijk", dj, jae)
    res = bjt - jperp - third
    return np.max(np.abs(res), axis=(-3, -2, -1))


# ---------------------------------------------------------------------------
# Tension field
# ---------------------------------------------------------------------------

def tension(family: ParametricSurface, u, v) -> np.ndarray:
    """Tension field of the phase map, tau = lam x m,
    m_a = sum_j <J_a grad^perp_{e_j} H, e_j>.

    The normal connection applied to the mean curvature field is evaluated
    by centered differences of H over the parameters, of step
    h = FD_STEP * scale.  The equivalent contraction
    tau_a = <grad^perp_{e_2}H, J_a e_1> - <grad^perp_{e_1}H, J_a e_2> is
    also formed, and IdentityViolation is raised if the two disagree beyond
    max(1e-6, 10 h^2).
    """
    h = FD_STEP * family.scale
    family.check_stencil(u, v, h)
    fr = frames(family.jet(u, v))
    de = _stencil_gradient(family, u, v, fr, h,
                           lambda j: mean_curvature(j, frames(j)))
    e = np.stack([fr.e1, fr.e2], axis=-2)
    # normal part of each derivative row
    tang = np.einsum("...ik,...jk->...ij", de, e)
    nab = de - np.einsum("...ij,...jk->...ik", tang, e)
    m = np.einsum("...kai,...ki->...a", apply_j(nab), e)
    tau = np.cross(fr.lam, m)
    je = apply_j(e)                                       # (..., 2, 3, 4)
    alt = (np.einsum("...k,...ak->...a", nab[..., 1, :], je[..., 0, :, :])
           - np.einsum("...k,...ak->...a", nab[..., 0, :], je[..., 1, :, :]))
    _check_routes(alt, tau, h, "tension contractions")
    return tau


# ---------------------------------------------------------------------------
# Degree
# ---------------------------------------------------------------------------

def closed_invariants(family: ParametricSurface, n: int = 64):
    """(deg, chi_T, chi_N) of a closed family: (1/4pi) integral of det dJ
    and (1/2pi) integrals of kappa and kappa_perp, whose formulas share
    nothing with det dJ.

    One geometry pass fills the three integrands and dmu into (n, n) arrays
    block by block (grid_geometry) on the tensor midpoint grid of the
    domain, spectrally accurate for the periodic directions of closed
    parametrizations and off boundary poles; each sum runs over the whole
    array.
    """
    if not family.closed:
        raise NonClosedSurface(f"{family.name} is not closed")
    ug, vg, du, dv = midpoint_grid(family.domain, n)
    *values, dmu = grid_geometry(family, ug, vg, lambda fr, sff: (
        _dj_fields(fr.lam, _dj_shape_operator(fr, sff))[-1],
        *gauss_normal_curvatures(sff), np.sqrt(np.linalg.det(fr.g))))
    det, kap, kperp = [np.sum(f * dmu) * du * dv for f in values]
    return (float(det / (4 * np.pi)), float(kap / (2 * np.pi)),
            float(kperp / (2 * np.pi)))


def degree(family: ParametricSurface, n: int = 64) -> float:
    """deg of closed_invariants."""
    return closed_invariants(family, n)[0]


def euler_numbers(family: ParametricSurface, n: int = 64):
    """(chi_T, chi_N) of closed_invariants: Euler numbers of tangent and
    normal bundle."""
    return closed_invariants(family, n)[1:]


# ---------------------------------------------------------------------------
# Chart off the half circle, containment margin
# ---------------------------------------------------------------------------

def chart(lam) -> SphereChart:
    """Polar chart (r, phi) with (lam_1, lam_2) = (r sin phi, r cos phi).

    Defined away from the closed half great circle {lam_1 = 0, lam_2 >= 0};
    the forbidden set is detected exactly (it includes both poles).
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(arc_distance(lam) == 0.0):
        raise OnForbiddenSet("phase direction lies on {lam1 = 0, lam2 >= 0}")
    l1, l2 = lam[..., 0], lam[..., 1]
    r = np.hypot(l1, l2)
    phi = np.arctan2(l1, l2)
    phi = np.where(phi <= 0.0, phi + 2 * np.pi, phi)
    return SphereChart(r=r, phi=phi)


def arc_distance(lam) -> np.ndarray:
    """Pointwise geodesic distance on S^2 to the half circle, closed form.

    The half circle is p(t) = (0, cos t, sin t), |t| <= pi/2.  The nearest
    point is (0, lam2, lam3) normalised when lam2 >= 0, and the pole
    (0, 0, sign lam3) otherwise; the angle to it is taken by atan2 of its
    sine and cosine, which keeps full relative precision at small distances
    (arccos of a cosine near 1 returns 0 below about 1e-8).  Points on the
    set (lam1 = 0, lam2 >= 0) return exactly 0.
    """
    lam = np.asarray(lam, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.where(l2 >= 0.0, np.arctan2(np.abs(l1), np.hypot(l2, l3)),
                    np.arctan2(np.hypot(l1, l2), np.abs(l3)))


def containment_margin(lams) -> ContainmentReport:
    """Containment of a phase sample set (..., 3) in the complement of the
    half circle (_containment of its arc_distance values)."""
    return _containment(arc_distance(lams))


def _containment(margins) -> ContainmentReport:
    """Containment from pointwise arc_distance values.  arc_distance is
    exactly 0 on the half circle and positive off it, so a zero distance is
    the exact membership test: it forces margin 0 and the violation flag;
    otherwise the margin is the smallest pointwise distance."""
    if margins.size == 0:
        raise ValueError("empty phase sample set")
    hit = bool(np.any(margins == 0.0))
    return ContainmentReport(margin=0.0 if hit else float(np.min(margins)),
                             violation=hit)


# ---------------------------------------------------------------------------
# Phase-field dump
# ---------------------------------------------------------------------------

def write_phase_field_csv(path, family: ParametricSurface,
                          n: int = 32) -> tuple[np.ndarray, ContainmentReport]:
    """Phase field on the midpoint grid of family.window() as CSV; returns
    the (n, n, 3) phase grid and its containment, decided from the margin
    column.

    Columns: u, v, lam1, lam2, lam3, e_del, e_delbar, detdJ, margin, where
    margin is the pointwise distance to the half circle.  Each column is
    computed one block of points at a time (grid_geometry), so dJ is held
    for one block only.
    """
    def columns(fr, sff):
        _, _, *energies = _dj_fields(fr.lam, _dj_shape_operator(fr, sff))
        return fr.lam, *energies, arc_distance(fr.lam)

    ug, vg, _, _ = midpoint_grid(family.window(), n)
    lam, *fields = grid_geometry(family, ug, vg, columns)
    write_csv(path, "u,v,lam1,lam2,lam3,e_del,e_delbar,detdJ,margin",
              [ug, vg, *np.moveaxis(lam, -1, 0), *fields])
    return lam, _containment(fields[-1])
