"""Analytic surface patches in R^4: jets, adapted frames, curvature.

A *jet* bundles the position and the first and second parameter derivatives
of an immersion X(u, v) at one or many points; every downstream quantity
(frames, second fundamental form, mean curvature, phase map) is algebra on
jets, so surface families only need to supply exact derivatives.

The adapted frame at a point is (e1, e2, nu1, nu2):

    e1 = Xu / |Xu|,   e2 = Gram-Schmidt of Xv against e1,

so (e1, e2) is positively oriented with respect to (Xu, Xv).  The phase
direction lam_a = <J_a e1, e2> is a unit vector in R^3 for *any* orthonormal
tangent pair, and J~ = sum_a lam_a J_a maps e1 to e2 and preserves the
normal plane.  The normal legs are taken as nu1 = J~_2 e1, nu2 = J~_3 e1
where the rotated triple aligns J~_1 with the tangent rotation; the
completion of lam to a rotation is gauge, fixed deterministically below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJet, StencilOutOfDomain
from .structure import StructureTriple, standard_structure


@dataclass
class SurfaceJet:
    """Pointwise 2-jet of an immersion, batched over leading axes."""

    x: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    xuu: np.ndarray
    xuv: np.ndarray
    xvv: np.ndarray

    def __post_init__(self):
        for name in ("x", "xu", "xv", "xuu", "xuv", "xvv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[-1] != 4:
                raise ValueError(f"{name} must have trailing dimension 4")
            setattr(self, name, arr)


@dataclass
class FrameData:
    """Adapted orthonormal frame, induced metric, and frame coefficients.

    coeffs[..., i, a] expresses e_i = sum_a coeffs[i, a] * (Xu, Xv)[a]; it is
    what converts parameter derivatives of a field into derivatives along
    the orthonormal tangent directions.
    """

    e1: np.ndarray
    e2: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    lam: np.ndarray
    g: np.ndarray
    coeffs: np.ndarray


def frames(jet: SurfaceJet, s: StructureTriple | None = None,
           degeneracy_tol: float = 1e-12) -> FrameData:
    """Adapted frame (e1, e2, nu1, nu2) and phase direction for a jet."""
    if s is None:
        s = standard_structure()
    xu, xv = jet.xu, jet.xv
    g11 = np.sum(xu * xu, axis=-1)
    g12 = np.sum(xu * xv, axis=-1)
    g22 = np.sum(xv * xv, axis=-1)
    det = g11 * g22 - g12 * g12
    if np.any(det <= degeneracy_tol * g11 * g22):
        raise DegenerateJet("tangent vectors are (numerically) dependent")

    inv_n1 = 1.0 / np.sqrt(g11)
    e1 = xu * inv_n1[..., None]
    w = xv - (g12 / g11)[..., None] * xu
    wn = np.sqrt(np.sum(w * w, axis=-1))
    e2 = w / wn[..., None]

    coeffs = np.zeros(g11.shape + (2, 2))
    coeffs[..., 0, 0] = inv_n1
    coeffs[..., 1, 0] = -(g12 / g11) / wn
    coeffs[..., 1, 1] = 1.0 / wn

    je1 = np.einsum("aij,...j->...ai", s.j, e1)          # (..., 3, 4)
    lam = np.einsum("...ai,...i->...a", je1, e2)         # (..., 3)

    # Deterministic completion of lam to a rotation: cross against the
    # least-aligned coordinate axis.  The resulting normal frame is gauge;
    # every reported quantity is invariant under rotating (nu1, nu2).
    k = np.argmin(np.abs(lam), axis=-1)
    ek = np.eye(3)[k]
    a2 = np.cross(lam, ek)
    a2 /= np.linalg.norm(a2, axis=-1, keepdims=True)
    a3 = np.cross(lam, a2)
    nu1 = np.einsum("...a,...ai->...i", a2, je1)
    nu2 = np.einsum("...a,...ai->...i", a3, je1)

    g = np.stack([
        np.stack([g11, g12], axis=-1),
        np.stack([g12, g22], axis=-1),
    ], axis=-2)
    return FrameData(e1=e1, e2=e2, nu1=nu1, nu2=nu2, lam=lam, g=g, coeffs=coeffs)


def second_fundamental_form(jet: SurfaceJet, fr: FrameData) -> np.ndarray:
    """Components h[..., a, i, j] = <B(e_i, e_j), nu_a>, symmetric in (i, j)."""
    xdd = np.stack([
        np.stack([jet.xuu, jet.xuv], axis=-2),
        np.stack([jet.xuv, jet.xvv], axis=-2),
    ], axis=-3)                                           # (..., 2, 2, 4)
    # Contract both slots of the coordinate Hessian with the frame coeffs.
    b = np.einsum("...ia,...jb,...abk->...ijk", fr.coeffs, fr.coeffs, xdd)
    nu = np.stack([fr.nu1, fr.nu2], axis=-2)              # (..., 2, 4)
    return np.einsum("...ijk,...ak->...aij", b, nu)


def mean_curvature(jet: SurfaceJet, fr: FrameData, sff=None) -> np.ndarray:
    """Mean curvature vector H = trace of the second fundamental form.

    With sff given, H = sum_a (h^a_11 + h^a_22) nu_a.  Otherwise computed
    directly as the normal projection of g^{ab} X_ab, which avoids the
    normal-frame gauge entirely; either way H lies in the normal plane.
    """
    if sff is not None:
        tr = sff[..., 0, 0] + sff[..., 1, 1]
        return (tr[..., 0, None] * fr.nu1 + tr[..., 1, None] * fr.nu2)
    ginv = np.linalg.inv(fr.g)
    xdd = np.stack([
        np.stack([jet.xuu, jet.xuv], axis=-2),
        np.stack([jet.xuv, jet.xvv], axis=-2),
    ], axis=-3)
    h = np.einsum("...ab,...abk->...k", ginv, xdd)
    return normal_projection(fr, h)


def tangential_projection(fr: FrameData, w) -> np.ndarray:
    """Component of an ambient vector field in the tangent plane."""
    w = np.asarray(w, dtype=float)
    c1 = np.sum(w * fr.e1, axis=-1)[..., None]
    c2 = np.sum(w * fr.e2, axis=-1)[..., None]
    return c1 * fr.e1 + c2 * fr.e2


def normal_projection(fr: FrameData, w) -> np.ndarray:
    """Component of an ambient vector field in the normal plane."""
    return np.asarray(w, dtype=float) - tangential_projection(fr, w)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

class ParametricSurface:
    """Base class: an immersion patch with exact jets.

    Subclasses fill in jet(u, v) (broadcasting over array arguments) and the
    domain metadata used by quadrature and finite-difference stencils.
    """

    name = "surface"
    #: ((u_min, u_max), (v_min, v_max)); infinite extents use +-inf
    domain = ((-np.inf, np.inf), (-np.inf, np.inf))
    #: periodicity per parameter direction
    periodic = (False, False)
    #: True when the patch covers a closed surface (degree is defined)
    closed = False
    #: typical parameter scale, sets finite-difference steps
    scale = 1.0

    def jet(self, u, v) -> SurfaceJet:
        raise NotImplementedError

    def position(self, u, v) -> np.ndarray:
        return self.jet(u, v).x

    def check_stencil(self, u, v, h: float) -> None:
        """Raise unless centered stencils of step h stay inside the domain."""
        for values, (lo, hi), per in zip((u, v), self.domain, self.periodic):
            if per:
                continue
            values = np.asarray(values, dtype=float)
            if np.any(values - h < lo) or np.any(values + h > hi):
                raise StencilOutOfDomain(
                    f"{self.name}: stencil of step {h} leaves {lo, hi}"
                )

    def sample_domain(self, rng: np.random.Generator, n: int,
                      margin: float = 0.05):
        """Uniform interior parameter samples, shrunk away from open edges."""
        out = []
        for (lo, hi), per in zip(self.domain, self.periodic):
            lo = max(lo, -2.0) if not np.isfinite(lo) else lo
            hi = min(hi, 2.0) if not np.isfinite(hi) else hi
            pad = 0.0 if per else margin * (hi - lo)
            out.append(rng.uniform(lo + pad, hi - pad, size=n))
        return out[0], out[1]


class Plane(ParametricSurface):
    """The coordinate 2-plane X(u, v) = (u, v, 0, 0)."""

    name = "plane"

    def jet(self, u, v) -> SurfaceJet:
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        z = np.zeros(u.shape)
        x = np.stack([u, v, z, z], axis=-1)
        xu = np.stack([np.ones_like(u), z, z, z], axis=-1)
        xv = np.stack([z, np.ones_like(u), z, z], axis=-1)
        zero = np.zeros_like(x)
        return SurfaceJet(x, xu, xv, zero, zero.copy(), zero.copy())


class Cylinder(ParametricSurface):
    """Round cylinder of radius r about the x3-axis inside {x4 = 0}.

    Parametrized axis-first, X(u, v) = (r cos v, r sin v, u, 0), so that the
    oriented frame is (axis direction, circle direction); with the standard
    structure triple this orientation reproduces the reference phase
    (0, x2, -x1) on the unit cylinder.
    """

    name = "cylinder"
    domain = ((-1.0, 1.0), (0.0, 2.0 * np.pi))
    periodic = (False, True)

    def __init__(self, radius: float = 1.0, half_length: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.domain = ((-float(half_length), float(half_length)),
                       (0.0, 2.0 * np.pi))

    def jet(self, u, v) -> SurfaceJet:
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        r = self.radius
        z = np.zeros(u.shape)
        one = np.ones(u.shape)
        x = np.stack([r * np.cos(v), r * np.sin(v), u, z], axis=-1)
        xu = np.stack([z, z, one, z], axis=-1)
        xv = np.stack([-r * np.sin(v), r * np.cos(v), z, z], axis=-1)
        xuu = np.zeros_like(x)
        xuv = np.zeros_like(x)
        xvv = np.stack([-r * np.cos(v), -r * np.sin(v), z, z], axis=-1)
        return SurfaceJet(x, xu, xv, xuu, xuv, xvv)


class Sphere(ParametricSurface):
    """Round 2-sphere of radius r in the hyperplane {x4 = 0}."""

    name = "sphere"
    domain = ((0.0, np.pi), (0.0, 2.0 * np.pi))
    periodic = (False, True)
    closed = True

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def jet(self, u, v) -> SurfaceJet:
        # u = polar angle in (0, pi), v = azimuth
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        r = self.radius
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        z = np.zeros(u.shape)
        x = np.stack([r * su * cv, r * su * sv, r * cu, z], axis=-1)
        xu = np.stack([r * cu * cv, r * cu * sv, -r * su, z], axis=-1)
        xv = np.stack([-r * su * sv, r * su * cv, z, z], axis=-1)
        xuu = np.stack([-r * su * cv, -r * su * sv, -r * cu, z], axis=-1)
        xuv = np.stack([-r * cu * sv, r * cu * cv, z, z], axis=-1)
        xvv = np.stack([-r * su * cv, -r * su * sv, z, z], axis=-1)
        return SurfaceJet(x, xu, xv, xuu, xuv, xvv)


class GrimReaper(ParametricSurface):
    """The translating profile X(u, v) = (u, v, -log cos u, 0), |u| < pi/2.

    Moves with unit speed along (0, 0, 1, 0) under mean curvature flow.
    """

    name = "grim-reaper"
    domain = ((-np.pi / 2, np.pi / 2), (-2.0, 2.0))

    def jet(self, u, v) -> SurfaceJet:
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        z = np.zeros(u.shape)
        one = np.ones(u.shape)
        t = np.tan(u)
        x = np.stack([u, v, -np.log(np.cos(u)), z], axis=-1)
        xu = np.stack([one, z, t, z], axis=-1)
        xv = np.stack([z, one, z, z], axis=-1)
        xuu = np.stack([z, z, 1.0 / np.cos(u) ** 2, z], axis=-1)
        zero = np.zeros_like(x)
        return SurfaceJet(x, xu, xv, xuu, zero, zero.copy())


class QuadraticGraph(ParametricSurface):
    """Graph surface X(u, v) = (u, v, q1(u, v), q2(u, v)) with

        q_a(u, v) = 0.5 (A_a u^2 + 2 B_a u v + C_a v^2) + D_a u + E_a v.

    The coefficient arrays pin the second fundamental form at the origin in
    closed form, which makes these the oracle surfaces for curvature tests.
    """

    name = "quadratic-graph"
    domain = ((-0.5, 0.5), (-0.5, 0.5))

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (2, 5):
            raise ValueError("coeffs must be (2, 5): rows (A, B, C, D, E)")
        self.coeffs = coeffs

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 1.0,
               tilt: float = 0.2) -> "QuadraticGraph":
        c = np.empty((2, 5))
        c[:, :3] = rng.uniform(-scale, scale, size=(2, 3))
        c[:, 3:] = rng.uniform(-tilt, tilt, size=(2, 2))
        return cls(c)

    def jet(self, u, v) -> SurfaceJet:
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        z = np.zeros(u.shape)
        one = np.ones(u.shape)
        (a1, b1, c1, d1, e1), (a2, b2, c2, d2, e2) = self.coeffs
        q1 = 0.5 * (a1 * u * u + 2 * b1 * u * v + c1 * v * v) + d1 * u + e1 * v
        q2 = 0.5 * (a2 * u * u + 2 * b2 * u * v + c2 * v * v) + d2 * u + e2 * v
        x = np.stack([u, v, q1, q2], axis=-1)
        xu = np.stack([one, z, a1 * u + b1 * v + d1, a2 * u + b2 * v + d2], axis=-1)
        xv = np.stack([z, one, b1 * u + c1 * v + e1, b2 * u + c2 * v + e2], axis=-1)
        xuu = np.stack([z, z, a1 * one, a2 * one], axis=-1)
        xuv = np.stack([z, z, b1 * one, b2 * one], axis=-1)
        xvv = np.stack([z, z, c1 * one, c2 * one], axis=-1)
        return SurfaceJet(x, xu, xv, xuu, xuv, xvv)


class NumericalJetSurface(ParametricSurface):
    """Fallback family: jets by centered differences of a position function.

    Used when only X(u, v) is available; step 1e-5 * scale balances
    truncation against roundoff for second derivatives.
    """

    name = "numerical-jet"

    def __init__(self, position, domain=None, periodic=(False, False),
                 scale: float = 1.0, name: str | None = None):
        self._position = position
        if domain is not None:
            self.domain = domain
        self.periodic = periodic
        self.scale = float(scale)
        if name:
            self.name = name

    def position(self, u, v) -> np.ndarray:
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return np.asarray(self._position(u, v), dtype=float)

    def jet(self, u, v) -> SurfaceJet:
        h = 1e-5 * self.scale
        p = self.position
        x = p(u, v)
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        xpu, xmu = p(u + h, v), p(u - h, v)
        xpv, xmv = p(u, v + h), p(u, v - h)
        xu = (xpu - xmu) / (2 * h)
        xv = (xpv - xmv) / (2 * h)
        xuu = (xpu - 2 * x + xmu) / h**2
        xvv = (xpv - 2 * x + xmv) / h**2
        xuv = (p(u + h, v + h) - p(u + h, v - h)
               - p(u - h, v + h) + p(u - h, v - h)) / (4 * h**2)
        return SurfaceJet(x, xu, xv, xuu, xuv, xvv)
