"""Analytic surface patches in R^4: jets, adapted frames, curvature.

A *jet* bundles the position and the first and second parameter derivatives
of an immersion X(u, v) at one or many points; every downstream quantity
(frames, second fundamental form, mean curvature, phase map) is algebra on
jets, so surface families only need to supply exact derivatives.

The adapted frame at a point is (e1, e2, nu1, nu2):

    e1 = Xu / |Xu|,   e2 = Gram-Schmidt of Xv against e1,

so (e1, e2) is positively oriented with respect to (Xu, Xv).  The phase
direction lam_a = <J_a e1, e2>, with (J_1, J_2, J_3) the standard triple of
structure.py, is a unit vector in R^3 for *any* orthonormal tangent pair,
and J~ = sum_a lam_a J_a maps e1 to e2 and preserves the normal plane.  The normal legs are taken as nu1 = J~_2 e1, nu2 = J~_3 e1
where the rotated triple aligns J~_1 with the tangent rotation; the
completion of lam to a rotation is gauge, fixed deterministically below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJet, StencilOutOfDomain
from .structure import apply_j
from .util import BLOCK


@dataclass(eq=False)
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


@dataclass(eq=False)
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


def frames(jet: SurfaceJet) -> FrameData:
    """Adapted frame (e1, e2, nu1, nu2) and phase direction for a jet."""
    xu, xv = jet.xu, jet.xv
    g11 = np.sum(xu * xu, axis=-1)
    g12 = np.sum(xu * xv, axis=-1)
    g22 = np.sum(xv * xv, axis=-1)
    det = g11 * g22 - g12 * g12
    if np.any(det <= 1e-12 * g11 * g22):
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

    je1 = apply_j(e1)                                     # (..., 3, 4)
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


def _hessian(jet: SurfaceJet) -> np.ndarray:
    """Coordinate Hessian [[X_uu, X_uv], [X_uv, X_vv]], shape (..., 2, 2, 4)."""
    return np.stack([
        np.stack([jet.xuu, jet.xuv], axis=-2),
        np.stack([jet.xuv, jet.xvv], axis=-2),
    ], axis=-3)


def second_fundamental_form(jet: SurfaceJet, fr: FrameData) -> np.ndarray:
    """Components h[..., a, i, j] = <B(e_i, e_j), nu_a>, symmetric in (i, j)."""
    # Contract both slots of the coordinate Hessian with the frame coeffs:
    # b_ij = sum_ab c_ia c_jb X_ab, summed from 0.0 in the order (a, b) =
    # 00, 01, 10, 11, which is the three-operand einsum's order to the bit.
    c = fr.coeffs[..., None]                              # (..., 2, 2, 1)
    b = np.empty(c.shape[:-3] + (2, 2, 4))
    for i in (0, 1):
        ci0, ci1 = c[..., i, 0, :], c[..., i, 1, :]
        for j in (0, 1):
            cj0, cj1 = c[..., j, 0, :], c[..., j, 1, :]
            b[..., i, j, :] = (0.0 + ci0 * cj0 * jet.xuu + ci0 * cj1 * jet.xuv
                               + ci1 * cj0 * jet.xuv + ci1 * cj1 * jet.xvv)
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
    h = np.einsum("...ab,...abk->...k", ginv, _hessian(jet))
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


def midpoint_grid(domain, n: int):
    """Cell centres (u, v), each (n, n) with "ij" indexing, of the n x n
    tensor grid on domain ((u0, u1), (v0, v1)), and the cell sides du, dv."""
    (u0, u1), (v0, v1) = domain
    du = (u1 - u0) / n
    dv = (v1 - v0) / n
    ug, vg = np.meshgrid(u0 + (np.arange(n) + 0.5) * du,
                         v0 + (np.arange(n) + 0.5) * dv, indexing="ij")
    return ug, vg, du, dv


def map_blocks(fn, *arrays):
    """fn(*arrays), a tuple of per-point arrays, over the broadcast arrays.

    Up to BLOCK points, fn runs once on them.  More are flattened in C order
    and cut into near-equal runs of at most BLOCK points, as np.array_split
    cuts them; each run's results are written into arrays of the full shape,
    allocated at the first run.  Memory is one block of fn's intermediates
    plus the outputs.  A pointwise fn whose kernels round each point alike
    at any length gives the bits of one call; the tests hold every built-in
    family to that.
    """
    arrays = np.broadcast_arrays(*arrays)
    size = arrays[0].size
    if size <= BLOCK:
        return fn(*arrays)
    flat = [a.reshape(-1) for a in arrays]
    k = -(-size // BLOCK)
    q, r = divmod(size, k)
    out = None
    for i in range(k):
        a = i * q + min(i, r)
        b = a + q + (i < r)
        got = fn(*(f[a:b] for f in flat))
        if out is None:
            out = tuple(np.empty((size,) + g.shape[1:], g.dtype) for g in got)
        for o, g in zip(out, got):
            o[a:b] = g
    return tuple(o.reshape(arrays[0].shape + o.shape[1:]) for o in out)


def grid_geometry(family: ParametricSurface, u, v, fields):
    """fields(fr, sff), a tuple of per-point arrays, at the points (u, v):
    jet, frames and second fundamental form one block at a time
    (map_blocks), so no grid-sized intermediate is ever held."""
    def block(u, v):
        jet = family.jet(u, v)
        fr = frames(jet)
        return fields(fr, second_fundamental_form(jet, fr))
    return map_blocks(block, u, v)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

class ParametricSurface:
    """Base class: an immersion patch with exact jets.

    Subclasses fill in jet_rows(u, v) and the domain metadata used by
    quadrature and finite-difference stencils.
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
        """The 2-jet at (u, v), broadcast against each other: each row of
        jet_rows is filled into one (..., 4) array."""
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        rows = []
        for row in self.jet_rows(u, v):
            arr = np.empty(u.shape + (4,))
            for k, c in enumerate(row):
                arr[..., k] = c
            rows.append(arr)
        return SurfaceJet(*rows)

    def jet_rows(self, u, v):
        """The rows x, xu, xv, xuu, xuv, xvv at the broadcast (u, v), each
        four coordinates that are arrays of u's shape or constants."""
        raise NotImplementedError

    def window(self):
        """The domain with each infinite bound clipped to -+4 scale; finite
        bounds, and so closed families, are kept whole."""
        c = 4 * self.scale
        return tuple((lo if np.isfinite(lo) else -c,
                      hi if np.isfinite(hi) else c) for lo, hi in self.domain)

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

    def sample_domain(self, rng: np.random.Generator, n: int):
        """Uniform parameter samples in window(), shrunk away from the edges
        of each non-periodic direction by 5% of its extent."""
        out = []
        for (lo, hi), per in zip(self.window(), self.periodic):
            pad = 0.0 if per else 0.05 * (hi - lo)
            out.append(rng.uniform(lo + pad, hi - pad, size=n))
        return out[0], out[1]


class Plane(ParametricSurface):
    """The coordinate 2-plane X(u, v) = (u, v, 0, 0)."""

    name = "plane"

    def jet_rows(self, u, v):
        return ((u, v, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                (0.0,) * 4, (0.0,) * 4, (0.0,) * 4)


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

    def jet_rows(self, u, v):
        r, c, s = self.radius, np.cos(v), np.sin(v)
        return ((r * c, r * s, u, 0.0), (0.0, 0.0, 1.0, 0.0),
                (-r * s, r * c, 0.0, 0.0), (0.0,) * 4, (0.0,) * 4,
                (-r * c, -r * s, 0.0, 0.0))


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

    def jet_rows(self, u, v):
        # u = polar angle in (0, pi), v = azimuth
        r = self.radius
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        yield r * su * cv, r * su * sv, r * cu, 0.0
        yield r * cu * cv, r * cu * sv, -r * su, 0.0
        yield -r * su * sv, r * su * cv, 0.0, 0.0
        yield -r * su * cv, -r * su * sv, -r * cu, 0.0
        yield -r * cu * sv, r * cu * cv, 0.0, 0.0
        yield -r * su * cv, -r * su * sv, 0.0, 0.0


class GrimReaper(ParametricSurface):
    """The translating profile X(u, v) = (u, v, -log cos u, 0), |u| < pi/2.

    Moves with unit speed along (0, 0, 1, 0) under mean curvature flow.
    """

    name = "grim-reaper"
    domain = ((-np.pi / 2, np.pi / 2), (-np.inf, np.inf))

    def jet_rows(self, u, v):
        return ((u, v, -np.log(np.cos(u)), 0.0), (1.0, 0.0, np.tan(u), 0.0),
                (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0 / np.cos(u) ** 2, 0.0),
                (0.0,) * 4, (0.0,) * 4)


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
    def random(cls, rng: np.random.Generator) -> "QuadraticGraph":
        """A, B, C uniform in [-1, 1]; tilts D, E uniform in [-0.2, 0.2]."""
        c = np.empty((2, 5))
        c[:, :3] = rng.uniform(-1.0, 1.0, size=(2, 3))
        c[:, 3:] = rng.uniform(-0.2, 0.2, size=(2, 2))
        return cls(c)

    def jet_rows(self, u, v):
        (a1, b1, c1, d1, e1), (a2, b2, c2, d2, e2) = self.coeffs
        q1 = 0.5 * (a1 * u * u + 2 * b1 * u * v + c1 * v * v) + d1 * u + e1 * v
        q2 = 0.5 * (a2 * u * u + 2 * b2 * u * v + c2 * v * v) + d2 * u + e2 * v
        return ((u, v, q1, q2),
                (1.0, 0.0, a1 * u + b1 * v + d1, a2 * u + b2 * v + d2),
                (0.0, 1.0, b1 * u + c1 * v + e1, b2 * u + c2 * v + e2),
                (0.0, 0.0, a1, a2), (0.0, 0.0, b1, b2), (0.0, 0.0, c1, c2))


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

    def jet_rows(self, u, v):
        h = 1e-5 * self.scale
        p = self.position
        x = p(u, v)
        xpu, xmu = p(u + h, v), p(u - h, v)
        xpv, xmv = p(u, v + h), p(u, v - h)
        xu = (xpu - xmu) / (2 * h)
        xv = (xpv - xmv) / (2 * h)
        xuu = (xpu - 2 * x + xmu) / h**2
        xvv = (xpv - 2 * x + xmv) / h**2
        xuv = (p(u + h, v + h) - p(u + h, v - h)
               - p(u - h, v + h) + p(u - h, v - h)) / (4 * h**2)
        return (np.moveaxis(row, -1, 0) for row in (x, xu, xv, xuu, xuv, xvv))
