"""Equivariant torus flow reduced to a closed plane curve.

A curve gamma in the punctured plane lifts to a Lagrangian torus
(x, y) -> (gamma(x) cos y, gamma(x) sin y) in C^2; mean curvature motion of
the torus reduces to

    d(gamma)/dt = curvature_vector(gamma) - gamma^perp / |gamma|^2,

which this module integrates spectrally (uniform parameter grid, Fourier
derivatives, RK4), together with the winding-number diagnostics that detect
the Maslov class and the lift back to analytic surface jets.

Convention notes, pinned by the unit circle: the counterclockwise unit
circle has ind_gamma = ind_gammaprime = 1, total_turning = -1 (parameter
integral of -Im(gamma''/gamma')), hence maslov_defect = 2, which equals the
winding of x -> gamma(x) gamma'(x) about 0.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDerivative, DegenerateSpacing, OriginCollision,
                     PointOnCurve, StabilityViolation)
from .flow import FlowHistory
from .mesh import grid_torus_mesh
from .phase import containment_margin
from .surfaces import ParametricSurface, SurfaceJet
from .util import readonly, write_csv


@dataclass(eq=False)
class PlaneCurve:
    """Closed curve sampled at x_j = 2 pi j / N, as complex positions.

    Invariants: N >= 16, consecutive samples separated (immersed polyline),
    and the origin stays off the image; the flow equation is singular there.
    The samples are stored read-only, so the diameter and the smallest gap
    measured once at construction stay valid.
    """

    samples: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.samples)
        if z.ndim != 1 or len(z) < 16:
            raise ValueError("need at least 16 samples on one closed loop")
        self.samples = z = readonly(z.astype(complex))
        d = float(np.hypot(np.ptp(z.real), np.ptp(z.imag)))
        h = float(np.abs(np.diff(z, append=z[:1])).min())
        if h <= 1e-10 * d:
            raise ValueError("curve is not immersed at sample resolution")
        if np.min(np.abs(z)) <= 1e-10 * d:
            raise OriginCollision("curve passes through the origin")
        self._diameter = d
        self._min_spacing = h

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def x(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n) / self.n

    def diameter(self) -> float:
        return self._diameter

    def min_spacing(self) -> float:
        return self._min_spacing

    @classmethod
    def circle(cls, radius: float = 1.0, center: complex = 0.0,
               n: int = 256) -> "PlaneCurve":
        x = 2 * np.pi * np.arange(n) / n
        return cls(center + radius * np.exp(1j * x))

    @classmethod
    def from_function(cls, fn, n: int = 256) -> "PlaneCurve":
        x = 2 * np.pi * np.arange(n) / n
        return cls(np.asarray(fn(x), dtype=complex))


# Per-grid spectral factors, built on first use and shared read-only by
# every caller; a run touches a handful of grid sizes.

@functools.lru_cache(maxsize=32)
def _spectral_modes(n: int) -> np.ndarray:
    return readonly(np.fft.fftfreq(n, d=1.0 / n))


@functools.lru_cache(maxsize=64)
def _derivative_factor(n: int, order: int) -> np.ndarray:
    """(i k)^order; the Nyquist mode is zeroed for odd orders on even grids."""
    factor = (1j * _spectral_modes(n)) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[n // 2] = 0.0
    return readonly(factor)


@functools.lru_cache(maxsize=32)
def _filter_profile(n: int) -> np.ndarray:
    k = np.abs(_spectral_modes(n)) / (n // 2)
    return readonly(np.exp(-36.0 * k ** 36))


def spectral_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Fourier derivative of a periodic complex signal on the uniform grid.

    The Nyquist mode is zeroed for odd orders (it carries no well-defined
    odd derivative on an even grid).
    """
    return np.fft.ifft(np.fft.fft(values)
                       * _derivative_factor(len(values), order))


def _first_two_derivatives(samples: np.ndarray):
    """spectral_derivative orders 1 and 2 from one forward transform."""
    n = len(samples)
    zhat = np.fft.fft(samples)
    return (np.fft.ifft(zhat * _derivative_factor(n, 1)),
            np.fft.ifft(zhat * _derivative_factor(n, 2)))


def curvature_vector(curve: PlaneCurve) -> np.ndarray:
    """Arclength second derivative of the curve, as complex numbers.

    kappa_vec = (gamma'' - gamma' Re(conj(gamma') gamma'') / |gamma'|^2)
                / |gamma'|^2;
    a counterclockwise circle of radius R gives -gamma / R^2.
    """
    g1, g2 = _first_two_derivatives(curve.samples)
    speed2 = np.abs(g1) ** 2
    if np.min(np.sqrt(speed2)) < 1e-8 * np.max(np.sqrt(speed2)):
        raise DegenerateSpacing("parametrization speed collapses somewhere")
    radial = np.real(np.conj(g1) * g2) / speed2
    return (g2 - g1 * radial) / speed2


def _flow_rhs(samples: np.ndarray) -> np.ndarray:
    return _velocity(samples, *_first_two_derivatives(samples))


def _velocity(samples: np.ndarray, g1: np.ndarray,
              g2: np.ndarray) -> np.ndarray:
    """Flow velocity from the samples and their first two derivatives."""
    speed2 = np.abs(g1) ** 2
    radial = np.real(np.conj(g1) * g2) / speed2
    kap = (g2 - g1 * radial) / speed2
    nrm = -1j * g1 / np.sqrt(speed2)
    gperp = np.real(samples * np.conj(nrm)) * nrm
    return kap - gperp / np.abs(samples) ** 2


def _spectral_filter(values: np.ndarray) -> np.ndarray:
    """High-order exponential smoothing of the top of the spectrum.

    Pseudospectral products alias onto near-Nyquist modes; left alone the
    aliased energy grows a few percent per step and eventually stalls the
    flow at a spurious discrete equilibrium.  The exp(-36 (k/kmax)^36)
    profile is machine-zero at Nyquist and below 1e-9 for |k| <= kmax/2,
    so resolved content is untouched even over millions of steps.
    """
    return np.fft.ifft(np.fft.fft(values) * _filter_profile(len(values)))


STEP_BOUND = 0.2   # c in the parabolic step bound dt <= c * spacing^2


def csf_step(curve: PlaneCurve, dt: float, scheme: str = "rk4") -> PlaneCurve:
    """One step of the reduced torus flow.

    rk4 is the default explicit integrator under the parabolic step bound
    dt <= STEP_BOUND * (min spacing)^2; the semi-implicit scheme treats the
    dominant diffusion coefficient implicitly in Fourier space (first order,
    but unconditionally stable) for stiff late-stage runs.
    """
    z = curve.samples
    guard = 1e-3 * curve.diameter()
    if scheme == "rk4":
        h = curve.min_spacing()
        if dt > STEP_BOUND * h * h:
            raise StabilityViolation(
                f"dt={dt:g} exceeds {STEP_BOUND:g}*spacing^2="
                f"{STEP_BOUND * h * h:g}")
        k1 = _flow_rhs(z)
        k2 = _flow_rhs(z + 0.5 * dt * k1)
        k3 = _flow_rhs(z + 0.5 * dt * k2)
        k4 = _flow_rhs(z + dt * k3)
        z_new = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    elif scheme == "semi-implicit":
        g1, g2 = _first_two_derivatives(z)
        a = float(np.max(1.0 / np.abs(g1) ** 2))
        k = _spectral_modes(curve.n)
        explicit = _velocity(z, g1, g2) - a * g2
        zhat = np.fft.fft(z + dt * explicit)
        zhat /= 1.0 + dt * a * k * k
        z_new = np.fft.ifft(zhat)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    z_new = _spectral_filter(z_new)
    if np.min(np.abs(z_new)) < guard:
        raise OriginCollision("curve entered the origin guard band")
    return PlaneCurve(z_new)


@dataclass(eq=False)
class CurveFlowResult:
    times: np.ndarray
    curves: list
    truncated: bool = False

    def final(self) -> PlaneCurve:
        return self.curves[-1]


def run_csf(curve: PlaneCurve, t_end: float, dt: float | None = None,
            scheme: str = "rk4", snapshot_every: int = 1) -> CurveFlowResult:
    """Integrate the flow to t_end.

    With dt=None the step adapts to the parabolic bound as the curve
    shrinks (the last step lands exactly on t_end); a fixed dt gives the
    uniformly spaced trajectories the phase-evolution check requires.
    """
    t = 0.0
    times = [0.0]
    curves = [curve]
    step = 0
    truncated = False
    while t < t_end - 1e-15:
        if dt is None:
            h = curve.min_spacing()
            dt_k = min(STEP_BOUND * h * h, t_end - t)
        else:
            dt_k = min(dt, t_end - t)
        try:
            curve = csf_step(curve, dt_k, scheme)
        except OriginCollision:
            truncated = True
            break
        step += 1
        # counted time avoids accumulation drift, so fixed-dt snapshot
        # grids stay uniform to one rounding of step*dt
        t = t + dt_k if dt is None else min(step * dt, t_end)
        if step % snapshot_every == 0 or t >= t_end - 1e-15:
            times.append(t)
            curves.append(curve)
    return CurveFlowResult(times=np.array(times), curves=curves,
                           truncated=truncated)


# ---------------------------------------------------------------------------
# Winding diagnostics
# ---------------------------------------------------------------------------

def _polyline_winding(z: np.ndarray) -> int:
    inc = np.angle(np.roll(z, -1) / z)
    total = float(np.sum(inc)) / (2 * np.pi)
    return int(round(total))


def winding_number(curve: PlaneCurve, p: complex = 0.0) -> int:
    """Winding of the sampled loop about p, by summed argument increments."""
    z = curve.samples - p
    a = z
    b = np.roll(z, -1)
    seg = b - a
    tt = np.clip(-np.real(a * np.conj(seg)) / np.maximum(np.abs(seg) ** 2, 1e-300),
                 0.0, 1.0)
    dist = np.min(np.abs(a + tt * seg))
    if dist <= 1e-12 * max(curve.diameter(), 1e-300):
        raise PointOnCurve("query point lies on the polyline")
    return _polyline_winding(z)


@dataclass
class CurveDiagnostics:
    ind_gamma: int
    ind_gammaprime: int
    total_turning: float
    maslov_defect: float

    def as_dict(self) -> dict:
        return {"ind_gamma": self.ind_gamma,
                "ind_gammaprime": self.ind_gammaprime,
                "total_turning": self.total_turning,
                "maslov_defect": self.maslov_defect}


def diagnostics(curve: PlaneCurve) -> CurveDiagnostics:
    """Winding numbers and turning of the curve.

    total_turning is the parameter integral (1/2pi) of -Im(gamma''/gamma'),
    which converges to the integer -ind_gammaprime; maslov_defect =
    ind_gamma - total_turning equals the winding of gamma * gamma' about 0
    and vanishes exactly for zero-Maslov tori.
    """
    g1, g2 = _first_two_derivatives(curve.samples)
    if np.min(np.abs(g1)) < 1e-8 * np.max(np.abs(g1)):
        raise DegenerateDerivative("gamma' vanishes at sample resolution")
    ind_gamma = _polyline_winding(curve.samples)
    ind_gp = _polyline_winding(g1)
    turning = -float(np.mean(np.imag(g2 / g1)))
    return CurveDiagnostics(
        ind_gamma=ind_gamma,
        ind_gammaprime=ind_gp,
        total_turning=turning,
        maslov_defect=float(ind_gamma - turning),
    )


# ---------------------------------------------------------------------------
# Lift to the Lagrangian torus
# ---------------------------------------------------------------------------

JET_BLOCK = 2048   # points per block of TorusFromCurve._gamma_jets


class TorusFromCurve(ParametricSurface):
    """Analytic jets of (x, y) -> (gamma(x) cos y, gamma(x) sin y) in C^2.

    gamma is reconstructed from the samples by trigonometric interpolation,
    so jets are spectrally accurate wherever the curve is resolved.  The
    ambient identification is (Re z1, Im z1, Re z2, Im z2).
    """

    domain = ((0.0, 2 * np.pi), (0.0, 2 * np.pi))
    periodic = (True, True)
    closed = True
    scale = 1.0
    name = "torus"

    def __init__(self, curve: PlaneCurve):
        self.curve = curve
        n = curve.n
        coef = np.fft.fft(curve.samples) / n
        self._k = _spectral_modes(n)
        kd1 = 1j * self._k
        if n % 2 == 0:
            kd1[n // 2] = 0.0
        # coefficients of gamma, gamma' and gamma''
        self._coefs = (coef, kd1 * coef, -(self._k ** 2) * coef)

    def _gamma_jets(self, u):
        """gamma and its first two derivatives at the parameters u.

        Each distinct parameter is evaluated once and gathered back (a
        parameter grid repeats every u along v).  The (points x modes)
        matrix of exponentials is built for at most JET_BLOCK points at a
        time, which bounds memory on large grids.  No point is evaluated on
        its own when the input has more, since numpy sends a one-row
        product to a dot kernel that rounds differently from the
        matrix-vector kernel of the one-shot product: a lone distinct value
        is evaluated on the whole input, and the blocks are near-equal.
        """
        u = np.asarray(u, dtype=float)
        uniq, inverse = np.unique(u, return_inverse=True)
        if 1 < uniq.size < u.size:
            return tuple(g[inverse].reshape(u.shape)
                         for g in self._blocked_jets(uniq))
        return self._blocked_jets(u)

    def _blocked_jets(self, u):
        if u.size <= JET_BLOCK:
            return self._block_jets(u)
        blocks = np.array_split(u.reshape(-1), -(-u.size // JET_BLOCK))
        return tuple(np.concatenate(parts).reshape(u.shape)
                     for parts in zip(*map(self._block_jets, blocks)))

    def _block_jets(self, u):
        e = 1j * u[..., None] * self._k
        np.exp(e, out=e)
        return tuple(e @ c for c in self._coefs)

    @staticmethod
    def _embed(z1, z2):
        return np.stack([np.real(z1), np.imag(z1), np.real(z2), np.imag(z2)],
                        axis=-1)

    def jet(self, u, v) -> SurfaceJet:
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        g, g1, g2 = self._gamma_jets(u)
        c, s = np.cos(v), np.sin(v)
        return SurfaceJet(
            x=self._embed(g * c, g * s),
            xu=self._embed(g1 * c, g1 * s),
            xv=self._embed(-g * s, g * c),
            xuu=self._embed(g2 * c, g2 * s),
            xuv=self._embed(-g1 * s, g1 * c),
            xvv=self._embed(-g * c, -g * s),
        )


def embed_torus(curve: PlaneCurve, ny: int = 32):
    """Mesh and analytic jets of the lifted torus.

    The mesh places the curve samples along rings of ny points; the
    returned family carries the exact induced metric
    |gamma'|^2 dx^2 + |gamma|^2 dy^2.
    """
    if ny < 8:
        raise ValueError("ny must be at least 8")
    y = 2 * np.pi * np.arange(ny) / ny
    z = curve.samples[:, None]
    c, s = np.cos(y)[None, :], np.sin(y)[None, :]
    pts = np.stack([np.real(z * c), np.imag(z * c),
                    np.real(z * s), np.imag(z * s)], axis=-1)
    return grid_torus_mesh(pts), TorusFromCurve(curve)


def torus_bnorm2(curve: PlaneCurve) -> np.ndarray:
    """|B|^2 of the lifted torus along the curve, from curve data alone.

    In the adapted normal frame the nonzero sff entries are
    kappa_signed, -<gamma, n>/|gamma|^2 (first normal) and the off-diagonal
    -Im(conj(gamma) gamma')/(|gamma|^2 |gamma'|) (second normal).
    """
    z = curve.samples
    return _torus_bnorm2(z, *_first_two_derivatives(z))


def _torus_bnorm2(z, g1, g2) -> np.ndarray:
    speed = np.abs(g1)
    nrm = -1j * g1 / speed
    kap = (g2 - g1 * np.real(np.conj(g1) * g2) / speed ** 2) / speed ** 2
    k_signed = np.real(kap * np.conj(nrm))
    radial = np.real(z * np.conj(nrm)) / np.abs(z) ** 2
    mu = -np.imag(np.conj(z) * g1) / (np.abs(z) ** 2 * speed)
    return k_signed ** 2 + radial ** 2 + 2 * mu ** 2


def torus_area(curve: PlaneCurve) -> float:
    """Exact-to-quadrature area of the lift: 2 pi * integral |gamma||gamma'|."""
    return _torus_area(curve.samples, spectral_derivative(curve.samples, 1))


def _torus_area(z, g1) -> float:
    return float(2 * np.pi * np.mean(np.abs(z) * np.abs(g1)) * 2 * np.pi)


def _torus_margin(z, g1) -> float:
    """Containment margin of the lift's phase (0, Re w, Im w), where
    w = gamma gamma' / |gamma gamma'| is constant along each circle."""
    w = z * g1
    w = w / np.abs(w)
    lams = np.stack([np.zeros(len(z)), w.real, w.imag], axis=-1)
    return containment_margin(lams).margin


def b_norm_history(result: CurveFlowResult) -> FlowHistory:
    """FlowHistory of the lifted tori along a curve-flow trajectory.

    max|B|, area and phase margin of each snapshot share one transform of
    its samples (gamma' and gamma'').
    """
    n = len(result.curves)
    max_b, area, margin = np.empty(n), np.empty(n), np.empty(n)
    for k, c in enumerate(result.curves):
        z = c.samples
        g1, g2 = _first_two_derivatives(z)
        max_b[k] = np.sqrt(np.max(_torus_bnorm2(z, g1, g2)))
        area[k] = _torus_area(z, g1)
        margin[k] = _torus_margin(z, g1)
    return FlowHistory(t=np.asarray(result.times, dtype=float), max_b=max_b,
                       area=area, margin=margin, truncated=result.truncated)


# ---------------------------------------------------------------------------
# Snapshot output
# ---------------------------------------------------------------------------

def write_curve_csv(path, curve: PlaneCurve) -> None:
    """CSV columns x_j, Re gamma_j, Im gamma_j."""
    write_csv(path, "x,re,im",
              [curve.x, curve.samples.real, curve.samples.imag])
