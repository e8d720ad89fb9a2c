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
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDerivative, GeometryError, OriginCollision,
                     PointOnCurve, StabilityViolation)
from .flow import FlowHistory, march
from .mesh import grid_torus_mesh
from .phase import containment_margin
from .surfaces import ParametricSurface, map_blocks
from .util import readonly, write_csv


# The supported curve diameters.  The lift's |B| divides by |gamma|^2
# |gamma'|, the third power of the scale and the highest the flow or the
# lift forms; this range keeps it a normal double, below 1e300 and above
# 1e-302.
DIAMETER_RANGE = (1e-100, 1e100)


def _grid(n: int) -> np.ndarray:
    """The parameters x_j = 2 pi j / n, j = 0 .. n-1."""
    return 2 * np.pi * np.arange(n) / n


@dataclass(eq=False)
class PlaneCurve:
    """Closed curve sampled at x_j = 2 pi j / N, as complex positions.

    Invariants: N >= 16 finite samples, a diameter in DIAMETER_RANGE,
    consecutive samples separated (immersed polyline), and the origin stays
    off the image; the flow equation is singular there.
    The samples are stored read-only, so the diameter, the smallest gap and
    the first two derivatives measured once at construction stay valid.
    """

    samples: np.ndarray
    # the derivative rows; _from_rows sets them ahead of __post_init__
    _derivatives = None

    def __post_init__(self):
        z = np.asarray(self.samples)
        if z.ndim != 1 or len(z) < 16:
            raise ValueError("need at least 16 samples on one closed loop")
        self.samples = z = readonly(z.astype(complex))
        # max - min and the wrapped difference are np.ptp and
        # np.diff(z, append=z[:1]) to the bit, without their wrappers
        zr, zi = z.real, z.imag
        d = float(np.hypot(zr.max() - zr.min(), zi.max() - zi.min()))
        # the extremes, and so d, are finite when every sample is (short of
        # an overflow far outside DIAMETER_RANGE)
        if not math.isfinite(d):
            raise ValueError("curve samples must be finite")
        lo, hi = DIAMETER_RANGE
        if not lo <= d <= hi:
            raise ValueError(f"curve diameter {d:.3g} is outside the "
                             f"supported range [{lo:g}, {hi:g}]")
        h = float(np.abs(np.concatenate((z[1:], z[:1])) - z).min())
        if h <= 1e-10 * d:
            raise ValueError("curve is not immersed at sample resolution")
        if np.abs(z).min() <= 1e-10 * d:
            raise OriginCollision("curve passes through the origin")
        self._diameter = d
        self._min_spacing = h
        if self._derivatives is None:
            self._derivatives = readonly(_first_two_derivatives(z))

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def x(self) -> np.ndarray:
        return _grid(self.n)

    def diameter(self) -> float:
        return self._diameter

    def min_spacing(self) -> float:
        return self._min_spacing

    def derivatives(self) -> np.ndarray:
        """gamma' and gamma'' at the samples, as read-only (2, n) rows."""
        return self._derivatives

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "PlaneCurve":
        """PlaneCurve(rows[0]), carrying rows[1:] as its derivatives; the
        caller vouches that they are those of rows[0]'s spectrum."""
        curve = cls.__new__(cls)
        curve.samples, curve._derivatives = rows[0], readonly(rows[1:])
        curve.__post_init__()
        return curve

    @classmethod
    def circle(cls, radius: float = 1.0, center: complex = 0.0,
               n: int = 256) -> "PlaneCurve":
        return cls(center + radius * np.exp(1j * _grid(n)))

    @classmethod
    def from_function(cls, fn, n: int = 256) -> "PlaneCurve":
        return cls(np.asarray(fn(_grid(n)), dtype=complex))


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
def _derivative_stack(n: int) -> np.ndarray:
    """_derivative_factor(n, 1) and _derivative_factor(n, 2) as (2, n) rows."""
    return readonly(np.stack([_derivative_factor(n, 1),
                              _derivative_factor(n, 2)]))


@functools.lru_cache(maxsize=32)
def _filter_profile(n: int) -> np.ndarray:
    """High-order exponential smoothing of the top of the spectrum.

    Pseudospectral products alias onto near-Nyquist modes; left alone the
    aliased energy grows a few percent per step and eventually stalls the
    flow at a spurious discrete equilibrium.  The exp(-36 (k/kmax)^36)
    profile is machine-zero at Nyquist and below 1e-9 for |k| <= kmax/2,
    so resolved content is untouched even over millions of steps.
    """
    k = np.abs(_spectral_modes(n)) / (n // 2)
    return readonly(np.exp(-36.0 * k ** 36))


@functools.lru_cache(maxsize=32)
def _filter_stack(n: int) -> np.ndarray:
    """_filter_profile(n) and its products with _derivative_stack(n), as
    (3, n) rows."""
    profile = _filter_profile(n)
    return readonly(np.concatenate(([profile],
                                    profile * _derivative_stack(n))))


def spectral_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Fourier derivative of a periodic complex signal on the uniform grid.

    The Nyquist mode is zeroed for odd orders (it carries no well-defined
    odd derivative on an even grid).
    """
    return np.fft.ifft(np.fft.fft(values)
                       * _derivative_factor(len(values), order))


def _first_two_derivatives(samples: np.ndarray) -> np.ndarray:
    """spectral_derivative orders 1 and 2 as (2, n) rows, from one forward
    transform and one stacked inverse transform; each row equals its own
    ifft to the bit."""
    return np.fft.ifft(np.fft.fft(samples) * _derivative_stack(len(samples)))


def _require_speed(g1: np.ndarray) -> None:
    """Raise unless |gamma'| stays above 1e-8 max|gamma'| at every sample."""
    if np.min(np.abs(g1)) < 1e-8 * np.max(np.abs(g1)):
        raise DegenerateDerivative("gamma' vanishes at sample resolution")


def _curvature_frame(d: np.ndarray):
    """|gamma'|^2, the unit normal -i gamma' / |gamma'| and the curvature
    vector of curvature_vector, from the rows gamma' and gamma''."""
    g1, g2 = d
    speed2 = np.abs(g1) ** 2
    radial = np.real(np.conj(g1) * g2) / speed2
    kap = (g2 - g1 * radial) / speed2
    nrm = -1j * g1 / np.sqrt(speed2)
    return speed2, nrm, kap


def curvature_vector(curve: PlaneCurve) -> np.ndarray:
    """Arclength second derivative of the curve, as complex numbers.

    kappa_vec = (gamma'' - gamma' Re(conj(gamma') gamma'') / |gamma'|^2)
                / |gamma'|^2;
    a counterclockwise circle of radius R gives -gamma / R^2.
    """
    d = curve.derivatives()
    _require_speed(d[0])
    return _curvature_frame(d)[2]


def _flow_rhs(samples: np.ndarray) -> np.ndarray:
    return _velocity(samples, _first_two_derivatives(samples))


def _velocity(samples: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Flow velocity from the samples and their first two derivatives.

    The curvature vector less gamma^perp / |gamma|^2 is
    (gamma'' - gamma' c) / |gamma'|^2 with
    c = Re(conj(gamma') gamma'') / |gamma'|^2
        + i Im(gamma conj(gamma')) / |gamma|^2,
    which needs no unit normal.
    """
    g1, g2 = d
    g1c = np.conj(g1)
    speed2 = np.abs(g1) ** 2
    c = np.empty_like(g1)
    np.divide(np.real(g1c * g2), speed2, out=c.real)
    np.divide(np.imag(samples * g1c), np.abs(samples) ** 2, out=c.imag)
    return (g2 - g1 * c) / speed2


def _filtered_rows(values: np.ndarray) -> np.ndarray:
    """The spectrally filtered values and their first two derivatives as
    (3, n) rows, from one forward and one stacked inverse transform."""
    return np.fft.ifft(np.fft.fft(values) * _filter_stack(len(values)))


STEP_BOUND = 0.2   # c in the parabolic step bound dt <= c * spacing^2
CSF_SCHEMES = ("rk4",)   # the integrators csf_step has


def _step_bound(curve: PlaneCurve) -> float:
    """STEP_BOUND * (min spacing)^2: the largest rk4 step csf_step takes."""
    h = curve.min_spacing()
    return STEP_BOUND * h * h


def csf_step(curve: PlaneCurve, dt: float) -> PlaneCurve:
    """One rk4 step of the reduced torus flow, under the parabolic step
    bound dt <= STEP_BOUND * (min spacing)^2.  A new curve that PlaneCurve
    rejects is a GeometryError.
    """
    bound = _step_bound(curve)
    if dt > bound:
        raise StabilityViolation(
            f"dt={dt:g} exceeds {STEP_BOUND:g}*spacing^2={bound:g}")
    z = curve.samples
    k1 = _velocity(z, curve.derivatives())
    k2 = _flow_rhs(z + 0.5 * dt * k1)
    k3 = _flow_rhs(z + 0.5 * dt * k2)
    k4 = _flow_rhs(z + dt * k3)
    rows = _filtered_rows(z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    if np.abs(rows[0]).min() < 1e-3 * curve.diameter():
        raise OriginCollision("curve entered the origin guard band")
    try:
        return PlaneCurve._from_rows(rows)
    except ValueError as exc:
        raise GeometryError(
            f"the step left the supported curves: {exc}") from exc


@dataclass(eq=False)
class CurveFlowResult:
    times: np.ndarray
    curves: list
    truncated: bool = False

    def final(self) -> PlaneCurve:
        return self.curves[-1]


def csf_march(curve: PlaneCurve, t_end: float, dt: float | None = None,
              snapshot_every: int = 1):
    """flow.march of the reduced flow, by the parabolic step bound when dt
    is None; it also ends when the curve reaches the origin guard band."""
    return march(curve, csf_step, t_end, dt, snapshot_every,
                 bound=_step_bound, stops=OriginCollision)


def run_csf(curve: PlaneCurve, t_end: float, dt: float | None = None,
            snapshot_every: int = 1) -> CurveFlowResult:
    """The snapshots of csf_march; a fixed dt gives the uniformly spaced
    trajectories the phase-evolution check requires."""
    _, times, curves = zip(*csf_march(curve, t_end, dt, snapshot_every))
    return CurveFlowResult(times=np.array(times), curves=list(curves),
                           truncated=times[-1] < t_end)


# ---------------------------------------------------------------------------
# Winding diagnostics
# ---------------------------------------------------------------------------

def _polyline_winding(z: np.ndarray) -> int:
    inc = np.angle(np.roll(z, -1) / z)
    return int(round(float(np.sum(inc)) / (2 * np.pi)))


def winding_number(curve: PlaneCurve, p: complex = 0.0) -> int:
    """Winding of the sampled loop about p, by summed argument increments."""
    a = curve.samples - p
    seg = np.roll(a, -1) - a
    tt = np.clip(-np.real(a * np.conj(seg)) / np.maximum(np.abs(seg) ** 2, 1e-300),
                 0.0, 1.0)
    dist = np.min(np.abs(a + tt * seg))
    if dist <= 1e-12 * max(curve.diameter(), 1e-300):
        raise PointOnCurve("query point lies on the polyline")
    return _polyline_winding(a)


@dataclass
class CurveDiagnostics:
    ind_gamma: int
    ind_gammaprime: int
    total_turning: float
    maslov_defect: float


def diagnostics(curve: PlaneCurve) -> CurveDiagnostics:
    """Winding numbers and turning of the curve.

    total_turning is the parameter integral (1/2pi) of -Im(gamma''/gamma'),
    which converges to the integer -ind_gammaprime; maslov_defect =
    ind_gamma - total_turning equals the winding of gamma * gamma' about 0
    and vanishes exactly for zero-Maslov tori.
    """
    g1, g2 = curve.derivatives()
    _require_speed(g1)
    ind_gamma = _polyline_winding(curve.samples)
    turning = -float(np.mean(np.imag(g2 / g1)))
    return CurveDiagnostics(ind_gamma, _polyline_winding(g1), turning,
                            float(ind_gamma - turning))


# ---------------------------------------------------------------------------
# Lift to the Lagrangian torus
# ---------------------------------------------------------------------------

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
        # coefficients of gamma, gamma' and gamma''
        self._coefs = (coef, _derivative_factor(n, 1) * coef,
                       _derivative_factor(n, 2) * coef)

    def _gamma_jets(self, u):
        """gamma and its first two derivatives at the parameters u.

        Each distinct parameter is evaluated once and gathered back (a
        parameter grid repeats every u along v).  The (points x modes)
        matrix of exponentials is built for at most util.BLOCK points at a
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
                         for g in map_blocks(self._block_jets, uniq))
        return map_blocks(self._block_jets, u)

    def _block_jets(self, u):
        e = 1j * u[..., None] * self._k
        np.exp(e, out=e)
        return tuple(e @ c for c in self._coefs)

    @staticmethod
    def _coords(z1, z2):
        return z1.real, z1.imag, z2.real, z2.imag

    def jet_rows(self, u, v):
        g, g1, g2 = self._gamma_jets(u)
        c, s = np.cos(v), np.sin(v)
        yield self._coords(g * c, g * s)
        yield self._coords(g1 * c, g1 * s)
        yield self._coords(-g * s, g * c)
        yield self._coords(g2 * c, g2 * s)
        yield self._coords(-g1 * s, g1 * c)
        yield self._coords(-g * c, -g * s)


def embed_torus(curve: PlaneCurve, ny: int = 32):
    """Mesh and analytic jets of the lifted torus.

    The mesh places the curve samples along rings of ny points; the
    returned family carries the exact induced metric
    |gamma'|^2 dx^2 + |gamma|^2 dy^2.
    """
    if ny < 8:
        raise ValueError("ny must be at least 8")
    y = _grid(ny)
    z = curve.samples[:, None]
    c, s = np.cos(y)[None, :], np.sin(y)[None, :]
    x = np.stack(TorusFromCurve._coords(z * c, z * s), axis=-1)
    return grid_torus_mesh(x), TorusFromCurve(curve)


def torus_bnorm2(curve: PlaneCurve) -> np.ndarray:
    """|B|^2 of the lifted torus along the curve, from curve data alone.

    In the adapted normal frame the nonzero sff entries are
    kappa_signed, -<gamma, n>/|gamma|^2 (first normal) and the off-diagonal
    -Im(conj(gamma) gamma')/(|gamma|^2 |gamma'|) (second normal).
    """
    z, d = curve.samples, curve.derivatives()
    speed2, nrm, kap = _curvature_frame(d)
    k_signed = np.real(kap * np.conj(nrm))
    radial = np.real(z * np.conj(nrm)) / np.abs(z) ** 2
    mu = -np.imag(np.conj(z) * d[0]) / (np.abs(z) ** 2 * np.sqrt(speed2))
    return k_signed ** 2 + radial ** 2 + 2 * mu ** 2


def torus_area(curve: PlaneCurve) -> float:
    """Exact-to-quadrature area of the lift: 2 pi * integral |gamma||gamma'|."""
    z, g1 = curve.samples, curve.derivatives()[0]
    return float(2 * np.pi * np.mean(np.abs(z) * np.abs(g1)) * 2 * np.pi)


def _torus_margin(curve: PlaneCurve) -> float:
    """Containment margin of the lift's phase (0, Re w, Im w), where
    w = gamma gamma' / |gamma gamma'| is constant along each circle."""
    w = curve.samples * curve.derivatives()[0]
    w = w / np.abs(w)
    lams = np.stack([np.zeros(curve.n), w.real, w.imag], axis=-1)
    return containment_margin(lams).margin


def snapshot_record(t: float, curve: PlaneCurve) -> dict:
    """History record of a snapshot: t and the lifted torus's max|B|, area
    and phase margin, from the curve's derivatives."""
    return {"t": float(t),
            "max_B": float(np.sqrt(np.max(torus_bnorm2(curve)))),
            "area": torus_area(curve), "margin": _torus_margin(curve)}


def b_norm_history(result: CurveFlowResult) -> FlowHistory:
    """FlowHistory of the lifted tori along a curve-flow trajectory."""
    return FlowHistory.from_records(
        map(snapshot_record, result.times, result.curves),
        truncated=result.truncated)


# ---------------------------------------------------------------------------
# Snapshot output
# ---------------------------------------------------------------------------

def write_curve_csv(path, curve: PlaneCurve) -> None:
    """CSV columns x_j, Re gamma_j, Im gamma_j."""
    write_csv(path, "x,re,im",
              [curve.x, curve.samples.real, curve.samples.imag])
