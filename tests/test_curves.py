"""Reduced plane-curve flow, winding diagnostics, and the torus lift."""
import functools

import numpy as np
import pytest

from hkflow.curves import (DIAMETER_RANGE, CurveFlowResult, PlaneCurve,
                           TorusFromCurve, _curvature_frame, _spectral_rows,
                           _spectrum, _step_bound, _velocity, b_norm_history,
                           csf_march, csf_step, curvature_vector, diagnostics,
                           embed_torus, run_csf, spectral_derivative,
                           torus_area, torus_bnorm2, winding_number,
                           write_curve_csv)
from hkflow.errors import (DegenerateDerivative, GeometryError,
                           InsufficientHistory, OriginCollision, PointOnCurve,
                           StabilityViolation)
from hkflow.flow import march, type1_monitor
from hkflow.surfaces import frames, mean_curvature
from hkflow.util import BLOCK, readonly


def _limacon(n=256):
    return PlaneCurve.from_function(
        lambda x: (1.0 + 2.0 * np.exp(1j * x)) * np.exp(1j * x), n=n)


# -- construction and derivatives ----------------------------------------------

def test_curve_validation():
    with pytest.raises(ValueError):
        PlaneCurve(np.exp(1j * np.linspace(0, 2 * np.pi, 8)))  # too few
    with pytest.raises(ValueError):
        PlaneCurve(np.ones(32, dtype=complex))  # not immersed
    x = 2 * np.pi * np.arange(64) / 64
    with pytest.raises(OriginCollision):
        PlaneCurve(np.cos(x) + 1j * np.sin(x) - 1.0)  # touches the origin


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_curve_rejects_non_finite_samples(bad):
    """Every check of a sample that is NaN comes out False, so without a
    finiteness test such a curve built and ran."""
    z = PlaneCurve.circle(1.0, n=64).samples.copy()
    z[5] = bad
    with pytest.raises(ValueError, match="^curve samples must be finite$"):
        PlaneCurve(z)


def test_curve_rejects_a_diameter_outside_the_supported_range():
    lo, hi = DIAMETER_RANGE
    for radius in (0.3 * lo, 0.4 * hi):
        with pytest.raises(ValueError, match="outside the supported range"):
            PlaneCurve.circle(radius, n=32)


def test_step_out_of_the_supported_range_is_a_geometry_error():
    """A step to a curve PlaneCurve rejects raises a GeometryError, which a
    caller can tell from a bad input's ValueError."""
    radius = 0.36 * DIAMETER_RANGE[0]   # diameter 2 sqrt(2) radius
    with pytest.raises(GeometryError, match="outside the supported range"):
        run_csf(PlaneCurve.circle(radius, n=32), t_end=0.1 * radius ** 2)


def test_spectral_derivative_modes():
    n = 64
    x = 2 * np.pi * np.arange(n) / n
    z = np.exp(3j * x)
    assert np.allclose(spectral_derivative(z, 1), 3j * z, atol=1e-12)
    assert np.allclose(spectral_derivative(z, 2), -9.0 * z, atol=1e-12)
    # the Nyquist mode carries no odd derivative on an even grid
    nyq = np.cos(0.5 * n * x)
    assert np.max(np.abs(spectral_derivative(nyq, 1))) < 1e-12


@pytest.mark.parametrize("n", [31, 32])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_derivative_bitwise_matches_reference(n, order):
    z = np.random.default_rng(n + order).standard_normal((n, 2)) @ [1, 1j]
    factor = (1j * np.fft.fftfreq(n, d=1.0 / n)) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[n // 2] = 0.0
    expect = np.fft.ifft(np.fft.fft(z) * factor)
    assert np.array_equal(spectral_derivative(z, order), expect)


def test_spectral_factors_are_cached_read_only():
    spectrum = _spectrum(64)
    for table in spectrum:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert _spectrum(64) is spectrum
    assert spectrum.derivative[0, 32] == 0.0


# The five cached factor tables the spectral table replaced, body for body:
# the reference route of test_spectrum_bitwise_matches_the_factor_tables.

@functools.lru_cache(maxsize=32)
def _reference_modes(n):
    return readonly(np.fft.fftfreq(n, d=1.0 / n))


@functools.lru_cache(maxsize=64)
def _reference_derivative_factor(n, order):
    factor = (1j * _reference_modes(n)) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[n // 2] = 0.0
    return readonly(factor)


@functools.lru_cache(maxsize=32)
def _reference_derivative_stack(n):
    return readonly(np.stack([_reference_derivative_factor(n, 1),
                              _reference_derivative_factor(n, 2)]))


@functools.lru_cache(maxsize=32)
def _reference_filter_profile(n):
    k = np.abs(_reference_modes(n)) / (n // 2)
    return readonly(np.exp(-36.0 * k ** 36))


@functools.lru_cache(maxsize=32)
def _reference_filter_stack(n):
    profile = _reference_filter_profile(n)
    return readonly(np.concatenate(([profile],
                                    profile * _reference_derivative_stack(n))))


def _assert_same_bits(got, want):
    """Equal values and equal sign bits, so -0.0 differs from 0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)),
                          np.signbit(want.view(float)))


@pytest.mark.parametrize("n", [16, 17, 64, 255, 256, 512])
def test_spectrum_bitwise_matches_the_factor_tables(n):
    """The table is cached, read-only in every field and, signs of zero
    included, the factor tables it replaced: odd grids keep their top mode
    in the first derivative, even grids zero it."""
    spectrum = _spectrum(n)
    assert _spectrum(n) is spectrum
    for table in spectrum:
        assert not table.flags.writeable
    _assert_same_bits(spectrum.modes, _reference_modes(n))
    _assert_same_bits(spectrum.derivative, _reference_derivative_stack(n))
    _assert_same_bits(spectrum.filtered, _reference_filter_stack(n))
    assert (spectrum.derivative[0, n // 2] == 0.0) == (n % 2 == 0)


def test_curve_measures_stored_at_construction():
    c = _limacon(64)
    z = c.samples
    assert not z.flags.writeable
    assert c.diameter() == float(np.hypot(np.ptp(z.real), np.ptp(z.imag)))
    assert c.min_spacing() == float(np.min(np.abs(np.roll(z, -1) - z)))


def test_curvature_vector_circle():
    for r in (1.0, 0.5):
        c = PlaneCurve.circle(r, n=128)
        assert np.allclose(curvature_vector(c), -c.samples / r ** 2,
                           atol=1e-12)


def test_curvature_vector_ellipse():
    n = 256
    x = 2 * np.pi * np.arange(n) / n
    c = PlaneCurve(2.0 * np.cos(x) + 1j * np.sin(x))
    expect = 2.0 / (4.0 * np.sin(x) ** 2 + np.cos(x) ** 2) ** 1.5
    assert np.max(np.abs(np.abs(curvature_vector(c)) - expect)) < 1e-10


def test_curvature_vector_degenerate_speed():
    c = PlaneCurve.from_function(lambda x: 3.0 + np.cos(x) + 0j * x, n=256)
    with pytest.raises(DegenerateDerivative):
        curvature_vector(c)
    with pytest.raises(DegenerateDerivative):
        diagnostics(c)


# -- flow ----------------------------------------------------------------------

def test_csf_circle_shrinking_law():
    """R(t) = sqrt(R0^2 - 4t): curvature and the radial projection add up."""
    res = run_csf(PlaneCurve.circle(1.0, n=128), t_end=0.05)
    final = res.final()
    expect = np.sqrt(1.0 - 4.0 * 0.05) * np.exp(1j * final.x)
    assert np.max(np.abs(final.samples - expect)) < 1e-12
    assert not res.truncated


def test_csf_fixed_step_keeps_the_exact_circle_radius():
    exact = np.sqrt(1.0 - 4.0 * 0.01)
    rk = run_csf(PlaneCurve.circle(1.0, n=128), t_end=0.01, dt=1e-5)
    assert np.max(np.abs(np.abs(rk.final().samples) - exact)) < 1e-12


def test_csf_step_guards():
    c = PlaneCurve.circle(1.0, n=64)
    h = c.min_spacing()
    with pytest.raises(StabilityViolation):
        csf_step(c, dt=0.3 * h * h)
    # the step has one integrator and no scheme to choose
    with pytest.raises(TypeError):
        csf_step(c, dt=1e-5, scheme="semi-implicit")
    # a loop skimming the origin trips the guard band on the first step
    near = PlaneCurve.circle(1.0, center=1.0005, n=128)
    with pytest.raises(OriginCollision):
        csf_step(near, dt=1e-6)
    res = run_csf(near, t_end=1e-4, dt=1e-6)
    assert res.truncated


def test_csf_equivariance():
    """The flow commutes with the ambient circle action gamma -> e^{it}gamma."""
    base = PlaneCurve.from_function(
        lambda x: np.exp(1j * x) * (1.0 + 0.08 * np.cos(3 * x)), n=128)
    theta = 0.7
    a = run_csf(base, t_end=2e-3, dt=1e-5).final().samples
    b = run_csf(PlaneCurve(np.exp(1j * theta) * base.samples),
                t_end=2e-3, dt=1e-5).final().samples
    assert np.max(np.abs(np.exp(1j * theta) * a - b)) < 1e-10


def test_csf_snapshots_uniform():
    res = run_csf(PlaneCurve.circle(1.0, n=64), t_end=0.02, dt=1e-4,
                  snapshot_every=20)
    steps = np.diff(res.times)
    assert np.allclose(steps, steps[0], atol=1e-12)
    assert res.times[-1] == 0.02


def test_csf_stops_when_the_step_no_longer_advances_t():
    """Past the blow-up time T = 1/4 the adaptive step falls below half an
    ulp of t; the run stops there instead of looping at a fixed t."""
    res = run_csf(PlaneCurve.circle(1.0, n=16), t_end=0.3)
    assert res.truncated
    assert res.times[-1] < 0.25
    assert np.all(np.diff(res.times) > 0)


@pytest.mark.parametrize("every", [5, 7])
def test_truncated_run_ends_on_the_state_where_it_stopped(every):
    """A run that stalls between two snapshots still yields the state it
    stopped on, so the cadence does not move where the run ends.  This run
    stalls after 364 steps: a multiple of 7, but not of 5."""
    runs = [run_csf(PlaneCurve.circle(1.0, n=16), t_end=0.3,
                    snapshot_every=m) for m in (1, every)]
    assert all(r.truncated for r in runs)
    assert runs[1].times[-1] == runs[0].times[-1] < 0.25
    assert np.array_equal(runs[1].final().samples, runs[0].final().samples)


def test_perturbed_circle_runs_and_blows_up():
    pc = PlaneCurve.from_function(
        lambda x: np.exp(1j * x) * (1.0 + 0.05 * np.cos(3 * x)), n=256)
    res = run_csf(pc, t_end=0.03, snapshot_every=50)
    assert not res.truncated
    assert res.times[-1] == 0.03
    hist = b_norm_history(res)
    tail = hist.max_b[len(hist.max_b) // 2:]
    assert np.all(np.diff(tail) > 0)
    assert np.all(np.diff(hist.area) < 0)


def test_b_norm_history_one_transform_per_snapshot(monkeypatch):
    """max|B|, area and margin of every snapshot equal the separate
    per-quantity transforms bit for bit, and read the derivatives each
    curve measured at construction: no forward FFT at all."""
    from hkflow.phase import containment_margin

    res = run_csf(_limacon(64), t_end=2e-3, dt=5e-4)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a: calls.append(1) or fft(a))
    hist = b_norm_history(res)
    monkeypatch.undo()
    assert len(calls) == 0
    for k, c in enumerate(res.curves):
        z = c.samples
        w = z * spectral_derivative(z, 1)
        w = w / np.abs(w)
        lams = np.stack([np.zeros(len(z)), w.real, w.imag], axis=-1)
        assert hist.max_b[k] == float(np.sqrt(np.max(torus_bnorm2(c))))
        assert hist.area[k] == torus_area(c)
        assert hist.margin[k] == containment_margin(lams).margin


def test_b_norm_history_feeds_type1():
    res = run_csf(PlaneCurve.circle(1.0, n=128), t_end=0.08, dt=2e-5,
                  snapshot_every=400)
    report = type1_monitor(b_norm_history(res))
    assert abs(report.t_est - 0.25) < 1e-6


# -- winding and Maslov diagnostics ---------------------------------------------

def test_winding_numbers():
    assert winding_number(PlaneCurve.circle(1.0, n=64)) == 1
    assert winding_number(PlaneCurve.circle(0.5, center=2.0, n=64)) == 0
    assert winding_number(PlaneCurve.circle(1.0, n=64), p=3.0) == 0
    lim = _limacon()
    assert winding_number(lim) == 2
    # brute-force oracle: (1/2 pi i) loop integral of gamma'/gamma
    g1 = spectral_derivative(lim.samples, 1)
    oracle = np.mean(g1 / lim.samples) / 1j
    assert abs(oracle - 2.0) < 1e-12
    assert np.min(np.abs(lim.samples)) >= 1.0 - 1e-12


def test_winding_jitter_stable(rng):
    lim = _limacon()
    noise = 1e-6 * (rng.normal(size=lim.n) + 1j * rng.normal(size=lim.n))
    assert winding_number(PlaneCurve(lim.samples + noise)) == 2


def test_winding_point_on_curve():
    with pytest.raises(PointOnCurve):
        winding_number(PlaneCurve.circle(1.0, n=64), p=1.0)


def test_diagnostics_worked_examples():
    d = diagnostics(PlaneCurve.circle(1.0, n=64))
    assert (d.ind_gamma, d.ind_gammaprime) == (1, 1)
    assert abs(d.total_turning + 1.0) < 1e-12
    assert abs(d.maslov_defect - 2.0) < 1e-12

    d = diagnostics(PlaneCurve.circle(0.5, center=2.0, n=64))
    assert (d.ind_gamma, d.ind_gammaprime) == (0, 1)
    assert abs(d.maslov_defect - 1.0) < 1e-12

    # an embedded zero-Maslov representative: a figure eight about gamma = 3
    fig8 = PlaneCurve.from_function(
        lambda x: 3.0 + np.sin(x) + 0.5j * np.sin(2 * x), n=256)
    d = diagnostics(fig8)
    assert (d.ind_gamma, d.ind_gammaprime) == (0, 0)
    assert abs(d.total_turning) < 1e-12
    assert abs(d.maslov_defect) < 1e-12

    d = diagnostics(_limacon())
    assert (d.ind_gamma, d.ind_gammaprime) == (2, 2)
    assert abs(d.maslov_defect - 4.0) < 1e-12


def test_turning_equals_geodesic_curvature_integral():
    """The parameter form of the turning integral equals the arclength one.

    total_turning integrates -Im(gamma''/gamma') dx / 2pi; the geodesic
    curvature integral is (1/2pi) of kappa_signed ds with the normal
    -i gamma'/|gamma'|.  Their equality pins the sign conventions together.
    """
    n = 256
    x = 2 * np.pi * np.arange(n) / n
    for curve in (PlaneCurve(2.0 * np.cos(x) + 1j * np.sin(x)), _limacon()):
        d = diagnostics(curve)
        g1 = spectral_derivative(curve.samples, 1)
        kv = curvature_vector(curve)
        nrm = -1j * g1 / np.abs(g1)
        k_signed = np.real(kv * np.conj(nrm))
        ds_integral = float(np.mean(k_signed * np.abs(g1)))
        assert abs(ds_integral - d.total_turning) < 1e-10
        assert abs(d.total_turning + d.ind_gammaprime) < 1e-10


# -- torus lift -----------------------------------------------------------------

def test_embed_torus_requires_rings():
    with pytest.raises(ValueError):
        embed_torus(PlaneCurve.circle(1.0, n=32), ny=4)


def test_unit_circle_lift_is_flat_and_minimal_nowhere():
    """The unit-circle lift carries the metric dx^2 + dy^2 and |H|^2 = 4."""
    fam = TorusFromCurve(PlaneCurve.circle(1.0, n=64))
    u = np.linspace(0.0, 2 * np.pi, 9)[:-1]
    v = np.linspace(0.0, 2 * np.pi, 7)[:-1]
    ug, vg = np.meshgrid(u, v, indexing="ij")
    jet = fam.jet(ug, vg)
    fr = frames(jet)
    assert np.allclose(fr.g, np.eye(2), atol=1e-10)
    h = mean_curvature(jet, fr)
    assert np.allclose(np.sum(h * h, axis=-1), 4.0, atol=1e-10)


def test_torus_area_and_bnorm_of_circles():
    for r in (1.0, 2.0):
        c = PlaneCurve.circle(r, n=128)
        assert np.isclose(torus_area(c), 4.0 * np.pi ** 2 * r * r, rtol=1e-12)
        assert np.allclose(torus_bnorm2(c), 4.0 / r ** 2, atol=1e-10)


def test_torus_bnorm_matches_family():
    """Curve-side |B|^2 agrees with the ambient second fundamental form."""
    from hkflow.surfaces import second_fundamental_form

    curve = PlaneCurve.from_function(
        lambda x: np.exp(1j * x) * (1.0 + 0.1 * np.cos(2 * x)), n=64)
    fam = TorusFromCurve(curve)
    jet = fam.jet(curve.x, np.zeros(curve.n))
    sff = second_fundamental_form(jet, frames(jet))
    amb = np.sum(sff * sff, axis=(-3, -2, -1))
    assert np.allclose(torus_bnorm2(curve), amb, atol=1e-8)


def test_embed_torus_mesh_matches_family_area():
    c = PlaneCurve.circle(1.0, n=96)
    mesh, fam = embed_torus(c, ny=48)
    assert mesh.is_closed
    # chordal mesh area converges to the smooth area from below
    assert abs(mesh.area() - torus_area(c)) / torus_area(c) < 5e-3


def test_gamma_jets_blocks_match_one_shot_product():
    fam = TorusFromCurve(_limacon(64))

    def one_shot(u):
        e = np.exp(1j * np.asarray(u)[..., None] * fam._k)
        return [e @ c for c in fam._coefs]

    rng = np.random.default_rng(3)
    for shape in [(2 * BLOCK + 1,), (70, 71), (), (5,)]:
        u = rng.uniform(0.0, 2 * np.pi, shape)
        got = fam._gamma_jets(u)
        for a, b in zip(got, one_shot(u)):
            assert a.shape == np.shape(u)
            assert np.array_equal(a, b)


@pytest.mark.parametrize("nu, nv", [(128, 128), (5, 3), (2, 7), (3, 2),
                                    (1, 6)])
def test_gamma_jets_once_per_distinct_parameter(nu, nv):
    """A parameter grid is evaluated on its distinct u and gathered back,
    with the bits of the one-shot product over every point."""
    fam = TorusFromCurve(_limacon(64))
    uu, _vv = np.meshgrid(np.linspace(0.1, 6.0, nu), np.arange(nv),
                          indexing="ij")
    sizes = []
    block_jets = fam._block_jets
    fam._block_jets = lambda u: sizes.append(u.size) or block_jets(u)
    got = fam._gamma_jets(uu)
    # a lone distinct value is evaluated on every point (see _gamma_jets)
    assert sizes == [nu if nu > 1 else nu * nv]
    e = np.exp(1j * uu[..., None] * fam._k)
    for a, c in zip(got, fam._coefs):
        assert a.shape == uu.shape
        assert a.tobytes() == (e @ c).tobytes()


def test_write_curve_csv(tmp_path):
    c = PlaneCurve.circle(1.0, n=32)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, c)
    assert path.read_text().splitlines()[0] == "x,re,im"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (32, 3)
    assert np.allclose(rows[:, 0], c.x, atol=0)
    assert np.allclose(rows[:, 1] + 1j * rows[:, 2], c.samples, atol=0)


# -- kernels against their former routes ---------------------------------------

@pytest.mark.parametrize("n", [16, 17, 64, 255, 256, 512])
def test_first_two_derivatives_equal_two_spectral_derivatives(n):
    z = np.random.default_rng(n).standard_normal((n, 2)) @ [1, 1j]
    g1, g2 = _spectral_rows(z, _spectrum(n).derivative)
    for got, order in ((g1, 1), (g2, 2)):
        expect = spectral_derivative(z, order)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(expect.view(float)))


def _count_transforms(monkeypatch):
    calls = []
    fft, ifft = np.fft.fft, np.fft.ifft
    monkeypatch.setattr(np.fft, "fft", lambda a: calls.append(1) or fft(a))
    monkeypatch.setattr(np.fft, "ifft", lambda a: calls.append(1) or ifft(a))
    return calls


def test_rk4_step_makes_ten_transforms(monkeypatch):
    """Eight: three stages of one forward and one stacked inverse
    transform, and one filtered pair that gives the new curve with its
    derivatives; the first stage reads the derivatives the curve measured
    at construction.  (A step made ten before the filter and the new
    curve's derivatives shared a pair; the name is kept.)"""
    c = PlaneCurve.circle(1.0, n=256)
    calls = _count_transforms(monkeypatch)
    csf_step(c, 0.1 * c.min_spacing() ** 2)
    assert len(calls) == 8


def test_b_norm_history_snapshot_makes_two_transforms(monkeypatch):
    """A snapshot record reads the derivatives its curve measured at
    construction, so it makes no transform."""
    res = run_csf(_limacon(64), t_end=1e-3, dt=5e-4)
    calls = _count_transforms(monkeypatch)
    b_norm_history(res)
    assert len(calls) == 0


def test_plane_curve_construction_makes_one_transform_pair(monkeypatch):
    z = _limacon(64).samples
    calls = _count_transforms(monkeypatch)
    PlaneCurve(z)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [16, 17, 64, 255, 256, 512])
def test_derivatives_are_readonly_spectral_derivatives(n):
    """derivatives() is read-only and holds spectral_derivative orders 1
    and 2 bit for bit, signs of zero included."""
    z = np.random.default_rng(n).standard_normal((n, 2)) @ [1, 1j]
    d = PlaneCurve(z).derivatives()
    assert d.shape == (2, n) and not d.flags.writeable
    for got, order in ((d[0], 1), (d[1], 2)):
        expect = spectral_derivative(z, order)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(expect.view(float)))


def _random_curve_samples(rng, n):
    """A star-shaped loop about the origin with random low modes and
    sample jitter."""
    x = 2 * np.pi * np.arange(n) / n
    modes = rng.standard_normal((4, 2)) @ [1, 1j] * 0.1
    r = 1.0 + sum(m * np.exp(1j * (k + 1) * x) for k, m in enumerate(modes))
    loop = r * np.exp(1j * x) + 1e-3 * rng.standard_normal((n, 2)) @ [1, 1j]
    return rng.uniform(0.1, 10.0) * loop


def _reference_velocity(samples, d):
    """The flow velocity as csf_step formed it before, through the unit
    normal of _curvature_frame."""
    _, nrm, kap = _curvature_frame(d)
    gperp = np.real(samples * np.conj(nrm)) * nrm
    return kap - gperp / np.abs(samples) ** 2


def _reference_step(curve, dt):
    """The rk4 step as csf_step took it before: the velocity through the
    unit normal, the filter on its own transform pair, and the new curve
    measuring its derivatives from its samples."""
    def rhs(s):
        return _reference_velocity(s, np.fft.ifft(
            np.fft.fft(s) * _reference_derivative_stack(len(s))))

    z = curve.samples
    k1 = _reference_velocity(z, curve.derivatives())
    k2 = rhs(z + 0.5 * dt * k1)
    k3 = rhs(z + 0.5 * dt * k2)
    k4 = rhs(z + dt * k3)
    z_new = np.fft.ifft(np.fft.fft(z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
                       * _reference_filter_profile(len(z)))
    if np.abs(z_new).min() < 1e-3 * curve.diameter():
        raise OriginCollision("curve entered the origin guard band")
    return PlaneCurve(z_new)


def test_velocity_equals_the_unit_normal_route():
    rng = np.random.default_rng(25)
    for n in (16, 17, 64, 255, 256, 512):
        for _ in range(20):
            z = _random_curve_samples(rng, n)
            d = _spectral_rows(z, _spectrum(n).derivative)
            expect = _reference_velocity(z, d)
            err = np.max(np.abs(_velocity(z, d) - expect))
            assert err <= 4 * np.finfo(float).eps * np.max(np.abs(expect))


@pytest.mark.parametrize("n", [16, 17, 64, 255, 256, 512])
def test_filtered_rows_are_the_filter_and_its_derivatives(n):
    """Row 0 is the filtered values bit for bit, rows 1-2 the stacked
    inverse of the spectrum times the profile and (i k)^1, (i k)^2; a curve
    made from the rows carries them and is validated as PlaneCurve is."""
    rng = np.random.default_rng(n)
    v = _random_curve_samples(rng, n)
    rows = _spectral_rows(v, _spectrum(n).filtered)
    spectrum = np.fft.fft(v)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n)) / (n // 2)
    profile = np.exp(-36.0 * k ** 36)
    assert np.array_equal(profile, _spectrum(n).filtered[0])
    ik = _spectrum(n).derivative
    expect = [np.fft.ifft(spectrum * profile),
              *np.fft.ifft(spectrum * (profile * ik))]
    for got, want in zip(rows, expect):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))
    c = PlaneCurve._from_rows(rows)
    assert np.array_equal(c.samples, rows[0]) and not c.samples.flags.writeable
    assert np.array_equal(c.derivatives(), rows[1:])
    assert not c.derivatives().flags.writeable
    assert c.diameter() == PlaneCurve(rows[0]).diameter()
    with pytest.raises(ValueError, match="outside the supported range"):
        PlaneCurve._from_rows(rows * 1e120)


@pytest.mark.parametrize("eps, t_end, steps", [(0.0, 0.24, 6679),
                                               (0.05, 0.2, 4054)])
def test_rk4_step_agrees_with_the_reference_step(eps, t_end, steps):
    """csf_march takes as many steps as the reference route on the circle
    and on the perturbed circle (mode 3) and ends within 1e-12 of it."""
    c = PlaneCurve.from_function(
        lambda x: np.exp(1j * x) * (1 + eps * np.cos(3 * x)), n=256)
    *_, (k_ref, t_ref, ref) = march(c, _reference_step, t_end, None,
                                    10 ** 9, bound=_step_bound,
                                    stops=OriginCollision)
    *_, (k, t, got) = csf_march(c, t_end, snapshot_every=10 ** 9)
    assert k == k_ref == steps and t == t_ref == t_end
    err = np.max(np.abs(got.samples - ref.samples))
    assert err <= 1e-12 * np.max(np.abs(ref.samples))


@pytest.mark.parametrize("every", [1, 10, 25])
def test_a_run_stopped_at_the_blow_up_time_has_no_type1_fit(every):
    """The n = 16 circle run to T = 0.25 stops with tail times closer than
    sqrt(eps) t, which the Type-I fit refuses at every cadence."""
    res = run_csf(PlaneCurve.circle(1.0, n=16), t_end=0.25,
                  snapshot_every=every)
    assert res.truncated
    with pytest.raises(InsufficientHistory, match="too close together"):
        type1_monitor(b_norm_history(res))


def test_plane_curve_measures_equal_ptp_and_diff_routes():
    rng = np.random.default_rng(16)
    for n in (16, 17, 64, 255, 256):
        for _ in range(10):
            c = PlaneCurve(_random_curve_samples(rng, n))
            z = c.samples
            assert c.diameter() == float(np.hypot(np.ptp(z.real),
                                                  np.ptp(z.imag)))
            assert c.min_spacing() == float(
                np.abs(np.diff(z, append=z[:1])).min())


def test_plane_curve_and_guard_band_keep_their_errors():
    x = 2 * np.pi * np.arange(64) / 64
    with pytest.raises(ValueError,
                       match="^curve is not immersed at sample resolution$"):
        PlaneCurve(np.exp(1j * np.floor(x)))   # repeated consecutive samples
    with pytest.raises(OriginCollision,
                       match="^curve passes through the origin$"):
        PlaneCurve(np.exp(1j * x) - 1.0)
    near = PlaneCurve.circle(1.0, center=1.0005, n=128)
    with pytest.raises(OriginCollision,
                       match="^curve entered the origin guard band$"):
        csf_step(near, dt=1e-6)
