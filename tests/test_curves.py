"""Reduced plane-curve flow, winding diagnostics, and the torus lift."""
import numpy as np
import pytest

from hkflow.curves import (CurveFlowResult, PlaneCurve, TorusFromCurve,
                           b_norm_history, csf_step, curvature_vector,
                           diagnostics, embed_torus, run_csf,
                           spectral_derivative, torus_area, torus_bnorm2,
                           winding_number, write_curve_csv)
from hkflow.errors import (DegenerateDerivative, DegenerateSpacing,
                           OriginCollision, PointOnCurve, StabilityViolation)
from hkflow.flow import type1_monitor
from hkflow.surfaces import frames, mean_curvature


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
    from hkflow.curves import (_derivative_factor, _filter_profile,
                               _spectral_modes)
    for table in (_spectral_modes(64), _derivative_factor(64, 1),
                  _derivative_factor(64, 2), _filter_profile(64)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert _derivative_factor(64, 1) is _derivative_factor(64, 1)
    assert _derivative_factor(64, 1)[32] == 0.0


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
    with pytest.raises(DegenerateSpacing):
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


def test_csf_schemes_consistent():
    exact = np.sqrt(1.0 - 4.0 * 0.01)
    rk = run_csf(PlaneCurve.circle(1.0, n=128), t_end=0.01, dt=1e-5)
    assert np.max(np.abs(np.abs(rk.final().samples) - exact)) < 1e-12
    si = run_csf(PlaneCurve.circle(1.0, n=128), t_end=0.01, dt=1e-5,
                 scheme="semi-implicit")
    # first order in time, unconditionally stable
    assert np.max(np.abs(np.abs(si.final().samples) - exact)) < 1e-5


def test_csf_step_guards():
    c = PlaneCurve.circle(1.0, n=64)
    h = c.min_spacing()
    with pytest.raises(StabilityViolation):
        csf_step(c, dt=0.3 * h * h)
    with pytest.raises(ValueError):
        csf_step(c, dt=1e-5, scheme="euler")
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
    per-quantity transforms bit for bit, from one forward FFT each."""
    from hkflow.phase import containment_margin

    res = run_csf(_limacon(64), t_end=2e-3, dt=5e-4)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a: calls.append(1) or fft(a))
    hist = b_norm_history(res)
    monkeypatch.undo()
    assert len(calls) == len(res.curves)
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
    from hkflow.curves import JET_BLOCK
    fam = TorusFromCurve(_limacon(64))

    def one_shot(u):
        e = np.exp(1j * np.asarray(u)[..., None] * fam._k)
        return [e @ c for c in fam._coefs]

    rng = np.random.default_rng(3)
    for shape in [(2 * JET_BLOCK + 1,), (70, 71), (), (5,)]:
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
