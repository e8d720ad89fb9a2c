"""Mesh flow, soliton residuals, blow-up monitoring, phase evolution."""
import json

import numpy as np
import pytest

from hkflow.errors import (InsufficientHistory, NotBlowingUp,
                           StabilityViolation)
from hkflow.flow import (FlowHistory, FlowState, blowup_point, mcf_step,
                         parabolic_rescale, phase_evolution_check, run_mcf,
                         shrinker_radius_by_bisection, shrinker_residual,
                         shrinker_residual_of_family, translator_residual,
                         type1_monitor)
from hkflow.mesh import (flat_square, icosphere, mesh_bnorm,
                         mesh_mean_curvature, mesh_phase_field, read_off4)
from hkflow.phase import arc_distance
from hkflow.surfaces import (Cylinder, GrimReaper, Plane, Sphere, frames,
                             mean_curvature)


# -- stepping -----------------------------------------------------------------

def test_explicit_guard():
    m = flat_square(6)
    state = FlowState.measure(m, 0.0)
    h_min = m.min_edge_length()
    with pytest.raises(StabilityViolation):
        mcf_step(state, dt=0.3 * h_min * h_min, scheme="explicit")
    out = mcf_step(state, dt=0.2 * h_min * h_min, scheme="explicit")
    # the flat square is minimal: nothing moves
    assert np.allclose(out.mesh.vertices, m.vertices, atol=1e-14)


def test_bad_scheme_and_dt():
    state = FlowState.measure(icosphere(1), 0.0)
    with pytest.raises(ValueError):
        mcf_step(state, dt=1e-3, scheme="leapfrog")
    with pytest.raises(ValueError):
        mcf_step(state, dt=0.0)


def test_semi_implicit_pins_boundary():
    m = flat_square(6)
    verts = m.vertices.copy()
    interior = ~m.boundary_vertex_mask
    bump = np.argmax(interior)
    verts[bump, 2] += 0.05
    state = FlowState.measure(m.with_vertices(verts), 0.0)
    out = mcf_step(state, dt=1e-3, scheme="semi-implicit")
    bdry = m.boundary_vertex_mask
    assert np.array_equal(out.mesh.vertices[bdry], verts[bdry])
    # the bump relaxes toward the plane
    assert 0 < out.mesh.vertices[bump, 2] < 0.05


def test_area_decreases_along_flow(icosphere_flow):
    assert np.all(np.diff(icosphere_flow.area) < 0)


def test_torus_area_decreases():
    from hkflow.curves import PlaneCurve, embed_torus

    mesh, _ = embed_torus(PlaneCurve.circle(1.0, n=48), ny=24)
    hist = run_mcf(mesh, dt=1e-3, t_end=0.01, scheme="semi-implicit")
    assert not hist.truncated
    assert np.all(np.diff(hist.area) < 0)


def test_run_mcf_log_and_checkpoints(tmp_path):
    log = tmp_path / "history.jsonl"
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    hist = run_mcf(icosphere(2), dt=1e-3, t_end=0.01,
                   scheme="semi-implicit", log_path=log,
                   checkpoint_every=5, checkpoint_dir=ckpt)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == len(hist.t) == 11
    assert set(records[0]) == {"t", "max_B", "max_H", "area", "margin"}
    assert np.allclose([r["area"] for r in records], hist.area, atol=0)
    files = sorted(p.name for p in ckpt.iterdir())
    assert files == ["checkpoint_000005.off", "checkpoint_000010.off"]
    m = read_off4(ckpt / "checkpoint_000010.off")
    assert np.allclose(m.vertices, hist.states[-1].mesh.vertices, atol=0)


@pytest.mark.parametrize("torus", [False, True], ids=["icosphere", "torus"])
def test_measure_matches_separate_estimators(torus):
    """One frames pass per state gives the same bits as separate calls."""
    if torus:
        from hkflow.curves import PlaneCurve, embed_torus
        mesh, _ = embed_torus(PlaneCurve.circle(1.0, n=32), ny=16)
    else:
        mesh = icosphere(3)
    state = FlowState.measure(mesh, 0.0)
    h, valid = mesh_mean_curvature(mesh)
    assert state.max_h == float(np.nanmax(np.linalg.norm(h[valid], axis=1)))
    assert state.max_b == float(np.nanmax(mesh_bnorm(mesh)))
    assert state.margin == float(np.min(arc_distance(mesh_phase_field(mesh))))


def test_run_mcf_fingerprint():
    """max|B| and area along a short flow, pinned to the last bit."""
    hist = run_mcf(icosphere(3), dt=1e-3, t_end=0.01)
    max_b = [1.4454841364939275, 1.4483780115346057, 1.4512890948374744,
             1.4542176057840484, 1.457163758661628, 1.460127763896506,
             1.4631098291072326, 1.4661101600051378, 1.4691289611654108,
             1.472166436688504, 1.4752227907683777]
    area = [12.506492733969928, 12.456615425578903, 12.406738716594937,
            12.356862611834883, 12.306987116172145, 12.257112234537612,
            12.207237971920673, 12.157364333370257, 12.107491323995923,
            12.057618948968946, 12.007747213523436]
    assert hist.max_b.tolist() == max_b
    assert hist.area.tolist() == area


def test_flow_mesh_outputs_byte_identical(tmp_path):
    from hkflow.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text("[mesh]\nkind = icosphere\nsubdivisions = 2\n"
                   "[flow]\ndt = 1e-3\nt_end = 0.01\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--config", str(cfg), "--out", str(out),
                     "flow-mesh"]) == 0
    for name in ("history.jsonl", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_mcf_truncates_under_resolved():
    # a coarse sphere already violates max|B| * h_min <= 0.5 at t = 0
    hist = run_mcf(icosphere(1), dt=1e-3, t_end=0.05)
    assert hist.truncated
    assert len(hist.t) == 1


def test_history_times_must_increase():
    with pytest.raises(ValueError):
        FlowHistory(t=np.array([0.0, 0.1, 0.1]),
                    max_b=np.ones(3), area=np.ones(3))


# -- soliton residuals --------------------------------------------------------

def test_shrinker_residuals_of_families():
    assert shrinker_residual_of_family(Plane()) < 1e-14
    assert shrinker_residual_of_family(
        Cylinder(np.sqrt(2.0), half_length=2.0)) < 1e-10
    assert abs(shrinker_residual_of_family(Sphere(1.0)) - 1.5) < 1e-10
    assert shrinker_residual_of_family(Sphere(2.0)) < 1e-10


def test_shrinker_radius_by_bisection():
    r = shrinker_radius_by_bisection(
        lambda r: Cylinder(r, half_length=1.0), lo=1.0, hi=2.0)
    assert abs(r - np.sqrt(2.0)) < 1e-8
    with pytest.raises(ValueError):
        shrinker_radius_by_bisection(
            lambda r: Cylinder(r, half_length=1.0), lo=1.5, hi=2.0)


def _reaper_grid(n=33):
    gr = GrimReaper()
    u = np.linspace(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, n)  # includes u = 0
    v = np.zeros_like(u)
    jet = gr.jet(u, v)
    fr = frames(jet)
    return u, fr, mean_curvature(jet, fr)


def test_translator_residual_reaper():
    _, fr, h = _reaper_grid()
    assert translator_residual(fr, h, (0.0, 0.0, 1.0, 0.0)) < 1e-8


def test_translator_residual_plane_contains_velocity():
    pl = Plane()
    jet = pl.jet(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    fr = frames(jet)
    h = mean_curvature(jet, fr)
    assert translator_residual(fr, h, (1.0, 0.0, 0.0, 0.0)) < 1e-14


def test_translator_residual_wrong_velocity():
    # with the velocity pointed along the second normal the defect is
    # sqrt(cos^2 u + 1), maximal at the spine: sqrt(2)
    u, fr, h = _reaper_grid()
    res = translator_residual(fr, h, (0.0, 0.0, 0.0, 1.0))
    assert abs(res - np.sqrt(2.0)) < 1e-12
    assert abs(res - np.max(np.sqrt(np.cos(u) ** 2 + 1.0))) < 1e-12


def test_translator_residual_requires_unit_velocity():
    _, fr, h = _reaper_grid(5)
    with pytest.raises(ValueError):
        translator_residual(fr, h, (0.0, 0.0, 2.0, 0.0))


# -- Type-I monitoring --------------------------------------------------------

def test_type1_monitor_exact_model():
    t = np.linspace(0.0, 0.2, 21)
    b = 1.0 / np.sqrt(2.0 * (0.25 - t))
    hist = FlowHistory(t=t, max_b=b, area=np.ones_like(t))
    report = type1_monitor(hist)
    assert abs(report.t_est - 0.25) < 1e-12
    assert abs(report.sup_rescaled - 1.0 / np.sqrt(2.0)) < 1e-12
    assert report.ci_halfwidth < 1e-10


def test_type1_monitor_on_mesh_flow(icosphere_flow):
    report = type1_monitor(icosphere_flow)
    assert abs(report.t_est - 0.25) / 0.25 < 0.02


def test_type1_monitor_rejects_flat_history():
    t = np.linspace(0.0, 1.0, 10)
    hist = FlowHistory(t=t, max_b=np.ones_like(t), area=np.ones_like(t))
    with pytest.raises(NotBlowingUp):
        type1_monitor(hist)


def test_type1_monitor_needs_history():
    t = np.linspace(0.0, 0.1, 4)
    hist = FlowHistory(t=t, max_b=1.0 + t, area=np.ones_like(t))
    with pytest.raises(InsufficientHistory):
        type1_monitor(hist)


# -- rescaling ----------------------------------------------------------------

def test_parabolic_rescale_identity(icosphere_flow):
    state = icosphere_flow.states[-1]
    out = parabolic_rescale(state, 1.0, np.zeros(4), 0.0)
    assert np.isclose(out.max_b, state.max_b, rtol=1e-12)
    assert np.isclose(out.area, state.area, rtol=1e-12)
    assert np.isclose(out.t, state.t, atol=0)


def test_parabolic_rescale_scaling_laws(icosphere_flow):
    state = icosphere_flow.states[-1]
    idx, q = blowup_point(state)
    assert idx == int(np.nanargmax(mesh_bnorm(state.mesh)))
    out = parabolic_rescale(state, 2.0, np.zeros(4), 0.1)
    assert np.isclose(out.max_b, 0.5 * state.max_b, rtol=1e-10)
    assert np.isclose(out.area, 4.0 * state.area, rtol=1e-12)
    assert np.isclose(out.t, 4.0 * (state.t - 0.1), atol=1e-15)
    # normalizing by the curvature scale brings max|B| to 1
    unit = parabolic_rescale(state, state.max_b, q, state.t)
    assert np.isclose(unit.max_b, 1.0, rtol=1e-10)
    assert unit.t == 0.0
    # the phase field is scale and translation invariant
    from hkflow.mesh import mesh_phase_field
    lam0 = mesh_phase_field(state.mesh)
    lam1 = mesh_phase_field(unit.mesh)
    assert np.allclose(lam0, lam1, atol=1e-12)
    with pytest.raises(ValueError):
        parabolic_rescale(state, 0.0, q, 0.0)


# -- phase evolution ----------------------------------------------------------

def test_phase_evolution_static_plane():
    states = [(0.1 * k, Plane()) for k in range(6)]
    report = phase_evolution_check(states, np.array([0.3, -0.2]),
                                   np.array([0.1, 0.4]))
    assert report.residual == 0.0
    assert len(report.per_snapshot) == len(report.times) == 2


def test_phase_evolution_shrinking_sphere():
    times = np.linspace(0.0, 0.06, 7)
    states = [(t, Sphere(np.sqrt(1.0 - 4.0 * t))) for t in times]
    u = np.array([1.1, 1.9, 0.7])
    v = np.array([0.3, 2.0, 4.4])
    report = phase_evolution_check(states, u, v)
    assert report.residual < 1e-10


def test_phase_evolution_input_validation():
    with pytest.raises(InsufficientHistory):
        phase_evolution_check([(0.0, Plane()), (0.1, Plane())],
                              np.array([0.0]), np.array([0.0]))
    bad = [(0.0, Plane()), (0.1, Plane()), (0.25, Plane())]
    with pytest.raises(ValueError):
        phase_evolution_check(bad, np.array([0.0]), np.array([0.0]))


def test_shrinker_residual_direct_sphere():
    sp = Sphere(1.0)
    jet = sp.jet(np.array([1.2]), np.array([0.7]))
    fr = frames(jet)
    h = mean_curvature(jet, fr)
    assert abs(shrinker_residual(jet.x, fr, h) - 1.5) < 1e-12
