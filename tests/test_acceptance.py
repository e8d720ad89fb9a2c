"""Acceptance gate: every advertised number, one test per claim.

Each test prints a single summary line so a -s run reads as a checklist.

Criteria 8c and 8d pin the Type I blow-up of the lifted shrinking unit
circle, (x, y) -> (r e^{ix} cos y, r e^{ix} sin y) with r^2 = 1 - 4t.  In
the unitary coordinates (z1 + i z2, z1 - i z2) / sqrt(2) this is a Clifford
torus with both factor radii rho = r / sqrt(2), so
|B|^2 = 2 / rho^2 = 4 / r^2 = 1 / (1/4 - t): 8 at t = 0.125, and
sqrt(T - t) max|B| = 1 identically.  The targets once recorded for these
two items, 4 and 1/sqrt(2), were only the diagonal share
|B(e_x, e_x)|^2 + |B(e_y, e_y)|^2 in the lift's (x, y) frame; they left out
the off-diagonal share 2 |B(e_x, e_y)|^2, which carries the other half.
Each of 8c and 8d is followed by a twin (8c', 8d') that checks the same law
by a different evaluation.
"""
import numpy as np
import pytest

from hkflow.curves import (PlaneCurve, TorusFromCurve, b_norm_history,
                           diagnostics, run_csf, torus_area, torus_bnorm2)
from hkflow.flow import (FlowHistory, parabolic_rescale,
                         phase_evolution_check, run_mcf,
                         shrinker_radius_by_bisection,
                         shrinker_residual_of_family, translator_residual,
                         type1_monitor)
from hkflow.mesh import icosphere, mesh_bnorm, mesh_phase_field
from hkflow.phase import (containment_margin, degree, energy_split,
                          euler_numbers, gauss_normal_curvatures,
                          phase_differential, phase_sample_exact)
from hkflow.structure import standard_structure
from hkflow.surfaces import (Cylinder, GrimReaper, Plane, QuadraticGraph,
                             Sphere, frames, mean_curvature,
                             second_fundamental_form)

S = standard_structure()


def _line(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:>3s}: {'PASS' if ok else 'FAIL'}  ({detail})")


def test_criterion_01_structure_identities():
    res = S.quaternionic_residual()
    _line("1", res <= 1e-14, f"quaternionic residual {res:.3e}")
    assert res <= 1e-14


def test_criterion_02_cylinder_phase_and_containment():
    cyl = Cylinder(1.0, half_length=1.0)
    u = np.linspace(-0.9, 0.9, 10)
    v = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    ug, vg = np.meshgrid(u, v, indexing="ij")
    jet = cyl.jet(ug, vg)
    lam = frames(jet).lam
    expect = np.stack([np.zeros_like(jet.x[..., 0]), jet.x[..., 1],
                       -jet.x[..., 0]], axis=-1)
    gap = float(np.max(np.abs(lam - expect)))
    report = containment_margin(lam.reshape(-1, 3))
    ok = gap <= 1e-12 and report.violation
    _line("2", ok, f"max gap {gap:.3e}, flagged={report.violation}")
    assert gap <= 1e-12
    assert report.violation and report.margin == 0.0


def test_criterion_03_grim_reaper_profile():
    gr = GrimReaper()
    u = np.linspace(-np.pi / 2 + 0.02, np.pi / 2 - 0.02, 200)
    v = np.zeros_like(u)
    jet = gr.jet(u, v)
    fr = frames(jet)
    sff = second_fundamental_form(jet, fr)
    h = mean_curvature(jet, fr, sff)
    sample = phase_sample_exact(gr, u, v)
    c2 = np.cos(u) ** 2
    b2 = np.sum(sff * sff, axis=(-3, -2, -1))
    gaps = [float(np.max(np.abs(b2 - c2))),
            float(np.max(np.abs(np.sum(h * h, axis=-1) - c2))),
            float(np.max(np.abs(sample.dj_norm2() - c2)))]
    res = translator_residual(fr, h, (0.0, 0.0, 1.0, 0.0))
    ok = max(gaps) <= 1e-6 and res < 1e-8
    _line("3", ok, f"profile gaps {max(gaps):.3e}, translator {res:.3e}")
    assert max(gaps) <= 1e-6
    assert res < 1e-8


def test_criterion_04_energy_identity_all_families(rng):
    worst = 0.0
    for fam in (Plane(), Cylinder(0.7, half_length=2.0), Sphere(1.4),
                GrimReaper(), QuadraticGraph.random(rng)):
        u, v = fam.sample_domain(rng, 100)
        jet = fam.jet(u, v)
        h = mean_curvature(jet, frames(jet))
        res = energy_split(phase_differential(fam, u, v), h)
        worst = max(worst, float(np.max(res)))
    _line("4", worst <= 1e-6, f"worst energy residual {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_05_det_dj_identities(rng):
    worst_k = worst_e = 0.0
    for _ in range(20):
        fam = QuadraticGraph.random(rng)
        u, v = fam.sample_domain(rng, 20)
        jet = fam.jet(u, v)
        fr = frames(jet)
        sff = second_fundamental_form(jet, fr)
        kappa, kperp = gauss_normal_curvatures(sff)
        h = mean_curvature(jet, fr, sff)
        fd = phase_differential(fam, u, v)  # det dJ from the FD oracle
        worst_k = max(worst_k, float(np.max(np.abs(fd.detdj - kappa - kperp))))
        alt = 0.5 * np.sum(h * h, axis=-1) - 0.5 * fd.dj_norm2()
        worst_e = max(worst_e, float(np.max(np.abs(fd.detdj - alt))))
    ok = worst_k <= 1e-6 and worst_e <= 1e-6
    _line("5", ok, f"kappa form {worst_k:.3e}, energy form {worst_e:.3e}")
    assert worst_k <= 1e-6
    assert worst_e <= 1e-6


def test_criterion_06_degree_and_euler_numbers():
    torus = TorusFromCurve(PlaneCurve.circle(1.0, n=64))
    d_torus = degree(torus, n=48)
    sphere = Sphere(1.0)
    d_sphere = degree(sphere, n=64)
    chi_t, chi_n = euler_numbers(sphere, n=64)
    gap = abs(2.0 * d_sphere - chi_t - chi_n)
    ok = abs(d_torus) <= 1e-3 and gap <= 1e-2
    _line("6", ok, f"torus degree {d_torus:.3e}, sphere two-sided gap "
          f"{gap:.3e}")
    assert abs(d_torus) <= 1e-3
    assert gap <= 1e-2


def test_criterion_07_shrinking_cylinder():
    res = shrinker_residual_of_family(Cylinder(np.sqrt(2.0), half_length=1.0))
    root = shrinker_radius_by_bisection(
        lambda r: Cylinder(r, half_length=1.0), lo=1.0, hi=2.0)
    ok = res < 1e-10 and abs(root - np.sqrt(2.0)) <= 1e-8
    _line("7", ok, f"residual {res:.3e}, root {root:.12f}")
    assert res < 1e-10
    assert abs(root - np.sqrt(2.0)) <= 1e-8


def test_criterion_08a_circle_solution(circle_flow):
    worst = 0.0
    for t, curve in zip(circle_flow.times, circle_flow.curves):
        radius = 2.0 * np.sqrt(0.25 - t)
        expect = radius * np.exp(1j * curve.x)
        worst = max(worst, float(np.max(np.abs(curve.samples - expect))
                                 / radius))
    _line("8a", worst <= 1e-3, f"relative solution error {worst:.3e}")
    assert worst <= 1e-3


def test_criterion_08b_blowup_time(circle_flow):
    report = type1_monitor(b_norm_history(circle_flow))
    gap = abs(report.t_est - 0.25)
    _line("8b", gap <= 1e-3, f"T_est {report.t_est:.6f}")
    assert gap <= 1e-3


def _bnorm2_at(circle_flow, t_target):
    k = int(np.argmin(np.abs(circle_flow.times - t_target)))
    t = float(circle_flow.times[k])
    return t, float(np.max(torus_bnorm2(circle_flow.curves[k])))


def test_criterion_08c_curvature_level_stated(circle_flow):
    # target: |B|^2 = 1 / (1/4 - t) = 8 at t = 0.125 (the Clifford-torus
    # law of the module docstring).  The snapshot grid misses 0.125, so
    # the last snapshot before it is continued to land on 0.125 exactly;
    # the twin below checks the law at the nearest snapshot instead.
    k = int(np.searchsorted(circle_flow.times, 0.125, side="right")) - 1
    t_k = float(circle_flow.times[k])
    rest = run_csf(circle_flow.curves[k], t_end=0.125 - t_k)
    t = t_k + float(rest.times[-1])
    assert abs(t - 0.125) <= 1e-12
    b2 = float(np.max(torus_bnorm2(rest.final())))
    gap = abs(b2 - 8.0) / 8.0
    _line("8c", gap <= 0.01, f"|B|^2({t:.4f}) = {b2:.4f}, target 8")
    assert gap <= 0.01


def test_criterion_08c_curvature_level_law(circle_flow):
    t, b2 = _bnorm2_at(circle_flow, 0.125)
    law = 1.0 / (0.25 - t)
    gap = abs(b2 - law) / law
    _line("8c'", gap <= 0.01, f"|B|^2({t:.4f}) = {b2:.4f}, law {law:.4f}")
    assert gap <= 0.01


def _generic_b_norm_history(result) -> FlowHistory:
    # max|B| of each lifted torus from its jets through frames and the
    # second fundamental form, sharing no code with torus_bnorm2.  |B| is
    # constant on the circle lift, so a coarse (x, y) grid suffices.
    u, v = np.meshgrid(np.linspace(0.0, 2 * np.pi, 8, endpoint=False),
                       np.linspace(0.0, 2 * np.pi, 4, endpoint=False),
                       indexing="ij")
    max_b = []
    for curve in result.curves:
        jet = TorusFromCurve(curve).jet(u, v)
        sff = second_fundamental_form(jet, frames(jet))
        max_b.append(float(np.sqrt(np.max(np.sum(sff * sff,
                                                 axis=(-3, -2, -1))))))
    area = np.array([torus_area(c) for c in result.curves])
    return FlowHistory(t=np.asarray(result.times, dtype=float),
                       max_b=np.array(max_b), area=area,
                       truncated=result.truncated)


def test_criterion_08d_rescaled_sup_stated(circle_flow):
    # target: sqrt(T - t) max|B| = 1 identically (the Clifford-torus law of
    # the module docstring), with max|B| by the generic jet -> frames ->
    # sff route; the twin below takes it from the curve route instead.
    report = type1_monitor(_generic_b_norm_history(circle_flow))
    gap = abs(report.sup_rescaled - 1.0)
    _line("8d", gap <= 1e-2, f"sup {report.sup_rescaled:.6f}, target 1")
    assert gap <= 1e-2


def test_criterion_08d_rescaled_sup_law(circle_flow):
    report = type1_monitor(b_norm_history(circle_flow))
    gap = abs(report.sup_rescaled - 1.0)
    _line("8d'", gap <= 1e-2, f"sup {report.sup_rescaled:.6f}, law 1")
    assert gap <= 1e-2


def test_criterion_09_maslov_diagnostics():
    ok = True
    for n in (128, 256):
        d = diagnostics(PlaneCurve.circle(1.0, n=n))
        ok &= d.ind_gamma == 1 and d.ind_gammaprime == 1
        ok &= abs(d.total_turning + 1.0) <= 1e-12
        ok &= abs(d.maslov_defect - 2.0) <= 1e-12
    _line("9", ok, "circle defect 2, indices integer-exact at N=128,256")
    assert ok


def _phase_evolution_experiment(n, dt, snapshot_every):
    # the exact circle is a fixed point of the phase evolution, so refine
    # on a perturbed loop whose phase genuinely moves
    curve = PlaneCurve.from_function(
        lambda x: np.exp(1j * x) * (1.0 + 0.05 * np.cos(3 * x)), n=n)
    res = run_csf(curve, t_end=0.06, dt=dt, snapshot_every=snapshot_every)
    states = [(t, TorusFromCurve(c)) for t, c in zip(res.times, res.curves)]
    u = np.array([0.4, 2.2, 3.9])
    v = np.array([1.0, 2.8, 5.1])
    return phase_evolution_check(states, u, v)


def test_criterion_10_phase_evolution_refines():
    base = _phase_evolution_experiment(256, 1e-5, 1000)
    fine = _phase_evolution_experiment(512, 5e-6, 1000)
    ok_level = base.residual <= 1e-2
    # compare on the shared interior times; the finer run also has earlier
    # midpoints with no coarse counterpart
    ratios = []
    for t, r in zip(base.times, base.per_snapshot):
        j = int(np.argmin(np.abs(fine.times - t)))
        if abs(fine.times[j] - t) < 1e-12:
            ratios.append(r / fine.per_snapshot[j])
    ok_ratio = len(ratios) >= 3 and min(ratios) >= 4.0
    _line("10", ok_level and ok_ratio,
          f"residual {base.residual:.3e}, min shared-time ratio "
          f"{min(ratios):.1f}")
    assert ok_level
    assert ok_ratio


def test_criterion_11_mesh_radius_law_and_area():
    hist = run_mcf(icosphere(4, 1.0), dt=5e-4, t_end=0.2,
                   scheme="semi-implicit")
    assert not hist.truncated
    r2 = np.linalg.norm(hist.states[-1].mesh.vertices, axis=1) ** 2
    worst_final = float(np.max(np.abs(r2 - 0.2) / 0.2))
    law = 1.0 - 4.0 * hist.t
    ratio_err = float(np.max(np.abs(hist.area / hist.area[0] - law) / law))
    monotone = bool(np.all(np.diff(hist.area) < 0))
    from hkflow.curves import embed_torus
    tmesh, _ = embed_torus(PlaneCurve.circle(1.0, n=48), ny=24)
    thist = run_mcf(tmesh, dt=1e-3, t_end=0.01, scheme="semi-implicit")
    tmonotone = bool(np.all(np.diff(thist.area) < 0))
    ok = worst_final <= 0.02 and ratio_err <= 0.02 and monotone and tmonotone
    _line("11", ok, f"r^2 error {worst_final:.3%}, area-law error "
          f"{ratio_err:.3%}, monotone sphere/torus "
          f"{monotone}/{tmonotone}")
    assert worst_final <= 0.02
    assert ratio_err <= 0.02
    assert monotone and tmonotone


def test_criterion_12_rescaling_invariances(icosphere_flow):
    state = icosphere_flow.states[-1]
    eps = 3.0
    out = parabolic_rescale(state, eps, np.zeros(4), 0.0)
    b_gap = abs(out.max_b - state.max_b / eps) / (state.max_b / eps)
    lam_gap = float(np.max(np.abs(mesh_phase_field(out.mesh)
                                  - mesh_phase_field(state.mesh))))
    ok = b_gap <= 1e-10 and lam_gap <= 1e-12
    _line("12", ok, f"|B| scaling {b_gap:.3e}, phase drift {lam_gap:.3e}")
    assert b_gap <= 1e-10
    assert lam_gap <= 1e-12
