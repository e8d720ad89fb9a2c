"""Jets, adapted frames, second fundamental form, mean curvature."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.errors import DegenerateJet, StencilOutOfDomain
from hkflow.structure import standard_structure
from hkflow.surfaces import (Cylinder, GrimReaper, NumericalJetSurface, Plane,
                             QuadraticGraph, Sphere, SurfaceJet, frames,
                             mean_curvature, normal_projection,
                             second_fundamental_form, tangential_projection)

S = standard_structure()
FAMILIES = [Plane(), Cylinder(), Sphere(), GrimReaper(),
            QuadraticGraph.random(np.random.default_rng(0))]


def _raw_circle_first_cylinder(u):
    """Unit cylinder parametrized circle-first, X = (cos u, sin u, v, 0)."""
    u = np.asarray(u, dtype=float)
    z = np.zeros_like(u)
    one = np.ones_like(u)
    x = np.stack([np.cos(u), np.sin(u), z, z], axis=-1)
    xu = np.stack([-np.sin(u), np.cos(u), z, z], axis=-1)
    xv = np.stack([z, z, one, z], axis=-1)
    xuu = np.stack([-np.cos(u), -np.sin(u), z, z], axis=-1)
    zero = np.zeros_like(x)
    return SurfaceJet(x, xu, xv, xuu, zero, zero.copy())


def test_circle_first_cylinder_raw_frames():
    u = np.linspace(0.0, 2 * np.pi, 9)
    fr = frames(_raw_circle_first_cylinder(u))
    e1_expect = np.stack([-np.sin(u), np.cos(u), 0 * u, 0 * u], axis=-1)
    e2_expect = np.stack([0 * u, 0 * u, 0 * u + 1, 0 * u], axis=-1)
    assert np.allclose(fr.e1, e1_expect, atol=1e-14)
    assert np.allclose(fr.e2, e2_expect, atol=1e-14)


def test_builtin_cylinder_phase_reference():
    """Axis-first unit cylinder: lam = (0, x2, -x1) on the cross circle."""
    fam = Cylinder(1.0)
    v = np.linspace(0.0, 2 * np.pi, 33)
    u = np.zeros_like(v)
    fr = frames(fam.jet(u, v))
    x = fam.jet(u, v).x
    expect = np.stack([0 * v, x[:, 1], -x[:, 0]], axis=-1)
    assert np.allclose(fr.lam, expect, atol=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_frames_orthonormal_adapted(fam, rng):
    u, v = fam.sample_domain(rng, 40)
    fr = frames(fam.jet(u, v))
    vecs = np.stack([fr.e1, fr.e2, fr.nu1, fr.nu2], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", vecs, vecs)
    assert np.allclose(gram, np.eye(4), atol=1e-12)
    assert np.allclose(np.linalg.norm(fr.lam, axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_frame_rotation_pins_normal_frame(fam, rng):
    """nu1 = J~_2 e1 and nu2 = J~_3 e1 for the lam-aligned rotated triple."""
    u, v = fam.sample_domain(rng, 25)
    fr = frames(fam.jet(u, v))
    je1 = np.einsum("aij,...j->...ai", S.j, fr.e1)
    a2 = np.einsum("...ai,...i->...a", je1, fr.nu1)
    a3 = np.einsum("...ai,...i->...a", je1, fr.nu2)
    rot = np.stack([fr.lam, a2, a3], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", rot, rot)
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(rot), 1.0, atol=1e-12)
    for k in range(len(np.atleast_1d(u))):
        rs = S.rotate(rot[k])
        assert np.allclose(rs.apply(2, fr.e1[k]), fr.nu1[k], atol=1e-10)
        assert np.allclose(rs.apply(3, fr.e1[k]), fr.nu2[k], atol=1e-10)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_sff_symmetric_and_normal_valued(fam, rng):
    u, v = fam.sample_domain(rng, 30)
    jet = fam.jet(u, v)
    fr = frames(jet)
    sff = second_fundamental_form(jet, fr)
    assert np.allclose(sff[..., 0, 1], sff[..., 1, 0], atol=1e-10)


def test_sphere_cylinder_curvature_values(rng):
    for r in (1.0, 0.5, 2.0):
        u, v = Sphere(r).sample_domain(rng, 20)
        jet = Sphere(r).jet(u, v)
        fr = frames(jet)
        h = mean_curvature(jet, fr, second_fundamental_form(jet, fr))
        assert np.allclose(np.linalg.norm(h, axis=-1), 2.0 / r, atol=1e-9)
        # H points to the center: H = -2 X / r^2
        assert np.allclose(h, -2.0 * jet.x / r**2, atol=1e-9)
    u, v = Cylinder(1.5).sample_domain(rng, 20)
    jet = Cylinder(1.5).jet(u, v)
    fr = frames(jet)
    h = mean_curvature(jet, fr, second_fundamental_form(jet, fr))
    assert np.allclose(np.linalg.norm(h, axis=-1), 1.0 / 1.5, atol=1e-9)


def test_mean_curvature_routes_agree(rng):
    for fam in FAMILIES:
        u, v = fam.sample_domain(rng, 20)
        jet = fam.jet(u, v)
        fr = frames(jet)
        via_sff = mean_curvature(jet, fr, second_fundamental_form(jet, fr))
        direct = mean_curvature(jet, fr)
        assert np.allclose(via_sff, direct, atol=1e-9), fam.name


def test_projections_decompose(rng):
    fam = GrimReaper()
    u, v = fam.sample_domain(rng, 15)
    fr = frames(fam.jet(u, v))
    w = rng.normal(size=(15, 4))
    tang = tangential_projection(fr, w)
    norm = normal_projection(fr, w)
    assert np.allclose(tang + norm, w, atol=1e-12)
    assert np.max(np.abs(np.einsum("...i,...i->...", tang, fr.nu1))) < 1e-12
    assert np.max(np.abs(np.einsum("...i,...i->...", norm, fr.e1))) < 1e-12


# -- intrinsic curvature oracle ---------------------------------------------

def _efg(fam, u, v):
    jet = fam.jet(u, v)
    e = np.sum(jet.xu * jet.xu, axis=-1)
    f = np.sum(jet.xu * jet.xv, axis=-1)
    g = np.sum(jet.xv * jet.xv, axis=-1)
    return e, f, g


def _brioschi(fam, u, v, h=1e-3):
    """Gauss curvature from the metric alone (finite differences)."""
    pts = {}
    for du in (-1, 0, 1):
        for dv in (-1, 0, 1):
            pts[du, dv] = _efg(fam, u + du * h, v + dv * h)

    def d_u(i):
        return (pts[1, 0][i] - pts[-1, 0][i]) / (2 * h)

    def d_v(i):
        return (pts[0, 1][i] - pts[0, -1][i]) / (2 * h)

    def d_uu(i):
        return (pts[1, 0][i] - 2 * pts[0, 0][i] + pts[-1, 0][i]) / h**2

    def d_vv(i):
        return (pts[0, 1][i] - 2 * pts[0, 0][i] + pts[0, -1][i]) / h**2

    def d_uv(i):
        return (pts[1, 1][i] - pts[1, -1][i] - pts[-1, 1][i]
                + pts[-1, -1][i]) / (4 * h**2)

    e, f, g = pts[0, 0]
    m1 = np.array([
        [-0.5 * d_vv(0) + d_uv(1) - 0.5 * d_uu(2), 0.5 * d_u(0),
         d_u(1) - 0.5 * d_v(0)],
        [d_v(1) - 0.5 * d_u(2), e, f],
        [0.5 * d_v(2), f, g],
    ])
    m2 = np.array([
        [0.0 * e, 0.5 * d_v(0), 0.5 * d_u(2)],
        [0.5 * d_v(0), e, f],
        [0.5 * d_u(2), f, g],
    ])
    det = lambda m: np.linalg.det(np.moveaxis(m, (0, 1), (-2, -1)))
    return (det(m1) - det(m2)) / (e * g - f * f) ** 2


def test_gauss_curvature_is_intrinsic(rng):
    """sff-route Gauss curvature matches the metric-only Brioschi value."""
    from hkflow.phase import gauss_normal_curvatures

    for seed in (3, 17, 99):
        fam = QuadraticGraph.random(np.random.default_rng(seed))
        u, v = fam.sample_domain(rng, 9)
        jet = fam.jet(u, v)
        fr = frames(jet)
        kappa, _ = gauss_normal_curvatures(second_fundamental_form(jet, fr))
        assert np.allclose(kappa, _brioschi(fam, u, v), atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.0), st.integers(0, 2**32 - 1))
def test_sff_invariant_under_reparametrization(scale, seed):
    """Orthonormal-frame quantities only depend on the image, not the chart."""
    rng = np.random.default_rng(seed)
    base = QuadraticGraph.random(rng)
    repar = NumericalJetSurface(
        lambda u, v: base.jet(scale * u, v).x,
        domain=((-0.4 / scale, 0.4 / scale), (-0.4, 0.4)))
    u = rng.uniform(-0.3 / scale, 0.3 / scale, size=6)
    v = rng.uniform(-0.3, 0.3, size=6)

    jet_a = base.jet(scale * u, v)
    jet_b = repar.jet(u, v)
    fr_a, fr_b = frames(jet_a), frames(jet_b)
    assert np.allclose(fr_a.lam, fr_b.lam, atol=1e-8)
    sff_a = second_fundamental_form(jet_a, fr_a)
    sff_b = second_fundamental_form(jet_b, fr_b)
    assert np.allclose(sff_a, sff_b, atol=1e-5)
    h_a = mean_curvature(jet_a, fr_a, sff_a)
    h_b = mean_curvature(jet_b, fr_b, sff_b)
    assert np.allclose(h_a, h_b, atol=1e-5)


def test_numerical_jets_match_analytic(rng):
    fam = Cylinder(1.0)
    num = NumericalJetSurface(lambda u, v: fam.jet(u, v).x,
                              domain=fam.domain, periodic=fam.periodic)
    u, v = fam.sample_domain(rng, 12)
    ja, jn = fam.jet(u, v), num.jet(u, v)
    for name in ("x", "xu", "xv", "xuu", "xuv", "xvv"):
        assert np.allclose(getattr(ja, name), getattr(jn, name), atol=1e-5)


def test_check_stencil_guards_domain():
    with pytest.raises(StencilOutOfDomain):
        Sphere().check_stencil(0.0, 1.0, 1e-4)
    Sphere().check_stencil(1.0, 1.0, 1e-4)  # interior point fine


def test_sample_domain_respects_bounds(rng):
    def clamp(lo, hi):
        lo = -2.0 if not np.isfinite(lo) else lo
        hi = 2.0 if not np.isfinite(hi) else hi
        return lo, hi

    for fam in FAMILIES:
        u, v = fam.sample_domain(rng, 200)
        (u0, u1), (v0, v1) = (clamp(*b) for b in fam.domain)
        assert np.all(u >= u0) and np.all(u <= u1)
        assert np.all(v >= v0) and np.all(v <= v1)


def test_degenerate_jet_rejected():
    one = np.ones(4)
    jet = SurfaceJet(np.zeros(4), one, 2 * one, np.zeros(4), np.zeros(4),
                     np.zeros(4))
    with pytest.raises(DegenerateJet):
        frames(jet)
