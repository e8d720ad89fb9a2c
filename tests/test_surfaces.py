"""Jets, adapted frames, second fundamental form, mean curvature."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.errors import DegenerateJet, StencilOutOfDomain
from hkflow.structure import standard_structure
from hkflow.surfaces import (Cylinder, GrimReaper, NumericalJetSurface, Plane,
                             QuadraticGraph, Sphere, SurfaceJet, frames,
                             mean_curvature, midpoint_grid, normal_projection,
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


def test_window_clips_only_infinite_directions():
    from hkflow.curves import PlaneCurve, TorusFromCurve

    assert Sphere().window() == Sphere.domain
    torus = TorusFromCurve(PlaneCurve.circle(1.0, n=16))
    assert torus.window() == ((0.0, 2 * np.pi), (0.0, 2 * np.pi))
    assert Cylinder(1.0, half_length=7.0).window() == ((-7.0, 7.0),
                                                       (0.0, 2 * np.pi))
    assert Plane().window() == ((-4.0, 4.0), (-4.0, 4.0))
    assert GrimReaper().window() == ((-np.pi / 2, np.pi / 2), (-4.0, 4.0))
    wide = NumericalJetSurface(lambda u, v: None, scale=0.5,
                               domain=((0.0, np.inf), (-np.inf, 1.0)))
    assert wide.window() == ((0.0, 2.0), (-2.0, 1.0))


def test_sample_domain_respects_bounds(rng):
    for fam in FAMILIES:
        u, v = fam.sample_domain(rng, 200)
        (u0, u1), (v0, v1) = fam.window()
        assert np.all(u >= u0) and np.all(u <= u1)
        assert np.all(v >= v0) and np.all(v <= v1)


def test_degenerate_jet_rejected():
    one = np.ones(4)
    jet = SurfaceJet(np.zeros(4), one, 2 * one, np.zeros(4), np.zeros(4),
                     np.zeros(4))
    with pytest.raises(DegenerateJet):
        frames(jet)


# -- second fundamental form against the einsum route --------------------------

def _einsum_sff(jet, fr):
    """The second fundamental form as written before the explicit sums: one
    three-operand einsum over the stacked coordinate Hessian."""
    hess = np.stack([np.stack([jet.xuu, jet.xuv], axis=-2),
                     np.stack([jet.xuv, jet.xvv], axis=-2)], axis=-3)
    b = np.einsum("...ia,...jb,...abk->...ijk", fr.coeffs, fr.coeffs, hess)
    nu = np.stack([fr.nu1, fr.nu2], axis=-2)
    return np.einsum("...ijk,...ak->...aij", b, nu)


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _torus_lift():
    from hkflow.curves import PlaneCurve, TorusFromCurve
    return TorusFromCurve(PlaneCurve.from_function(
        lambda x: (1.5 + 0.4 * np.cos(3 * x)) * np.exp(1j * x), n=64))


SFF_FAMILIES = FAMILIES + [
    NumericalJetSurface(lambda u, v: Sphere().jet(u, v).x,
                        domain=Sphere.domain, periodic=Sphere.periodic),
    _torus_lift()]


@pytest.mark.parametrize("fam", SFF_FAMILIES, ids=lambda f: f.name)
def test_sff_matches_einsum_bits_on_window_grid(fam):
    u, v, _, _ = midpoint_grid(fam.window(), 48)
    jet = fam.jet(u, v)
    fr = frames(jet)
    _assert_same_bits(second_fundamental_form(jet, fr), _einsum_sff(jet, fr))


def test_sff_matches_einsum_bits_on_random_graphs_and_batch_shapes():
    rng = np.random.default_rng(16)
    for _ in range(20):
        fam = QuadraticGraph.random(rng)
        u, v = fam.sample_domain(rng, 12)
        for shape in ((), (12,), (3, 4)):
            uu, vv = (u[0], v[0]) if shape == () else (u.reshape(shape),
                                                       v.reshape(shape))
            jet = fam.jet(uu, vv)
            fr = frames(jet)
            sff = second_fundamental_form(jet, fr)
            assert sff.shape == shape + (2, 2, 2)
            _assert_same_bits(sff, _einsum_sff(jet, fr))


def test_sff_matches_einsum_bits_for_full_coefficient_matrices():
    """The summation order, not the triangular coeffs of frames, is what
    reproduces the einsum: dense coefficients with mixed signs match too."""
    from dataclasses import replace
    rng = np.random.default_rng(17)
    fam = Sphere()
    u, v = fam.sample_domain(rng, 30)
    jet = fam.jet(u.reshape(5, 6), v.reshape(5, 6))
    fr = replace(frames(jet), coeffs=rng.standard_normal((5, 6, 2, 2)))
    _assert_same_bits(second_fundamental_form(jet, fr), _einsum_sff(jet, fr))


# -- jet: one base-class broadcast over each family's jet_rows ----------------

def _stacked_jet(fam, u, v):
    """The jets as each family built them before jet_rows: its own
    broadcast and one np.stack per row."""
    from hkflow.curves import TorusFromCurve

    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    z, one = np.zeros(u.shape), np.ones(u.shape)

    def rows(*rs):
        return SurfaceJet(*(np.stack(r, axis=-1) for r in rs))

    if isinstance(fam, Plane):
        return rows([u, v, z, z], [one, z, z, z], [z, one, z, z],
                    [z] * 4, [z] * 4, [z] * 4)
    if isinstance(fam, Cylinder):
        r = fam.radius
        return rows([r * np.cos(v), r * np.sin(v), u, z], [z, z, one, z],
                    [-r * np.sin(v), r * np.cos(v), z, z], [z] * 4, [z] * 4,
                    [-r * np.cos(v), -r * np.sin(v), z, z])
    if isinstance(fam, Sphere):
        r = fam.radius
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        return rows([r * su * cv, r * su * sv, r * cu, z],
                    [r * cu * cv, r * cu * sv, -r * su, z],
                    [-r * su * sv, r * su * cv, z, z],
                    [-r * su * cv, -r * su * sv, -r * cu, z],
                    [-r * cu * sv, r * cu * cv, z, z],
                    [-r * su * cv, -r * su * sv, z, z])
    if isinstance(fam, GrimReaper):
        return rows([u, v, -np.log(np.cos(u)), z], [one, z, np.tan(u), z],
                    [z, one, z, z], [z, z, 1.0 / np.cos(u) ** 2, z],
                    [z] * 4, [z] * 4)
    if isinstance(fam, QuadraticGraph):
        (a1, b1, c1, d1, e1), (a2, b2, c2, d2, e2) = fam.coeffs
        q1 = 0.5 * (a1 * u * u + 2 * b1 * u * v + c1 * v * v) + d1 * u + e1 * v
        q2 = 0.5 * (a2 * u * u + 2 * b2 * u * v + c2 * v * v) + d2 * u + e2 * v
        return rows([u, v, q1, q2],
                    [one, z, a1 * u + b1 * v + d1, a2 * u + b2 * v + d2],
                    [z, one, b1 * u + c1 * v + e1, b2 * u + c2 * v + e2],
                    [z, z, a1 * one, a2 * one], [z, z, b1 * one, b2 * one],
                    [z, z, c1 * one, c2 * one])
    if isinstance(fam, TorusFromCurve):
        g, g1, g2 = fam._gamma_jets(u)
        c, s = np.cos(v), np.sin(v)
        return rows(*([w.real, w.imag, y.real, y.imag] for w, y in (
            (g * c, g * s), (g1 * c, g1 * s), (-g * s, g * c),
            (g2 * c, g2 * s), (-g1 * s, g1 * c), (-g * c, -g * s))))
    assert isinstance(fam, NumericalJetSurface)
    h = 1e-5 * fam.scale
    p = fam.position
    x = p(u, v)
    xpu, xmu = p(u + h, v), p(u - h, v)
    xpv, xmv = p(u, v + h), p(u, v - h)
    return SurfaceJet(x, (xpu - xmu) / (2 * h), (xpv - xmv) / (2 * h),
                      (xpu - 2 * x + xmu) / h**2,
                      (p(u + h, v + h) - p(u + h, v - h)
                       - p(u - h, v + h) + p(u - h, v - h)) / (4 * h**2),
                      (xpv - 2 * x + xmv) / h**2)


def _jet_inputs(fam):
    """A 48 x 48 window() grid, a 0-d point and (n, 1) x (1, m) inputs."""
    u, v, _, _ = midpoint_grid(fam.window(), 48)
    return [(u, v), (u[17, 0], v[0, 29]), (u[::6, :1], v[:1, ::4])]


# every family: the five analytic ones, a tilted graph with signed zero
# coefficients, numerical jets and the torus lift
JET_FAMILIES = FAMILIES + [
    QuadraticGraph([[-0.0, 0.3, -1.0, 0.1, -0.0], [0.5, -0.0, 0.0, 0.0, -0.2]]),
    Cylinder(1.7, half_length=2.0), Sphere(0.6),
    NumericalJetSurface(lambda u, v: Sphere().jet(u, v).x,
                        domain=Sphere.domain, periodic=Sphere.periodic),
    _torus_lift()]


@pytest.mark.parametrize("fam", JET_FAMILIES,
                         ids=lambda f: f"{f.name}-{JET_FAMILIES.index(f)}")
def test_jet_rows_fill_the_stacked_jet_bits(fam):
    for u, v in _jet_inputs(fam):
        got, want = fam.jet(u, v), _stacked_jet(fam, u, v)
        for name in ("x", "xu", "xv", "xuu", "xuv", "xvv"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == np.broadcast_shapes(np.shape(u),
                                                  np.shape(v)) + (4,)
            _assert_same_bits(a, b)


def test_only_the_base_class_defines_jet():
    from hkflow.curves import TorusFromCurve
    from hkflow.surfaces import ParametricSurface

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    families = set(subclasses(ParametricSurface))
    assert {Plane, Cylinder, Sphere, GrimReaper, QuadraticGraph,
            NumericalJetSurface, TorusFromCurve} <= families
    assert "jet" in vars(ParametricSurface)
    assert [c.__name__ for c in families if "jet" in vars(c)] == []
    assert all("jet_rows" in vars(c) for c in families
               if c.__module__.startswith("hkflow."))
