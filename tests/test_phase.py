"""Phase-map identities: energy split, coupling, tension, degree, chart."""
import numpy as np
import pytest

from hkflow.errors import (IdentityViolation, NonClosedSurface,
                           NonNormalInput, OnForbiddenSet)
from hkflow.phase import (arc_distance, chart, closed_invariants,
                          containment_margin, coupling_residual,
                          curvature_form, degree, energy_split, euler_numbers,
                          gauss_normal_curvatures, phase_differential,
                          phase_sample_exact, tension, write_phase_field_csv)
from hkflow.structure import standard_structure
from hkflow.surfaces import (Cylinder, GrimReaper, Plane, QuadraticGraph,
                             Sphere, frames, mean_curvature,
                             second_fundamental_form)

S = standard_structure()


def _families(rng):
    """One representative per analytic family, plus a random graph."""
    return [Plane(), Cylinder(0.8, half_length=2.0), Sphere(1.3),
            GrimReaper(), QuadraticGraph.random(rng)]


# -- pointwise algebra --------------------------------------------------------

def test_phase_is_unit(rng):
    for fam in _families(rng):
        u, v = fam.sample_domain(rng, 50)
        lam = frames(fam.jet(u, v)).lam
        assert np.allclose(np.linalg.norm(lam, axis=-1), 1.0, atol=1e-12)


def test_phase_block_identity(rng):
    """omega_a(e_i, e_j) = lam_a eps_ij on the tangent frame."""
    for fam in _families(rng):
        u, v = fam.sample_domain(rng, 30)
        fr = frames(fam.jet(u, v))
        lam = fr.lam
        for alpha in (1, 2, 3):
            w11 = S.kahler_form(alpha, fr.e1, fr.e1)
            w12 = S.kahler_form(alpha, fr.e1, fr.e2)
            w21 = S.kahler_form(alpha, fr.e2, fr.e1)
            w22 = S.kahler_form(alpha, fr.e2, fr.e2)
            assert np.max(np.abs(w12 - lam[..., alpha - 1])) < 1e-10
            assert np.max(np.abs(w21 + lam[..., alpha - 1])) < 1e-10
            assert np.max(np.abs(w11)) < 1e-10
            assert np.max(np.abs(w22)) < 1e-10


def test_orientation_flip_negates_phase(rng):
    qg = QuadraticGraph.random(rng)
    u, v = qg.sample_domain(rng, 20)
    jet = qg.jet(u, v)
    lam = frames(jet).lam
    flipped = type(jet)(jet.x, jet.xv, jet.xu, jet.xvv, jet.xuv, jet.xuu)
    lam_f = frames(flipped).lam
    assert np.allclose(lam_f, -lam, atol=1e-12)


# -- dJ, energy split, det ----------------------------------------------------

def test_phase_differential_routes_agree(rng):
    for fam in _families(rng):
        u, v = fam.sample_domain(rng, 25)
        sample = phase_differential(fam, u, v)
        assert sample.route_gap < 1e-6


class _WrongHessian(QuadraticGraph):
    """A graph whose X_uu row is zero, which its X_u row contradicts."""

    name = "wrong-hessian"

    def jet_rows(self, u, v):
        rows = list(super().jet_rows(u, v))
        rows[3] = (0.0,) * 4
        return rows


def test_phase_differential_rejects_inconsistent_jets(rng):
    fam = _WrongHessian([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0] * 5])
    u, v = fam.sample_domain(rng, 10)
    phase_differential(QuadraticGraph(fam.coeffs), u, v)  # consistent: fine
    with pytest.raises(IdentityViolation,
                       match=r"dJ routes disagree by .* on wrong-hessian"):
        phase_differential(fam, u, v)


def test_energy_split_identities(rng):
    for fam in _families(rng):
        u, v = fam.sample_domain(rng, 100)
        sample = phase_sample_exact(fam, u, v)
        total = sample.e_del + sample.e_delbar
        assert np.max(np.abs(total - 0.5 * sample.dj_norm2())) < 1e-12
        assert np.max(np.abs(sample.e_del - sample.e_delbar
                             - sample.detdj)) < 1e-12


def test_energy_split_against_mean_curvature(rng):
    """e_del = |H|^2 / 4, the holomorphic share of the phase energy."""
    for fam in _families(rng):
        u, v = fam.sample_domain(rng, 100)
        jet = fam.jet(u, v)
        h = mean_curvature(jet, frames(jet))
        residual = energy_split(phase_differential(fam, u, v), h)
        assert np.max(residual) < 1e-6


def test_energy_split_rejects_wrong_mean_curvature(rng):
    qg = QuadraticGraph.random(rng)
    u, v = qg.sample_domain(rng, 20)
    jet = qg.jet(u, v)
    h = mean_curvature(jet, frames(jet))
    with pytest.raises(IdentityViolation):
        energy_split(phase_differential(qg, u, v), 1.5 * h)


def test_det_dj_is_total_curvature(rng):
    """det dJ = kappa + kappa_perp, both dJ routes against the sff."""
    qg = QuadraticGraph.random(rng)
    u, v = qg.sample_domain(rng, 60)
    jet = qg.jet(u, v)
    sff = second_fundamental_form(jet, frames(jet))
    kappa, kperp = gauss_normal_curvatures(sff)
    exact = phase_sample_exact(qg, u, v)
    assert np.max(np.abs(exact.detdj - kappa - kperp)) < 1e-13
    fd = phase_differential(qg, u, v)
    assert np.max(np.abs(fd.detdj - kappa - kperp)) < 1e-6


def test_coupling_identity(rng):
    """B(X, Jt Y) - Jt_perp B(X, Y) = sum_a dlam_a(X) J_a Y pointwise."""
    for fam in _families(rng):
        u, v = fam.sample_domain(rng, 40)
        jet = fam.jet(u, v)
        fr = frames(jet)
        sff = second_fundamental_form(jet, fr)
        exact = phase_sample_exact(fam, u, v)
        assert np.max(coupling_residual(fr, sff, exact.dj)) < 1e-12
        fd = phase_differential(fam, u, v)
        assert np.max(coupling_residual(fr, sff, fd.dj)) < 1e-7


# -- curvature form -----------------------------------------------------------

def test_curvature_form_identities(rng):
    """Rows are tangent to S^2 at lam, row2 = lam x row1, and the whole
    form equals dJ composed with the tangent rotation plus the sphere
    rotation composed with dJ."""
    qg = QuadraticGraph.random(rng)
    u, v = qg.sample_domain(rng, 40)
    jet = qg.jet(u, v)
    fr = frames(jet)
    h = mean_curvature(jet, fr)
    hf = curvature_form(fr, h)
    lam = fr.lam
    assert np.max(np.abs(np.einsum("...ia,...a->...i", hf, lam))) < 1e-12
    assert np.allclose(hf[..., 1, :], np.cross(lam, hf[..., 0, :]),
                       atol=1e-12)
    dj = phase_sample_exact(qg, u, v).dj
    pred = np.stack([dj[..., 1, :] + np.cross(lam, dj[..., 0, :]),
                     -dj[..., 0, :] + np.cross(lam, dj[..., 1, :])], axis=-2)
    assert np.allclose(hf, pred, atol=1e-12)


def test_curvature_form_rejects_tangential_input(rng):
    qg = QuadraticGraph.random(rng)
    u, v = qg.sample_domain(rng, 5)
    fr = frames(qg.jet(u, v))
    with pytest.raises(NonNormalInput):
        curvature_form(fr, fr.e1)


# -- worked profile: the translating product surface --------------------------

def test_reaper_energy_profile():
    u = np.linspace(-1.2, 1.2, 41)
    v = np.zeros_like(u)
    gr = GrimReaper()
    sample = phase_sample_exact(gr, u, v)
    jet = gr.jet(u, v)
    h = mean_curvature(jet, frames(jet))
    c2 = np.cos(u) ** 2
    assert np.max(np.abs(sample.dj_norm2() - c2)) < 1e-12
    assert np.max(np.abs(np.sum(h * h, axis=-1) - c2)) < 1e-12
    # the profile is Lagrangian for omega_2: detdJ = 0 and the energy
    # splits evenly
    assert np.max(np.abs(sample.detdj)) < 1e-12
    assert np.max(np.abs(sample.e_del - sample.e_delbar)) < 1e-12


def test_reaper_tension_closed_form():
    gr = GrimReaper()
    u = np.array([0.3, -0.7, 1.1])
    v = np.zeros_like(u)
    tau = tension(gr, u, v)
    expect = (np.sin(u) * np.cos(u))[:, None] * np.stack(
        [np.sin(u), np.zeros_like(u), np.cos(u)], axis=-1)
    assert np.max(np.abs(tau - expect)) < 1e-6


def test_reaper_tension_is_translation_transport():
    """tau = -dJ(V0^tangential) with V0 the unit translation velocity."""
    gr = GrimReaper()
    u = np.array([0.2, -0.5, 0.9, -1.1])
    v = np.zeros_like(u)
    fr = frames(gr.jet(u, v))
    dj = phase_differential(gr, u, v).dj
    v0 = np.array([0.0, 0.0, 1.0, 0.0])
    c1 = np.sum(v0 * fr.e1, axis=-1)
    c2 = np.sum(v0 * fr.e2, axis=-1)
    djv = c1[:, None] * dj[..., 0, :] + c2[:, None] * dj[..., 1, :]
    assert np.max(np.abs(tension(gr, u, v) + djv)) < 1e-6


def test_tension_vanishes_on_minimal_and_flat(rng):
    pl = Plane()
    u, v = pl.sample_domain(rng, 10)
    assert np.max(np.abs(tension(pl, u, v))) < 1e-12
    cy = Cylinder(1.0, half_length=2.0)
    u, v = cy.sample_domain(rng, 10)
    assert np.max(np.abs(tension(cy, u, v))) < 1e-10


# -- degree and Euler numbers -------------------------------------------------

def test_degree_torus_zero():
    from hkflow.curves import PlaneCurve, TorusFromCurve

    fam = TorusFromCurve(PlaneCurve.circle(1.0, n=64))
    assert abs(degree(fam, n=48)) < 1e-12
    chi_t, chi_n = euler_numbers(fam, n=48)
    assert abs(chi_t) < 1e-10
    assert abs(chi_n) < 1e-10


def test_degree_sphere_one():
    sp = Sphere(1.0)
    d = degree(sp, n=128)
    chi_t, chi_n = euler_numbers(sp, n=128)
    assert abs(d - 1.0) < 1e-3
    assert abs(chi_t - 2.0) < 1e-3
    assert abs(chi_n) < 1e-12
    # the two sides of 2 deg = chi_T + chi_N come from different integrands
    assert abs(2.0 * d - chi_t - chi_n) < 1e-10


def test_degree_requires_closed():
    with pytest.raises(NonClosedSurface):
        degree(Plane())
    with pytest.raises(NonClosedSurface):
        euler_numbers(GrimReaper())
    with pytest.raises(NonClosedSurface):
        closed_invariants(Cylinder(1.0))


# (deg, chi_T, chi_N) as float.hex, recorded when degree and euler_numbers
# made a geometry pass each
CLOSED_INVARIANT_BITS = {
    ("sphere", 64): ("0x1.00069487e72aep+0", "0x1.00069487e72acp+1",
                     "0x1.1f9119f15194ap-112"),
    ("sphere", 128): ("0x1.0001a51c4b08dp+0", "0x1.0001a51c4b08bp+1",
                      "0x1.1365637f523a7p-111"),
    ("torus", 64): ("0x1.78993202ad9acp-51", "0x1.8dcdde11cf333p-51",
                    "0x1.665681676bfe1p-51"),
}


@pytest.mark.parametrize("name,n", sorted(CLOSED_INVARIANT_BITS))
def test_closed_invariants_keep_their_bits(name, n):
    from hkflow.curves import PlaneCurve, TorusFromCurve

    fam = (Sphere(1.0) if name == "sphere"
           else TorusFromCurve(PlaneCurve.circle(1.0, n=256)))
    want = tuple(float.fromhex(x) for x in CLOSED_INVARIANT_BITS[name, n])
    deg, chi_t, chi_n = closed_invariants(fam, n=n)
    assert (deg, chi_t, chi_n) == want
    assert (degree(fam, n=n), *euler_numbers(fam, n=n)) == want


# -- chart, arc distance, containment -----------------------------------------

def test_chart_worked_points():
    r, phi = chart(np.array([1.0, 0.0, 0.0]))
    assert np.isclose(r, 1.0) and np.isclose(phi, np.pi / 2)
    r, phi = chart(np.array([0.0, -1.0, 0.0]))
    assert np.isclose(r, 1.0) and np.isclose(phi, np.pi)


def test_chart_roundtrip(rng):
    lam = rng.normal(size=(200, 3))
    lam /= np.linalg.norm(lam, axis=-1, keepdims=True)
    lam = lam[~((lam[:, 0] == 0.0) & (lam[:, 1] >= 0.0))]
    r, phi = chart(lam)
    assert np.allclose(r * np.sin(phi), lam[:, 0], atol=1e-12)
    assert np.allclose(r * np.cos(phi), lam[:, 1], atol=1e-12)
    assert np.all((phi > 0.0) & (phi <= 2 * np.pi))


def test_chart_forbidden_set():
    for lam in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
        with pytest.raises(OnForbiddenSet):
            chart(np.array(lam))
    # lam2 < 0 on the same great circle is allowed
    chart(np.array([0.0, -1.0, 0.0]))


def test_chart_raises_exactly_where_arc_distance_is_zero(rng):
    """The chart's forbidden set {lam1 = 0, lam2 >= 0} is the zero set of
    arc_distance: both poles, signed zeros and 1e-300 components included."""
    special = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 1.0, 0.0],
                        [0.0, -0.0, 1.0], [0.0, -1e-300, 1.0]])
    lam = rng.normal(size=(40, 3))
    lam /= np.linalg.norm(lam, axis=-1, keepdims=True)
    lam[:, 0] = rng.choice([0.0, -0.0, 1e-300, -1e-300], size=40)
    hits = 0
    for row in np.concatenate([special, lam]):
        on_set = bool(arc_distance(row) == 0.0)
        assert on_set == (row[0] == 0.0 and row[1] >= 0.0)
        if on_set:
            hits += 1
            with pytest.raises(OnForbiddenSet):
                chart(row)
        else:
            chart(row)
    assert 4 < hits < 40


def test_arc_distance_worked_points():
    assert np.isclose(arc_distance(np.array([0.0, -1.0, 0.0])), np.pi / 2)
    th = 0.4
    lam = np.array([np.sin(th), np.cos(th), 0.0])
    assert np.isclose(arc_distance(lam), th, atol=1e-12)
    # points of the half circle itself, poles included, are at distance 0
    for lam in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]):
        assert arc_distance(np.array(lam)) == 0.0


@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
def test_arc_distance_exact_at_small_distances(delta):
    """Off the arc's interior, beside an arc point, and beside a pole (where
    the nearest point switches to the pole since lam2 < 0): the distance
    comes back to the last bits, where arccos of a cosine near 1 gave 0."""
    s, c = np.sin(delta), np.cos(delta)
    lams = np.array([[s, c, 0.0],
                     [-s, c * np.cos(0.7), c * np.sin(0.7)],
                     [0.0, -s, c],
                     [s * np.cos(-2.0), s * np.sin(-2.0), -c]])
    d = arc_distance(lams)
    assert np.all(np.abs(d - delta) <= 4e-16 * delta)


def test_containment_margin_exact_hit():
    lams = np.array([[np.sin(0.3), np.cos(0.3), 0.0],
                     [0.0, 0.6, 0.8]])
    report = containment_margin(lams)
    assert report.violation
    assert report.margin == 0.0
    clear = containment_margin(lams[:1])
    assert not clear.violation
    assert np.isclose(clear.margin, 0.3)
    with pytest.raises(ValueError):
        containment_margin(np.empty((0, 3)))


def test_phase_field_csv(tmp_path):
    path = tmp_path / "field.csv"
    lam, contain = write_phase_field_csv(path, Cylinder(1.0, half_length=1.0),
                                         n=8)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (64, 9)
    # 17 digits round-trip: the margins of the returned phase grid are the
    # written ones, and its containment is decided from them
    margin = arc_distance(lam)
    assert margin.shape == (8, 8)
    assert np.array_equal(margin.ravel(), rows[:, 8])
    assert contain == containment_margin(lam)
    assert np.array_equal(lam.reshape(-1, 3), rows[:, 2:5])
    header = path.read_text().splitlines()[0]
    assert header == "u,v,lam1,lam2,lam3,e_del,e_delbar,detdJ,margin"
    lam = rows[:, 2:5]
    assert np.allclose(np.linalg.norm(lam, axis=1), 1.0, atol=1e-12)
    assert np.allclose(rows[:, 8], arc_distance(lam), atol=1e-12)
