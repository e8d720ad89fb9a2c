"""Triangle meshes in R^4: operators, estimators, OFF round-trip."""
import numpy as np
import pytest

from hkflow.errors import DegenerateTriangle, NonClosedSurface, \
    NonOrientableMesh
from hkflow.mesh import (SurfaceMesh, closed_or_raise, flat_square,
                         grid_torus_mesh, icosphere, mesh_bnorm,
                         mesh_mean_curvature, mesh_phase_field,
                         mesh_tangent_frames, read_off4, write_off4)
from hkflow.structure import standard_structure

S = standard_structure()


# -- validation ---------------------------------------------------------------

def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0]], dtype=float)
    with pytest.raises(DegenerateTriangle):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


def test_inconsistent_winding_rejected():
    # second triangle flipped: the shared edge (1, 2) is traversed twice the
    # same way, so no global orientation exists
    verts = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                      [1, 1, 0, 0]], dtype=float)
    SurfaceMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))  # consistent: fine
    with pytest.raises(NonOrientableMesh):
        SurfaceMesh(verts, np.array([[0, 1, 2], [1, 2, 3]]))
    # one flipped triangle inside a larger mesh with a boundary
    sq = flat_square(3)
    tris = sq.triangles.copy()
    tris[4] = tris[4, ::-1]
    with pytest.raises(NonOrientableMesh):
        SurfaceMesh(sq.vertices, tris)


def test_boundary_detection():
    sq = flat_square(4)
    assert not sq.is_closed
    mask = sq.boundary_vertex_mask
    assert mask.any() and not mask.all()
    ico = icosphere(1)
    assert ico.is_closed
    assert not ico.boundary_vertex_mask.any()
    with pytest.raises(NonClosedSurface):
        closed_or_raise(sq, "this test")


def test_icosphere_vertices_on_sphere():
    for sub, r in ((0, 1.0), (2, 0.5), (3, 2.0)):
        m = icosphere(sub, r)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), r, atol=1e-12)
        assert np.allclose(m.vertices[:, 3], 0.0)
        assert m.is_closed


def test_mixed_areas_partition_total():
    """Meyer cell areas sum to the triangle area, also with obtuse clamping."""
    for mesh in (icosphere(2), flat_square(5),
                 SurfaceMesh(np.array([[0, 0, 0, 0], [4, 0, 0, 0],
                                       [2, 0.2, 0, 0]]),  # very obtuse
                             np.array([[0, 1, 2]]))):
        assert np.isclose(mesh.mixed_areas().sum(), mesh.area(), rtol=1e-12)
        assert np.all(mesh.mixed_areas() > 0)


def test_cotangent_matrix_row_sums():
    m = icosphere(2)
    w = m.cotangent_matrix()
    assert np.allclose(np.asarray(w.sum(axis=1)).ravel(), 0.0, atol=1e-12)
    assert np.abs(w - w.T).max() < 1e-12


# -- topology -----------------------------------------------------------------

def _rings_by_sets(triangles, n):
    """One- and two-ring neighbor lists, built from Python sets."""
    one = [set() for _ in range(n)]
    for a, b, c in triangles.tolist():
        one[a].update((b, c))
        one[b].update((a, c))
        one[c].update((a, b))
    two = []
    for i in range(n):
        ring = set(one[i])
        for j in one[i]:
            ring |= one[j]
        ring.discard(i)
        two.append(sorted(ring))
    return [sorted(ring) for ring in one], two


def _clifford_torus(nx=10, ny=7):
    u = 2 * np.pi * np.arange(nx) / nx
    v = 2 * np.pi * np.arange(ny) / ny
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.stack([np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)], axis=-1)
    return grid_torus_mesh(pts / np.sqrt(2.0))


@pytest.mark.parametrize("make", [lambda: icosphere(2),
                                  lambda: flat_square(6), _clifford_torus],
                         ids=["icosphere", "flat_square", "torus"])
def test_rings_match_set_reference(make):
    mesh = make()
    refs = _rings_by_sets(mesh.triangles, len(mesh.vertices))
    for rings, (idx, mask), ref in zip((1, 2), (mesh.topology.ring1,
                                                mesh.topology.ring2), refs):
        assert mask.shape == (len(ref), max(len(r) for r in ref))
        assert [idx[i][mask[i]].tolist() for i in range(len(ref))] == ref
        assert np.all(idx[~mask] == 0)
        assert [r.tolist() for r in mesh.vertex_neighbors(rings)] == ref


def test_with_vertices_shares_readonly_topology():
    m = flat_square(4)
    m2 = m.with_vertices(m.vertices * 2.0)
    assert m2.topology is m.topology
    assert m2.triangles is m.triangles
    topo = m.topology
    for arr in (topo.triangles, topo.boundary_edges, topo.boundary_mask,
                *topo.ring1, *topo.ring2):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        m2.triangles[0, 0] = 1
    with pytest.raises(ValueError):
        m.with_vertices(m.vertices[:-1])  # vertex count must match


def test_with_vertices_rejects_collapsed_triangle():
    m = icosphere(1)
    verts, tris, area = m.vertices.copy(), m.triangles.copy(), m.area()
    a, b, _c = m.triangles[0]
    collapsed = m.vertices.copy()
    collapsed[b] = collapsed[a]
    with pytest.raises(DegenerateTriangle):
        m.with_vertices(collapsed)
    # the failed call leaves the source mesh as it was
    assert np.array_equal(m.vertices, verts)
    assert np.array_equal(m.triangles, tris)
    assert m.area() == area


# -- estimators ---------------------------------------------------------------

def test_mesh_mean_curvature_sphere():
    m = icosphere(3, 1.0)
    h, valid = mesh_mean_curvature(m)
    assert valid.all()
    norms = np.linalg.norm(h, axis=1)
    assert np.max(np.abs(norms - 2.0)) < 5e-3
    # points toward the center
    unit = h / norms[:, None]
    assert np.max(np.abs(unit + m.vertices)) < 1e-2


def test_mesh_mean_curvature_radius_scaling():
    h1, _ = mesh_mean_curvature(icosphere(3, 1.0))
    h2, _ = mesh_mean_curvature(icosphere(3, 2.0))
    assert np.allclose(np.linalg.norm(h2, axis=1),
                       0.5 * np.linalg.norm(h1, axis=1), atol=1e-9)


def test_flat_square_interior_flat():
    m = flat_square(6)
    h, valid = mesh_mean_curvature(m)
    interior = ~m.boundary_vertex_mask
    assert np.all(~valid[m.boundary_vertex_mask])
    assert np.max(np.linalg.norm(h[interior], axis=1)) < 1e-12


def test_mesh_bnorm_sphere():
    """|B|^2 = 2/r^2 on the round sphere (principal curvatures 1/r, 1/r)."""
    m = icosphere(3, 1.0)
    b = mesh_bnorm(m)
    valid = ~np.isnan(b)
    assert valid.all()  # closed mesh, every vertex has a full two-ring
    med = np.median(b[valid])
    assert abs(med - np.sqrt(2.0)) / np.sqrt(2.0) < 0.04


def test_mesh_frames_orthonormal():
    m = icosphere(2)
    t1, t2, m1, m2, lam = mesh_tangent_frames(m, S)
    vecs = np.stack([t1, t2, m1, m2], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", vecs, vecs)
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    assert np.allclose(np.linalg.norm(lam, axis=-1), 1.0, atol=1e-10)


def test_mesh_phase_field_matches_continuum():
    """Embedded unit-circle torus: mesh phase equals the analytic formula."""
    from hkflow.curves import PlaneCurve, embed_torus

    mesh, fam = embed_torus(PlaneCurve.circle(1.0, n=64), ny=32)
    lam = mesh_phase_field(mesh, S)
    # analytic: lam = (0, Re w, Im w), w = gamma gamma' / |gamma gamma'|
    z = np.exp(1j * 2 * np.pi * np.arange(64) / 64)
    w = z * (1j * z)
    expect_per_x = np.stack([np.zeros(64), w.real, w.imag], axis=-1)
    expect = np.repeat(expect_per_x, 32, axis=0)
    # orientation of the mesh frames can flip lam globally per component;
    # compare up to the sign fixed by the first vertex
    sign = np.sign(np.sum(lam[0] * expect[0]))
    assert np.allclose(sign * lam, expect, atol=1e-8)


def test_grid_torus_mesh_closed_oriented():
    from hkflow.curves import PlaneCurve, embed_torus

    mesh, _ = embed_torus(PlaneCurve.circle(1.0, n=32), ny=16)
    assert mesh.is_closed
    assert mesh.area() > 0


# -- OFF round-trip -----------------------------------------------------------

def test_off4_roundtrip(tmp_path):
    m = icosphere(1, 1.5)
    path = tmp_path / "ico.off"
    write_off4(m, path)
    m2 = read_off4(path)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.allclose(m.vertices, m2.vertices, atol=0)  # 17 digits round-trip


def test_off4_rejects_wrong_dimension(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ValueError):
        read_off4(path)


def test_with_vertices_fresh_cache():
    m = icosphere(1)
    a0 = m.area()
    m2 = m.with_vertices(m.vertices * 2.0)
    assert np.isclose(m2.area(), 4.0 * a0, rtol=1e-12)
    assert np.isclose(m.area(), a0, rtol=0)  # original untouched
