"""Triangle meshes in R^4: operators, estimators, OFF round-trip."""
import numpy as np
import pytest

from hkflow.errors import DegenerateTriangle, NonOrientableMesh
from hkflow.mesh import (SurfaceMesh, flat_square,
                         grid_torus_mesh, icosphere, mesh_bnorm,
                         mesh_mean_curvature, mesh_phase_field,
                         mesh_tangent_frames, read_off4, two_ring_offsets,
                         write_off4)
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
    t1, t2, m1, m2, lam = mesh_tangent_frames(m)
    vecs = np.stack([t1, t2, m1, m2], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", vecs, vecs)
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    assert np.allclose(np.linalg.norm(lam, axis=-1), 1.0, atol=1e-10)


def test_mesh_phase_field_matches_continuum():
    """Embedded unit-circle torus: mesh phase equals the analytic formula."""
    from hkflow.curves import PlaneCurve, embed_torus

    mesh, fam = embed_torus(PlaneCurve.circle(1.0, n=64), ny=32)
    lam = mesh_phase_field(mesh)
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


# -- triangle geometry measured once per vertex set -----------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class _Reference:
    """Each metric operator as written before the triangle geometry was
    stored: every call gathers the corners and measures again."""

    def __init__(self, mesh):
        self.v, self.t = mesh.vertices, mesh.triangles

    def corner_vectors(self):
        v, t = self.v, self.t
        p, q, r = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        return p, q, r

    def triangle_areas(self):
        p, q, r = self.corner_vectors()
        a, b = q - p, r - p
        aa = np.sum(a * a, axis=1)
        bb = np.sum(b * b, axis=1)
        ab = np.sum(a * b, axis=1)
        return 0.5 * np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))

    def area(self):
        return float(np.sum(self.triangle_areas()))

    def min_edge_length(self):
        t = self.t
        v = self.v
        e = np.concatenate([v[t[:, 1]] - v[t[:, 0]],
                            v[t[:, 2]] - v[t[:, 1]],
                            v[t[:, 0]] - v[t[:, 2]]])
        return float(np.sqrt(np.sum(e * e, axis=1).min()))

    def cotangents(self):
        p, q, r = self.corner_vectors()
        cots = np.empty((len(self.t), 3))
        for k, (apex, u, w) in enumerate(((p, q, r), (q, r, p), (r, p, q))):
            a, b = u - apex, w - apex
            dot = np.sum(a * b, axis=1)
            cross2 = np.sum(a * a, axis=1) * np.sum(b * b, axis=1) - dot * dot
            cots[:, k] = dot / np.sqrt(np.maximum(cross2, 1e-300))
        return cots

    def mixed_areas(self):
        t = self.t
        cots = self.cotangents()
        tri_area = self.triangle_areas()
        p, q, r = self.corner_vectors()
        l2 = np.stack([np.sum((q - r) ** 2, axis=1),   # opposite corner 0
                       np.sum((r - p) ** 2, axis=1),
                       np.sum((p - q) ** 2, axis=1)], axis=1)
        obtuse = cots < 0.0
        any_obtuse = obtuse.any(axis=1)
        contrib = np.empty((len(t), 3))
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            contrib[:, k] = 0.125 * (l2[:, k1] * cots[:, k1]
                                     + l2[:, k2] * cots[:, k2])
        if np.any(any_obtuse):
            half = 0.5 * tri_area[any_obtuse, None]
            quarter = 0.5 * half
            c = np.where(obtuse[any_obtuse], half, quarter)
            contrib[any_obtuse] = c
        areas = np.zeros(len(self.v))
        np.add.at(areas, t, contrib)
        return areas

    def cotangent_matrix(self):
        import scipy.sparse as sp
        t = self.t
        cots = self.cotangents()
        n = len(self.v)
        rows, cols, vals = [], [], []
        for k in range(3):
            i, j = t[:, (k + 1) % 3], t[:, (k + 2) % 3]
            w = 0.5 * cots[:, k]
            rows.extend([i, j])
            cols.extend([j, i])
            vals.extend([w, w])
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        w = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        w = w - sp.diags(np.asarray(w.sum(axis=1)).ravel())
        return w.tocsr()

    def tangent_frames(self, mesh, s):
        idx, mask = mesh.topology.ring2
        d = mesh.vertices[idx] - mesh.vertices[:, None, :]
        d = d * mask[..., None]
        cov = np.einsum("nki,nkj->nij", d, d)
        vals, vecs = np.linalg.eigh(cov)
        t1 = vecs[:, :, 3]
        t2 = vecs[:, :, 2]
        m1 = vecs[:, :, 1]
        m2 = vecs[:, :, 0]
        tri = mesh.triangles
        p, q, r = self.corner_vectors()
        a, b = q - p, r - p
        sgn = np.zeros(len(mesh.vertices))
        at1 = np.einsum("mi,mi->m", a, t1[tri[:, 0]])
        bt2 = np.einsum("mi,mi->m", b, t2[tri[:, 0]])
        at2 = np.einsum("mi,mi->m", a, t2[tri[:, 0]])
        bt1 = np.einsum("mi,mi->m", b, t1[tri[:, 0]])
        np.add.at(sgn, tri[:, 0], at1 * bt2 - at2 * bt1)
        for corner in (1, 2):
            at1 = np.einsum("mi,mi->m", a, t1[tri[:, corner]])
            bt2 = np.einsum("mi,mi->m", b, t2[tri[:, corner]])
            at2 = np.einsum("mi,mi->m", a, t2[tri[:, corner]])
            bt1 = np.einsum("mi,mi->m", b, t1[tri[:, corner]])
            np.add.at(sgn, tri[:, corner], at1 * bt2 - at2 * bt1)
        flip = sgn < 0
        t2[flip] = -t2[flip]
        jt1 = np.einsum("aij,nj->nai", s.j, t1)
        lam = np.einsum("nai,ni->na", jt1, t2)
        norm = np.linalg.norm(lam, axis=1, keepdims=True)
        lam = lam / np.maximum(norm, 1e-300)
        return t1, t2, m1, m2, lam, sgn

    def bnorm(self, mesh, frames):
        """The two-ring fit as per-axis einsums and one solve per normal,
        on offsets padded with x_0 - x_i and masked where they are used."""
        idx, mask = mesh.topology.ring2
        d = mesh.vertices[idx] - mesh.vertices[:, None, :]
        t1, t2, m1, m2, _lam = frames
        u = np.einsum("nki,ni->nk", d, t1)
        v = np.einsum("nki,ni->nk", d, t2)
        rho = np.sqrt(np.maximum(
            np.sum((u * u + v * v) * mask, axis=1)
            / np.maximum(mask.sum(axis=1), 1), 1e-300))
        us, vs = u / rho[:, None], v / rho[:, None]
        cols = np.empty(u.shape + (5,))
        for k, col in enumerate((us, vs, 0.5 * us * us, us * vs,
                                 0.5 * vs * vs)):
            np.multiply(col, mask, out=cols[..., k])
        ata = np.einsum("nka,nkb->nab", cols, cols)
        ok = (mask.sum(axis=1) >= 6) & ~mesh.boundary_vertex_mask
        ata[~ok] = np.eye(5)
        bnorm2 = np.zeros(len(mesh.vertices))
        for m in (m1, m2):
            w = np.einsum("nki,ni->nk", d, m) * mask
            atw = np.einsum("nka,nk->na", cols, w)
            coef = np.linalg.solve(ata, atw[..., None])[..., 0]
            a = coef[:, 2] / rho ** 2
            b = coef[:, 3] / rho ** 2
            c = coef[:, 4] / rho ** 2
            bnorm2 += a * a + 2 * b * b + c * c
        out = np.sqrt(bnorm2)
        out[~ok] = np.nan
        return out


def _perturbed_icosphere():
    m = icosphere(3)
    rng = np.random.default_rng(11)
    return m.with_vertices(m.vertices
                           + 1e-2 * rng.standard_normal(m.vertices.shape))


def _sheared_square():
    # shearing the upper half of the grid makes its triangles obtuse; the
    # lower half keeps its right angles
    m = flat_square(8)
    v = m.vertices.copy()
    v[:, 0] += 1.5 * np.maximum(v[:, 1] - 0.5, 0.0)
    v[:, 2] = 0.05 * np.sin(7.0 * v[:, 0])
    return m.with_vertices(v)


GEOMETRY_MESHES = [_perturbed_icosphere, lambda: flat_square(12),
                   _sheared_square, lambda: _clifford_torus(24, 13)]
GEOMETRY_IDS = ["perturbed_icosphere", "flat_square", "obtuse", "torus"]


@pytest.mark.parametrize("make", GEOMETRY_MESHES, ids=GEOMETRY_IDS)
def test_stored_geometry_matches_reference_bits(make):
    mesh = make()
    ref = _Reference(mesh)
    _same_bits(mesh.triangle_areas(), ref.triangle_areas())
    _same_bits(mesh.cotangents(), ref.cotangents())
    _same_bits(mesh.mixed_areas(), ref.mixed_areas())
    assert mesh.area() == ref.area()
    assert mesh.min_edge_length() == ref.min_edge_length()
    for got, want in zip(mesh.corner_vectors(), ref.corner_vectors()):
        _same_bits(got, want)
    w, w_ref = mesh.cotangent_matrix(), ref.cotangent_matrix()
    for attr in ("data", "indices", "indptr"):
        _same_bits(getattr(w, attr), getattr(w_ref, attr))
    for arr in (mesh.vertices, mesh.triangle_areas(), mesh.cotangents()):
        assert not arr.flags.writeable


def test_obtuse_mesh_hits_the_mixed_area_clamp():
    cots = _sheared_square().cotangents()
    assert np.any(cots < 0.0) and np.any(np.all(cots >= 0.0, axis=1))


@pytest.mark.parametrize("make", GEOMETRY_MESHES, ids=GEOMETRY_IDS)
def test_frames_with_shared_offsets_match_reference_bits(make):
    """Orientation summed by one bincount over the corners in order equals
    the per-corner np.add.at sums, and shared two-ring offsets give the
    same frames and |B| as offsets gathered by each estimator."""
    mesh = make()
    *want, sgn = _Reference(mesh).tangent_frames(mesh, S)
    d = two_ring_offsets(mesh)
    got = mesh_tangent_frames(mesh, offsets=d)
    for a, b in zip(got, want):
        _same_bits(a, b)
    for a, b in zip(mesh_tangent_frames(mesh), want):
        _same_bits(a, b)
    # the winding sign decides every flip; check it is never near zero
    assert np.all(sgn != 0.0)
    _same_bits(mesh_bnorm(mesh, got, d), mesh_bnorm(mesh))


@pytest.mark.parametrize("make", GEOMETRY_MESHES, ids=GEOMETRY_IDS)
def test_bnorm_matches_reference_fit_to_rounding(make):
    """The batched-matmul fit against the per-normal einsum fit: the same
    NaN rows, and values equal up to rounding."""
    mesh = make()
    ref = _Reference(mesh)
    *frames, _sgn = ref.tangent_frames(mesh, S)
    want = ref.bnorm(mesh, frames)
    got = mesh_bnorm(mesh)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    pos = fin & (want > 0.0)
    assert np.all(np.abs(got[pos] - want[pos]) <= 1e-13 * want[pos])
    assert np.all(np.abs(got[fin & ~pos] - want[fin & ~pos]) <= 1e-13)


@pytest.mark.parametrize("make", GEOMETRY_MESHES, ids=GEOMETRY_IDS)
def test_two_ring_offsets_padding_is_zero(make):
    mesh = make()
    idx, mask = mesh.topology.ring2
    d = two_ring_offsets(mesh)
    assert np.all(d[~mask] == 0.0)
    _same_bits(d[mask], (mesh.vertices[idx] - mesh.vertices[:, None, :])[mask])


_SOLVE = np.linalg.solve


def _counting_solve(monkeypatch, fail_first):
    """Record the arguments of each np.linalg.solve call; optionally make
    the first one raise LinAlgError."""
    calls = []

    def fake(a, b):
        calls.append((a.copy(), b.copy()))
        if fail_first and len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return _SOLVE(a, b)

    monkeypatch.setattr(np.linalg, "solve", fake)
    return calls


def test_bnorm_makes_one_solve_per_state(monkeypatch):
    mesh = _sheared_square()
    want = mesh_bnorm(mesh)
    calls = _counting_solve(monkeypatch, fail_first=False)
    _same_bits(mesh_bnorm(mesh), want)
    assert len(calls) == 1
    ata, atw = calls[0]
    assert ata.shape == (len(mesh.vertices), 5, 5)
    assert atw.shape == (len(mesh.vertices), 5, 2)


def test_bnorm_solve_fallback_adds_ridge(monkeypatch):
    """A singular batch is solved again with ata + 1e-12 I."""
    mesh = _sheared_square()
    plain = mesh_bnorm(mesh)
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: _SOLVE(a + 1e-12 * np.eye(5), b))
    ridged = mesh_bnorm(mesh)
    calls = _counting_solve(monkeypatch, fail_first=True)
    got = mesh_bnorm(mesh)
    assert len(calls) == 2
    (ata, atw), (reg, atw2) = calls
    _same_bits(reg, ata + 1e-12 * np.eye(5))
    _same_bits(atw2, atw)
    _same_bits(got, ridged)
    assert np.array_equal(np.isnan(got), np.isnan(plain))
    assert np.isnan(got).any() and not np.isnan(got).all()


def test_vertices_are_a_readonly_copy():
    src = icosphere(1)
    verts = src.vertices.copy()
    m = SurfaceMesh(verts, src.triangles)
    assert not m.vertices.flags.writeable
    assert verts.flags.writeable
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    area = m.area()
    verts *= 2.0  # the caller's array is not the mesh's
    assert np.array_equal(m.vertices, src.vertices)
    assert m.area() == area
    m2 = m.with_vertices(verts)
    assert not m2.vertices.flags.writeable and verts.flags.writeable
    assert m2.vertices is not verts


# -- observed convergence orders of the |B| estimator ------------------------

def _torus_lift(nx, ny):
    from hkflow.curves import PlaneCurve, embed_torus, torus_bnorm2

    curve = PlaneCurve.from_function(
        lambda x: (1.0 + 0.05 * np.cos(3.0 * x)) * np.exp(1j * x), n=nx)
    mesh, _ = embed_torus(curve, ny=ny)
    # vertex ix * ny + iy sits on ring ix; the spectral curve route is exact
    return mesh, np.repeat(np.sqrt(torus_bnorm2(curve)), ny)


def _orders(errors):
    """Observed orders between refinements that halve the mesh size."""
    errors = np.asarray(errors)
    return np.log2(errors[:-1] / errors[1:])


@pytest.mark.parametrize("case", ["icosphere", "torus"])
def test_bnorm_error_shrinks_at_second_order(case):
    """max |B| error under refinement against exact references: sqrt(2) on
    the unit sphere, the curve route on the lifted torus.  The errors match
    the values recorded before the fit was written as batched matmuls, so a
    reformulation changes them only at rounding level."""
    if case == "icosphere":
        errors = [np.max(np.abs(mesh_bnorm(icosphere(s)) - np.sqrt(2.0)))
                  for s in (2, 3, 4)]
        recorded = [0.12414656377831368, 0.03127057412083234,
                    0.008285393050592171]
    else:
        errors = []
        for nx, ny in ((48, 24), (96, 48), (192, 96)):
            mesh, exact = _torus_lift(nx, ny)
            errors.append(np.max(np.abs(mesh_bnorm(mesh) - exact) / exact))
        recorded = [0.1008834850103595, 0.02405384054937549,
                    0.005940349320373658]
    assert np.all(_orders(errors) >= 1.8)
    assert np.allclose(errors, recorded, rtol=1e-10, atol=0.0)
