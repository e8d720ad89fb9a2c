"""Triangle meshes in R^4: operators, estimators, OFF round-trip."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from hkflow import mesh as mesh_module
from hkflow.errors import (DegenerateTriangle, FoldedVertex, NonOrientableMesh,
                           SolveFailure)
from hkflow.flow import FlowState, _implicit_system, _pcg
from hkflow.mesh import (SurfaceMesh, flat_square, grid_torus_mesh,
                         icosphere, mesh_bnorm, mesh_mean_curvature,
                         mesh_tangent_frames, read_off4, two_ring_offsets,
                         write_off4)
from hkflow.structure import J_UPPER, UPPER, standard_structure
from hkflow.surfaces import Sphere, frames

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


def test_building_meshes_leaves_numpy_ma_unimported():
    """np.isin imports numpy.ma through np.unique (numpy 2.4), about 10 ms
    and 1.1 MiB of a run; the boundary search does without it, and finds
    on flat_square() the directed edges without a reversed partner, in
    the order of the directed edge list."""
    code = ("import json, sys\n"
            "from hkflow.mesh import flat_square, icosphere\n"
            "icosphere(1)\n"
            "edges = flat_square().topology.boundary_edges.tolist()\n"
            "print(json.dumps(['numpy.ma' in sys.modules, edges]))\n")
    src = str(Path(mesh_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    imported, edges = json.loads(proc.stdout)
    t = flat_square().triangles
    directed = [tuple(e) for e in np.concatenate(
        [t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]).tolist()]
    present = set(directed)
    assert not imported
    assert edges == [list(e) for e in directed if e[::-1] not in present]
    assert len(edges) == 48

def test_icosphere_vertices_on_sphere():
    for sub, r in ((0, 1.0), (2, 0.5), (3, 2.0)):
        m = icosphere(sub, r)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), r, atol=1e-12)
        assert np.allclose(m.vertices[:, 3], 0.0)
        assert m.is_closed


def _reference_icosphere(subdivisions, radius):
    """icosphere as written with a per-edge dict: each face in turn asks
    for the midpoints of ab, bc and ca, numbering new ones as they come."""
    base = icosphere(0)
    verts = base.vertices[:, :3].copy()
    faces = base.triangles.copy()
    for _ in range(subdivisions):
        edge_mid: dict = {}
        verts_list = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc],
                              [ab, bc, ca]])
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=int)
    v4 = np.zeros((len(verts), 4))
    v4[:, :3] = radius * verts
    return v4, faces


@pytest.mark.parametrize("subdivisions", range(6))
def test_icosphere_matches_reference_bits(subdivisions):
    mesh = icosphere(subdivisions, 1.5)
    v4, faces = _reference_icosphere(subdivisions, 1.5)
    _same_bits(mesh.vertices, v4)
    _same_bits(mesh.triangles, faces)


def test_flat_square_matches_reference_order():
    for n in (1, 3, 8):
        tris = []
        for i in range(n):
            for j in range(n):
                a = i * (n + 1) + j
                b = a + (n + 1)
                tris.append([a, b, a + 1])
                tris.append([b, b + 1, a + 1])
        _same_bits(flat_square(n, 2.0).triangles, np.array(tris, dtype=int))


@pytest.mark.parametrize("build", [lambda: icosphere(-1),
                                   lambda: icosphere(2, 0.0),
                                   lambda: flat_square(4, 0.0)],
                         ids=["subdivisions-negative", "radius-0",
                              "extent-0"])
def test_bad_mesh_sizes_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_mixed_areas_partition_total():
    """Meyer cell areas sum to the triangle area, also with obtuse clamping."""
    for mesh in (icosphere(2), flat_square(5),
                 SurfaceMesh(np.array([[0, 0, 0, 0], [4, 0, 0, 0],
                                       [2, 0.2, 0, 0]]),  # very obtuse
                             np.array([[0, 1, 2]]))):
        assert np.isclose(mesh.mixed_areas().sum(), mesh.area(), rtol=1e-12)
        assert np.all(mesh.mixed_areas() > 0)


def _dense(w):
    """A PaddedMatrix as a dense array; its padding slots add 0."""
    n = w.cols.shape[1]
    out = np.zeros((n, n))
    np.add.at(out, (np.broadcast_to(np.arange(n), w.cols.shape), w.cols),
              w.values)
    return out


def test_cotangent_matrix_row_sums():
    m = icosphere(2)
    w = _dense(m.cotangent_matrix())
    assert np.allclose(w.sum(axis=1), 0.0, atol=1e-12)
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


def _bipyramid(sides=12):
    """Closed bipyramid over a perturbed sides-gon: each apex has valence
    sides, so its operator row holds sides + 1 entries, past the 8 at which
    numpy's reductions change their grouping."""
    a = 2 * np.pi * np.arange(sides) / sides
    v = np.zeros((sides + 2, 4))
    v[:sides, 0] = (1.0 + 0.1 * np.cos(5 * a)) * np.cos(a)
    v[:sides, 1] = (1.0 + 0.1 * np.cos(5 * a)) * np.sin(a)
    v[:sides, 2] = 0.1 * np.sin(3 * a)
    v[:sides, 3] = 0.05 * np.cos(2 * a)
    v[sides:, 2] = [1.0, -1.0]
    k = np.arange(sides)
    nxt = (k + 1) % sides
    tris = np.concatenate([np.stack([k, nxt, np.full(sides, sides)], axis=1),
                           np.stack([nxt, k, np.full(sides, sides + 1)],
                                    axis=1)])
    return SurfaceMesh(v, tris)


@pytest.mark.parametrize("make", [lambda: icosphere(2),
                                  lambda: flat_square(6), _clifford_torus,
                                  _bipyramid],
                         ids=["icosphere", "flat_square", "torus",
                              "bipyramid"])
def test_rings_match_set_reference(make):
    """Each ring table row by row: the ring in increasing order, padded to
    the longest row with the vertex itself; the closed one-ring holds the
    vertex in its sorted slot diag."""
    mesh = make()
    one, two = _rings_by_sets(mesh.triangles, len(mesh.vertices))
    closed = [sorted(ring + [i]) for i, ring in enumerate(one)]
    topo = mesh.topology
    for table, ref in ((topo.closed_ring.T, closed), (topo.two_ring, two)):
        k = max(len(r) for r in ref)
        assert table.tolist() == [r + [i] * (k - len(r))
                                  for i, r in enumerate(ref)]
    assert topo.diag.tolist() == [r.index(i) for i, r in enumerate(closed)]
    for rings, ref in zip((1, 2), (one, two)):
        assert [r.tolist() for r in mesh.vertex_neighbors(rings)] == ref


@pytest.mark.parametrize("make", [lambda: icosphere(2),
                                  lambda: flat_square(6), _clifford_torus,
                                  _bipyramid],
                         ids=["icosphere", "flat_square", "torus",
                              "bipyramid"])
def test_fan_lists_the_triangles_at_each_vertex_in_order(make):
    """Column i of topology.fan: the triangles with corner i, increasing,
    padded to the longest column with m, the number of triangles."""
    mesh = make()
    t, fan = mesh.triangles, mesh.topology.fan
    ref = [np.flatnonzero((t == i).any(axis=1)).tolist()
           for i in range(len(mesh.vertices))]
    k = max(len(r) for r in ref)
    assert fan.T.tolist() == [r + [len(t)] * (k - len(r)) for r in ref]
    assert not fan.flags.writeable


def test_with_vertices_shares_readonly_topology():
    m = flat_square(4)
    m2 = m.with_vertices(m.vertices * 2.0)
    assert m2.topology is m.topology
    assert m2.triangles is m.triangles
    topo = m.topology
    for arr in (topo.triangles, topo.boundary_edges, topo.boundary_mask,
                topo.closed_ring, topo.diag, topo.two_ring,
                topo.two_ring_size, topo.unfitted):
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
    lam = mesh_tangent_frames(mesh)[4]
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


@pytest.mark.parametrize("text, message", [
    ("", "missing header"),
    ("COFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "missing header"),
    ("OFF\n3 1 0\n0 0 0 0\n1 0 0 0\n", "truncated"),
    ("OFF\n4 1 0\n0 0 0 0\n1 0 0 0\n0 1 0 0\n1 1 0 0\n4 0 1 3 2\n",
     "face row 0 is not a triangle"),
    ("OFF\n3 1 0\n0 0 0 0\n1 0 0 0\n0 1 0 0\n3 0 1\n",
     "face row 0 is not a triangle"),
    ("OFF\n", "counts line"),
    ("OFF\n3\n", "counts line"),
    ("OFF\n-1 0 0\n", "counts line"),
    ("OFF\n3 1 0\n0 0 0 0\n1 0 0 0\n0 1 0 0\n3 0 1 2\n3 0 2 1\n",
     "rows past the 3 vertices and 1 faces of the counts line"),
    ("OFF\n0 0 0\n", "^a mesh needs at least one triangle$"),
    ("OFF\n3 1 0\n0 0 0 a\n1 0 0 0\n0 1 0 0\n3 0 1 2\n",
     "^vertex row 0: could not convert string to float: 'a'$"),
    ("OFF\n3 1 0\n0 0 0 0\n1 0 0 0\n0 1 0 0\n3 0 x 2\n",
     "^face row 0: invalid literal for int.. with base 10: 'x'$"),
    ("OFF\n3 1 0\n0 0 0 0\n1 0 0 0\n0 1 0 0\nq 0 1 2\n",
     "^face row 0: invalid literal for int.. with base 10: 'q'$"),
], ids=["empty", "other-header", "truncated", "quad", "short-face",
        "no-counts", "one-count", "negative-count", "rows-past-counts",
        "no-triangles", "vertex-not-a-number", "corner-not-an-integer",
        "face-size-not-an-integer"])
def test_off4_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_off4(path)


def test_construction_checks_shapes_indices_and_topology():
    m = icosphere(1)
    v, t, topo = m.vertices, m.triangles, m.topology
    last = len(v) - 1
    cases = [
        ((v[:, :3], t), "vertices must be"),
        ((v[None], t), "vertices must be"),
        ((v, np.c_[t, t[:, :1]]), "triangles must be"),
        ((v, t.ravel()), "triangles must be"),
        ((v, np.where(t == 0, -1, t)), "out of range"),
        ((v, np.where(t == last, last + 1, t)), "out of range"),
        ((v, t.copy(), topo), "topology's own array"),
        ((np.vstack([v, v[:1]]), t, topo), "topology has 42 vertices"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            SurfaceMesh(*args)


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


def _masked_two_ring(mesh):
    """The two-ring as (idx, mask): padded with index 0 where mask is
    False, the slots where topology.two_ring holds the vertex itself."""
    ring = mesh.topology.two_ring
    mask = ring != np.arange(len(ring))[:, None]
    return np.where(mask, ring, 0), mask


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
        idx, mask = _masked_two_ring(mesh)
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
        idx, mask = _masked_two_ring(mesh)
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


def _perturbed_icosphere(subdivisions=3):
    m = icosphere(subdivisions)
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
# with rows past 8 entries, for the tests of sums in a fixed order
WIDE_MESHES = [*GEOMETRY_MESHES, _bipyramid]
WIDE_IDS = [*GEOMETRY_IDS, "bipyramid"]


@pytest.mark.parametrize("make", WIDE_MESHES, ids=WIDE_IDS)
def test_stored_geometry_matches_reference_bits(make):
    mesh = make()
    ref = _Reference(mesh)
    _same_bits(mesh.triangle_areas(), ref.triangle_areas())
    _same_bits(mesh._cots, ref.cotangents())
    _same_bits(mesh.mixed_areas(), ref.mixed_areas())
    assert mesh.area() == ref.area()
    assert mesh.min_edge_length() == ref.min_edge_length()
    for got, want in zip(tuple(c.T for c in mesh._corner_planes()),
                         ref.corner_vectors()):
        _same_bits(got, want)
    w, w_ref = mesh.cotangent_matrix(), ref.cotangent_matrix()
    # + 0.0 equates -0.0 and 0.0: the CSR route drops its zero entries
    _same_bits(_dense(w) + 0.0, w_ref.toarray())
    for arr in (mesh.vertices, mesh.triangle_areas(), mesh._cots):
        assert not arr.flags.writeable


def test_obtuse_mesh_hits_the_mixed_area_clamp():
    cots = _sheared_square()._cots
    assert np.any(cots < 0.0) and np.any(np.all(cots >= 0.0, axis=1))


# -- the cotangent operator and the implicit solve against scipy.sparse -------

def _scipy_system(mesh, dt):
    """The pinned semi-implicit system (m - dt W) x = m x_old as it was
    formed with scipy.sparse: the CSR operator, the rhs and the start."""
    m = sp.diags(mesh.mixed_areas())
    a = (m - dt * _Reference(mesh).cotangent_matrix()).tocsr()
    rhs = m @ mesh.vertices
    x0 = mesh.vertices
    bdry = mesh.boundary_vertex_mask
    if bdry.any():
        keep = ~bdry
        rhs = rhs[keep] - a[keep][:, bdry] @ mesh.vertices[bdry]
        a = a[keep][:, keep]
        x0 = x0[keep]
    return a, rhs, x0


@pytest.mark.parametrize("make", [*WIDE_MESHES, lambda: icosphere(4)],
                         ids=[*WIDE_IDS, "icosphere4"])
def test_every_vertex_has_neighbours_to_sum_and_fit(make):
    """The cotangent operator sums every row's off-diagonal entries with no
    row filter, and the |B| fit divides by two_ring_size with no floor: a
    mesh gives every vertex a one-ring neighbour and two two-ring ones."""
    topo = make().topology
    own = np.arange(topo.n_vertices)
    assert np.all(np.any(topo.closed_ring != own, axis=0))
    assert topo.two_ring_size.min() >= 2


@pytest.mark.parametrize("make", WIDE_MESHES, ids=WIDE_IDS)
def test_cotangent_products_and_row_sums_match_csr_bits(make):
    """W x for one and for four columns, and the diagonal (minus the row
    sums), bit for bit against the CSR matrix."""
    mesh = make()
    w, w_ref = mesh.cotangent_matrix(), _Reference(mesh).cotangent_matrix()
    x = mesh.vertices
    noise = np.random.default_rng(3).standard_normal(len(x))
    for vec in (x, x[:, 0], x[:, 2], noise):
        _same_bits(w @ vec, w_ref @ vec)
    _same_bits(w.diagonal() + 0.0, w_ref.diagonal())


def _vertex_sums(triangles, values, n):
    """Per-vertex sums of per-triangle values, (m,) or (m, c) -> (n,) or
    (n, c).  np.bincount adds in input order from 0.0, so each vertex adds
    its triangles' values in increasing triangle order, as a product with
    the 0/1 vertex-triangle incidence matrix does."""
    corners = triangles.ravel()
    per_corner = np.repeat(values.reshape(len(triangles), -1), 3, axis=0)
    sums = [np.bincount(corners, w, minlength=n) for w in per_corner.T]
    return np.stack(sums, axis=-1).reshape(n, *values.shape[1:])


def _largest_column(proj):
    """The column of each projector with the largest diagonal entry (the
    longest column, at least 1/sqrt(2) for rank 2), normalised."""
    k = np.argmax(np.diagonal(proj, axis1=1, axis2=2), axis=1)
    col = proj[np.arange(len(proj)), :, k]
    return col / np.linalg.norm(col, axis=1, keepdims=True)


def _reference_tangent_frames(mesh):
    """mesh_tangent_frames as written before the mesh kept coordinate
    planes: (m, 4) corners, (m, 6) bivectors summed by _vertex_sums, and
    both columns picked by _largest_column, m1's from I - Pi."""
    v, t = mesh.vertices, mesh.triangles
    p, q, r = (v.take(t[:, k], axis=0) for k in range(3))
    a, b = q - p, r - p
    i, j = UPPER
    n = len(v)
    m6 = _vertex_sums(t, a[:, i] * b[:, j] - a[:, j] * b[:, i], n)
    s = 0.5 * (m6 @ J_UPPER.T)
    s6 = s @ J_UPPER
    t6 = m6 - s6
    s_norm = 2.0 * np.linalg.norm(s, axis=1)
    t_norm = np.sqrt(2.0) * np.linalg.norm(t6, axis=1)
    area = _vertex_sums(t, mesh.triangle_areas(), n)
    assert not (np.minimum(s_norm, t_norm) <= 1e-12 * area).any()
    s6 /= s_norm[:, None]
    t6 /= t_norm[:, None]
    tangent = mesh_module._antisymmetric(s6 + t6)
    proj = -(tangent @ tangent)
    t1 = _largest_column(proj)
    t2 = np.einsum("nji,nj->ni", tangent, t1)
    m1 = _largest_column(np.eye(4) - proj)
    m2 = np.einsum("nji,nj->ni", mesh_module._antisymmetric(s6 - t6), m1)
    lam = -s / (0.5 * s_norm)[:, None]
    return t1, t2, m1, m2, lam


def _jittered_icosphere():
    # every coordinate moved, x4 off its plane too, by more than the
    # geometry meshes' 1e-2
    m = icosphere(3)
    rng = np.random.default_rng(29)
    return m.with_vertices(m.vertices
                           + 5e-2 * rng.standard_normal(m.vertices.shape))


@pytest.mark.parametrize("make", WIDE_MESHES, ids=WIDE_IDS)
def test_vertex_sums_match_incidence_product_bits(make):
    """The per-vertex sums of the reference tangent frames (the triangle
    areas and the (m, 6) winding bivectors) against the product with the
    CSR vertex-triangle incidence matrix."""
    mesh = make()
    t = mesh.triangles
    n = len(mesh.vertices)
    inc = sp.csr_matrix((np.ones(t.size), (t.ravel(),
                                            np.repeat(np.arange(len(t)), 3))),
                        shape=(n, len(t)))
    p, q, r = tuple(c.T for c in mesh._corner_planes())
    bivectors = (np.einsum("mi,mj->mij", q - p, r - p)
                 .reshape(len(t), 16)[:, [1, 2, 3, 6, 7, 11]])
    for values in (mesh.triangle_areas(), bivectors):
        _same_bits(_vertex_sums(t, values, n), inc @ values)


@pytest.mark.parametrize("make", [*WIDE_MESHES, _jittered_icosphere],
                         ids=[*WIDE_IDS, "jittered_icosphere"])
def test_tangent_frames_match_reference_bits(make):
    """The frames from the coordinate planes against the (m, 4) route:
    t1, t2, m1, m2 and the phase, bit for bit."""
    mesh = make()
    for got, want in zip(mesh_tangent_frames(mesh),
                         _reference_tangent_frames(mesh), strict=True):
        _same_bits(got, want)


@pytest.mark.parametrize("make", [*WIDE_MESHES, _jittered_icosphere],
                         ids=[*WIDE_IDS, "jittered_icosphere"])
def test_vertex_planes_are_the_readonly_transpose(make):
    mesh = make()
    planes = mesh._planes
    _same_bits(planes, np.ascontiguousarray(mesh.vertices.T))
    assert planes.flags.c_contiguous and not planes.flags.writeable
    with pytest.raises(ValueError):
        planes[0, 0] = 1.0


def _signed_zero_square():
    # a bump off the plane, and x4 = -0.0 everywhere, as an OFF file with
    # "-0" coordinates gives
    m = flat_square(6)
    v = m.vertices.copy()
    v[24, 2] = 0.05
    v[:, 3] = -0.0
    return m.with_vertices(v)


@pytest.mark.parametrize("make", [*WIDE_MESHES, _signed_zero_square],
                         ids=[*WIDE_IDS, "signed_zeros"])
def test_implicit_system_and_pcg_match_scipy_bits(make):
    """The pinned system of a semi-implicit step against the scipy.sparse
    route, and each coordinate's solve against scipy.sparse.linalg.cg:
    the same iterate to the last bit after the same number of steps."""
    mesh = make()
    dt = 1e-2
    a, rhs, x0 = _implicit_system(FlowState.measure(mesh, 0.0), dt)
    a_ref, rhs_ref, x0_ref = _scipy_system(mesh, dt)
    assert mesh.boundary_vertex_mask.any() == (len(x0) < len(mesh.vertices))
    _same_bits(_dense(a) + 0.0, a_ref.toarray())
    _same_bits(rhs, rhs_ref)
    _same_bits(x0, x0_ref)
    precond = sp.diags(1.0 / a_ref.diagonal())
    for k in range(4):
        steps = []
        want, info = cg(a_ref, rhs_ref[:, k], x0=x0_ref[:, k], M=precond,
                        rtol=1e-10, atol=0.0, maxiter=10000,
                        callback=steps.append)
        got, iterations = _pcg(a, np.ascontiguousarray(rhs[:, k]), x0[:, k],
                               1.0 / a.diagonal())
        assert info == 0 and iterations == len(steps)
        _same_bits(got, want)


def _projectors(t1, t2):
    return (t1[:, :, None] * t1[:, None, :] + t2[:, :, None] * t2[:, None, :])


@pytest.mark.parametrize("make", GEOMETRY_MESHES, ids=GEOMETRY_IDS)
def test_frames_with_shared_offsets_match_reference_projectors(make):
    """The bivector frames against the two-ring covariance frames of the
    reference: both orient every plane the same way, and their tangent
    projectors agree at rounding where symmetry makes both routes exact
    (flat square, Clifford torus) and to first order in the mesh size
    elsewhere (observed gaps 0.14 and 0.23 at longest edges 0.21 and
    0.23)."""
    mesh = make()
    *want, sgn = _Reference(mesh).tangent_frames(mesh, S)
    got = mesh_tangent_frames(mesh)
    gap = np.abs(_projectors(*got[:2]) - _projectors(*want[:2])).max()
    p, q, r = tuple(c.T for c in mesh._corner_planes())
    h_max = np.linalg.norm(np.concatenate([q - p, r - q, p - r]), axis=1).max()
    exact = make in (GEOMETRY_MESHES[1], GEOMETRY_MESHES[3])
    assert gap <= (1e-13 if exact else h_max)
    assert np.all(np.sum(got[4] * want[4], axis=1) > 0.0)
    # the winding sign decides every flip; check it is never near zero
    assert np.all(sgn != 0.0)


@pytest.mark.parametrize("make", GEOMETRY_MESHES, ids=GEOMETRY_IDS)
def test_bnorm_matches_reference_fit_to_rounding(make):
    """The batched-matmul fit against the per-normal einsum fit: the same
    NaN rows, and values equal up to rounding."""
    mesh = make()
    ref = _Reference(mesh)
    *frames, _sgn = ref.tangent_frames(mesh, S)
    want = ref.bnorm(mesh, frames)
    got = mesh_bnorm(mesh, frames)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    pos = fin & (want > 0.0)
    assert np.all(np.abs(got[pos] - want[pos]) <= 1e-13 * want[pos])
    assert np.all(np.abs(got[fin & ~pos] - want[fin & ~pos]) <= 1e-13)


def _whole_mesh_bnorm(mesh, frames):
    """mesh_bnorm as written before the fit ran in vertex blocks: one
    gather and projection of every offset, each ring moment a pass over
    the whole (n, k) planes, and the ring sizes counted on every call."""
    d = two_ring_offsets(mesh)
    t1, t2, m1, m2, _lam = frames
    n, k, _ = d.shape
    proj = np.empty((4, n, k))
    np.matmul(d, np.stack([t1, t2, m1, m2], axis=-1),
              out=proj.transpose(1, 2, 0))
    u, v, w = proj[0], proj[1], proj[2:]
    uu, uv, vv = u * u, u * v, v * v

    def moment(a, b):
        return np.einsum("nk,nk->n", a, b)

    def load(a):
        return np.einsum("nk,cnk->cn", a, w)

    m20, m11, m02 = moment(u, u), moment(u, v), moment(v, v)
    m30, m21 = moment(uu, u), moment(uu, v)
    m12, m03 = moment(uv, v), moment(vv, v)
    m40, m31, m22 = moment(uu, uu), moment(uu, uv), moment(uu, vv)
    m13, m04 = moment(uv, vv), moment(vv, vv)
    count = np.count_nonzero(mesh.topology.two_ring != np.arange(n)[:, None],
                             axis=1)
    ok = count >= 6
    ok &= ~mesh.boundary_vertex_mask
    r2 = 1.0 / np.maximum((m20 + m02) / np.maximum(count, 1), 1e-150)
    r1 = np.sqrt(r2)
    r3, r4 = r2 * r1, r2 * r2
    gram = np.zeros((5, 5, n))
    gram[0, 0] = m20 * r2
    gram[1, 0] = m11 * r2
    gram[1, 1] = m02 * r2
    gram[2, 0] = 0.5 * m30 * r3
    gram[2, 1] = 0.5 * m21 * r3
    gram[2, 2] = 0.25 * m40 * r4
    gram[3, 0] = m21 * r3
    gram[3, 1] = m12 * r3
    gram[3, 2] = 0.5 * m31 * r4
    gram[3, 3] = m22 * r4
    gram[4, 0] = 0.5 * m12 * r3
    gram[4, 1] = 0.5 * m03 * r3
    gram[4, 2] = 0.25 * m22 * r4
    gram[4, 3] = 0.5 * m13 * r4
    gram[4, 4] = 0.25 * m04 * r4
    gram[:, :, ~ok] = np.eye(5)[:, :, None]
    rhs = np.stack([load(u) * r1, load(v) * r1, 0.5 * load(uu) * r2,
                    load(uv) * r2, 0.5 * load(vv) * r2])
    a, b, c = mesh_module._spd_solve(gram, rhs)[2:] * r2
    out = np.sqrt(np.sum(a * a + 2 * b * b + c * c, axis=0))
    out[~ok] = np.nan
    return out


def _octahedron():
    # every vertex has only the five others in its two-ring: under-determined
    e = np.eye(4)
    verts = np.concatenate([e[:3], -e[:3]])
    tris = []
    for sx, sy, sz in np.ndindex(2, 2, 2):
        face = [3 * sx, 1 + 3 * sy, 2 + 3 * sz]
        tris.append(face if (sx + sy + sz) % 2 == 0 else face[::-1])
    return SurfaceMesh(verts, np.array(tris))


def _union(*meshes):
    """The disjoint union of meshes, vertices numbered in order."""
    offsets = np.cumsum([0] + [len(m.vertices) for m in meshes])
    return SurfaceMesh(np.concatenate([m.vertices for m in meshes]),
                       np.concatenate([m.triangles + o
                                       for m, o in zip(meshes, offsets)]))


def _mixed_mesh():
    """A jittered torus, two squares with boundaries and between them an
    octahedron, whose six vertices are under-determined: 328 vertices, 62
    of them NaN in the fit (56 on the boundary)."""
    rng = np.random.default_rng(23)
    torus = _clifford_torus(16, 12)
    torus = torus.with_vertices(
        torus.vertices + 1e-3 * rng.standard_normal(torus.vertices.shape))
    return _union(torus, _signed_zero_square(), _octahedron(),
                  _sheared_square())


@pytest.mark.parametrize("block", [lambda n: n + 1, lambda n: n,
                                   lambda n: n - 1, lambda n: 59],
                         ids=["below_one", "one", "one_past", "several"])
def test_blocked_bnorm_matches_whole_mesh_fit_bits(monkeypatch, block):
    """The fit in blocks against the whole-mesh fit, bit for bit and NaN
    rows included, with the mesh smaller than one block, exactly one
    block, one vertex past a block, and several blocks."""
    mesh = _mixed_mesh()
    n = len(mesh.vertices)
    want = _whole_mesh_bnorm(mesh, mesh_tangent_frames(mesh))
    assert np.isnan(want).sum() == 62 and mesh.topology.unfitted.sum() == 62
    assert mesh.boundary_vertex_mask.sum() == 56
    monkeypatch.setattr(mesh_module, "BNORM_BLOCK", block(n))
    _same_bits(mesh_bnorm(mesh), want)


@pytest.mark.parametrize("make", [lambda: _perturbed_icosphere(2),
                                  _perturbed_icosphere,
                                  lambda: _perturbed_icosphere(4),
                                  lambda: flat_square(40)],
                         ids=["icosphere2", "icosphere3", "icosphere4",
                              "flat_square40"])
def test_bnorm_blocks_match_whole_mesh_fit_bits(make):
    """At the package's block size: icosphere(2) fits in one block, the
    others span two to six, flat_square(40) with its boundary."""
    mesh = make()
    frames = mesh_tangent_frames(mesh)
    _same_bits(mesh_bnorm(mesh, frames), _whole_mesh_bnorm(mesh, frames))


def test_blocked_bnorm_halves_the_transient_memory():
    """On icosphere(5), 10242 vertices, the fit's traced peak allocation is
    under half the whole-mesh fit's (observed about 9.6 and 23 MiB)."""
    mesh = icosphere(5)
    frames = mesh_tangent_frames(mesh)
    peaks = []
    for fit in (mesh_bnorm, _whole_mesh_bnorm):
        tracemalloc.start()
        try:
            fit(mesh, frames)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.5 * peaks[1]


@pytest.mark.parametrize("make", WIDE_MESHES, ids=WIDE_IDS)
def test_two_ring_offsets_padding_is_zero(make):
    mesh = make()
    idx, mask = _masked_two_ring(mesh)
    d = two_ring_offsets(mesh)
    assert np.all(d[~mask] == 0.0)
    _same_bits(d[mask], (mesh.vertices[idx] - mesh.vertices[:, None, :])[mask])


_SOLVE = np.linalg.solve
_SPD_SOLVE = mesh_module._spd_solve


def _spd_batch(rng, n):
    """n random well-conditioned SPD 5x5 matrices, (n, 5, 5)."""
    a = rng.standard_normal((n, 5, 5))
    return a @ a.transpose(0, 2, 1) + 5.0 * np.eye(5)


def _batched_spd_solve(spd, b):
    """_spd_solve on (n, 5, 5) and (n, 5, c) arrays, the layout of
    np.linalg.solve; NaN above the diagonal shows only the lower triangle
    is read."""
    gram = np.moveaxis(spd, 0, -1).copy()
    gram[np.triu_indices(5, 1)] = np.nan
    return np.moveaxis(_SPD_SOLVE(gram, np.moveaxis(b, 0, -1)), -1, 0)


def _assert_close_per_system(got, want, rtol):
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale)


def test_bnorm_makes_one_solve_per_state(monkeypatch):
    """One batched solve serves every vertex and both normals, and the
    unrolled Cholesky solve agrees with np.linalg.solve."""
    mesh = _sheared_square()
    want = mesh_bnorm(mesh)
    calls = []

    def spy(gram, rhs):
        calls.append(([len(row) for row in gram], [b.shape for b in rhs]))
        return _SPD_SOLVE(gram, rhs)

    monkeypatch.setattr(mesh_module, "_spd_solve", spy)
    _same_bits(mesh_bnorm(mesh), want)
    n = len(mesh.vertices)
    # the lower-triangle rows of the Gram and five (2, n) loads
    assert calls == [([1, 2, 3, 4, 5], [(2, n)] * 5)]
    rng = np.random.default_rng(7)
    for count, cols in ((1, 1), (9, 2), (400, 3)):
        spd = _spd_batch(rng, count)
        b = rng.standard_normal((count, 5, cols))
        _assert_close_per_system(_batched_spd_solve(spd, b),
                                 _SOLVE(spd, b), 1e-12)


@pytest.mark.parametrize("singular", [False, True], ids=["plain", "ridge"])
def test_spd_solve_on_lower_rows_matches_square_arrays_bits(singular):
    """The ragged lower-triangle rows and (c, n) loads that mesh_bnorm
    passes give the bits of the (5, 5, n) and (5, c, n) arrays of
    _batched_spd_solve; a zero diagonal entry in one system makes both
    factor the batch again with the ridge."""
    rng = np.random.default_rng(11)
    spd = _spd_batch(rng, 40)
    if singular:
        spd[7, 4, :] = spd[7, :, 4] = 0.0
    b = rng.standard_normal((40, 5, 2))
    gram = np.moveaxis(spd, 0, -1)
    rows = [[gram[r, j].copy() for j in range(r + 1)] for r in range(5)]
    rhs = [np.ascontiguousarray(b[:, i].T) for i in range(5)]
    x = _SPD_SOLVE(rows, rhs)
    assert [e.shape for e in x] == [(2, 40)] * 5
    _same_bits(np.moveaxis(x, -1, 0), _batched_spd_solve(spd, b))


def test_bnorm_solve_fallback_adds_ridge(monkeypatch):
    """A batch holding an exactly singular Gram is factored again with
    gram + 1e-12 I; NaN rows stay as they were, and a batch that fails
    even with the ridge raises SolveFailure."""
    rng = np.random.default_rng(3)
    spd = _spd_batch(rng, 6)
    spd[2, 4, :] = spd[2, :, 4] = 0.0
    b = rng.standard_normal((6, 5, 2))
    _assert_close_per_system(_batched_spd_solve(spd, b),
                             _SOLVE(spd + 1e-12 * np.eye(5), b), 1e-12)
    with pytest.raises(SolveFailure, match="even with a 1e-12 ridge"):
        _batched_spd_solve(-spd, b)

    # with t2 = e4 at one interior vertex, v = 0 on its whole two-ring (the
    # mesh lies in x4 = 0), so its Gram is exactly singular
    mesh = _sheared_square()
    frames = list(mesh_tangent_frames(mesh))
    frames[1] = frames[1].copy()
    vertex = int(np.flatnonzero(~mesh.boundary_vertex_mask)[0])
    frames[1][vertex] = [0.0, 0.0, 0.0, 1.0]
    plain = mesh_bnorm(mesh)
    got = mesh_bnorm(mesh, frames)
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: _SOLVE(a + 1e-12 * np.eye(5), b))
    want = _Reference(mesh).bnorm(mesh, frames)
    assert np.array_equal(np.isnan(got), np.isnan(plain))
    assert np.isnan(got).any() and not np.isnan(got).all()
    fin = ~np.isnan(got)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * want[fin])


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
    the values recorded with the bivector frames, so a reformulation of the
    fit changes them only at rounding level."""
    if case == "icosphere":
        errors = [np.max(np.abs(mesh_bnorm(icosphere(s)) - np.sqrt(2.0)))
                  for s in (2, 3, 4)]
        recorded = [0.1244871782478878, 0.030560298420157173,
                    0.008282430304614952]
    else:
        errors = []
        for nx, ny in ((48, 24), (96, 48), (192, 96)):
            mesh, exact = _torus_lift(nx, ny)
            errors.append(np.max(np.abs(mesh_bnorm(mesh) - exact) / exact))
        recorded = [0.1008834850103595, 0.02405384054937549,
                    0.005940349320373658]
    assert np.all(_orders(errors) >= 1.8)
    assert np.allclose(errors, recorded, rtol=1e-10, atol=0.0)


def _random_rotation(rng):
    """A random element of SO(4)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("case", ["icosphere", "torus"])
def test_bnorm_is_invariant_under_rigid_motions_and_scales_inversely(case):
    """|B| is a Euclidean invariant of the immersion: a rotation in SO(4)
    followed by a translation leaves the estimate unchanged, and scaling
    the vertices by c divides it by c (observed gaps below 1e-14)."""
    mesh = icosphere(3) if case == "icosphere" else _torus_lift(48, 24)[0]
    want = mesh_bnorm(mesh)
    assert np.all(want > 0.0)
    rng = np.random.default_rng(17)
    for _ in range(3):
        rotation, shift = _random_rotation(rng), rng.standard_normal(4)
        moved = mesh.vertices @ rotation.T + shift
        got = mesh_bnorm(mesh.with_vertices(moved))
        assert np.all(np.abs(got - want) <= 1e-12 * want)
    for c in (0.3, 2.5):
        got = mesh_bnorm(mesh.with_vertices(c * mesh.vertices))
        assert np.all(np.abs(c * got - want) <= 1e-12 * want)


# -- observed convergence order of the mesh phase ---------------------------

def _jittered_icosphere(subdivisions, seed=5):
    """icosphere(subdivisions) with every vertex moved 0.2 h_min along a
    random tangent direction, then put back on the unit sphere."""
    m = icosphere(subdivisions)
    rng = np.random.default_rng(seed)
    x = m.vertices[:, :3]
    g = rng.standard_normal(x.shape)
    g -= np.sum(g * x, axis=1, keepdims=True) * x
    g *= 0.2 * m.min_edge_length() / np.linalg.norm(g, axis=1, keepdims=True)
    v = np.zeros_like(m.vertices)
    v[:, :3] = (x + g) / np.linalg.norm(x + g, axis=1, keepdims=True)
    return m.with_vertices(v)


@pytest.mark.parametrize("case", ["torus", "jittered_icosphere"])
def test_phase_error_shrinks_against_exact_jets(case):
    """max |lam_mesh - lam| under refinement, against frames(jet).lam of the
    exact family at each vertex: second order on the lifted torus, first
    order on an icosphere whose vertices are jittered tangentially."""
    from hkflow.curves import PlaneCurve, embed_torus

    errors = []
    if case == "torus":
        for nx, ny in ((48, 24), (96, 48), (192, 96)):
            curve = PlaneCurve.from_function(
                lambda x: (1.0 + 0.05 * np.cos(3.0 * x)) * np.exp(1j * x),
                n=nx)
            mesh, fam = embed_torus(curve, ny=ny)
            # vertex ix * ny + iy sits at (2 pi ix / nx, 2 pi iy / ny)
            u = np.repeat(2 * np.pi * np.arange(nx) / nx, ny)
            v = np.tile(2 * np.pi * np.arange(ny) / ny, nx)
            jet = fam.jet(u, v)
            assert np.max(np.abs(jet.x - mesh.vertices)) < 1e-12
            errors.append(np.max(np.abs(mesh_tangent_frames(mesh)[4]
                                        - frames(jet).lam)))
        floor = 1.8
    else:
        for sub in (3, 4, 5):
            mesh = _jittered_icosphere(sub)
            y = mesh.vertices
            jet = Sphere().jet(np.arccos(y[:, 2]),
                               np.arctan2(y[:, 1], y[:, 0]))
            errors.append(np.max(np.abs(mesh_tangent_frames(mesh)[4]
                                        - frames(jet).lam)))
        floor = 0.8
    assert errors[0] < 0.2
    assert np.all(_orders(errors) >= floor)


# -- folded one-rings -------------------------------------------------------

def _folded_square():
    # flat_square(2) folded along x1 = 1/2: the triangles right of the fold
    # lie on those left of it with the opposite winding, so at the centre
    # vertex the summed winding bivector is exactly zero
    m = flat_square(2)
    v = m.vertices.copy()
    v[:, 0] = np.minimum(v[:, 0], 1.0 - v[:, 0])
    return m.with_vertices(v)


def _bowtie():
    # two triangles sharing vertex 0, spanning e1^e2 and e4^e3: the sum is
    # anti-self-dual there, so its J-span part vanishes and only T is left
    e = np.eye(4)
    verts = np.stack([np.zeros(4), e[0], e[1], e[2], e[3]])
    return SurfaceMesh(verts, np.array([[0, 1, 2], [0, 4, 3]]))


@pytest.mark.parametrize("make, vertex", [(_folded_square, 4), (_bowtie, 0)],
                         ids=["folded_square", "bowtie"])
def test_folded_one_ring_raises(make, vertex):
    mesh = make()
    with pytest.raises(FoldedVertex, match=f"at 1 of .* first vertex {vertex}$"):
        mesh_tangent_frames(mesh)
