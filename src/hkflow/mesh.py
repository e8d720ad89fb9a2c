"""Triangle meshes immersed in R^4 and their discrete curvature operators.

The cotangent Laplacian applied to the coordinate functions gives the mean
curvature vector (trace convention, so a unit sphere has |H| = 2).  All
formulas below use only inner products of edge vectors, so they work in any
ambient dimension; the mixed Voronoi vertex areas are clamped for obtuse
triangles.

Per-vertex tangent planes, phase directions and a second-fundamental-form
norm are estimated from two-ring neighborhoods; these feed the flow
diagnostics, where only max norms are consumed, not pointwise accuracy.

Connectivity lives in a `MeshTopology`, built and validated once per
triangle array: the orientation check, the boundary, and the padded one-
and two-ring index arrays.  A flow never changes connectivity, so
`SurfaceMesh.with_vertices` shares the topology of its source; only the
checks that depend on vertex positions (shapes, index range, triangle
areas) run again for each new vertex set.

The triangle geometry (corner cotangents, areas and squared edge lengths)
is measured once per vertex set, at construction, where the area check
needs it; the vertices are a read-only copy, so it stays valid, and every
metric operator reads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateTriangle, NonOrientableMesh
from .structure import apply_j
from .util import format_rows, readonly


def _padded_rows(pattern: sp.csr_matrix):
    """Off-diagonal column indices of each row, zero-padded, with a mask.

    Columns come out in increasing order, so the neighbors of a vertex are
    listed in index order.
    """
    pattern.sum_duplicates()
    pattern.sort_indices()
    n = pattern.shape[0]
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    cols = pattern.indices
    off = rows != cols
    rows, cols = rows[off], cols[off]
    counts = np.bincount(rows, minlength=n)
    mask = np.arange(counts.max(initial=0)) < counts[:, None]
    idx = np.zeros(mask.shape, dtype=int)
    idx[mask] = cols
    return readonly(idx), readonly(mask)


class MeshTopology:
    """Validated connectivity of a triangle array over n_vertices vertices.

    Construction checks that the triangle windings are globally consistent
    (each interior edge traversed once in each direction, which also rules
    out edges shared by more than two triangles).  Every array is
    read-only: meshes that share a topology may rely on it not changing.

    ring1 and ring2 are (idx, mask) pairs of shape (n_vertices, k): row i
    lists the one-ring (two-ring) neighbors of vertex i in increasing index
    order, vertex i excluded, padded with index 0 where mask is False.  The
    two-ring is the nonzero pattern of A + A^2 for the vertex adjacency A.
    """

    def __init__(self, triangles: np.ndarray, n_vertices: int):
        t = readonly(np.array(triangles, dtype=int))
        self.triangles = t
        self.n_vertices = n_vertices
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        key = directed[:, 0].astype(np.int64) * n_vertices + directed[:, 1]
        if len(np.unique(key)) < len(key):
            raise NonOrientableMesh("a directed edge appears twice; windings "
                                    "are not globally consistent")
        rev = directed[:, 1].astype(np.int64) * n_vertices + directed[:, 0]
        # boundary edges are the directed edges without a reversed partner
        self.boundary_edges = readonly(directed[~np.isin(key, rev)])
        mask = np.zeros(n_vertices, dtype=bool)
        mask[self.boundary_edges.ravel()] = True
        self.boundary_mask = readonly(mask)

        adj = sp.csr_matrix(
            (np.ones(2 * len(directed), dtype=np.int64),
             (np.concatenate([directed[:, 0], directed[:, 1]]),
              np.concatenate([directed[:, 1], directed[:, 0]]))),
            shape=(n_vertices, n_vertices))
        self.ring1 = _padded_rows(adj)
        self.ring2 = _padded_rows(adj + adj @ adj)


@dataclass(eq=False)
class SurfaceMesh:
    """Oriented triangle mesh with vertices in R^4.

    Every construction checks the vertex and triangle shapes, the index
    range and that every triangle area exceeds 1e-14 (`DegenerateTriangle`
    otherwise).  Without a `topology`, one is built from the triangles,
    which runs the orientation check (`NonOrientableMesh`); with one, as
    `with_vertices` passes, the triangles must be its own array and the
    connectivity is not validated again.  `vertices` is a read-only copy of
    the input and `triangles` is read-only, so the triangle geometry
    measured at construction stays valid.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    topology: MeshTopology | None = field(default=None, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 4:
            raise ValueError(f"vertices must be (n, 4), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {t.shape}")
        if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
            raise ValueError("triangle indices out of range")
        topo = self.topology
        if topo is not None:
            if t is not topo.triangles:
                raise ValueError("triangles must be the topology's own array")
            if topo.n_vertices != len(v):
                raise ValueError(f"topology has {topo.n_vertices} vertices, "
                                 f"got {len(v)}")
        self.vertices = readonly(v)
        self.triangles = t
        self._measure_triangles()
        if np.any(self._areas <= 1e-14):
            raise DegenerateTriangle("mesh contains a triangle of area <= 1e-14")
        if topo is None:
            self.topology = MeshTopology(t, len(v))
            self.triangles = self.topology.triangles

    def _measure_triangles(self) -> None:
        """Corner cotangents, areas and squared edge lengths of every
        triangle, from one gather of the corners; stored read-only."""
        p, q, r = self.corner_vectors()
        cots = np.empty((len(p), 3))
        l2 = np.empty((len(p), 3))
        for k, (apex, u, w) in enumerate(((p, q, r), (q, r, p), (r, p, q))):
            a, b = u - apex, w - apex
            aa = np.sum(a * a, axis=1)
            dot = np.sum(a * b, axis=1)
            cross2 = aa * np.sum(b * b, axis=1) - dot * dot
            cots[:, k] = dot / np.sqrt(np.maximum(cross2, 1e-300))
            # a runs from corner k to corner k+1, opposite corner k+2
            l2[:, (k + 2) % 3] = aa
            if k == 0:
                self._areas = readonly(
                    0.5 * np.sqrt(np.maximum(cross2, 0.0)))
        self._cots = readonly(cots)
        self._l2 = readonly(l2)

    # -- topology -----------------------------------------------------------

    @property
    def boundary_vertex_mask(self) -> np.ndarray:
        return self.topology.boundary_mask

    @property
    def is_closed(self) -> bool:
        return len(self.topology.boundary_edges) == 0

    def with_vertices(self, vertices) -> "SurfaceMesh":
        """Same connectivity (the shared topology), new vertex positions."""
        return SurfaceMesh(vertices, self.triangles, self.topology)

    # -- metric quantities, read off the geometry measured at construction --

    def corner_vectors(self):
        """Corner positions (p, q, r) of every triangle, each shape (m, 4)."""
        v, t = self.vertices, self.triangles
        p, q, r = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        return p, q, r

    def triangle_areas(self) -> np.ndarray:
        return self._areas

    def area(self) -> float:
        return float(np.sum(self._areas))

    def min_edge_length(self) -> float:
        return float(np.sqrt(self._l2.min()))

    def cotangents(self) -> np.ndarray:
        """cot of the interior angle at each corner, shape (m, 3)."""
        return self._cots

    def mixed_areas(self) -> np.ndarray:
        """Mixed Voronoi vertex areas, clamped for obtuse triangles."""
        t = self.triangles
        cots = self._cots
        l2 = self._l2                                  # opposite each corner
        obtuse = cots < 0.0
        any_obtuse = obtuse.any(axis=1)
        contrib = np.empty((len(t), 3))
        # non-obtuse: A(corner k) = 1/8 (l_{k+1}^2 cot_{k+1} + l_{k+2}^2 cot_{k+2})
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            contrib[:, k] = 0.125 * (l2[:, k1] * cots[:, k1]
                                     + l2[:, k2] * cots[:, k2])
        if np.any(any_obtuse):
            half = 0.5 * self._areas[any_obtuse, None]
            quarter = 0.5 * half
            c = np.where(obtuse[any_obtuse], half, quarter)
            contrib[any_obtuse] = c
        # summed in the order np.add.at(areas, t, contrib) would use
        return np.bincount(t.ravel(), weights=contrib.ravel(),
                           minlength=len(self.vertices))

    def cotangent_matrix(self) -> sp.csr_matrix:
        """Symmetric weight matrix W with (W x)_i = sum_j w_ij (x_j - x_i)."""
        t = self.triangles
        cots = self._cots
        n = len(self.vertices)
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

    def vertex_neighbors(self, rings: int = 1) -> list:
        """Neighbor index arrays per vertex (one- or two-ring, vertex
        excluded), in increasing order, read off the topology's rings."""
        if rings not in (1, 2):
            raise ValueError(f"rings must be 1 or 2, got {rings}")
        idx, mask = self.topology.ring1 if rings == 1 else self.topology.ring2
        return [row[m] for row, m in zip(idx, mask)]


def mesh_mean_curvature(mesh: SurfaceMesh, w: sp.csr_matrix | None = None,
                        areas: np.ndarray | None = None):
    """Per-vertex mean curvature vectors from the cotangent Laplacian.

    Returns (H, valid) where H has NaN rows on the boundary (flagged, not
    computed) and valid marks interior vertices.  w and areas are
    mesh.cotangent_matrix() and mesh.mixed_areas(), when the caller has them.
    """
    if w is None:
        w = mesh.cotangent_matrix()
    if areas is None:
        areas = mesh.mixed_areas()
    h = (w @ mesh.vertices) / areas[:, None]
    valid = ~mesh.boundary_vertex_mask
    h[~valid] = np.nan
    return h, valid


# ---------------------------------------------------------------------------
# Per-vertex frames, phase field, curvature-norm estimate
# ---------------------------------------------------------------------------

def two_ring_offsets(mesh: SurfaceMesh) -> np.ndarray:
    """Offsets x_j - x_i from each vertex i to its padded two-ring, shape
    (n, k, 4); padding entries (mask False in topology.ring2) are 0, so
    sums over the ring need no mask."""
    idx, mask = mesh.topology.ring2
    d = mesh.vertices[idx]
    d -= mesh.vertices[:, None, :]
    d *= mask[..., None]
    return d


def mesh_tangent_frames(mesh: SurfaceMesh, offsets: np.ndarray | None = None):
    """Oriented tangent frames (t1, t2), normal legs (m1, m2), phase field.

    The tangent plane is the dominant plane of the two-ring edge covariance;
    (t1, t2) is flipped to match the triangle winding, so the phase
    direction lam_a = <J_a t1, t2> is the discrete counterpart of the
    analytic one; it does not depend on the in-plane gauge of (t1, t2).
    offsets is two_ring_offsets(mesh) when the caller has it.
    """
    d = two_ring_offsets(mesh) if offsets is None else offsets
    cov = np.einsum("nki,nkj->nij", d, d)
    vals, vecs = np.linalg.eigh(cov)
    t1 = vecs[:, :, 3]
    t2 = vecs[:, :, 2]
    m1 = vecs[:, :, 1]
    m2 = vecs[:, :, 0]

    tri = mesh.triangles
    p, q, r = mesh.corner_vectors()
    a, b = q - p, r - p
    # orientation sign: projection of the winding bivector onto t1 ^ t2,
    # summed per vertex over corner 0, then 1, then 2
    wedge = np.empty((3, len(tri)))
    for corner in range(3):
        t1c, t2c = t1[tri[:, corner]], t2[tri[:, corner]]
        at1 = np.einsum("mi,mi->m", a, t1c)
        bt2 = np.einsum("mi,mi->m", b, t2c)
        at2 = np.einsum("mi,mi->m", a, t2c)
        bt1 = np.einsum("mi,mi->m", b, t1c)
        wedge[corner] = at1 * bt2 - at2 * bt1
    sgn = np.bincount(tri.T.ravel(), weights=wedge.ravel(),
                      minlength=len(mesh.vertices))
    flip = sgn < 0
    t2[flip] = -t2[flip]

    lam = np.einsum("nai,ni->na", apply_j(t1), t2)
    norm = np.linalg.norm(lam, axis=1, keepdims=True)
    lam = lam / np.maximum(norm, 1e-300)
    return t1, t2, m1, m2, lam


def mesh_bnorm(mesh: SurfaceMesh, frames=None,
               offsets: np.ndarray | None = None) -> np.ndarray:
    """Per-vertex |B| estimate from a two-ring quadratic fit.

    One projection of the offsets onto (t1, t2, m1, m2) gives the tangent
    coordinates (u, v) and both normal deflections; fitting
    w ~ c1 u + c2 v + (a u^2 + 2b uv + c v^2)/2 per normal direction
    recovers the second fundamental form, both normals in one two-column
    solve of the 5x5 normal equations.  Vertices with fewer than six
    neighbors (or on the boundary) return NaN.  frames is
    mesh_tangent_frames(mesh) and offsets is two_ring_offsets(mesh) when the
    caller has them.
    """
    d = two_ring_offsets(mesh) if offsets is None else offsets
    if frames is None:
        frames = mesh_tangent_frames(mesh, offsets=d)
    t1, t2, m1, m2, _lam = frames
    count = mesh.topology.ring2[1].sum(axis=1)
    # padding offsets are 0, so their coordinates and design rows are too
    proj = d @ np.stack([t1, t2, m1, m2], axis=-1)
    u, v = proj[..., 0], proj[..., 1]
    rho = np.sqrt(np.maximum(
        np.sum(u * u + v * v, axis=1) / np.maximum(count, 1), 1e-300))
    us, vs = u / rho[:, None], v / rho[:, None]
    # transposed design matrix: one row per basis function, (n, 5, k)
    at = np.stack((us, vs, 0.5 * us * us, us * vs, 0.5 * vs * vs), axis=1)
    ata = at @ at.transpose(0, 2, 1)
    ok = count >= 6
    ok &= ~mesh.boundary_vertex_mask
    # guard the solve on under-determined rows
    ata[~ok] = np.eye(5)
    atw = at @ proj[..., 2:]
    try:
        coef = np.linalg.solve(ata, atw)
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(ata + 1e-12 * np.eye(5), atw)
    # (a, b, c) of each normal, one column per normal
    abc = coef[:, 2:, :] / (rho ** 2)[:, None, None]
    a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
    out = np.sqrt(np.sum(a * a + 2 * b * b + c * c, axis=1))
    out[~ok] = np.nan
    return out


def mesh_phase_field(mesh: SurfaceMesh) -> np.ndarray:
    """Unit phase directions per vertex, (n, 3)."""
    return mesh_tangent_frames(mesh)[4]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def icosphere(subdivisions: int = 3, radius: float = 1.0) -> SurfaceMesh:
    """Subdivided icosahedron projected to the sphere, in {x4 = 0}."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=int)
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
    return SurfaceMesh(v4, faces)


def flat_square(n: int = 12, extent: float = 1.0) -> SurfaceMesh:
    """Triangulated square [0, extent]^2 in the (x1, x2)-plane."""
    xs = np.linspace(0.0, extent, n + 1)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    verts = np.zeros(((n + 1) ** 2, 4))
    verts[:, 0] = uu.ravel()
    verts[:, 1] = vv.ravel()
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = a + (n + 1)
            tris.append([a, b, a + 1])
            tris.append([b, b + 1, a + 1])
    return SurfaceMesh(verts, np.array(tris, dtype=int))


def grid_torus_mesh(points: np.ndarray) -> SurfaceMesh:
    """Closed mesh on a doubly periodic (nx, ny, 4) grid of positions."""
    nx, ny, four = points.shape
    if four != 4:
        raise ValueError("points must be (nx, ny, 4)")
    idx = np.arange(nx * ny).reshape(nx, ny)
    ip = np.roll(idx, -1, axis=0)
    jp = np.roll(idx, -1, axis=1)
    a, b, c, d = idx.ravel(), ip.ravel(), np.roll(ip, -1, axis=1).ravel(), jp.ravel()
    tris = np.concatenate([
        np.stack([a, b, c], axis=1),
        np.stack([a, c, d], axis=1),
    ])
    return SurfaceMesh(points.reshape(-1, 4), tris)


# ---------------------------------------------------------------------------
# OFF with 4-coordinate vertices
# ---------------------------------------------------------------------------

def write_off4(mesh: SurfaceMesh, path) -> None:
    """Write OFF with exactly four coordinates per vertex row."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.triangles)} 0",
             *format_rows(mesh.vertices.T, sep=" ")]
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_off4(path) -> SurfaceMesh:
    """Read the 4-coordinate OFF dialect written by write_off4.

    Vertex rows with a coordinate count other than four are rejected; this
    dialect is not interchangeable with 3-coordinate OFF files.
    """
    with open(path) as fh:
        rows = [ln.split("#")[0].strip() for ln in fh]
    rows = [r for r in rows if r]
    if not rows or rows[0] != "OFF":
        raise ValueError("not an OFF file (missing header)")
    counts = rows[1].split()
    nv, nf = int(counts[0]), int(counts[1])
    if len(rows) < 2 + nv + nf:
        raise ValueError("truncated OFF file")
    verts = np.empty((nv, 4))
    for i in range(nv):
        parts = rows[2 + i].split()
        if len(parts) != 4:
            raise ValueError(
                f"vertex row {i} has {len(parts)} coordinates; this reader "
                "accepts only 4-coordinate vertices")
        verts[i] = [float(p) for p in parts]
    tris = np.empty((nf, 3), dtype=int)
    for k in range(nf):
        parts = rows[2 + nv + k].split()
        if int(parts[0]) != 3 or len(parts) != 4:
            raise ValueError(f"face row {k} is not a triangle")
        tris[k] = [int(p) for p in parts[1:]]
    return SurfaceMesh(verts, tris)
