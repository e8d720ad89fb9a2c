"""Triangle meshes immersed in R^4 and their discrete curvature operators.

The cotangent Laplacian applied to the coordinate functions gives the mean
curvature vector (trace convention, so a unit sphere has |H| = 2).  All
formulas below use only inner products of edge vectors, so they work in any
ambient dimension; the mixed Voronoi vertex areas are clamped for obtuse
triangles.

Per-vertex tangent frames and phase directions come from the one-ring,
with no eigen-solver.  The oriented 2-planes of R^4 are S^2 x S^2: the
self-dual and anti-self-dual parts of the unit tangent bivector (Hoffman &
Osserman, Proc. London Math. Soc. 50, 1985), and the phase is the first
factor.  So the winding bivectors of the triangles at a vertex are summed,
the sum is split into its J-span (self-dual) part and the remainder, and
each part is normalised; the two unit parts add up to a unit simple
bivector, whose plane is the tangent plane and whose J-coefficients give
the phase.  A second-fundamental-form norm is fitted on the two-ring of
each vertex: the least-squares normal equations are assembled from ring
moments (sums of u^p v^q and u^p v^q w over the ring, in tangent
coordinates (u, v) and normal deflections w) and solved by a 5x5 Cholesky
factorisation unrolled entry by entry and vectorised over vertices.  These
feed the flow diagnostics.

Connectivity lives in a `MeshTopology`, built and validated once per
triangle array: the orientation check, the boundary and two ring tables.
Every ring row lists its vertices in increasing order and pads with its
own vertex, so no mask is stored.  The closed one-ring (the one-ring and
the vertex itself), stored slot-major, is also the pattern of the
cotangent operator; the two-ring is stored row-major, padding last, for
the |B| fit.  A flow never changes connectivity, so
`SurfaceMesh.with_vertices` shares the topology of its source; only the
checks that depend on vertex positions (shapes, finiteness, index range,
triangle areas) run again for each new vertex set, and the cotangent
operator only fills in its values.  Its products, and the per-vertex
sums, add in the order a CSR product adds, so they equal scipy's sparse
products bit for bit without importing them.

The triangle geometry (corner cotangents, areas and squared edge lengths)
is measured once per vertex set, at construction, where the area check
needs it; the vertices are a read-only copy, so it stays valid, and every
metric operator reads it, as do the tangent frames, from (4, m) corner
planes gathered off the vertices' (4, n) coordinate planes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateTriangle, FoldedVertex, NonOrientableMesh,
                     SolveFailure)
from .structure import J_UPPER, UPPER
from .util import format_rows, readonly


# The largest coordinate magnitude a mesh may have.  The implicit step's
# conjugate gradient forms dot products of area-weighted coordinates, the
# sixth power of the scale and the highest a flow forms, so this bound keeps
# them below 1e300.
MAX_COORDINATE = 1e50


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in increasing order.  np.unique
    hashes integer input (numpy 2.4), which measured 7-13x slower than this
    sort on 15k-120k int64 keys."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the leading axis of coordinate planes, added as
    np.sum(..., axis=1) adds a row: from +0.0, so a zero sum is +0.0."""
    return sum(x * y for x, y in zip(a, b))


def _ring_table(keys: np.ndarray, n: int) -> np.ndarray:
    """Sorted int64 keys i*n + j as n rows, (n, k): row i lists its j in
    increasing order, then repeats i itself up to the longest row's length.
    A padding slot is one that holds its own row's index, so no mask is
    stored."""
    i, j = np.divmod(keys, n)
    counts = np.bincount(i, minlength=n)
    rows = np.repeat(np.arange(n), counts.max(initial=0)).reshape(n, -1)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = j
    return rows


@dataclass(frozen=True, eq=False)
class PaddedMatrix:
    """An n x n sparse matrix stored by slot: row i holds values[s, i] in
    column cols[s, i] for s = 0 .. k-1, and its diagonal in slot diag[i].
    A row's real entries are in increasing column order; any slot may be
    padding instead, which holds the row's own index and value 0.

    A product sums each row from 0.0 in slot order, which is the increasing
    column order of a CSR matrix-vector product, so the two agree bit for
    bit; padding and zero entries only add +-0 to such a sum, which changes
    no bit of it.
    """

    cols: np.ndarray
    values: np.ndarray
    diag: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x for x of shape (n,) or (n, c)."""
        prod = x.take(self.cols, axis=0)
        prod *= self.values if x.ndim == 1 else self.values[..., None]
        return np.add.reduce(prod, axis=0, initial=0.0)

    def diagonal(self) -> np.ndarray:
        return self.values[self.diag, np.arange(len(self.diag))]

    def principal(self, keep: np.ndarray) -> "PaddedMatrix":
        """The square submatrix on the rows and columns at the boolean
        mask keep, numbered in order; entries in dropped columns become
        padding."""
        cols, values = self.cols[:, keep], self.values[:, keep]
        inside = keep[cols]
        number = np.cumsum(keep) - 1
        own = np.arange(cols.shape[1])
        return PaddedMatrix(np.where(inside, number[cols], own),
                            np.where(inside, values, 0.0), self.diag[keep])


class MeshTopology:
    """Validated connectivity of a triangle array over n_vertices vertices.

    Construction checks that every vertex belongs to a triangle and that
    the triangle windings are globally consistent (each interior edge
    traversed once in each direction, which also rules out edges shared by
    more than two triangles).  Every array is read-only: meshes that share
    a topology may rely on it not changing.

    Both ring tables come from sorted int64 keys i*n + j, so they are
    exact.  A row lists its ring in increasing order and is padded with its
    own vertex.  Each table is laid out as its reader gathers, and its order
    is fixed by the bits of the sums over it:

    - closed_ring, (k, n): column i is the one-ring of i and i itself, in
      its sorted slot diag[i].  It is the cotangent operator's pattern
      (PaddedMatrix's cols and diag), in the CSR order its products add in;
    - two_ring, (n, k): row i is the two-ring of i, i excluded, padding
      last, the order in which the |B| fit sums its ring moments;
    - fan, (k, n): column i lists the triangles at i in increasing order
      (a stable sort of the corners), padded with m, where the frames'
      per-vertex sums read a zero.

    two_ring_size counts each row's ring, and unfitted marks the vertices
    the |B| fit leaves NaN: fewer than six two-ring neighbours, or on the
    boundary.

    `weight_matrix` fills in the operator's values.  `_half_edges` holds,
    for the edge (i, j) opposite corner c of triangle t, c-major, the flat
    slots of (i, j) and (j, i) in the (k, n) values array; `_off_diag`
    holds the flat slots of the off-diagonal entries in CSR order, split
    into rows at `_starts`.
    """

    def __init__(self, triangles: np.ndarray, n_vertices: int):
        t = readonly(np.array(triangles, dtype=int))
        self.triangles = t
        self.n_vertices = n = n_vertices
        counts = np.bincount(t.ravel(), minlength=n)
        if not counts.all():
            raise ValueError(f"vertex {int(np.argmin(counts))} belongs to no "
                             f"triangle")
        fan = np.full((counts.max(), n), len(t))
        fan.T[np.arange(len(fan)) < counts[:, None]] = \
            np.argsort(t.ravel(), kind="stable") // 3
        self.fan = readonly(fan)
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        key = directed[:, 0].astype(np.int64) * n + directed[:, 1]
        if len(_sorted_distinct(key)) < len(key):
            raise NonOrientableMesh("a directed edge appears twice; windings "
                                    "are not globally consistent")
        rev = directed[:, 1].astype(np.int64) * n + directed[:, 0]
        # boundary edges are the directed edges without a reversed partner;
        # both key sets are distinct, so a sorted search tests membership
        # (np.isin would import numpy.ma through np.unique)
        rev_sorted = np.sort(rev)
        at = np.minimum(np.searchsorted(rev_sorted, key), len(rev) - 1)
        self.boundary_edges = readonly(directed[rev_sorted[at] != key])
        mask = np.zeros(n, dtype=bool)
        mask[self.boundary_edges.ravel()] = True
        self.boundary_mask = readonly(mask)

        own = np.arange(n)
        closed = _sorted_distinct(np.concatenate([key, rev, own * (n + 1)]))
        rows = _ring_table(closed, n)
        self.closed_ring = readonly(np.ascontiguousarray(rows.T))
        # the closed rings of the closed ring make the closed two-ring
        reach = rows[rows]
        far = reach != own[:, None, None]
        self.two_ring = readonly(_ring_table(
            _sorted_distinct((own[:, None, None] * n + reach)[far]), n))
        self.two_ring_size = readonly(
            np.count_nonzero(self.two_ring != own[:, None], axis=1))
        self.unfitted = readonly((self.two_ring_size < 6) | mask)

        start = np.searchsorted(closed, own * n)
        self.diag = readonly(np.searchsorted(closed, own * (n + 1)) - start)

        def flat_slot(key):
            i = key // n
            return (np.searchsorted(closed, key) - start[i]) * n + i

        # the edge opposite corner c runs from corner c + 1 to corner c + 2
        i = t.T[[1, 2, 0]].ravel().astype(np.int64)
        j = t.T[[2, 0, 1]].ravel().astype(np.int64)
        self._half_edges = readonly(
            np.concatenate([flat_slot(i * n + j), flat_slot(j * n + i)]))
        off_diag = closed[closed // n != closed % n]
        self._off_diag = readonly(flat_slot(off_diag))
        counts = np.bincount(off_diag // n, minlength=n)
        self._rows = readonly(np.flatnonzero(counts))
        self._starts = readonly((np.cumsum(counts) - counts)[self._rows])

    def weight_matrix(self, half_edge_weights: np.ndarray) -> PaddedMatrix:
        """W with w_ij, i != j, the sum of the weights of the half-edges
        (i, j) and (j, i), and each diagonal entry minus its row's sum.

        half_edge_weights is (3, m), the weight of the edge opposite each
        corner, a row per corner.  A sum of two weights is the same in
        either order, and the row sums are the `np.add.reduceat` over the
        CSR-ordered entries that scipy's `csr.sum(axis=1)` makes, so W
        equals the CSR matrix scipy assembled from the same triplets.
        """
        h = half_edge_weights.ravel()
        k, n = self.closed_ring.shape
        values = np.bincount(self._half_edges, np.concatenate([h, h]),
                             minlength=k * n)
        row_sum = np.add.reduceat(values[self._off_diag], self._starts)
        values.reshape(k, n)[self.diag[self._rows], self._rows] = -row_sum
        return PaddedMatrix(self.closed_ring, values.reshape(k, n), self.diag)


@dataclass(eq=False)
class SurfaceMesh:
    """Oriented triangle mesh with vertices in R^4.

    Every construction checks the vertex and triangle shapes, that every
    coordinate is finite and at most MAX_COORDINATE in magnitude, the index
    range and that every triangle area exceeds 1e-14 (`DegenerateTriangle`
    otherwise).  Without a `topology`, one is built from the triangles,
    which runs the vertex-use and orientation checks (`NonOrientableMesh`);
    with one, as `with_vertices` passes, the triangles must be its own
    array and the connectivity is not validated again.  `vertices` is a
    read-only copy of the input, also kept as (4, n) coordinate planes, and
    `triangles` is read-only, so the triangle geometry stays valid.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    topology: MeshTopology | None = field(default=None, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 4:
            raise ValueError(f"vertices must be (n, 4), got {v.shape}")
        # the largest magnitude is finite exactly when every coordinate is
        extent = float(np.abs(v).max(initial=0.0))
        if not math.isfinite(extent):
            raise ValueError("vertices must be finite")
        if extent > MAX_COORDINATE:
            raise ValueError(f"vertex coordinate {extent:.3g} exceeds the "
                             f"supported {MAX_COORDINATE:g}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {t.shape}")
        if len(t) == 0:
            raise ValueError("a mesh needs at least one triangle")
        if t.min() < 0 or t.max() >= len(v):
            raise ValueError("triangle indices out of range")
        topo = self.topology
        if topo is not None:
            if t is not topo.triangles:
                raise ValueError("triangles must be the topology's own array")
            if topo.n_vertices != len(v):
                raise ValueError(f"topology has {topo.n_vertices} vertices, "
                                 f"got {len(v)}")
        self.vertices = readonly(v)
        self._planes = readonly(np.ascontiguousarray(v.T))
        self.triangles = t
        self._measure_triangles()
        if np.any(self._areas <= 1e-14):
            raise DegenerateTriangle("mesh contains a triangle of area <= 1e-14")
        if topo is None:
            self.topology = MeshTopology(t, len(v))
            self.triangles = self.topology.triangles

    def _measure_triangles(self) -> None:
        """Corner cotangents, areas and squared edge lengths of every
        triangle from its edge planes e_k = corner k+1 - corner k, stored
        read-only as (m, 3) transposes.  At corner k the edges are e_k and
        -e_{k+2} up to a zero's sign, so their dot is 0.0 - e_k.e_{k+2} to
        the bit: rounding is odd, and a sum from +0.0 ignores zero signs."""
        c = self._corner_planes()
        e = np.subtract(c[[1, 2, 0]], c, out=c).swapaxes(0, 1)  # (4, 3, m)
        sq = _dot(e, e)
        dot = 0.0 - np.array([_dot(e[:, k], e[:, k - 1]) for k in range(3)])
        cross2 = sq * sq[[2, 0, 1]] - dot * dot
        self._areas = readonly(0.5 * np.sqrt(np.maximum(cross2[0], 0.0)))
        self._cots = readonly((dot / np.sqrt(np.maximum(cross2, 1e-300))).T)
        # e_{k+1} is the edge opposite corner k
        self._l2 = readonly(sq[[1, 2, 0]].T)

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

    def _corner_planes(self) -> np.ndarray:
        """Corner planes (p, q, r) of every triangle, each (4, m)."""
        return self._planes.take(self.triangles.T, axis=1).swapaxes(0, 1)

    def corner_vectors(self):
        """Corner positions (p, q, r) of every triangle, each shape (m, 4)."""
        return tuple(c.T for c in self._corner_planes())

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

    def cotangent_matrix(self) -> PaddedMatrix:
        """Symmetric weight matrix W with (W x)_i = sum_j w_ij (x_j - x_i),
        w_ij the sum of 1/2 cot of the angles opposite edge ij."""
        return self.topology.weight_matrix(0.5 * self._cots.T)

    def vertex_neighbors(self, rings: int = 1) -> list:
        """Neighbor index arrays per vertex (one- or two-ring, vertex
        excluded), in increasing order, read off the topology's rings.
        The package reads the rings directly; this method stays while
        perfbench/tracer.py wraps it, as tests/test_tracer_names.py pins."""
        if rings not in (1, 2):
            raise ValueError(f"rings must be 1 or 2, got {rings}")
        topo = self.topology
        rows = topo.closed_ring.T if rings == 1 else topo.two_ring
        return [row[row != i] for i, row in enumerate(rows)]


def mesh_mean_curvature(mesh: SurfaceMesh, w: PaddedMatrix | None = None,
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

# Vertices per block of the |B| fit.  A block's offsets and their
# projection, 2 x 512 x 18 x 4 doubles on icosphere(4), stay in a 2 MiB L2
# cache through the fit's passes; an in-process sweep of flow-mesh on
# icosphere(4) was flat from 256 to 1024 and slower at 2048 and unblocked.
BNORM_BLOCK = 512


def two_ring_offsets(mesh: SurfaceMesh,
                     rows: slice = slice(None)) -> np.ndarray:
    """Offsets x_j - x_i from each vertex i in rows to its padded two-ring,
    shape (b, k, 4) for the b vertices of rows.  The padding slots of
    topology.two_ring hold the vertex itself, so their offsets are exactly
    0 and sums over the ring need no mask."""
    v = mesh.vertices
    d = v.take(mesh.topology.two_ring[rows], axis=0)
    d -= v[rows, None, :]
    return d


def _antisymmetric(upper: np.ndarray) -> np.ndarray:
    """(n, 4, 4) antisymmetric matrices from their upper entries (n, 6)."""
    out = np.zeros((len(upper), 4, 4))
    out[:, UPPER[0], UPPER[1]] = upper
    out[:, UPPER[1], UPPER[0]] = -upper
    return out


def mesh_tangent_frames(mesh: SurfaceMesh):
    """Oriented tangent frames (t1, t2), normal legs (m1, m2), phase field.

    The winding bivectors a b^T - b a^T (a = q - p, b = r - p) of the
    triangles at each vertex are summed into M.  Its J-span part S, with
    coefficients s_a = <J_a, M>_F / 4, and the remainder T are each
    normalised to unit Frobenius norm; A = S + T is then a unit simple
    bivector carrying the winding orientation.  Pi = -A^2 projects onto the
    tangent plane: t1 is its column with the largest diagonal entry (the
    longest, at least 1/sqrt(2) for rank 2), normalised, and t2 = A^T t1.
    The normal legs are m1, the column of I - Pi picked the same way, and
    m2 = (S - T)^T m1, so (t1, t2, m1, m2) is a positively oriented
    orthonormal frame.  The phase lam_a = <J_a t1, t2> equals -s / |s|.

    The six bivector planes and the triangle areas are summed per vertex
    along topology.fan, from 0.0 in increasing triangle order, as the 0/1
    vertex-triangle incidence matrix does.  Pi stays a batched matmul,
    whose bits are fused multiply-adds.

    Raises FoldedVertex where S or T vanishes (to 1e-12 of the area of the
    vertex's triangles): the one-ring folds over itself and has no plane.
    """
    p, a, b = planes = mesh._corner_planes()
    planes[1:] -= p                                   # a = q - p, b = r - p
    n, m = len(mesh.vertices), len(mesh.triangles)
    w = np.zeros((7, m + 1))
    for c, (i, j) in enumerate(zip(*UPPER)):
        w[c, :m] = a[i] * b[j] - a[j] * b[i]
    w[6, :m] = mesh.triangle_areas()
    sums = sum(w.take(slot, axis=1) for slot in mesh.topology.fan)
    m6, area = np.ascontiguousarray(sums[:6].T), sums[6]
    del p, a, b, planes, w
    s = 0.5 * (m6 @ J_UPPER.T)
    s6 = s @ J_UPPER
    t6 = m6 - s6
    # |X|_F = sqrt(2) |upper entries|, and |J_a|_F = 2
    s_norm = 2.0 * np.linalg.norm(s, axis=1)
    t_norm = np.sqrt(2.0) * np.linalg.norm(t6, axis=1)
    folded = np.minimum(s_norm, t_norm) <= 1e-12 * area
    if folded.any():
        raise FoldedVertex(
            f"the summed winding bivector has a vanishing self-dual or "
            f"anti-self-dual part at {int(folded.sum())} of {len(folded)} "
            f"vertices, first vertex {int(np.argmax(folded))}")
    s6 /= s_norm[:, None]
    t6 /= t_norm[:, None]
    tangent = _antisymmetric(s6 + t6)
    proj = np.matmul(tangent, tangent)
    np.negative(proj, out=proj)               # no second (n, 4, 4) array
    at = np.arange(n)
    diag = np.diagonal(proj, axis1=1, axis2=2)
    t1 = proj[at, :, np.argmax(diag, axis=1)]
    # the entries of I - Pi: 0.0 - x, and 1.0 + (0.0 - x) = 1.0 - x
    k = np.argmax(1.0 - diag, axis=1)
    m1 = 0.0 - proj[at, :, k]
    m1[at, k] += 1.0
    for col in (t1, m1):
        col /= np.sqrt(_dot(col.T, col.T))[:, None]
    t2 = np.einsum("nji,nj->ni", tangent, t1)
    m2 = np.einsum("nji,nj->ni", _antisymmetric(s6 - t6), m1)
    lam = -s / (0.5 * s_norm)[:, None]
    return t1, t2, m1, m2, lam


def _cholesky(gram, ridge: float):
    """Lower Cholesky factor of gram + ridge I as nested lists of (n,)
    arrays, one entry at a time over the whole batch; None if any pivot is
    not positive."""
    size = len(gram)
    low = [[None] * size for _ in range(size)]
    for j in range(size):
        pivot = gram[j][j] + ridge - sum(low[j][i] ** 2 for i in range(j))
        if not np.all(pivot > 0.0):
            return None
        low[j][j] = np.sqrt(pivot)
        for r in range(j + 1, size):
            low[r][j] = (gram[r][j] - sum(low[r][i] * low[j][i]
                                          for i in range(j))) / low[j][j]
    return low


def _spd_solve(gram, rhs) -> np.ndarray:
    """Solve a batch of symmetric positive definite systems gram x = rhs.

    gram is (s, s, n), of which only the lower triangle is read; rhs is
    (s, c, n), c right-hand sides per system; x comes back as (s, c, n).
    The factorisation and both substitutions are unrolled over the entries
    and vectorised over the n systems, so no per-matrix LAPACK call is
    made.  If any pivot is not positive, the whole batch is factored again
    with gram + 1e-12 I; if that fails too, SolveFailure is raised.
    """
    size = len(gram)
    low = _cholesky(gram, 0.0)
    if low is None:
        low = _cholesky(gram, 1e-12)
    if low is None:
        raise SolveFailure(
            "Gram matrices not positive definite even with a 1e-12 ridge")
    y = []
    for i in range(size):
        y.append((rhs[i] - sum(low[i][j] * y[j] for j in range(i)))
                 / low[i][i])
    x = [None] * size
    for i in reversed(range(size)):
        x[i] = (y[i] - sum(low[j][i] * x[j] for j in range(i + 1, size))
                ) / low[i][i]
    return np.array(x)


def mesh_bnorm(mesh: SurfaceMesh, frames=None) -> np.ndarray:
    """Per-vertex |B| estimate from a two-ring quadratic fit.

    One projection of the offsets onto (t1, t2, m1, m2) gives the tangent
    coordinates (u, v) and both normal deflections (w1, w2), each a
    contiguous (b, k) plane.  Fitting w ~ c1 u + c2 v + (a u^2 + 2b uv +
    c v^2)/2 per normal direction recovers the second fundamental form.
    The normal equations are built from ring moments: the 5x5 Gram from the
    twelve sums of u^p v^q with 2 <= p+q <= 4, the right-hand sides from
    the ten sums of u^p v^q w with 1 <= p+q <= 2.  The offsets are gathered,
    projected onto the block's own stack of frames and summed BNORM_BLOCK
    vertices at a time, so a fit adds little to the heap; each sum is one
    vertex's, so the blocks change no bit of it.  Scaling (u, v) by the rms
    ring radius rho, for conditioning, rescales each sum by a power of rho.
    `_spd_solve` then solves both normals of every vertex at once.  Vertices
    in topology.unfitted (fewer than six neighbors, or on the boundary)
    return NaN.  frames is mesh_tangent_frames(mesh) when the caller has
    it.
    """
    if frames is None:
        frames = mesh_tangent_frames(mesh)
    t1, t2, m1, m2, _lam = frames
    topo = mesh.topology
    n, k = topo.two_ring.shape
    # rows m20 m11 m02 m30 m21 m12 m03 m40 m31 m22 m13 m04 of the sums of
    # u^p v^q, and the loads (sums of u w, v w, uu w, uv w, vv w) per normal
    moments = np.empty((12, n))
    loads = np.empty((5, 2, n))
    for start in range(0, n, BNORM_BLOCK):
        rows = slice(start, start + BNORM_BLOCK)
        d = two_ring_offsets(mesh, rows)
        proj = np.empty((4, len(d), k))
        basis = np.stack([t1[rows], t2[rows], m1[rows], m2[rows]], axis=-1)
        np.matmul(d, basis, out=proj.transpose(1, 2, 0))
        u, v, w = proj[0], proj[1], proj[2:]
        uu, uv, vv = u * u, u * v, v * v
        for row, (a, b) in enumerate(((u, u), (u, v), (v, v), (uu, u),
                                      (uu, v), (uv, v), (vv, v), (uu, uu),
                                      (uu, uv), (uu, vv), (uv, vv),
                                      (vv, vv))):
            moments[row, rows] = np.einsum("nk,nk->n", a, b)
        for row, a in enumerate((u, v, uu, uv, vv)):
            loads[row, :, rows] = np.einsum("nk,cnk->cn", a, w)
    m20, m11, m02, m30, m21, m12, m03, m40, m31, m22, m13, m04 = moments
    lu, lv, luu, luv, lvv = loads
    # 1 / rho^2; the floor keeps rho^-4 finite
    r2 = 1.0 / np.maximum((m20 + m02) / np.maximum(topo.two_ring_size, 1),
                          1e-150)
    r1 = np.sqrt(r2)
    r3, r4 = r2 * r1, r2 * r2
    # lower triangle of the Gram of the basis (u, v, u^2/2, uv, v^2/2)/rho
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
    # guard the solve on under-determined rows
    gram[:, :, topo.unfitted] = np.eye(5)[:, :, None]
    rhs = np.stack([lu * r1, lv * r1, 0.5 * luu * r2, luv * r2,
                    0.5 * lvv * r2])
    # a, b, c are (2, n): one row per normal
    a, b, c = _spd_solve(gram, rhs)[2:] * r2
    out = np.sqrt(np.sum(a * a + 2 * b * b + c * c, axis=0))
    out[topo.unfitted] = np.nan
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def icosphere(subdivisions: int = 3, radius: float = 1.0) -> SurfaceMesh:
    """Subdivided icosahedron projected to the sphere, in {x4 = 0}."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be at least 0")
    if radius <= 0:
        raise ValueError("radius must be positive")
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
        # edges ab, bc, ca of each face in turn; the midpoints are numbered
        # in order of first occurrence
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(edges[:, 0] * len(verts) + edges[:, 1],
                                      return_index=True, return_inverse=True)
        ends = edges[np.sort(first)]
        m = verts[ends[:, 0]] + verts[ends[:, 1]]
        # the batched matmul rounds as the 1-D norm of each row does
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        rank = np.argsort(np.argsort(first))
        ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, m])
    v4 = np.zeros((len(verts), 4))
    v4[:, :3] = radius * verts
    return SurfaceMesh(v4, faces)


def flat_square(n: int = 12, extent: float = 1.0) -> SurfaceMesh:
    """Triangulated square [0, extent]^2 in the (x1, x2)-plane."""
    if extent <= 0:
        raise ValueError("extent must be positive")
    xs = np.linspace(0.0, extent, n + 1)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    verts = np.zeros(((n + 1) ** 2, 4))
    verts[:, 0] = uu.ravel()
    verts[:, 1] = vv.ravel()
    # cell (i, j) in row-major order: triangles (a, b, a+1), (b, b+1, a+1)
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    b = a + (n + 1)
    tris = np.stack([a, b, a + 1, b, b + 1, a + 1], axis=1).reshape(-1, 3)
    return SurfaceMesh(verts, tris)


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
    dialect is not interchangeable with 3-coordinate OFF files.  The file
    must hold exactly the rows its counts line declares, no fewer or more.
    """
    with open(path) as fh:
        rows = [ln.split("#")[0].strip() for ln in fh]
    rows = [r for r in rows if r]
    if not rows or rows[0] != "OFF":
        raise ValueError("not an OFF file (missing header)")
    counts = rows[1].split()[:2] if len(rows) > 1 else []
    if len(counts) < 2 or not all(c.isdecimal() for c in counts):
        raise ValueError("the counts line after the OFF header must start "
                         "with the vertex and face counts, two non-negative "
                         "integers")
    nv, nf = int(counts[0]), int(counts[1])
    if len(rows) < 2 + nv + nf:
        raise ValueError("truncated OFF file")
    if len(rows) > 2 + nv + nf:
        raise ValueError(f"rows past the {nv} vertices and {nf} faces of "
                         f"the counts line")
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
