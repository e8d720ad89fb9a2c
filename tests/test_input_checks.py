"""Malformed inputs are rejected where they enter, with their own error."""
import numpy as np
import pytest

from hkflow.errors import NonRotation
from hkflow.mesh import SurfaceMesh, flat_square, grid_torus_mesh, icosphere
from hkflow.structure import StructureTriple
from hkflow.surfaces import Cylinder, QuadraticGraph, Sphere, SurfaceJet
from hkflow.util import check_rotation

_ROW = np.zeros(4)


def _icosphere_with_extra_vertex():
    """icosphere(1) and one vertex that no triangle uses."""
    mesh = icosphere(1)
    return SurfaceMesh(np.vstack([mesh.vertices, [[0.0, 0.0, 0.0, 2.0]]]),
                       mesh.triangles)


def _icosphere_with(value):
    """icosphere(1) with one coordinate of one vertex set to value."""
    mesh = icosphere(1)
    v = mesh.vertices.copy()
    v[3, 1] = value
    return mesh.with_vertices(v)


CASES = {
    "vertex-neighbors-rings-3": (lambda: flat_square(2).vertex_neighbors(3),
                                 ValueError, "rings must be 1 or 2"),
    "mesh-vertex-nan": (lambda: _icosphere_with(np.nan), ValueError,
                        "vertices must be finite"),
    "mesh-vertex-inf": (lambda: _icosphere_with(np.inf), ValueError,
                        "vertices must be finite"),
    "mesh-vertex-in-no-triangle": (_icosphere_with_extra_vertex, ValueError,
                                   "^vertex 42 belongs to no triangle$"),
    "mesh-no-triangles": (
        lambda: SurfaceMesh(np.zeros((0, 4)), np.zeros((0, 3), int)),
        ValueError, "^a mesh needs at least one triangle$"),
    # the implicit step's dot products grow as the sixth power of the scale
    "mesh-vertex-beyond-1e50": (lambda: _icosphere_with(1e51), ValueError,
                                "exceeds the supported 1e\\+50"),
    "grid-torus-points-not-4": (lambda: grid_torus_mesh(np.zeros((4, 4, 3))),
                                ValueError, r"\(nx, ny, 4\)"),
    "structure-triple-shape": (lambda: StructureTriple(np.zeros((2, 4, 4))),
                               ValueError, r"\(3, 4, 4\)"),
    "surface-jet-row-not-4": (
        lambda: SurfaceJet(_ROW, _ROW, _ROW, np.zeros(3), _ROW, _ROW),
        ValueError, "xuu must have trailing dimension 4"),
    "cylinder-radius-0": (lambda: Cylinder(radius=0.0), ValueError,
                          "radius must be positive"),
    "sphere-radius-beyond-1e70": (lambda: Sphere(radius=1e71), ValueError,
                                  "exceeds the supported 1e\\+70"),
    "quadratic-graph-coeffs": (lambda: QuadraticGraph(np.zeros((2, 4))),
                               ValueError, r"\(2, 5\)"),
    "rotation-not-3x3": (lambda: check_rotation(np.eye(4)), NonRotation,
                         "3x3"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_raises(case):
    build, error, message = CASES[case]
    with pytest.raises(error, match=message):
        build()
