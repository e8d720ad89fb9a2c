"""Malformed inputs are rejected where they enter, with their own error."""
import numpy as np
import pytest

from hkflow.errors import NonRotation
from hkflow.mesh import flat_square, grid_torus_mesh, icosphere
from hkflow.structure import StructureTriple
from hkflow.surfaces import Cylinder, QuadraticGraph, SurfaceJet
from hkflow.util import check_rotation

_ROW = np.zeros(4)


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
    "grid-torus-points-not-4": (lambda: grid_torus_mesh(np.zeros((4, 4, 3))),
                                ValueError, r"\(nx, ny, 4\)"),
    "structure-triple-shape": (lambda: StructureTriple(np.zeros((2, 4, 4))),
                               ValueError, r"\(3, 4, 4\)"),
    "surface-jet-row-not-4": (
        lambda: SurfaceJet(_ROW, _ROW, _ROW, np.zeros(3), _ROW, _ROW),
        ValueError, "xuu must have trailing dimension 4"),
    "cylinder-radius-0": (lambda: Cylinder(radius=0.0), ValueError,
                          "radius must be positive"),
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
