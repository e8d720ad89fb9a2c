"""Dataclasses that hold arrays compare and hash by identity."""
import numpy as np
import pytest

from hkflow.curves import CurveFlowResult, PlaneCurve
from hkflow.flow import FlowHistory, FlowState, PhaseEvolutionReport
from hkflow.mesh import icosphere
from hkflow.phase import phase_sample_exact
from hkflow.structure import StructureTriple, standard_structure
from hkflow.surfaces import Plane, Sphere, frames

_U = np.array([0.3, 0.7])

# each factory builds a fresh instance with the same content on every call
FACTORIES = {
    "SurfaceMesh": lambda: icosphere(0),
    "PlaneCurve": lambda: PlaneCurve.circle(1.0, n=16),
    "CurveFlowResult": lambda: CurveFlowResult(
        times=np.array([0.0]), curves=[PlaneCurve.circle(1.0, n=16)]),
    "FlowState": lambda: FlowState.measure(icosphere(1), 0.0),
    "FlowHistory": lambda: FlowHistory(t=np.arange(3.0), max_b=np.ones(3),
                                       area=np.ones(3)),
    "PhaseEvolutionReport": lambda: PhaseEvolutionReport(
        residual=0.0, times=np.zeros(2), per_snapshot=np.zeros(2)),
    "SurfaceJet": lambda: Plane().jet(_U, _U),
    "FrameData": lambda: frames(Plane().jet(_U, _U)),
    "PhaseSample": lambda: phase_sample_exact(Sphere(), _U + 1.0, _U),
    "StructureTriple": lambda: StructureTriple(standard_structure().j),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_array_dataclass_compares_by_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert type(a).__name__ == name
    assert a == a
    assert not (a == b)
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
