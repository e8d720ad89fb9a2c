"""Shared fixtures: the expensive flow trajectories are session-scoped."""
import numpy as np
import pytest

from hkflow.curves import PlaneCurve, run_csf
from hkflow.flow import run_mcf
from hkflow.mesh import icosphere


@pytest.fixture(scope="session")
def circle_flow():
    """Unit-circle reduced flow to t = 0.24 (the blow-up tail benchmark)."""
    return run_csf(PlaneCurve.circle(1.0, n=256), t_end=0.24,
                   snapshot_every=25)


@pytest.fixture(scope="session")
def icosphere_flow():
    """Coarse shrinking icosphere; the rescaling tests read its last state."""
    return run_mcf(icosphere(3, 1.0), dt=1e-3, t_end=0.15,
                   scheme="semi-implicit")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
