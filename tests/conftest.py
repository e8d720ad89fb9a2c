"""Shared fixtures: the expensive flow trajectories are session-scoped."""
import numpy as np
import pytest
from hypothesis import settings

from hkflow.curves import PlaneCurve, run_csf
from hkflow.flow import run_mcf
from hkflow.mesh import icosphere

# Property tests draw the same examples on every run: derandomized, with no
# example database, and no per-example deadline on a shared machine.  Each
# test keeps its own max_examples.
settings.register_profile("hkflow", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("hkflow")


@pytest.fixture(scope="session")
def circle_flow():
    """Unit-circle reduced flow to t = 0.24 (the blow-up tail benchmark)."""
    return run_csf(PlaneCurve.circle(1.0, n=256), t_end=0.24,
                   snapshot_every=25)


@pytest.fixture(scope="session")
def icosphere_flow():
    """Coarse shrinking icosphere; the rescaling tests read its last state."""
    return run_mcf(icosphere(3, 1.0), dt=1e-3, t_end=0.15)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
