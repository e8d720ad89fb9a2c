"""The fast demos run to the end against the current API.

mesh_flow (about 1.5 s) and torus_curve_flow (about 4 s) are left out to
keep the suite quick; the flows they walk through are covered by
test_flow.py, test_curves.py and the acceptance criteria, and the two
scripts are run by hand after a change to the flow API.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["structure_triple", "phase_identities",
                                  "grim_reaper_translator",
                                  "phase_containment"])
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
