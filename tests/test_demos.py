"""The fast demos run to the end against the current API.

torus_curve_flow (about 4 s) is left out to keep the suite quick; the flow
it walks through is covered by test_curves.py and the acceptance criteria,
and the script is run by hand after a change to the curve-flow API.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["structure_triple", "phase_identities",
                                  "grim_reaper_translator",
                                  "phase_containment", "mesh_flow"])
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
