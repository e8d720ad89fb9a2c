"""The command line at the edges of its inputs: scales outside the supported
range fail as config errors, and no flow-curve config raises or writes a
number JSON cannot hold."""
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.cli import main


def _run(root: Path, text: str, *command) -> tuple[int, Path]:
    (root / "run.ini").write_text(text)
    out = root / "out"
    return main(["--config", str(root / "run.ini"), "--out", str(out),
                 *command]), out


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _finite_json(text: str):
    """The parsed document; NaN, Infinity and overflowing numbers raise."""
    def number(raw):
        x = float(raw)
        if not math.isfinite(x):
            raise ValueError(f"{raw} overflows a double")
        return x
    return json.loads(text, parse_constant=_reject_constant,
                      parse_float=number)


def _json_files_are_finite(out: Path) -> None:
    for path in sorted(out.rglob("*.json*")):
        text = path.read_text()
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            if doc.strip():
                _finite_json(doc)


@pytest.mark.parametrize("section, radius, command", [
    ("curve", "1e-140", "flow-curve"),
    ("curve", "1e-155", "flow-curve"),
    ("curve", "1e-300", "flow-curve"),
    ("curve", "1e150", "flow-curve"),
    ("curve", "1e300", "flow-curve"),
    ("mesh", "1e70", "flow-mesh"),
    ("mesh", "1e100", "flow-mesh"),
])
def test_scale_outside_the_supported_range_is_a_config_error(
        tmp_path, capsys, section, radius, command):
    extra = "subdivisions = 1\n" if section == "mesh" else ""
    code, out = _run(tmp_path, f"[{section}]\nradius = {radius}\n{extra}",
                     command)
    err = capsys.readouterr().err
    assert code == 1
    assert "is outside the supported range" in err \
        or "exceeds the supported" in err
    _json_files_are_finite(out)


@pytest.mark.parametrize("radius", [1e-90, 1e90])
def test_circle_curvature_holds_at_extreme_supported_scales(tmp_path,
                                                            radius):
    """The lift of a circle of radius r has max|B| = 2 / r."""
    code, out = _run(tmp_path, f"[curve]\nradius = {radius!r}\nn = 32\n"
                     f"[flow]\nt_end = {0.01 * radius * radius!r}\n",
                     "flow-curve")
    assert code == 0
    _json_files_are_finite(out)
    first = json.loads((out / "history.jsonl").read_text().splitlines()[0])
    assert abs(first["max_B"] * radius - 2.0) < 1e-12


@settings(max_examples=30)
@given(exponent=st.floats(-300.0, 300.0), sign=st.sampled_from([1.0, -1.0]),
       n=st.sampled_from([16, 32]), theta=st.floats(-0.5, 0.2))
def test_flow_curve_exits_cleanly_at_any_scale(exponent, sign, n, theta):
    """flow-curve returns 0, 1 or 2 and raises nothing; an exit 0 wrote
    only finite numbers and made a step unless t_end = 0."""
    radius = sign * 10.0 ** exponent
    t_end = theta * radius * radius
    with tempfile.TemporaryDirectory() as root:
        code, out = _run(Path(root), f"[curve]\nradius = {radius!r}\n"
                         f"n = {n}\n[flow]\nt_end = {t_end!r}\n",
                         "flow-curve")
        assert code in (0, 1, 2)
        if code == 0:
            _json_files_are_finite(out)
            diag = _finite_json((out / "diagnostics.json").read_text())
            assert t_end == 0 or diag["t_final"] > 0
