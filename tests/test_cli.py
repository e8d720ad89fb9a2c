"""End-to-end command line checks, in-process plus one subprocess run."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hkflow
from hkflow.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


def config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


# -- verify ---------------------------------------------------------------------

def test_verify_all_identities(tmp_path, capsys):
    code, out = run(tmp_path, "verify")
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_pass"]
    assert len(report["identities"]) == 8
    for name, row in report["identities"].items():
        assert row["pass"], name
        assert row["residual"] <= row["tolerance"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["config"]["scenario"]["seed"] == 0


def test_verify_deterministic(tmp_path):
    code_a, out_a = main(["--out", str(tmp_path / "a"), "verify"]), tmp_path / "a"
    code_b, out_b = main(["--out", str(tmp_path / "b"), "verify"]), tmp_path / "b"
    assert code_a == code_b == 0
    assert (out_a / "verify_report.json").read_bytes() \
        == (out_b / "verify_report.json").read_bytes()


def test_verify_subset(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "quaternionic,phase-block")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert sorted(report["identities"]) == ["phase-block", "quaternionic"]


def test_verify_unknown_identity(tmp_path):
    code, _ = run(tmp_path, "verify", "--suite", "bogus")
    assert code == 1


# -- config handling --------------------------------------------------------------

def test_missing_config(tmp_path):
    code = main(["--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "out"), "verify"])
    assert code == 1


def test_malformed_config(tmp_path):
    cfg = config(tmp_path, "t_end = 0.1\n")  # key before any section
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "verify"]) == 1


def test_unknown_config_key(tmp_path):
    cfg = config(tmp_path, "[flow]\nwibble = 3\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "verify"]) == 1


def test_bad_config_value(tmp_path):
    cfg = config(tmp_path, "[flow]\nt_end = soon\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "verify"]) == 1


def test_bad_subcommand(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# -- flow-curve -------------------------------------------------------------------

def test_flow_curve_end_to_end(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = circle", "n = 64",
        "[flow]", "t_end = 0.05", "snapshot_every = 5",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-curve"])
    assert code == 0
    out = tmp_path / "out"
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["ind_gamma"] == 1
    assert not diag["truncated"]
    assert diag["t_final"] == 0.05
    assert abs(diag["t_est"] - 0.25) < 0.01
    records = [json.loads(line) for line in
               (out / "history.jsonl").read_text().splitlines()]
    assert len(list((out / "snapshots").iterdir())) == len(records)
    assert records[0]["max_B"] == pytest.approx(2.0, rel=1e-6)
    # the lift of any closed curve touches the half circle: its phase sits
    # on the great circle lam1 = 0 and Re(gamma gamma') integrates to zero,
    # so the radial derivative cannot keep one sign
    assert all(r["margin"] == 0.0 for r in records)


def test_flow_curve_origin_crossing_exits_2(tmp_path):
    # eps = 1 pinches the loop onto the origin at a grid point
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = perturbed-circle", "eps = 1.0", "mode = 4",
        "n = 256",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-curve"])
    assert code == 2


# -- flow-mesh --------------------------------------------------------------------

def test_flow_mesh_summary(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[mesh]", "kind = icosphere", "subdivisions = 2",
        "[flow]", "dt = 1e-3", "t_end = 0.01",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-mesh"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps"] == 10
    assert summary["area_monotone"]
    assert not summary["truncated"]
    assert summary["area_final"] < summary["area_initial"]


def test_flow_mesh_explicit_dt_too_large_exits_2(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[mesh]", "kind = icosphere", "subdivisions = 2",
        "[flow]", "dt = 0.1", "t_end = 0.2", "scheme = explicit",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-mesh"])
    assert code == 2


# -- analyze ----------------------------------------------------------------------

def test_analyze_missing_file(tmp_path):
    code = main(["--out", str(tmp_path / "out"), "analyze",
                 str(tmp_path / "absent.jsonl")])
    assert code == 1


def test_analyze_soliton_residual(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.2, 1.2, size=40)
    v = rng.uniform(-1.5, 1.5, size=40)
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v\n" + "\n".join(
        f"{a:.17g},{b:.17g}" for a, b in zip(u, v)) + "\n")
    code = main(["--out", str(tmp_path / "out"), "analyze", str(samples)])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "analyze_report.json").read_text())
    assert report["kind"] == "soliton"
    assert report["family"] == "grim-reaper"
    assert report["translator_residual"] < 1e-8


def test_analyze_type1_roundtrip(tmp_path):
    t = np.linspace(0.0, 0.2, 21)
    b = 1.0 / np.sqrt(2.0 * (0.25 - t))
    log = tmp_path / "history.jsonl"
    log.write_text("\n".join(
        json.dumps({"t": float(tk), "max_B": float(bk), "area": 1.0,
                    "margin": 0.5})
        for tk, bk in zip(t, b)) + "\n")
    code = main(["--out", str(tmp_path / "out"), "analyze", str(log)])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "analyze_report.json").read_text())
    assert report["kind"] == "type1"
    assert abs(report["t_est"] - 0.25) < 1e-10
    assert abs(report["sup_rescaled"] - 1 / np.sqrt(2)) < 1e-10
    assert report["min_margin"] == 0.5


# -- phase ------------------------------------------------------------------------

def test_phase_cylinder_touches_forbidden_set(tmp_path):
    code, out = run(tmp_path, "phase", "--surface", "cylinder")
    assert code == 0
    report = json.loads((out / "phase_report.json").read_text())
    # the cylinder phase lies on the great circle lam1 = 0 and crosses
    # the half with lam2 >= 0
    assert report["touches_forbidden_set"]
    assert report["min_margin"] == 0.0
    rows = np.loadtxt(out / "phase_field.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 2], 0.0, atol=1e-12)


def test_phase_reaper_stays_clear(tmp_path):
    code, out = run(tmp_path, "phase", "--surface", "grim-reaper")
    assert code == 0
    report = json.loads((out / "phase_report.json").read_text())
    assert not report["touches_forbidden_set"]
    assert report["min_margin"] > 0.0


# -- subprocess -------------------------------------------------------------------

def test_module_entry_point(tmp_path):
    # the child imports the package from where this process found it, also
    # when only pytest's pythonpath setting put it on sys.path
    src = str(Path(hkflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hkflow.cli", "--out", str(tmp_path / "out"),
         "verify", "--suite", "quaternionic"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "quaternionic" in proc.stdout and "PASS" in proc.stdout
    assert (tmp_path / "out" / "verify_report.json").exists()
