"""The suite's own pytest configuration, run on a throwaway test file."""
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    """Under filterwarnings = error, a failing @given test must end in the
    usual report: its falsifying example and a FAILED line.  The hypothesis
    plugin's report hook touches a deprecated mypy_extensions name, which
    the configuration must let through instead of raising inside pytest."""
    (tmp_path / "test_prop.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers(0, 10))
        def test_small(x):
            assert x < 5
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "FAILED" in out
    assert "INTERNALERROR" not in out
