"""The suite's pytest settings report a failing test and run the rest.

`filterwarnings = ["error"]` makes every warning an error, those raised by
pytest's plugins while they report a failure included.  These tests run
pytest, with the repository's `pyproject.toml`, on a small test file in a
fresh process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_fails_and_the_session_goes_on(tmp_path):
    """A failing hypothesis property is one failure, not an INTERNALERROR
    that leaves every later test unrun."""
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n != n\n"
        "\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "1 failed, 1 passed" in result.stdout, report
