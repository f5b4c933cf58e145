"""The repository's pytest configuration still reports a failing property test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 100))
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # every warning is an error, and hypothesis's failure report imports
    # libcst, which warns; the run must still report the failure, show the
    # falsifying example and run the next test, not stop with INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout
