"""The pytest configuration itself: a failing test must be reported as a
failure, never end the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # On a failure hypothesis's explain phase imports libcst, whose import
    # raises mypy_extensions' TypedDict DeprecationWarning; under
    # error::DeprecationWarning alone that was an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
