"""The repository's pytest settings turn warnings into errors, but a failing
property test must still fail on its own: hypothesis's plugin imports
libcst to report it, and that import warns. A session that ended on that
warning would hide every later result.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_THEN_PLAIN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_b_runs_after_it():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(PROPERTY_THEN_PLAIN)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
