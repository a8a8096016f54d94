"""The test settings in pyproject.toml report every failure of a session: a
failing hypothesis test does not end the session with INTERNALERROR and
hide the failures after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_FAILURES = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_a_failing_hypothesis_test_and_a_plain_one_are_both_reported(tmp_path):
    # run in tmp_path with no cache, so that nothing is written into the checkout
    (tmp_path / "test_two_failures.py").write_text(TWO_FAILURES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two_failures.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out  # tests failed; 3 is an internal error
    assert "2 failed" in out
