"""The suite's own pytest settings: a failing property test is reported."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5
'''


def test_failing_hypothesis_test_is_reported_not_internal_error(tmp_path):
    # Reporting a failure makes Hypothesis import libcst, which warns with a
    # DeprecationWarning; the suite turns those into errors, so without its
    # filter pytest stopped with INTERNALERROR and ran no further test.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
    assert "Falsifying example" in out, out
