"""The suite's warning filters, run on a throwaway test file.

``pyproject.toml`` turns every DeprecationWarning into an error, except
the one that libcst raises through mypy_extensions when hypothesis
imports it to report a failing example. These tests run pytest under
that configuration on a scratch file and read the outcome of each test:
a project DeprecationWarning still fails, a third-party one with another
message still fails, and a failing property is reported as a failure,
with a test count, not as INTERNALERROR.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRATCH_TESTS = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from stormdp import riskdp


def test_project_deprecation():
    warnings.warn_explicit("old stormdp API is deprecated", DeprecationWarning,
                           riskdp.__file__, 1, module="stormdp.riskdp")


def test_other_third_party_deprecation():
    warnings.warn_explicit("some call is deprecated", DeprecationWarning,
                           "libcst/_nodes.py", 1, module="libcst._nodes")


def test_exempt_message():
    warnings.warn_explicit("mypy_extensions.TypedDict is deprecated, and will be removed",
                           DeprecationWarning, "libcst/_typed.py", 1, module="libcst._typed")


@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_failing_property(x):
    assert x < 0


def test_after_the_property():
    pass
'''


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """The scratch file's pytest output under the project's filters."""
    work = tmp_path_factory.mktemp("filters")
    (work / "test_scratch.py").write_text(SCRATCH_TESTS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-rA", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(work), "test_scratch.py"],
        cwd=work, env=env, capture_output=True, text=True, timeout=300)
    return run.stdout + run.stderr


def test_session_reports_every_test(outcome):
    assert "INTERNALERROR" not in outcome
    assert "3 failed, 2 passed" in outcome


@pytest.mark.parametrize("name, result", [
    ("test_project_deprecation", "FAILED"),
    ("test_other_third_party_deprecation", "FAILED"),
    ("test_exempt_message", "PASSED"),
    ("test_failing_property", "FAILED"),
    ("test_after_the_property", "PASSED"),
])
def test_outcome(outcome, name, result):
    assert f"{result} test_scratch.py::{name}" in outcome
