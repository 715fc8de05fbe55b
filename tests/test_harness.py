"""The suite's own failure path: under the repository's warning filters and
conftest, a failing Hypothesis property fails on its own and every test after
it still runs, and every planted defect of the mutant table still applies."""
import shutil
import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_AND_PLAIN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 5


def test_after_the_failure():
    pass
"""


def test_failing_property_fails_alone(tmp_path):
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_planted.py").write_text(PROPERTY_AND_PLAIN_TEST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-3000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-3000:]
    assert "Falsifying example" in proc.stdout


def test_every_mutant_applies_exactly_once():
    # tests/mutants.py runs outside tier-1; here only its table is checked
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, (mutant.name, mutant.old)
        assert mutant.new != mutant.old, mutant.name
        for test in mutant.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (mutant.name, test)
