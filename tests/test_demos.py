"""Smoke test: every demo script runs to completion with PYTHONPATH=src, so
removing or renaming a public name cannot break one unnoticed. A demo runs
under the suite's warning policy: a RuntimeWarning (the precursor of a NaN)
or a DeprecationWarning fails it."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_collected():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    # a subprocess does not inherit pytest's filterwarnings
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::DeprecationWarning", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
    assert not any(tmp_path.iterdir()), "the demo left temporary files behind"
