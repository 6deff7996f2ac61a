import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of demo 02's stdout, its frame-by-frame decision table: a change
#: to the scheduler or to the demo that alters any printed byte fails here.
DUAL_THRESHOLDING_STDOUT_SHA256 = (
    "b2d41e9a8bb4594dff7f389dce8e567fcab25d629e12addef81f67696347b19d")


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()


def test_dual_thresholding_demo_output_is_pinned():
    proc = run_demo(ROOT / "demos" / "02_dual_thresholding.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DUAL_THRESHOLDING_STDOUT_SHA256
