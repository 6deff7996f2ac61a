import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of demo 01's stdout, its pointing-error table per render mode.
RENDER_MODES_STDOUT_SHA256 = (
    "b494d1c2c2b1b73ea7a752f82d383a010a865143f944f4991c067b71abf65284")

#: sha256 of demo 02's stdout, its frame-by-frame decision table: a change
#: to the scheduler or to the demo that alters any printed byte fails here.
DUAL_THRESHOLDING_STDOUT_SHA256 = (
    "b2d41e9a8bb4594dff7f389dce8e567fcab25d629e12addef81f67696347b19d")

#: sha256 of demo 04's stdout, its seed-mean UPR and AAUPR errors per jitter
#: sigma.
JITTER_CROSSOVER_STDOUT_SHA256 = (
    "99fcfd00a37810ce749d6fc9acb10a6f03b4ce0f95810942206049ccb570e164")


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()


def stdout_digest(demo: str) -> str:
    proc = run_demo(ROOT / "demos" / demo)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def test_render_modes_demo_output_is_pinned():
    assert stdout_digest("01_render_modes.py") == RENDER_MODES_STDOUT_SHA256


def test_dual_thresholding_demo_output_is_pinned():
    assert stdout_digest("02_dual_thresholding.py") == DUAL_THRESHOLDING_STDOUT_SHA256


def test_jitter_crossover_demo_output_is_pinned():
    assert stdout_digest("04_jitter_crossover.py") == JITTER_CROSSOVER_STDOUT_SHA256
