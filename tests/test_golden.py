"""Byte identity of every CLI output, as a tier-1 gate.

Runs the command set of tests/output_commands.py in process through
cli.main and compares sha256 digests with tests/golden.json: one per output
file, and one each for every command's exit code, stdout and stderr.

The digests hold only for the Python and numpy versions recorded with them;
under other versions the test fails and names both. To record them again,
after an intended output change (name each changed digest in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from output_commands import COMMANDS, CONFIGS, write_inputs

from uprsim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(workdir: Path) -> dict[str, str]:
    """Run every command in workdir; digests keyed by `<command>:<stream>`
    and by output file path relative to workdir."""
    write_inputs(workdir)
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            for stream, text in (("exit", str(code)), ("stdout", out.getvalue()),
                                 ("stderr", err.getvalue())):
                digests[f"{name}:{stream}"] = sha256(text.encode())
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name not in CONFIGS:
            digests[path.relative_to(workdir).as_posix()] = sha256(path.read_bytes())
    return digests


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == versions(), (
        f"golden digests were recorded under {golden['versions']}, this run is "
        f"{versions()}; rerun the command set under the recorded versions")
    got = output_digests(tmp_path)
    expected = golden["digests"]
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, f"outputs differ from tests/golden.json: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="uprsim-golden-") as tmp:
        digests = output_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": digests},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
