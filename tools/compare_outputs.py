"""Byte-compare uprsim's outputs between the working tree and a git revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_outputs.py REV

Unpacks REV into a temporary directory with bench_record.unpack (`git
archive`, extracted by tarfile with the "data" filter), runs one command set
with each tree's `src/` on PYTHONPATH, and prints `diff -r` of the two
output directories. Every output file is compared, plus each command's exit
code, stdout and stderr. Exits 0 when the trees agree byte for byte, 1 on
any difference.

The command set and its input files are COMMANDS and CONFIGS in
tests/output_commands.py, which tests/test_golden.py also runs against
recorded digests.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from bench_record import unpack  # noqa: E402
from output_commands import COMMANDS, write_inputs  # noqa: E402

RUN_CLI = "import sys; from uprsim.cli import main; sys.exit(main(sys.argv[1:]))"


def run_commands(src: Path, out: Path) -> None:
    """Run the command set against the package in src, writing into out."""
    out.mkdir(parents=True)
    write_inputs(out)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        (out / f"{name}.log").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="uprsim-compare-") as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        unpack(args.rev, base)
        run_commands(base / "src", tmp / "out_rev")
        run_commands(ROOT / "src", tmp / "out_tree")
        diff = subprocess.run(["diff", "-r", "out_rev", "out_tree"], cwd=tmp,
                              capture_output=True, text=True)
        print(diff.stdout, end="")
        n_files = sum(len(files) for _, _, files in os.walk(tmp / "out_tree"))
        verdict = "identical" if diff.returncode == 0 else "DIFFERENT"
        print(f"{args.rev} vs working tree: {len(COMMANDS)} commands, "
              f"{n_files} files, {verdict}")
        return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
