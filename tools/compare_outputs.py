"""Byte-compare uprsim's outputs between the working tree and a git revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_outputs.py REV

Unpacks REV into a temporary directory with bench_record.unpack (`git
archive`, extracted by tarfile with the "data" filter), runs one command set
with each tree's `src/` on PYTHONPATH, and prints `diff -r` of the two
output directories. Every output file is compared, plus each command's exit
code, stdout and stderr. Exits 0 when the trees agree byte for byte, 1 on
any difference.

The command set, from tests/output_commands.py (tests/test_golden.py runs
the same set against recorded digests): `simulate` on the default config;
`simulate` with latency 2, letterbox fit, errors at all frames and the
decaying policy; `simulate` on a 3000-frame sway (UPR and AAUPR);
`simulate` of UPR and AAUPR on a 4-frame stationary trace with latency 5
and zero jitter, so every jitter draw is +0.0, every frame renders the
calibration eye and every charge is billed to the final frame; `simulate`
with the back camera at a signed-zero offset, targets at (0, 0) and
(-0, -0), and errors at all frames; `simulate` of AAUPR then FUPR with the
320x240 face cost, the latched policy, the mean eye metric, errors also in
pixels and a 58 mm ipd; `simulate` of AAUPR with every flow measurement failing
(noise_p_fail = 1), frame 0 included; `simulate` of AAUPR with noise-free
flow pixels (noise_flow_sigma_px = 0); `simulate` of an 8-frame trace CSV
with blank lines, a head that moves then rests, and errors_dwell_only =
true spelled out; `sweep --param eps_max` and `sweep --param
jitter_sigma` over a random-walk trace CSV that each tree writes itself;
`sweep` of all four modes on the default config, over eps_max 12 and 24
(cells that share one scene) and over head_displacement 0, 125 and 250
(cells that each build their own); `gen-trace` for all four generators;
`truthtable --eps 24`, the scheduler's decision table on stdout; and eight
bad inputs (ERROR_CONFIGS), each a one-line error on stderr with exit code
1.
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
