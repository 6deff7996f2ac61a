"""Byte-compare uprsim's outputs between the working tree and a git revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_outputs.py REV

Unpacks REV with `git archive` into a temporary directory, runs one command
set with each tree's `src/` on PYTHONPATH, and prints `diff -r` of the two
output directories. Every output file is compared, plus each command's exit
code, stdout and stderr. Exits 0 when the trees agree byte for byte, 1 on
any difference.

The command set: `simulate` on the default config; `simulate` with latency
2, letterbox fit, errors at all frames and the decaying policy; `simulate`
on a 3000-frame sway (UPR and AAUPR); `sweep --param eps_max` over a
random-walk trace CSV that each tree writes itself; and `gen-trace` for all
four generators. Commands run with the output directory as working
directory and relative paths, so printed paths match.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUN_CLI = "import sys; from uprsim.cli import main; sys.exit(main(sys.argv[1:]))"

#: Input files the commands read, by file name.
CONFIGS = {
    "default.cfg": "",
    "latency.cfg": ("noise_latency_frames = 2\ndpr_fit = letterbox\n"
                    "errors_dwell_only = false\nthreshold_policy = decaying\n"),
    "sway.cfg": ("modes = UPR,AAUPR\ntrace_generator = sway\ntrace_n_frames = 3000\n"
                 "trace_amplitude_mm = 120\n"),
    "walk_spec.cfg": ("trace_generator = random_walk\ntrace_n_frames = 1000\n"
                      "trace_amplitude_mm = 1.0\ntrace_base_eye_z_mm = 150\nseed = 7\n"),
    "walk_sweep.cfg": ("modes = AAUPR\ntrace_file = walk.csv\nthreshold_policy = decaying\n"
                       "noise_latency_frames = 2\n"),
    "gen_stationary.cfg": "trace_generator = stationary\ntrace_n_frames = 50\n",
    "gen_step_move.cfg": "trace_generator = step_move\n",
    "gen_sway.cfg": "trace_generator = sway\ntrace_n_frames = 200\n",
    "gen_random_walk.cfg": "trace_generator = random_walk\ntrace_n_frames = 200\nseed = 3\n",
}

COMMANDS = [
    ("simulate_default", ["simulate", "--config", "default.cfg", "--out", "default"]),
    ("simulate_latency", ["simulate", "--config", "latency.cfg", "--out", "latency"]),
    ("simulate_sway", ["simulate", "--config", "sway.cfg", "--out", "sway"]),
    ("gen_walk", ["gen-trace", "--spec", "walk_spec.cfg", "--out", "walk.csv"]),
    ("sweep_eps_max", ["sweep", "--config", "walk_sweep.cfg", "--param", "eps_max",
                       "--values", "8,16,24,32", "--out", "sweep"]),
] + [(f"gen_{g}", ["gen-trace", "--spec", f"gen_{g}.cfg", "--out", f"gen_{g}.csv"])
     for g in ("stationary", "step_move", "sway", "random_walk")]


def run_commands(src: Path, out: Path) -> None:
    """Run the command set against the package in src, writing into out."""
    out.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
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
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
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
