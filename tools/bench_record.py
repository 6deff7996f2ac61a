"""Record the end-to-end benchmark of the working tree against a base revision.

Usage (from anywhere inside the repository):

    python3 tools/bench_record.py N [--base REV]

Unpacks REV (default HEAD, the parent of uncommitted work) with `git archive`
into a temporary directory, then runs `perfbench/run.py --trace 0`, as it
is, for BENCHMARK.json's run_seconds, on every workload and on seeds 1 to 5,
once in each tree, in one session: about 16 minutes. The order alternates:
base first for seeds 1, 3 and 5, the working tree first for 2 and 4, so
drift in the host's speed over the session falls on both trees alike.
Writes BENCH_N.json at the repository root: per workload and tree, the
median and interquartile range (IQR) of every metric over the seeds, each
run's metrics, the seeds, both SHAs (the working tree's marked "+dirty"
when it differs from HEAD), the run length, the Python and numpy versions
and the core count. Per workload and metric it also writes the comparison:
the ratio of the tree's median to the base's, and on how many seeds the
tree's run beat the base's run of the same seed, in the direction
BENCHMARK.json declares better. It prints that table last.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = (1, 2, 3, 4, 5)  # the fewest that give each IQR quartiles to stand on
#: Each metric's better direction, "higher" or "lower".
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run's last stdout line, the JSON result."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         + proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    """Median and IQR of each metric over the runs, and the failure counts."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": statistics.median(values), "iqr": q3 - q1,
                     "unit": first["unit"]}
    out["all_correct"] = all(r["correct"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    return out


def compare(base: list[dict], tree: list[dict]) -> dict:
    """Per metric, from two trees' runs in the same seed order: the ratio of
    the tree's median to the base's (NaN for a base median of 0), and the
    number of seeds on which the tree is strictly better."""
    out = {}
    for name in base[0]["metrics"]:
        b, t = ([r["metrics"][name]["value"] for r in runs] for runs in (base, tree))
        sign = 1 if BETTER[name] == "higher" else -1
        median = statistics.median(b)
        out[name] = {"better": BETTER[name],
                     "ratio": statistics.median(t) / median if median else math.nan,
                     "tree_better_seeds": sum(sign * (y - x) > 0 for x, y in zip(b, t)),
                     "seeds": len(b)}
    return out


def table(comparison: dict) -> str:
    """The comparison of every workload, one metric a line."""
    lines = [f"{'workload':<14} {'metric':<13} {'better':<6} {'tree/base':>9}  tree better"]
    for workload, metrics in comparison.items():
        lines += [f"{workload:<14} {name:<13} {c['better']:<6} {c['ratio']:>9.4f}  "
                  f"{c['tree_better_seeds']}/{c['seeds']} seeds" for name, c in metrics.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="number in the output file name, BENCH_N.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]

    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    runs = {w: {"base": [], "tree": []} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="uprsim-bench-") as tmp:
        base = Path(tmp) / "base"
        unpack(args.base, base)
        trees = {"base": base, "tree": ROOT}
        for workload in WORKLOADS:
            for seed in SEEDS:
                order = ["base", "tree"] if seed % 2 else ["tree", "base"]
                for name in order:
                    result = bench(trees[name], workload, seed, seconds)
                    runs[workload][name].append(result)
                    print(f"{workload} seed={seed} {name}: " + ", ".join(
                        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                        flush=True)

    record = {
        "base_sha": git("rev-parse", args.base),
        "tree_sha": head + ("+dirty" if dirty else ""),
        "seeds": SEEDS,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "workloads": {w: {name: {"summary": summary(r), "runs": r}
                          for name, r in by_tree.items()}
                      for w, by_tree in runs.items()},
    }
    record["comparison"] = {w: compare(by_tree["base"], by_tree["tree"])
                            for w, by_tree in runs.items()}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    print(table(record["comparison"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
