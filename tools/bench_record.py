"""Record the end-to-end benchmark of the working tree against a base revision.

Usage (from anywhere inside the repository):

    python3 tools/bench_record.py N [--base REV]

Unpacks REV (default HEAD, the parent of uncommitted work) with `git archive`
into a temporary directory, then runs `perfbench/run.py --trace 0`, as it
is, for BENCHMARK.json's run_seconds, on every workload and on seeds 1 to
10, once in each tree, in one session: about 26 minutes. The order
alternates: base first for odd seeds, the working tree first for even ones,
so drift in the host's speed over the session falls on both trees alike.
Writes BENCH_N.json at the repository root: per workload and tree, the
median and interquartile range (IQR) of every metric over the seeds, each
run's metrics, the seeds, both SHAs (the working tree's marked "+dirty"
when it differs from HEAD), the run length, the Python and numpy versions
and the core count. Per workload and metric it also writes the comparison:
the ratio of the tree's median to the base's, on how many seeds the tree's
run beat the base's run of the same seed, in the direction BENCHMARK.json
declares better (ties count for neither), the base's IQR, and whether a gain
may be claimed: claim_met is true when the tree wins at least 9 of every 10
pairs and its median is better than the base's by more than the base's IQR.
Two more fields answer the gate of a change that claims no gain:
within_bound is true when the tree's median is no worse than the base's by
more than the metric's relative bound in BENCHMARK.json, and unresolved is
true when the base's IQR over its median exceeds that bound and not every
tree run beats every base run, so the runs spread too widely to tell. It
prints that table last, and under it each tree's src_lines and src_bytes: the
lines and bytes of its src/uprsim/*.py, which BENCH_N.json records too, so a
deletion shows where setup_s is too coarse to resolve it.
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
SEEDS = tuple(range(1, 11))  # ten pairs, of which a claimed gain must win nine
#: Each metric's better direction, "higher" or "lower".
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
#: Each end-to-end metric's bound: how much worse, relative to the base's
#: median, the tree's median may be.
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


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


def src_size(tree: Path) -> dict[str, int]:
    """The lines (as wc -l counts them) and bytes of tree's src/uprsim/*.py, summed."""
    texts = [p.read_bytes() for p in (tree / "src/uprsim").glob("*.py")]
    return {"src_lines": sum(t.count(b"\n") for t in texts), "src_bytes": sum(map(len, texts))}


def iqr(values: list[float]) -> float:
    """The distance between the first and third quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(runs: list[dict]) -> dict:
    """Median and IQR of each metric over the runs, and the failure counts."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values), "iqr": iqr(values),
                     "unit": first["unit"]}
    out["all_correct"] = all(r["correct"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    return out


def compare(base: list[dict], tree: list[dict]) -> dict:
    """Per metric, from two trees' runs in the same seed order:
    - ratio: the tree's median over the base's (NaN for a base median of 0);
    - tree_better_seeds: the seeds on which the tree is strictly better;
    - base_iqr: the base's IQR;
    - claim_met: the tree wins at least nine in ten pairs, and its median is
      better than the base's by more than the base's IQR;
    - within_bound: the tree's median is worse than the base's by at most
      the metric's BOUND times the base's;
    - unresolved: the base's IQR exceeds BOUND times its median, and some
      tree run does not beat every base run."""
    out = {}
    for name in base[0]["metrics"]:
        b, t = ([r["metrics"][name]["value"] for r in runs] for runs in (base, tree))
        sign = 1 if BETTER[name] == "higher" else -1
        median, spread, bound = statistics.median(b), iqr(b), BOUND[name]
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, t))
        gain = sign * (statistics.median(t) - median)
        out[name] = {"better": BETTER[name],
                     "ratio": statistics.median(t) / median if median else math.nan,
                     "tree_better_seeds": wins,
                     "seeds": len(b),
                     "base_iqr": spread,
                     "claim_met": 10 * wins >= 9 * len(b) and gain > spread,
                     "within_bound": gain >= -bound * abs(median),
                     "unresolved": (spread > bound * abs(median)
                                    and not min(sign * y for y in t) > max(sign * x for x in b))}
    return out


def table(comparison: dict) -> str:
    """The comparison of every workload, one metric a line."""
    yes = {True: "yes", False: "no"}
    lines = [f"{'workload':<14} {'metric':<13} {'better':<6} {'tree/base':>9}  "
             f"tree better    {'base IQR':>10}  claim met  in bound  unresolved"]
    for workload, metrics in comparison.items():
        lines += [f"{workload:<14} {name:<13} {c['better']:<6} {c['ratio']:>9.4f}  "
                  f"{c['tree_better_seeds']:>2}/{c['seeds']:<2} seeds  {c['base_iqr']:>10.4g}  "
                  f"{yes[c['claim_met']]:<9}  {yes[c['within_bound']]:<8}  "
                  f"{yes[c['unresolved']]}" for name, c in metrics.items()]
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
        src = {name: src_size(path) for name, path in trees.items()}
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
        "src": src,
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
    for name, size in src.items():
        print(f"{name}: src_lines {size['src_lines']}, src_bytes {size['src_bytes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
