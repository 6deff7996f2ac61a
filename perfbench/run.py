"""uprsim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each op starts when the previous one
returns. An op is one `uprsim simulate` or `uprsim sweep` invocation through
`uprsim.cli.main`, in this process, on input files generated from the seed.
Every op's output is checked (see checks.py), outside the timed region.

--trace 0 measures the end-to-end metrics: CPU times of ops and of set-up,
each scaled to a nominal host speed by calibration work run next to it (see
hostspeed.py). --trace 1 alternates untraced and traced ops (see
spans.py) and reports per-layer metrics in unscaled host time. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # input files while running, spans afterwards
SETUP_PROBES = 12           # fresh interpreters timed for setup_s (plus one warm-up)
MAX_TRACED_CYCLES = 20
#: Layers with more than one span name; cli and viewgen have one each, so
#: their self times are cli.self_ms and viewgen.self_ms.
LAYERS = ("harness", "geometry", "tracksim", "scheduler")

sys.path.insert(0, str(SRC))
try:
    import numpy
    from uprsim import cli
except ImportError as exc:
    sys.exit(f"error: cannot import uprsim from {SRC}: {exc}")
if Path(cli.__file__).resolve().parent != SRC / "uprsim":
    sys.exit(f"error: imported uprsim from {cli.__file__}, not from {SRC}")

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class OpRunner:
    """Runs ops, times them, and checks every op's output.

    The first op of each input is an untimed warm-up whose output directory
    is kept as the reference; later ops must reproduce it byte for byte.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.refs: dict[str, tuple[object, Path, dict[str, str]]] = {}
        self.attempted: Counter[str] = Counter()  # by input name
        self.failed: Counter[str] = Counter()
        self.problems: list[str] = []
        self.np_repr_cells: dict[str, int] = {}  # a known defect: reported, not failed

    def run(self, inp, recorder=None, op_id=0) -> float | None:
        """One op; returns its CPU seconds, or None if it failed."""
        first = inp.name not in self.refs
        outdir = self.workdir / (f"ref-{inp.name}" if first else "out")
        shutil.rmtree(outdir, ignore_errors=True)
        argv = list(inp.argv) + ["--out", str(outdir)]
        console = io.StringIO()
        gc.collect()
        self.attempted[inp.name] += 1
        t0 = process_time()
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                if recorder is None:
                    code = cli.main(argv)
                else:
                    code = recorder.traced_op(op_id, cli.main, argv)
        except (Exception, SystemExit) as exc:
            traceback.print_exc(file=sys.stderr)
            code = repr(exc)
        seconds = process_time() - t0

        if code != 0:
            problem = f"exit {code}: {console.getvalue().strip()[-300:]}"
        elif first:
            self.refs[inp.name] = (inp, outdir, checks.digest(outdir))
            return seconds
        elif checks.digest(outdir) != self.refs[inp.name][2]:
            problem = "output differs from the reference run of the same input"
        else:
            return seconds
        self.failed[inp.name] += 1
        self.problems.append(f"{inp.name}{' traced' if recorder else ''}: {problem}")
        return None

    def check_references(self, seed: int) -> None:
        """Semantic checks on each reference output. A bad reference fails
        every op of its input, since each reproduced it byte for byte."""
        rng = random.Random(seed)
        for inp, outdir, _ in self.refs.values():
            problems = checks.check_reference(inp, outdir, rng)
            self.np_repr_cells[inp.name] = checks.np_repr_cells(outdir)
            if problems:
                self.problems += [f"{inp.name}: {p}" for p in problems]
                self.failed[inp.name] = self.attempted[inp.name]


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values) -> tuple[float, int, int]:
    """Highest whole percentile with at least 10 samples beyond it, by
    nearest rank. Returns (value, percentile, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    p = max(0, math.floor(100 * (n - 10) / n))
    idx = max(0, math.ceil(p * n / 100) - 1)
    return xs[idx], p, n - 1 - idx


def setup_seconds(inputs) -> tuple[list[float], list[float]]:
    """setup_s samples (import, config parse and trace build) and the
    reference probes run before, between and after them, in CPU seconds of
    a fresh interpreter each (see setup_probe.py). A first pair, which may
    compile bytecode, is discarded."""
    def probe(*args: str) -> float:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), *args],
            capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout)

    probe()
    probe(str(SRC), str(inputs[0].config_path))
    setups, refs = [], [probe()]
    for k in range(SETUP_PROBES):
        setups.append(probe(str(SRC), str(inputs[k % len(inputs)].config_path)))
        refs.append(probe())
    return setups, refs


def environment() -> str:
    git = "none"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            git = "unknown"
    src = hashlib.sha256()
    for p in sorted((SRC / "uprsim").glob("*.py")):
        src.update(p.read_bytes())
    return (f"env: git={git} src_sha256={src.hexdigest()[:12]} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={len(os.sched_getaffinity(0))}")


def end_to_end(runner: OpRunner, inputs, seconds: float, lines: list[str]) -> dict:
    setup_cpu, refs = setup_seconds(inputs)
    setup = [cpu * hostspeed.NOMINAL_IMPORT_S * 2 / (before + after)
             for cpu, before, after in zip(setup_cpu, refs, refs[1:])]
    for inp in inputs:
        runner.run(inp)
    # Each op's CPU time is scaled by the mean of the kernel runs just
    # before and just after it.
    timed = []  # (scaled seconds, CPU seconds, kernel seconds, mode-frames)
    deadline = perf_counter() + seconds
    kernel_before = hostspeed.kernel_seconds()
    k = 0
    while perf_counter() < deadline or not timed:
        inp = inputs[k % len(inputs)]
        k += 1
        dt = runner.run(inp)
        kernel_after = hostspeed.kernel_seconds()
        if dt is not None:
            kernel = (kernel_before + kernel_after) / 2
            timed.append((dt * hostspeed.NOMINAL_S / kernel, dt, kernel, inp.mode_frames))
        elif k > 2 * len(inputs) and not timed:
            break
        kernel_before = kernel_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_ms = [t[0] * 1000.0 for t in timed]
    tail_ms, pct, beyond = tail(op_ms) if op_ms else (float("nan"), 0, 0)
    metrics = {
        "setup_s": (median(setup), "s"),
        "frames_per_s": (sum(t[3] for t in timed) / sum(t[0] for t in timed)
                         if timed else float("nan"), "1/s"),
        "op_p50_ms": (median(op_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines.append(f"ops: warmup={len(inputs)} timed={len(timed)} "
                 f"(of {k} in the timed loop)")
    lines.append(f"op_tail_ms is p{pct} of {len(op_ms)} timed ops, "
                 f"{beyond} ops beyond it; setup_s is the median of {len(setup)} "
                 f"fresh interpreters")
    lines.append(f"unscaled: op_p50 {median([t[1] * 1000.0 for t in timed]):.1f} CPU ms, "
                 f"setup {median(setup_cpu):.4f} CPU s; kernel median "
                 f"{1000.0 * median([t[2] for t in timed]):.2f} ms around ops "
                 f"(nominal {1000.0 * hostspeed.NOMINAL_S:.0f} ms); reference import "
                 f"median {1000.0 * median(refs):.1f} ms "
                 f"(nominal {1000.0 * hostspeed.NOMINAL_IMPORT_S:.0f} ms)")
    return metrics


def per_layer(runner: OpRunner, inputs, seconds: float, workload: str,
              lines: list[str]) -> dict:
    recorder = spans.Recorder()
    for inp in inputs:
        runner.run(inp)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    cycle = 0
    # Whole cycles (each input once untraced, once traced) keep the
    # simulated counts per op exactly repeatable. The cycle cap bounds the
    # span store once the program gets much faster.
    while (perf_counter() < deadline or cycle == 0) and cycle < MAX_TRACED_CYCLES:
        for inp in inputs:
            for trace_it in ((False, True) if cycle % 2 == 0 else (True, False)):
                op_id = len(traced)
                dt = runner.run(inp, recorder if trace_it else None, op_id)
                (traced if trace_it else plain).append(dt)
        cycle += 1
    if recorder.installed():
        runner.problems.append("a tracing wrapper was left installed")

    stats = recorder.per_op()
    n = len(traced)

    def per_op(key: str) -> float:
        return sum(s.get(key, 0.0) for s in stats.values()) / n

    steps = per_op("scheduler.step.calls")
    calls = per_op("viewgen.pointing_error.calls")
    layer_self = {layer: sum(per_op(f"{name}.self_ms") for name in recorder.names
                             if name.split(".")[0] == layer)
                  for layer in ("cli", "viewgen") + LAYERS}
    span_ms = per_op(spans.ROOT + ".ms")

    def mean_ms(times):
        ok = [dt for dt in times if dt is not None]
        return 1000.0 * sum(ok) / len(ok) if ok else float("nan")
    plain_ms, traced_ms = mean_ms(plain), mean_ms(traced)

    metrics = {
        "viewgen.pointing_error.calls": (calls, "count"),
        "viewgen.pointing_error.ms": (per_op("viewgen.pointing_error.ms"), "ms"),
        "viewgen.self_ms": (layer_self["viewgen"], "ms"),
        "viewgen.us_per_eval": (1000.0 * per_op("viewgen.pointing_error.ms") / calls
                                if calls else 0.0, "us"),
        "viewgen.no_hit": (per_op("viewgen.pointing_error#GeometryError"), "count"),
        "geometry.invert.calls": (per_op("geometry.invert.calls"), "count"),
        "geometry.invert.ms": (per_op("geometry.invert.ms"), "ms"),
        "geometry.intersect_ray_plane.ms": (per_op("geometry.intersect_ray_plane.ms"), "ms"),
        "geometry.project_pinhole.ms": (per_op("geometry.project_pinhole.ms"), "ms"),
        "tracksim.flow_measure.calls": (per_op("tracksim.flow_measure.calls"), "count"),
        "tracksim.flow_measure.ms": (per_op("tracksim.flow_measure.ms"), "ms"),
        "tracksim.face_track.calls": (per_op("tracksim.face_track.calls"), "count"),
        "tracksim.face_track.ms": (per_op("tracksim.face_track.ms"), "ms"),
        "tracksim.flow_failures": (per_op("tracksim.flow_measure#failed"), "count"),
        "tracksim.read_trace_csv.ms": (per_op("tracksim.read_trace_csv.ms"), "ms"),
        "tracksim.generate_trace.ms": (per_op("tracksim.generate_trace.ms"), "ms"),
        "scheduler.step.calls": (steps, "count"),
        "scheduler.step.ms": (per_op("scheduler.step.ms"), "ms"),
        "scheduler.apply_recalculation.ms": (per_op("scheduler.apply_recalculation.ms"), "ms"),
        "scheduler.recalc_ratio": ((steps - per_op("scheduler.step#skip")) / steps
                                   if steps else 0.0, "frac"),
        "scheduler.recalc.spatial": (per_op("scheduler.step#spatial"), "count"),
        "scheduler.recalc.refine": (per_op("scheduler.step#refine"), "count"),
        "scheduler.recalc.flow_failure": (per_op("scheduler.step#flow_failure"), "count"),
        "harness.loop_self_ms": (per_op("harness.run.self_ms"), "ms"),
        "harness.write_csv.ms": (per_op("harness.write_csv.ms"), "ms"),
        "harness.output_bytes": (statistics.fmean(
            checks.output_bytes(d) for _, d, _ in runner.refs.values()), "bytes"),
        "harness.from_file.ms": (per_op("harness.from_file.ms"), "ms"),
        "harness.summarize.ms": (per_op("harness.summarize.ms"), "ms"),
        "harness.unbilled_ms": (statistics.fmean(
            checks.unbilled_ms(inp, d) for inp, d, _ in runner.refs.values()), "sim_ms"),
        "cli.self_ms": (per_op(spans.ROOT + ".self_ms"), "ms"),
        **{f"layer.{layer}.self_ms": (layer_self[layer], "ms") for layer in LAYERS},
        "op.traced_ms": (traced_ms, "ms"),
        "op.untraced_ms": (plain_ms, "ms"),
        "trace_overhead_frac": (traced_ms / plain_ms - 1.0, "frac"),
    }
    spans_path = WORK / f"spans-{workload}.csv"
    recorder.write_csv(spans_path)
    shares = ", ".join(f"{layer} {ms / span_ms:.1%}" for layer, ms in
                       sorted(layer_self.items(), key=lambda kv: -kv[1]))
    lines.append(f"ops: warmup={len(inputs)} untraced={len(plain)} traced={n} "
                 f"({cycle} cycles); {len(recorder)} spans written to "
                 f"{spans_path.relative_to(ROOT)}")
    lines.append(f"layer self-time shares of the traced op: {shares}")
    if recorder.missing:
        lines.append("not traced (name not found in uprsim): " + ", ".join(recorder.missing))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    lines = [f"uprsim benchmark: workload={args.workload} seed={args.seed} "
             f"trace={args.trace} seconds={args.seconds}", environment()]
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        lines.append("inputs: " + "; ".join(
            f"{inp.name} {inp.command} seed={inp.seed} frames={inp.n_frames} "
            f"modes={','.join(inp.modes)} cells={inp.cells}" for inp in inputs))
        runner = OpRunner(workdir)
        if args.trace:
            metrics = per_layer(runner, inputs, args.seconds, args.workload, lines)
        else:
            metrics = end_to_end(runner, inputs, args.seconds, lines)
        runner.check_references(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = runner.attempted.total(), runner.failed.total()
    lines.append(f"attempted={attempted} failed={failed}")
    shown = dict(metrics, failed_frac=(failed / attempted, "frac")) if not args.trace else metrics
    lines += [f"  {name:<34} {value:>14.6g} {unit}" for name, (value, unit) in shown.items()]
    if any(runner.np_repr_cells.values()):
        lines.append(f"note: output cells written as '{checks.NP_REPR}...)' in place of "
                     f"plain floats: " + ", ".join(
                         f"{name} {n}" for name, n in runner.np_repr_cells.items()))
    lines += [f"problem: {p}" for p in runner.problems[:20]]
    if len(runner.problems) > 20:
        lines.append(f"problem: ... and {len(runner.problems) - 20} more")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
