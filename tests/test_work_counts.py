"""Work counts, as a tier-1 gate: the cProfile call totals of fixed runs.

Each count is the number of Python and built-in calls cProfile records in
one run, profiled after one unprofiled warm-up of the same run, with the
cyclic garbage collector off: the benchmark config with all four modes,
each mode alone on a 300-frame, 120 mm sway, and a 4-cell eps_max sweep of
perfbench's trace_sweep cells on a 300-frame walk (test_harness.TRACE_SWEEP).
The calls are summed over the profiler's entries, one per code object;
pstats' total_calls would not do, as it merges the NamedTuples' __new__s,
which collections.namedtuple compiles from one string each and so share a
file, line and name. The value objects' __init__ is literally one code
object, geometry.Value.__init__, and AAUPR's flow proxy is one
FlowSimulator.stream call per run, whose three closures the loop calls.
tests/work_counts.json pins them. A change that makes a run call more (or
fewer) functions fails here until the file is regenerated; name each
changed count, old -> new, in CHANGES.md.

The counts hold only for the Python and numpy versions recorded with them;
under other versions the test fails and names both. To record them again:

    PYTHONPATH=src python tests/test_work_counts.py
"""

from __future__ import annotations

import cProfile
import gc
import json
import platform
from pathlib import Path

import numpy as np
from test_harness import TRACE_SWEEP

from uprsim.harness import ExperimentConfig, run, sweep

WORK_COUNTS = Path(__file__).with_name("work_counts.json")

#: Each counted run as (function, *args); the call is what is profiled.
RUNS = {"benchmark": (run, ExperimentConfig()),
        **{f"sway_{mode}": (run, ExperimentConfig(modes=mode, trace_generator="sway",
                                                  trace_n_frames=300, trace_amplitude_mm=120.0))
           for mode in ("DPR", "UPR", "FUPR", "AAUPR")},
        "sweep_eps": (sweep, ExperimentConfig(**TRACE_SWEEP), "eps_max",
                      [8.0, 16.0, 24.0, 32.0])}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def total_calls(call, *args) -> int:
    call(*args)  # warm-up: first-call imports and caches are not counted
    prof = cProfile.Profile()
    # A collection inside the profiled run would count the finalizers it
    # calls, for garbage that earlier tests left: which tests, and how much
    # they left, would then shift the count.
    gc.collect()
    gc.disable()
    try:
        prof.runcall(call, *args)
    finally:
        gc.enable()
    return sum(entry.callcount for entry in prof.getstats())


def work_counts() -> dict[str, int]:
    return {name: total_calls(*call) for name, call in RUNS.items()}


def test_work_counts_match_pinned():
    pinned = json.loads(WORK_COUNTS.read_text())
    assert pinned["versions"] == versions(), (
        f"work counts were recorded under {pinned['versions']}, this run is "
        f"{versions()}; rerun them under the recorded versions")
    assert work_counts() == pinned["counts"]


if __name__ == "__main__":
    WORK_COUNTS.write_text(json.dumps({"versions": versions(), "counts": work_counts()},
                                      indent=1, sort_keys=True) + "\n")
