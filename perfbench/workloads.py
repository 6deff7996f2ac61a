"""Workload inputs: config files and trace CSVs generated from a seed.

Each workload is a list of inputs that the op loop cycles over. An input is
one `uprsim simulate` or `uprsim sweep` command line plus what the checks
need to know about it. Everything is derived from (workload, seed), so the
same seed gives byte-identical input files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from uprsim.harness import ExperimentConfig
from uprsim.tracksim import Generator, TraceSpec, generate_trace, write_trace_csv

#: Inputs per workload. Each gets one untimed warm-up op, whose outputs are
#: the reference that every later op of the same input must match byte for
#: byte.
N_INPUTS = 3

#: eps_max values swept on trace_sweep. On a 1 mm random walk, 8 px gives
#: mostly spatial recalculations and 32 px mostly refine ones.
SWEEP_EPS_PX = (8.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class Input:
    name: str
    seed: int                  # the config's seed, drawn from the workload seed
    command: str               # "simulate" or "sweep"
    config_path: Path
    argv: tuple[str, ...]      # cli.main arguments, without --out
    n_frames: int
    modes: tuple[str, ...]
    sweep_values: tuple[float, ...] = ()

    @property
    def cells(self) -> int:
        return len(self.sweep_values) or 1

    @property
    def mode_frames(self) -> int:
        """Simulated frames times configured modes, summed over sweep cells."""
        return self.n_frames * len(self.modes) * self.cells


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def _benchmark_run(seed: int, d: Path) -> tuple[str, dict, tuple]:
    # benchmark_config(): the paper's step_move trace, 4 modes, 5 targets.
    return "simulate", {"modes": "DPR,UPR,FUPR,AAUPR", "seed": seed,
                        "trace_generator": "step_move"}, ()


def _sway_loop(seed: int, d: Path) -> tuple[str, dict, tuple]:
    # At 120 mm amplitude no frame moves less than the 0.5 mm dwell
    # tolerance, so with dwell-only errors the pointing-error path never runs.
    return "simulate", {"modes": "UPR,AAUPR", "seed": seed,
                        "trace_generator": "sway", "trace_n_frames": 3000,
                        "trace_amplitude_mm": 120.0}, ()


def _trace_sweep(seed: int, d: Path) -> tuple[str, dict, tuple]:
    trace_path = d / "trace.csv"
    write_trace_csv(generate_trace(TraceSpec(
        Generator.RANDOM_WALK, n_frames=1000, amplitude_mm=1.0,
        base_eye_mm=(0.0, 0.0, 150.0), seed=seed)), trace_path)
    return "sweep", {"modes": "AAUPR", "seed": seed, "trace_file": trace_path,
                     "threshold_policy": "decaying",
                     "noise_latency_frames": 2}, SWEEP_EPS_PX


WORKLOADS = {
    "benchmark_run": _benchmark_run,
    "sway_loop": _sway_loop,
    "trace_sweep": _trace_sweep,
}


def make_inputs(workload: str, seed: int, workdir: Path) -> list[Input]:
    """Write the workload's input files under workdir and describe them."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = []
    for k in range(N_INPUTS):
        d = workdir / f"in{k}"
        d.mkdir(parents=True)
        input_seed = rng.randrange(1, 2**31)
        command, values, sweep_values = WORKLOADS[workload](input_seed, d)
        config_path = d / "exp.cfg"
        _write_config(config_path, values)
        config = ExperimentConfig.from_file(config_path)
        argv = [command, "--config", str(config_path)]
        if command == "sweep":
            argv += ["--param", "eps_max", "--values", ",".join(map(str, sweep_values))]
        inputs.append(Input(
            name=d.name, seed=input_seed, command=command, config_path=config_path,
            argv=tuple(argv), n_frames=len(config.build_trace()),
            modes=tuple(m.value for m in config.mode_list()),
            sweep_values=sweep_values))
    return inputs
