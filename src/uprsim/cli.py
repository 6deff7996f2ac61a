"""Command-line interface.

Subcommands:
  simulate   - run all configured modes, write frames_<mode>.csv + summary.csv
  sweep      - run a parameter sweep, write sweep.csv
  truthtable - print dual-thresholding decisions for a scripted input set
  gen-trace  - generate a synthetic head trace and write it as CSV

Exit code 0 on success, nonzero with a message on any config/IO error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import scheduler as sched
from .geometry import check_fields
from .harness import (
    SWEEP_PARAMS,
    ConfigError,
    ExperimentConfig,
    checked,
    run,
    sweep,
    write_outputs,
    write_sweep_csv,
)
from .tracksim import SCALE, write_trace_csv


def _file_io(flag: str, make, *args, **kwargs):
    """make(*args, **kwargs); only a failed file read or write names the flag."""
    try:
        return make(*args, **kwargs)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _cmd_simulate(args) -> int:
    config = _file_io("--config", ExperimentConfig.from_file, args.config)
    result = run(config)
    _file_io("--out", write_outputs, result, args.out)
    for s in result.summaries.values():
        err = f"mean error {s.mean_error_mm:.2f} mm"
        if config.errors_px_per_mm > 0:
            err += f" ({s.mean_error_mm * config.errors_px_per_mm:.1f} px)"
        print(f"{s.mode}: {err}, "
              f"{s.invocations} face-tracker invocations, "
              f"tracking {s.total_tracking_ms:.1f} ms")
    return 0


def _cmd_sweep(args) -> int:
    config = _file_io("--config", ExperimentConfig.from_file, args.config)
    values = [checked("--values", float, v) for v in args.values.split(",")]
    rows = sweep(config, args.param, values)
    path = os.path.join(args.out, "sweep.csv")
    _file_io("--out", os.makedirs, args.out, exist_ok=True)
    _file_io("--out", write_sweep_csv, rows, args.param, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


#: Scripted eye-pixel inputs exercising each decision path: stationary hold,
#: a jump past the spatial threshold, settling (refine), and a flow failure.
_TRUTHTABLE_SCRIPT = [
    (100.0, 100.0, 160.0, 100.0),
    (100.0, 100.0, 160.0, 100.0),
    (100.0, 100.0, 160.0, 100.0),
    (140.0, 100.0, 200.0, 100.0),  # jump: spatial trigger
    (141.0, 100.0, 201.0, 100.0),  # settling: refine trigger once imprecise
    (141.5, 100.0, 201.5, 100.0),
    None,                          # flow failure
    (141.5, 100.0, 201.5, 100.0),
]


def _cmd_truthtable(args) -> int:
    eps = checked("--eps", float, args.eps)
    cfg = checked("--eps", replace, ExperimentConfig().threshold_config(), eps_max_px=eps)
    checked("--eps", check_fields, cfg, ValueError, SCALE)  # as the config holds its eps key
    anchors = []

    def recompute(i):
        # The flow, else the last anchor, else zeros (failure before any anchor).
        anchors.append(_TRUTHTABLE_SCRIPT[i] or (anchors[-1] if anchors else (0.0,) * 4))
        return anchors[-1]

    reasons, e_px, delta_e_px = sched.schedule(_TRUTHTABLE_SCRIPT, cfg, recompute)
    print(f"eps = {eps} px, refine factor = {cfg.refine_factor}, "
          f"policy = {cfg.policy.value}")
    print(f"{'frame':>5} {'E_px':>8} {'dE_px':>8} {'decision':>12} {'reason':>12}")
    for i, (reason, e, de) in enumerate(zip(reasons, e_px, delta_e_px)):
        e = "-" if math.isnan(e) else f"{e:.2f}"
        de = "-" if math.isnan(de) else f"{de:.2f}"
        kind = "recalculate" if reason else "skip"
        print(f"{i:>5} {e:>8} {de:>8} {kind:>12} {reason.value if reason else '-':>12}")
    return 0


def _cmd_gen_trace(args) -> int:
    trace = _file_io("--spec", ExperimentConfig.from_file, args.spec).build_trace()
    _file_io("--out", write_trace_csv, trace, args.out)
    print(f"wrote {len(trace)} frames to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uprsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run all configured render modes")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    p.add_argument("--values", required=True, help="comma-separated numeric values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("truthtable", help="print dual-thresholding decisions for a scripted input")
    p.add_argument("--eps", required=True, help="spatial threshold in px")
    p.set_defaults(func=_cmd_truthtable)

    p = sub.add_parser("gen-trace", help="generate a synthetic head trace CSV")
    p.add_argument("--spec", required=True, help="config file holding the trace_* keys")
    p.add_argument("--out", required=True, help="output trace CSV path")
    p.set_defaults(func=_cmd_gen_trace)

    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each flag joined to its value as one --flag=value word, so
    that a value may start with '-': argparse takes -1e3 for a flag, as its
    negative-number pattern covers only forms like -1 and -.5. Every flag
    but --help (or a prefix of it) takes one value."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and not "--help".startswith(flag):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
