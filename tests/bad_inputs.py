"""Bad inputs, each of which ends a CLI command with a one-line error and
exit code 1.

tests/test_cli.py checks each case's message, and tests/test_reach.py runs
them among the commands that must reach every statement in src/uprsim.
"""

from pathlib import Path

from uprsim.tracksim import TRACE_CSV_HEADER


def trace_csv(line: int, old: str, new: str) -> str:
    """A valid three-frame trace CSV with old replaced by new on file line
    `line` (the header is line 1)."""
    lines = [TRACE_CSV_HEADER] + [f"{i},{i * 1000 / 15},0.0,0.0,150.0,63.0,"
                                  "1.0,0.0,0.0,0.0,0.0,0.0,0.0" for i in range(3)]
    lines[line - 1] = lines[line - 1].replace(old, new)
    return "\n".join(lines) + "\n"


POSE = ",63.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0\n"

#: The trace CSVs a case's config or argv names as {name}, by name.
CSVS = {"bad_csv": "frame,t\n0,0.0\n",
        "huge_t_csv": (f"{TRACE_CSV_HEADER}\n0,-1.7e308,0.0,0.0,150.0{POSE}"
                       f"1,1.7e308,0.0,0.0,150.0{POSE}"),
        "far_eye_csv": trace_csv(4, ",0.0,0.0,150.0,", ",1e300,0.0,150.0,"),
        "split_t_csv": "".join([f"{TRACE_CSV_HEADER}\n"] + [
            f"{i},{t},0.0,0.0,150.0{POSE}" for i, t in enumerate(
                ["-1.7e308", "-1.6e308", "1.7e308"])]),
        "good_csv": trace_csv(2, "", ""),  # nothing replaced: a valid trace
        "nan_csv": trace_csv(3, ",150.0,", ",nan,"),
        "text_csv": trace_csv(3, ",150.0,", ",abc,"),
        "behind_csv": trace_csv(2, ",150.0,", ",0.0,"),
        "posed_csv": trace_csv(4, ",63.0,1.0,", ",63.0,0.0,"),
        "short_row_csv": f"{TRACE_CSV_HEADER}\n0,0.0,0.0\n",
        "header_only_csv": f"{TRACE_CSV_HEADER}\n"}

WALK = "trace_generator = random_walk\ntrace_n_frames = 5\n"
SMALL = "modes = UPR\ntrace_generator = stationary\ntrace_n_frames = 5"
#: A decaying threshold whose floor lies above its maximum.
FLOOR = "threshold_policy = decaying\nthreshold_eps_max_px = 10\nthreshold_eps_min_px = 20\n"

#: (config text, argv or None for simulate, text the error line holds). The
#: config and argv may name a file of CSVS as {name}.
BAD_INPUTS = [
    ("display_width_mm = -5", None, "display_width_mm"),
    ("fupr_distance_mm = 0", None, "fupr_distance_mm"),
    ("cost_flow_ms = -1", None, "flow_ms"),
    ("trace_file = {bad_csv}", None, "trace_file"),
    ("trace_frame_rate_hz = nan", None, "trace_frame_rate_hz"),
    ("threshold_eps_max_px = inf", None, "threshold_eps_max_px"),
    ("noise_latency_frames = -1", None, "noise_latency_frames"),
    ("", ["sweep", "--param", "eps_max", "--values", "1,abc"], "--values"),
    ("", ["truthtable", "--eps", "-1"], "--eps: eps_max_px: must be"),
    ("", ["truthtable", "--eps", "nan"], "--eps: eps_max_px: must be"),
    ("", ["truthtable", "--eps", "inf"], "--eps: eps_max_px: must be"),
    ("trace_file = {nan_csv}", None, "trace_file: line 3"),
    ("trace_file = {behind_csv}", None, "trace_file: line 2"),
    ("trace_file = {posed_csv}", None, "trace_file: line 4"),
    ("noise_jitter_sigma_mm = 200", None, "noise_jitter_sigma_mm: frame"),
    ("noise_jitter_sigma_mm = -5", None, "noise_jitter_sigma_mm:"),
    ("noise_flow_sigma_px = -3", None, "noise_flow_sigma_px"),
    ("noise_p_fail = 7", None, "noise_p_fail"),
    ("noise_p_fail = -0.5", None, "noise_p_fail"),
    ("noise_drift_px_per_frame = -2", None, "noise_drift_px_per_frame"),
    ("modes = DPR\nseed = -1", None, "seed: must be nonnegative"),
    (WALK + "seed = -1", ["gen-trace"], "seed: must be nonnegative"),
    (WALK + "seed = -1", ["sweep", "--param", "eps_max", "--values", "8"],
     "seed: must be nonnegative"),
    ("trace_generator = sway\ntrace_n_frames = 10\ntrace_sway_period_s = 0", None,
     "trace_sway_period_s"),
    (WALK + "trace_amplitude_mm = -5", None, "trace_*: amplitude_mm"),
    ("trace_generator = step_move\ntrace_n_frames = -4", None, "trace_n_frames"),
    ("plane_width_mm = 0", None, "plane_width_mm"),
    ("targets = 0,0\nplane_width_mm = 0", None, "plane_width_mm"),
    ("ipd_mm = -5", None, "error: ipd_mm:"),
    # Nonnegative, as its field declares, but beyond SCALE; an overflow in
    # the FUPR eye's separation check once escaped main as a traceback.
    ("ipd_mm = 1e200", None, "error: ipd_mm:"),
    ("errors_px_per_mm = -3", None, "error: errors_px_per_mm:"),
    ("modes = UPR,UPR", None,
     "error: modes: must be comma-separated distinct render modes (DPR, UPR, FUPR, AAUPR), "
     "got 'UPR,UPR'"),
    ("trace_file = {text_csv}", None, "trace_file: line 3"),
    ("seed = 3\nseed = 4", None, "line 2: duplicate config key 'seed' (first on line 1)"),
    # An int key beyond SCALE once overflowed numpy's int64 (a traceback) or
    # failed as a trace array too large to allocate.
    ("modes = UPR\ntrace_generator = stationary\ntrace_n_frames = 5\n"
     "noise_latency_frames = 100000000000000000000", None,
     "error: noise_latency_frames: must be at most 1e6 in magnitude, got 100000000000000000000"),
    ("trace_dwell_frames = 100000000000000000000", None,
     "error: trace_dwell_frames: must be at most 1e6 in magnitude"),
    # Timestamps +-1.7e308 once put a numpy overflow warning before the error,
    # then named a frame rate of 0.0 and no line; an eye x of 1e300 ran to
    # exit 0.
    ("trace_file = {huge_t_csv}", None,
     "error: trace_file: line 3: frame spacing inconsistent with frame rate\n"),
    ("trace_file = {far_eye_csv}", None,
     "error: trace_file: line 4: eye and ipd values must be at most 1e6 in magnitude"),
    ("trace_file = {split_t_csv}", None,  # a spacing that overflows
     "error: trace_file: line 4: frame spacing inconsistent with frame rate"),
    # Neither trace reads trace_amplitude_mm: every cell once gave the same row.
    ("trace_file = {good_csv}", ["sweep", "--param", "head_displacement", "--values", "0,100"],
     "error: head_displacement: a trace_file trace does not read trace_amplitude_mm\n"),
    ("trace_generator = stationary\ntrace_n_frames = 5",
     ["sweep", "--param", "head_displacement", "--values", "0,100"],
     "error: head_displacement: a stationary trace does not read trace_amplitude_mm\n"),
    # The targets format is checked for every command, not only where a run
    # reads the targets.
    ("targets = garbage", ["gen-trace"], "error: targets: must be one or more x,y float pairs"),
    ("targets = ;;", ["gen-trace"], "error: targets: must be one or more x,y float pairs"),
    # Config lines that do not parse, a target off the plane and a boolean
    # key's bad value.
    ("foo = 1", None, "unknown config key"),
    ("modes DPR", None, "expected 'key = value'"),
    ("targets = 5000,0", None, "lies outside the plane bounds"),
    ("errors_dwell_only = maybe", None, "not a boolean"),
    # A trace CSV row of 3 values, and a trace of no frames.
    ("trace_file = {short_row_csv}", None, "expected 13 values"),
    ("trace_file = {header_only_csv}", None, "trace must contain at least one frame"),
    # A generated trace's bad frame (TraceError's message).
    ("trace_generator = stationary\ntrace_n_frames = 5\ntrace_base_eye_z_mm = -100", None,
     "frame 0: eye must be in front"),
    # An output directory under a regular file: the failed write names --out.
    (SMALL, ["simulate", "--out", "{good_csv}/x"], "--out: [Errno 20]"),
    # Errors come in one order, in a run and in a sweep whose cells share a
    # scene: the trace's, then threshold_*'s, then the targets'.
    (FLOOR + "targets = 5000,0", None, "error: threshold_*: eps_min_px must be in (0, eps_max_px]"),
    (FLOOR + "targets = 5000,0", ["sweep", "--param", "jitter_sigma", "--values", "1,2"],
     "error: threshold_*: eps_min_px must be in (0, eps_max_px]"),
    (FLOOR + "trace_file = nofile.csv", ["sweep", "--param", "eps_max", "--values", "8"],
     "error: trace_file: "),
    # The config's threshold_eps_max_px = 0 means its default; --eps 0 does not.
    ("", ["truthtable", "--eps", "0"], "--eps: eps_max_px: must be positive"),
    # A target coordinate is a quantity: finite and within SCALE.
    ("targets = nan,0", ["gen-trace"], "error: targets: must be one or more x,y float pairs"),
    ("targets = inf,0", ["gen-trace"], "error: targets: must be one or more x,y float pairs"),
    # --eps is a quantity, held to SCALE as the config's threshold_eps_max_px is.
    ("", ["truthtable", "--eps", "1e300"],
     "error: --eps: eps_max_px: must be at most 1e6 in magnitude, got 1e+300"),
]


def bad_input_argv(tmp: Path, config: str, argv: list[str] | None) -> list[str]:
    """Write the case's config and CSVS into the directory tmp, and return
    its full argv: the command's --config or --spec, and an --out in tmp
    unless argv names one."""
    paths = {}
    for name, text in CSVS.items():
        paths[name] = tmp / f"{name}.csv"
        paths[name].write_text(text)
    cfg = tmp / "exp.cfg"
    cfg.write_text(config.format(**paths) + "\n")
    argv = [arg.format(**paths) for arg in argv or ["simulate"]]
    if argv[0] != "truthtable":
        flag = "--spec" if argv[0] == "gen-trace" else "--config"
        argv += [flag, str(cfg)] + ["--out", str(tmp / "out")] * ("--out" not in argv)
    return argv
