"""The command set whose outputs uprsim keeps byte-identical across changes.

tests/test_golden.py runs it in process and compares digests against
tests/golden.json; tools/compare_outputs.py runs it in two trees and diffs
the outputs. Every command runs with the output directory as working
directory and relative paths, so printed paths match.
"""

from __future__ import annotations

from pathlib import Path

#: Input files the commands read, by file name.
CONFIGS = {
    "default.cfg": "",
    "latency.cfg": ("noise_latency_frames = 2\ndpr_fit = letterbox\n"
                    "errors_dwell_only = false\nthreshold_policy = decaying\n"),
    "sway.cfg": ("modes = UPR,AAUPR\ntrace_generator = sway\ntrace_n_frames = 3000\n"
                 "trace_amplitude_mm = 120\n"),
    # Zero jitter, so every jitter draw is +0.0; every result arrives after
    # the trace ends.
    "late.cfg": ("modes = UPR,AAUPR\ntrace_generator = stationary\ntrace_n_frames = 4\n"
                 "trace_base_eye_z_mm = 250\nnoise_latency_frames = 5\n"
                 "noise_jitter_sigma_mm = 0\n"),
    "walk_spec.cfg": ("trace_generator = random_walk\ntrace_n_frames = 1000\n"
                      "trace_amplitude_mm = 1.0\ntrace_base_eye_z_mm = 150\nseed = 7\n"),
    "walk_sweep.cfg": ("modes = AAUPR\ntrace_file = walk.csv\nthreshold_policy = decaying\n"
                       "noise_latency_frames = 2\n"),
    # The back camera's translation -r @ c holds -0.0 components, and two
    # targets sit at signed-zero plane points.
    "zero_offsets.cfg": ("back_cam_offset_x_mm = 0\nback_cam_offset_y_mm = -0\n"
                         "back_cam_offset_z_mm = -0.0\ntargets = 0,0;-0,-0\n"
                         "errors_dwell_only = false\n"),
    # Non-default rows of the summary and frame CSVs: two modes in a
    # non-default order, the 320x240 face cost, the latched policy with the
    # mean eye metric, pixel errors and a narrow ipd.
    "variants.cfg": ("modes = AAUPR,FUPR\ncost_resolution = 320x240\n"
                     "threshold_policy = latched\nthreshold_metric = mean\n"
                     "errors_px_per_mm = 3.78\nipd_mm = 58\n"),
    # Every flow measurement fails, frame 0 included, so the scheduler
    # takes flow_last from its first anchor.
    "flow_fail.cfg": "modes = AAUPR\nnoise_p_fail = 1\n",
    # Flow pixels without noise.
    "flow_exact.cfg": "modes = AAUPR\nnoise_flow_sigma_px = 0\n",
    # Two valid inputs no other command reads: a trace CSV with blank lines
    # (the reader skips them), whose head moves, then rests, and a boolean
    # key spelled out as true (errors at the resting frames only).
    "blank_lines.cfg": "trace_file = blank_lines.csv\nerrors_dwell_only = true\n",
    "blank_lines.csv": ("frame,t_ms,eye_x_mm,eye_y_mm,eye_z_mm,ipd_mm,"
                        "dev_qw,dev_qx,dev_qy,dev_qz,dev_tx_mm,dev_ty_mm,dev_tz_mm\n\n"
                        + "".join(f"{i},{i * 1000 / 15},{4.0 * min(i, 3)},0.0,300.0,63.0,"
                                  f"1.0,0.0,0.0,0.0,0.0,0.0,0.0\n" + "\n" * (i % 2)
                                  for i in range(8)) + "  \n\n"),
    "gen_stationary.cfg": "trace_generator = stationary\ntrace_n_frames = 50\n",
    "gen_step_move.cfg": "trace_generator = step_move\n",
    "gen_sway.cfg": "trace_generator = sway\ntrace_n_frames = 200\n",
    "gen_random_walk.cfg": "trace_generator = random_walk\ntrace_n_frames = 200\nseed = 3\n",
}

#: Bad inputs, by name: keys outside their domain, and rules that only the
#: objects built from the config check (the decaying floor, a sway trace's
#: frame count, a random walk's amplitude).
ERROR_CONFIGS = {
    "refine_factor": "threshold_refine_factor = 1.5\n",
    "eps_floor": ("threshold_policy = decaying\nthreshold_eps_max_px = 10\n"
                  "threshold_eps_min_px = 20\n"),
    "display_width": "display_width_mm = nan\n",
    "sway_frames": "trace_generator = sway\ntrace_n_frames = 0\n",
    "walk_amplitude": ("trace_generator = random_walk\ntrace_n_frames = 5\n"
                       "trace_amplitude_mm = -1\n"),
    "front_fx": "front_cam_fx = 0\n",
    "fupr_distance": "fupr_distance_mm = inf\n",
    "p_fail": "noise_p_fail = 2\n",
}
CONFIGS.update({f"error_{name}.cfg": text for name, text in ERROR_CONFIGS.items()})

COMMANDS = [
    ("simulate_default", ["simulate", "--config", "default.cfg", "--out", "default"]),
    ("simulate_latency", ["simulate", "--config", "latency.cfg", "--out", "latency"]),
    ("simulate_sway", ["simulate", "--config", "sway.cfg", "--out", "sway"]),
    ("simulate_late", ["simulate", "--config", "late.cfg", "--out", "late"]),
    ("simulate_zero_offsets", ["simulate", "--config", "zero_offsets.cfg",
                               "--out", "zero_offsets"]),
    ("simulate_variants", ["simulate", "--config", "variants.cfg", "--out", "variants"]),
    ("simulate_flow_fail", ["simulate", "--config", "flow_fail.cfg", "--out", "flow_fail"]),
    ("simulate_flow_exact", ["simulate", "--config", "flow_exact.cfg", "--out", "flow_exact"]),
    ("simulate_blank_lines", ["simulate", "--config", "blank_lines.cfg",
                              "--out", "blank_lines"]),
    ("gen_walk", ["gen-trace", "--spec", "walk_spec.cfg", "--out", "walk.csv"]),
    ("sweep_eps_max", ["sweep", "--config", "walk_sweep.cfg", "--param", "eps_max",
                       "--values", "8,16,24,32", "--out", "sweep"]),
    ("sweep_jitter", ["sweep", "--config", "walk_sweep.cfg", "--param", "jitter_sigma",
                      "--values", "0,5,40", "--out", "sweep_jitter"]),
    # All four modes: cells that share one scene, and cells that each build one.
    ("sweep_eps_all_modes", ["sweep", "--config", "default.cfg", "--param", "eps_max",
                             "--values", "12,24", "--out", "sweep_eps_all_modes"]),
    ("sweep_head_displacement", ["sweep", "--config", "default.cfg", "--param",
                                 "head_displacement", "--values", "0,125,250",
                                 "--out", "sweep_head_displacement"]),
] + [(f"gen_{g}", ["gen-trace", "--spec", f"gen_{g}.cfg", "--out", f"gen_{g}.csv"])
     for g in ("stationary", "step_move", "sway", "random_walk")] + [
    ("truthtable", ["truthtable", "--eps", "24"]),
] + [(f"error_{name}", ["simulate", "--config", f"error_{name}.cfg", "--out", f"error_{name}"])
     for name in ERROR_CONFIGS]


def write_inputs(out: Path) -> None:
    """Write every input file the commands read into out."""
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
