import numpy as np
import pytest

from uprsim.cli import main


CONFIG = """
modes = FUPR,AAUPR
seed = 3
trace_generator = stationary
trace_n_frames = 40
noise_flow_sigma_px = 0
noise_drift_px_per_frame = 0
noise_p_fail = 0
noise_jitter_sigma_mm = 0
"""


def test_simulate(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "frames_FUPR.csv").exists()
    assert (out / "frames_AAUPR.csv").exists()
    assert (out / "summary.csv").exists()
    assert "AAUPR" in capsys.readouterr().out


def test_simulate_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 1


def test_sweep(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--param", "jitter_sigma",
                 "--values", "0,5", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("parameter,value,mode")
    assert len(lines) == 1 + 2 * 2  # two values x two modes


def test_truthtable(capsys):
    assert main(["truthtable", "--eps", "24"]) == 0
    out = capsys.readouterr().out
    assert "spatial" in out
    assert "refine" in out
    assert "flow_failure" in out
    assert "initial" in out


def test_gen_trace_round_trip(tmp_path):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("trace_generator = step_move\ntrace_dwell_frames = 10\n"
                   "trace_transition_frames = 5\n")
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--spec", str(cfg), "--out", str(out)]) == 0
    from uprsim.tracksim import read_trace_csv
    trace = read_trace_csv(out)
    assert len(trace) == 25


@pytest.mark.parametrize("config, argv, named", [
    ("display_width_mm = -5", None, "DisplayModel.width_mm"),
    ("fupr_distance_mm = 0", None, "fupr_distance_mm"),
    ("cost_flow_ms = -1", None, "flow_ms"),
    ("trace_file = {bad_csv}", None, "trace_file"),
    ("trace_frame_rate_hz = nan", None, "trace_frame_rate_hz"),
    ("threshold_eps_max_px = inf", None, "threshold_eps_max_px"),
    ("noise_latency_frames = -1", None, "noise_latency_frames"),
    ("", ["sweep", "--param", "eps_max", "--values", "1,abc"], "--values"),
    ("", ["truthtable", "--eps", "-1"], "--eps"),
])
def test_bad_input_is_one_line_error(tmp_path, capsys, config, argv, named):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("frame,t\n0,0.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config.format(bad_csv=bad_csv) + "\n")
    if argv is None:
        argv = ["simulate"]
    if argv[0] != "truthtable":
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert named in err
