import pytest

from uprsim.cli import main
from uprsim.tracksim import TRACE_CSV_HEADER


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


def trace_csv(line: int, old: str, new: str) -> str:
    """A valid three-frame trace CSV with old replaced by new on file line
    `line` (the header is line 1)."""
    lines = [TRACE_CSV_HEADER] + [f"{i},{i * 1000 / 15},0.0,0.0,150.0,63.0,"
                                  "1.0,0.0,0.0,0.0,0.0,0.0,0.0" for i in range(3)]
    lines[line - 1] = lines[line - 1].replace(old, new)
    return "\n".join(lines) + "\n"


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
    ("", ["truthtable", "--eps", "nan"], "--eps"),
    ("", ["truthtable", "--eps", "inf"], "--eps"),
    ("trace_file = {nan_csv}", None, "trace_file: line 3"),
    ("trace_file = {behind_csv}", None, "trace_file: line 2"),
    ("trace_file = {posed_csv}", None, "trace_file: line 4"),
    ("noise_jitter_sigma_mm = 200", None, "noise_jitter_sigma_mm: frame"),
    ("noise_jitter_sigma_mm = -5", None, "noise_jitter_sigma_mm: jitter_sigma_mm"),
    ("noise_flow_sigma_px = -3", None, "noise_*: noise_sigma_px"),
    ("noise_p_fail = 7", None, "noise_*: p_fail"),
    ("noise_p_fail = -0.5", None, "noise_*: p_fail"),
    ("noise_drift_px_per_frame = -2", None, "noise_*: drift_px_per_frame"),
])
def test_bad_input_is_one_line_error(tmp_path, capsys, config, argv, named):
    csvs = {"bad_csv": "frame,t\n0,0.0\n",
            "nan_csv": trace_csv(3, ",150.0,", ",nan,"),
            "behind_csv": trace_csv(2, ",150.0,", ",0.0,"),
            "posed_csv": trace_csv(4, ",63.0,1.0,", ",63.0,0.0,")}
    paths = {}
    for name, text in csvs.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config.format(**paths) + "\n")
    if argv is None:
        argv = ["simulate"]
    if argv[0] != "truthtable":
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert named in err
