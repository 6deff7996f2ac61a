import contextlib
import csv
import io
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from bad_inputs import BAD_INPUTS, bad_input_argv
from hypothesis import given, settings
from hypothesis import strategies as st

from uprsim.cli import main
from uprsim.harness import SCALE, ExperimentConfig
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
    assert capsys.readouterr().err.startswith("error: --config: ")
    assert main(["gen-trace", "--spec", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: --spec: ")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    # An existing file cannot become the output directory.
    assert main(["simulate", "--config", str(cfg), "--out", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: --out: ")


def test_output_bug_is_not_an_out_error(tmp_path, monkeypatch):
    # Only a failed file write is the --out flag's fault; a ValueError while
    # building the rows is the program's and keeps its traceback.
    def broken(result, outdir):
        raise ValueError("row bug")
    monkeypatch.setattr("uprsim.cli.write_outputs", broken)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    with pytest.raises(ValueError, match="row bug"):
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])


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


@pytest.mark.parametrize("config, argv, named", BAD_INPUTS)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would reach stderr
def test_bad_input_is_one_line_error(tmp_path, capsys, config, argv, named):
    assert main(bad_input_argv(tmp_path, config, argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert named in err


#: The fuzz runs' base config: a 20-frame stationary trace, three modes. A
#: fuzzed key given here replaces its base value (a key given twice is an
#: error).
FUZZ_BASE = {"modes": "DPR,FUPR,AAUPR", "trace_generator": "stationary", "trace_n_frames": "20"}

#: A subnormal, the smallest normals and the largest floats.
EXTREMES = [5e-324, 2.2e-308, 1e-300, 1e300, 1.7e308]
TINY = [str(v) for v in EXTREMES[:3]]

#: Fuzzed values inside their key's own domain that break a rule across
#: keys, which fails under its own label: the stationary trace needs frames
#: and an eye at least 1e-9 mm in front of the panel, a 5 mm jitter puts the
#: estimate of an eye 1e-9 mm from the panel behind it, and the targets leave
#: a plane 1e-9 mm or less across.
CROSS_KEY = {("trace_n_frames", "0"): "trace_*",
             **{("trace_base_eye_z_mm", v): "trace_*" for v in ("0", "-1", "-1e6", *TINY)},
             ("trace_base_eye_z_mm", "1e-9"): "noise_jitter_sigma_mm",
             **{(key, v): "targets" for key in ("plane_width_mm", "plane_height_mm")
                for v in ("1e-9", *TINY)}}


@pytest.mark.parametrize("value", ["0", "-1", "1e6", "-1e6", "1e-9", "", "abc", "nan",
                                   *map(str, EXTREMES)])
@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_any_one_value_runs_or_names_its_key(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)  # so that no trace_file value names a file
    (tmp_path / "exp.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, key: value}.items()))
    code = main(["simulate", "--config", "exp.cfg", "--out", "out"])
    err = capsys.readouterr().err
    assert (code, err.count("\n")) in ((0, 0), (1, 1))
    if code:
        assert err.startswith(f"error: {CROSS_KEY.get((key, value), key)}:")


#: Each field type's draws: edge values and small ranges, so that an example
#: runs in milliseconds. A frame count ("*_frames") draws at most 30. Of
#: the float EXTREMES, the large ones lie outside every key's SCALE, so they
#: draw the key's default; the tiny ones pass wherever no floor stops them.
#: The int 10**20 is outside SCALE too; only seed, which SCALE does not
#: bound, runs with it.
TYPE_DRAWS = {
    "float": st.sampled_from([0.0, -0.0, 1e-9, 0.5, 1.0, -1.0, 1e6, -1e6, *EXTREMES])
    | st.floats(-1e3, 1e3),
    "int": st.sampled_from([0, 1, 2, 10**20]) | st.integers(0, 4096),
    "frames": st.integers(0, 30),
    "bool": st.booleans(),
}


def field_values(f):
    """One ExperimentConfig field's values, from its type and its declared
    domains (f.metadata["domain"] and, for a float, SCALE, as check_fields
    reads them): the default, or a draw, kept if every domain accepts it,
    else the default. A string field draws comma-separated lists of the
    words its domain text names that the domain accepts alone, so a choice
    or the mode list."""
    quantity = f.type in ("float", "int") and f.name != "seed"
    domains = [ok for _, ok in f.metadata.values()] + [SCALE[1]] * quantity
    accepted = lambda v: all(ok(v) for ok in domains)
    if f.type == "str":
        words = sorted({w for text, _ in f.metadata.values()
                        for w in re.findall(r"\w+", text) if accepted(w)})
        if not words:
            return st.just(f.default)
        draws = st.lists(st.sampled_from(words), min_size=1, max_size=len(words),
                         unique=True).map(",".join)
    else:
        draws = TYPE_DRAWS["frames" if f.name.endswith("_frames") else f.type]
    return st.just(f.default) | draws.map(lambda v: v if accepted(v) else f.default)


def configs():
    """ExperimentConfigs drawn field by field from the declared domains; a
    new field is drawn without editing this."""
    return st.builds(ExperimentConfig, **{f.name: field_values(f)
                                          for f in fields(ExperimentConfig)})


@settings(max_examples=60)
@given(config=configs())
def test_any_config_runs_or_names_its_key(tmp_path_factory, config):
    # Through cli.main, a config inside every key's domain runs with empty
    # stderr and no warning, or exits 1 with a one-line error; no other
    # exception escapes. A RuntimeWarning (numpy's overflow, say) is raised
    # as an error, since Python warnings would not reach this stderr.
    tmp = tmp_path_factory.mktemp("config")
    (tmp / "exp.cfg").write_text(
        "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(config)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", str(tmp / "exp.cfg"), "--out", str(tmp / "out")])
    assert (code, err.getvalue().count("\n")) in ((0, 0), (1, 1)), err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


def test_trace_with_timestamp_jitter_runs(tmp_path, capsys):
    # Frame spacing off by up to 5e-7 ms, inside the trace check's 1e-6 ms:
    # UPR and AAUPR run it, whatever the spacing between invocations.
    rows = [f"{i},{t},0.0,0.0,150.0,63.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0" for i, t in
            enumerate(["0", "66.6666667", "133.3333329", "200.0000001"])]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join([TRACE_CSV_HEADER] + rows) + "\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"modes = UPR,AAUPR\ntrace_file = {trace}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "4 face-tracker invocations" in capsys.readouterr().out


def same_float(a: float, b: float) -> bool:
    """Equal bits, with any NaN equal to any NaN."""
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


@settings(max_examples=40)
@given(n_frames=st.integers(1, 30), generator=st.sampled_from(["sway", "random_walk"]),
       amplitude=st.floats(0.0, 100.0), seed=st.integers(0, 2**31 - 1),
       modes=st.lists(st.sampled_from(["DPR", "UPR", "FUPR", "AAUPR"]), min_size=1,
                      max_size=4, unique=True))
def test_summary_is_recomputed_from_frame_csvs(tmp_path_factory, n_frames, generator, amplitude,
                                               seed, modes):
    # Each summary mean and sd is the one a reader of frames_<mode>.csv gets
    # from its err_target_* cells, read row-major, NaN cells dropped.
    tmp = tmp_path_factory.mktemp("summary")
    cfg = tmp / "exp.cfg"
    cfg.write_text(f"modes = {','.join(modes)}\ntrace_generator = {generator}\n"
                   f"trace_n_frames = {n_frames}\ntrace_amplitude_mm = {amplitude!r}\n"
                   f"seed = {seed}\nerrors_dwell_only = false\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp / "out")]) == 0
    with open(tmp / "out" / "summary.csv") as f:
        summary = list(csv.DictReader(f))
    assert [row["mode"] for row in summary] == modes
    for row in summary:
        with open(tmp / "out" / f"frames_{row['mode']}.csv") as f:
            errs = np.array([float(v) for r in csv.DictReader(f) for k, v in r.items()
                             if k.startswith("err_target_")])
        errs = errs[~np.isnan(errs)]
        mean = float(errs.mean()) if errs.size else math.nan
        sd = float(errs.std(ddof=1)) if errs.size > 1 else math.nan
        assert same_float(float(row["mean_error_mm"]), mean), row
        assert same_float(float(row["sd_error_mm"]), sd), row
