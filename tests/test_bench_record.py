"""tools/bench_record.py's comparison of two trees' runs, on synthetic runs.
The tool is not a package module, so it is loaded by path."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools/bench_record.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def runs(**columns):
    """One perfbench result per seed from each metric's values, in seed order."""
    n = len(next(iter(columns.values())))
    return [{"metrics": {name: {"value": values[i], "unit": "-"}
                         for name, values in columns.items()}} for i in range(n)]


def test_compare_takes_each_metric_direction():
    tool = load_tool()
    assert tool.BETTER["frames_per_s"] == "higher" and tool.BETTER["op_p50_ms"] == "lower"
    base = runs(frames_per_s=[100.0, 90.0, 110.0, 100.0, 95.0],
                op_p50_ms=[10.0, 11.0, 9.0, 10.0, 10.0], setup_s=[0.0] * 5)
    tree = runs(frames_per_s=[120.0, 85.0, 130.0, 100.0, 115.0],  # seed 4 ties
                op_p50_ms=[9.0, 12.0, 8.0, 10.0, 9.5], setup_s=[0.1] * 5)
    got = tool.compare(base, tree)
    # Base quartiles: frames 95 and 100, so an IQR of 5; op_p50 10 and 10.
    assert got["frames_per_s"] == {"better": "higher", "ratio": 115.0 / 100.0,
                                   "tree_better_seeds": 3, "seeds": 5, "base_iqr": 5.0,
                                   "claim_met": False, "within_bound": True,
                                   "unresolved": False}
    assert got["op_p50_ms"] == {"better": "lower", "ratio": 9.5 / 10.0,
                                "tree_better_seeds": 3, "seeds": 5, "base_iqr": 0.0,
                                "claim_met": False, "within_bound": True,
                                "unresolved": False}
    assert math.isnan(got["setup_s"]["ratio"]) and got["setup_s"]["tree_better_seeds"] == 0


def test_claim_needs_nine_of_ten_pairs_and_a_median_gain_beyond_the_base_iqr():
    tool = load_tool()
    assert tool.SEEDS == tuple(range(1, 11))
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 99.0, 101.0]
    iqr = 101.0 - 99.0  # the base's quartiles, 99 and 101; its median is 100

    def claim(tree, metric="frames_per_s", base=base):
        got = tool.compare(runs(**{metric: base}), runs(**{metric: tree}))[metric]
        assert got["base_iqr"] == iqr
        return got["tree_better_seeds"], got["claim_met"]

    # Nine wins and a tie, the median 10 above the base's: met.
    assert claim([110.0] * 9 + base[9:]) == (9, True)
    # Eight wins (ties count for neither) with the same median gain: not met.
    assert claim([110.0] * 8 + base[8:]) == (8, False)
    # Ten wins, but a median gain (1.5) within the base's IQR (2): not met.
    assert claim([b + 1.5 for b in base]) == (10, False)
    assert claim([b + 2.5 for b in base]) == (10, True)
    # A lower-is-better metric wins by falling.
    assert claim([b - 2.5 for b in base], "op_p50_ms") == (10, True)
    assert claim([b + 2.5 for b in base], "op_p50_ms") == (0, False)


def test_within_bound_and_unresolved_answer_a_no_claim_gate():
    tool = load_tool()
    assert tool.BOUND["frames_per_s"] == 0.2 and tool.BOUND["peak_rss_mb"] == 0.1
    narrow = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 99.0, 101.0]  # IQR 2
    wide = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 95.0, 105.0]  # IQR 47.5

    def gate(base, tree, metric="frames_per_s"):
        got = tool.compare(runs(**{metric: base}), runs(**{metric: tree}))[metric]
        return got["within_bound"], got["unresolved"]

    # Worse by 20% of the base's median (100) is within the bound; by more is not.
    assert gate(narrow, [80.0] * 10) == (True, False)
    assert gate(narrow, [79.0] * 10) == (False, False)
    # A lower-is-better metric is worse by rising: by 10% of the median of 40.
    assert gate([b * 0.4 for b in narrow], [44.0] * 10, "peak_rss_mb") == (True, False)
    assert gate([b * 0.4 for b in narrow], [44.5] * 10, "peak_rss_mb") == (False, False)
    # A base IQR over 20% of its median cannot tell, unless every tree run
    # beats every base run.
    assert gate(wide, wide) == (True, True)
    assert gate(wide, [141.0] * 10) == (True, False)
    assert gate(wide, [141.0] * 9 + [140.0]) == (True, True)


def test_table_has_a_line_per_workload_and_metric():
    tool = load_tool()
    base = runs(frames_per_s=[100.0, 100.0], op_p50_ms=[10.0, 10.0])
    tree = runs(frames_per_s=[110.0, 90.0], op_p50_ms=[8.0, 9.0])
    lines = tool.table({"trace_sweep": tool.compare(base, tree)}).splitlines()
    assert lines[0].split() == ["workload", "metric", "better", "tree/base", "tree", "better",
                                "base", "IQR", "claim", "met", "in", "bound", "unresolved"]
    assert lines[1].split() == ["trace_sweep", "frames_per_s", "higher", "1.0000", "1/2", "seeds",
                                "0", "no", "yes", "no"]
    assert lines[2].split() == ["trace_sweep", "op_p50_ms", "lower", "0.8500", "2/2", "seeds",
                                "0", "yes", "yes", "no"]


def test_src_size_counts_lines_and_bytes_of_the_package_modules(tmp_path):
    tool = load_tool()
    package = tmp_path / "src/uprsim"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts none
    (package / "notes.txt").write_text("not a module\n")
    (tmp_path / "src/other.py").write_text("w = 4\n")
    assert tool.src_size(tmp_path) == {"src_lines": 2, "src_bytes": 17}
    counted = tool.src_size(ROOT)
    files = list((ROOT / "src/uprsim").glob("*.py"))
    assert counted["src_lines"] == sum(len(p.read_text().splitlines()) for p in files)
