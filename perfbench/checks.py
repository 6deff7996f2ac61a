"""Output checks. None of this runs inside a timed region.

Every op's output directory is digested and compared byte for byte with the
reference op of the same input (its untimed warm-up). The reference itself
gets the semantic checks below, so every op's output is checked.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from pathlib import Path

import numpy as np

from uprsim.geometry import EyeState
from uprsim.harness import ExperimentConfig
from uprsim.viewgen import RenderMode, pointing_error

#: Frame-CSV error cells recomputed per mode with the scalar pointing_error.
SAMPLES_PER_MODE = 40
ERROR_TOL_MM = 1e-9

# The output CSV schemas, as README documents them.
SUMMARY_CSV_HEADER = ("mode,mean_error_mm,sd_error_mm,invocations,"
                      "invocation_fraction,total_tracking_ms,mean_frame_time_ms")


def frame_csv_header(n_targets: int) -> str:
    return ",".join(
        ["frame", "mode", "decision", "reason", "e_px", "delta_e_px",
         "est_eye_x_mm", "est_eye_y_mm", "est_eye_z_mm",
         "true_eye_x_mm", "true_eye_y_mm", "true_eye_z_mm"]
        + [f"err_target_{i}_mm" for i in range(n_targets)]
        + ["tracking_charge_ms", "cumulative_tracking_ms", "frame_time_ms"])


def digest(outdir: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir())


def _rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return list(reader.fieldnames or []), list(reader)


#: numpy 2 scalars pass harness._fmt's float test and are written with their
#: repr, "np.float64(<repr>)"; the inner repr still holds every digit.
NP_REPR = "np.float64("


def _float(text: str) -> float:
    if text.startswith(NP_REPR) and text.endswith(")"):
        text = text[len(NP_REPR):-1]
    return float(text)


def np_repr_cells(outdir: Path) -> int:
    """Cells written as numpy scalar reprs instead of plain floats."""
    return sum(p.read_text().count(NP_REPR) for p in outdir.iterdir())


def _eye(row: dict[str, str], prefix: str, ipd_mm: float) -> EyeState | None:
    xyz = [_float(row[f"{prefix}_{a}_mm"]) for a in "xyz"]
    return None if any(math.isnan(v) for v in xyz) else EyeState.from_cyclopean(xyz, ipd_mm)


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= ERROR_TOL_MM


def check_simulate(inp, outdir: Path, rng: random.Random) -> list[str]:
    """frames_<mode>.csv for each mode plus summary.csv; sampled error cells
    match the scalar pointing_error; summary means match the frame CSVs."""
    cfg = ExperimentConfig.from_file(inp.config_path)
    display, plane, back, fit = cfg.display(), cfg.plane(), cfg.back_cam(), cfg.fit_policy()
    targets = plane.from_plane_2d(cfg.target_points())
    expected = {f"frames_{m}.csv" for m in inp.modes} | {"summary.csv"}
    found = {p.name for p in outdir.iterdir()}
    if found != expected:
        return [f"output files {sorted(found)}, expected {sorted(expected)}"]

    problems = []
    means = {}
    for mode_name in inp.modes:
        mode = RenderMode(mode_name)
        header, rows = _rows(outdir / f"frames_{mode_name}.csv")
        if ",".join(header) != frame_csv_header(len(targets)):
            problems.append(f"{mode_name}: unexpected frame CSV header")
            continue
        if len(rows) != inp.n_frames:
            problems.append(f"{mode_name}: {len(rows)} frame rows, expected {inp.n_frames}")
        cells = [(r, t, float(row[f"err_target_{t}_mm"]))
                 for r, row in enumerate(rows) for t in range(len(targets))]
        errs = np.array([e for _, _, e in cells])
        errs = errs[~np.isnan(errs)]
        means[mode_name] = float(errs.mean()) if errs.size else float("nan")
        evaluated = [c for c in cells if not math.isnan(c[2])]
        for r, t, err in rng.sample(evaluated, min(SAMPLES_PER_MODE, len(evaluated))):
            est = _eye(rows[r], "est_eye", cfg.ipd_mm)
            true = _eye(rows[r], "true_eye", cfg.ipd_mm)
            ref = pointing_error(mode, targets[t], est, true, display, plane,
                                 back_cam=back, fit=fit)
            if not abs(ref - err) <= ERROR_TOL_MM:
                problems.append(f"{mode_name} frame {r} target {t}: "
                                f"CSV {err!r}, scalar pointing_error {ref!r}")

    header, rows = _rows(outdir / "summary.csv")
    if ",".join(header) != SUMMARY_CSV_HEADER:
        return problems + ["unexpected summary CSV header"]
    if [row["mode"] for row in rows] != list(inp.modes):
        problems.append(f"summary modes {[row['mode'] for row in rows]}")
    for row in rows:
        mean = float(row["mean_error_mm"])
        if row["mode"] in means and not _same(mean, means[row["mode"]]):
            problems.append(f"{row['mode']}: summary mean {mean!r}, "
                            f"frame CSV mean {means[row['mode']]!r}")
    return problems


def check_sweep(inp, outdir: Path) -> list[str]:
    """sweep.csv holds one row per (value, mode) for the swept parameter."""
    found = sorted(p.name for p in outdir.iterdir())
    if found != ["sweep.csv"]:
        return [f"output files {found}, expected ['sweep.csv']"]
    header, rows = _rows(outdir / "sweep.csv")
    if ",".join(header) != "parameter,value," + SUMMARY_CSV_HEADER:
        return ["unexpected sweep CSV header"]
    expected = [(v, m) for v in inp.sweep_values for m in inp.modes]
    got = [(float(row["value"]), row["mode"]) for row in rows]
    if got != expected:
        return [f"sweep rows {len(got)} (value, mode) pairs, expected "
                f"{len(inp.sweep_values)} x {len(inp.modes)}"]
    if any(row["parameter"] != "eps_max" for row in rows):
        return ["sweep rows name another parameter"]
    return []


def check_reference(inp, outdir: Path, rng: random.Random) -> list[str]:
    try:
        if inp.command == "simulate":
            return check_simulate(inp, outdir, rng)
        return check_sweep(inp, outdir)
    except (ValueError, KeyError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def unbilled_ms(inp, outdir: Path) -> float:
    """Face-tracking time owed but not billed: invocations x face cost
    (plus flow cost for AAUPR) minus total_tracking_ms, summed over summary
    rows. Nonzero when an invocation on the final frame is never billed."""
    cfg = ExperimentConfig.from_file(inp.config_path)
    face = cfg.cost_model().face_cost(cfg.cost_resolution)
    name = "summary.csv" if inp.command == "simulate" else "sweep.csv"
    total = 0.0
    for row in _rows(outdir / name)[1]:
        owed = int(row["invocations"]) * face
        if row["mode"] == RenderMode.AAUPR.value:
            owed += inp.n_frames * cfg.cost_flow_ms
        total += owed - float(row["total_tracking_ms"])
    # Summation order differs from the harness's running total; round the
    # ~1e-11 ms of float noise away so the count repeats exactly.
    return round(total, 6) + 0.0
