"""Closed-loop experiment runner.

Drives a head-motion trace through the mode-specific pipelines (per-frame
face tracking for UPR, scheduler-gated for AAUPR, none for FUPR/DPR),
accounts time against the cost model, and evaluates pointing error against
a target set on the scene plane. A run first builds its scene (_Scene): the
trace, threshold config, display, back camera, fit policy, cost model,
world targets, evaluation mask, and AAUPR's front camera and trace projection.
Of the SWEEP_PARAMS keys a scene reads only the trace's and the threshold's,
so sweep cells that share a trace run as one batch (_runs) in one scene,
each cell replacing its threshold config; run is the batch of one config.
A batch takes three steps:
  1. each cell's sensing columns, mode by mode (_run_mode), one cell after
     another in value order, so a cell's error comes before a later cell's;
  2. one pointing_errors pass over every cell's modes on the scene's
     evaluated frames (no row mixes with another);
  3. each cell's records and summaries, built as its run is yielded.
Every mode's draws, closed loop and summary stay its own cell's.

Face tracking is a list of request frames: none for DPR and FUPR, every
frame for UPR, and the frames AAUPR's scheduler recalculates at. A request
gets its frame's true eye plus a jitter draw and costs the face cost; FUPR
renders from its calibration eye, (0, 0, fupr_distance_mm). A mode's result
is one ModeRecord of per-frame columns and one Summary row, keyed by mode
name in a RunResult with the config that ran; the CSV output reads them.

ExperimentConfig is a frozen geometry.Value, declared as the library's value
objects are. A config key's own domain is declared on its field and
checked after finiteness and SCALE (not seed), when a config is built, by
the check_fields loop that the library's value objects use (see geometry);
rules across keys fail where their objects are built, under checked's label.

WORLD LAYOUT
============
The world frame is the scene plane's (installed screen's) frame: the plane
is world z = 0 with normal +z, and plane coordinates are world x and y. The
handheld display hovers display_z_world_mm above it, parallel, its frame's
axes aligned to world axes. The user's eye lives in the display frame at z > 0.

TIMING ACCOUNTING
=================
Per front-camera frame and mode:

    frame_time_ms = cost_render_base_ms + charges arriving this frame

where the charges are flow_ms for every AAUPR frame plus a face-tracking
cost for every invocation. A request made at frame k arrives at frame
k + noise_latency_frames, is charged there, and renders from that frame on:
the estimated-eye column is forward-filled from the arrival frames, and
holds the calibration eye before the first arrival. Results due after the
trace ends are never rendered, but their charges are billed to the final
frame, so totals always equal invocations x cost. Tracking time totals
count the same charges.

Latency model: an AAUPR recomputation requested at frame k is computed from
frame k's eye, and the scheduler re-anchors on that estimate at frame k
(schedule's recompute call), so E from frame k+1 on is measured against it. The
renderer shows the estimate only from frame k + noise_latency_frames on.

Pointing error is evaluated at dwell frames only by default (touches happen
at rest, not mid-motion); set errors_dwell_only = false for every frame.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from dataclasses import fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import scheduler as sched
from .geometry import (
    DisplayModel,
    PinholeCamera,
    RigidTransform,
    ScenePlane,
    Value,
    back_camera,
    check_fields,
    front_camera,
    nonnegative,
    positive,
    within,
)
from .tracksim import (
    MIN_DIVISOR,
    SCALE,
    CostModel,
    FlowSimulator,
    Generator,
    HeadTrace,
    TraceSpec,
    eye_points,
    format_column,
    generate_trace,
    project_eyes,
    read_trace_csv,
    write_csv,
)
from .viewgen import FitPolicy, RenderMode, pointing_errors


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


#: Smallest face-tracker jitter sigma (mm) on demo 04's grid (0, 2, 5, 8, 12,
#: 20) at which AAUPR's mean pointing error over seeds 1..5 is at or below
#: UPR's on the benchmark trace; at 5 it is above, so the exact crossover lies
#: between. AAUPR benefits because the spatial threshold evicts bad pose draws
#: after one frame while good draws are held, which per-frame resampling cannot do.
BENCHMARK_JITTER_CROSSOVER_MM = 8.0


divisor = partial(within, f"at least {MIN_DIVISOR:g}", lambda v: v >= MIN_DIVISOR)


def _distinct_modes(modes: str) -> bool:
    names = [m.strip() for m in modes.split(",")]
    return len(set(names)) == len(names) and set(names) <= RenderMode.__members__.keys()


def _target_pairs(text: str) -> list[tuple[float, ...]]:
    """The float tuples of text's nonblank ';'-separated, ','-split chunks."""
    return [tuple(map(float, chunk.split(","))) for chunk in text.split(";") if chunk.strip()]


def _are_target_pairs(text: str) -> bool:
    try:  # no pairs is an empty set; SCALE fails NaN and inf too
        pairs = _target_pairs(text)
    except ValueError:
        return False
    return set(map(len, pairs)) == {2} and all(SCALE[1](v) for pair in pairs for v in pair)


def _one_of(default, choices):
    names = [c.value for c in choices]
    return within("one of " + ", ".join(names), names.__contains__, default)


class ExperimentConfig(Value):
    """Flat experiment configuration. Field names double as the config-file
    keys (one `key = value` per line); see README for the full schema."""

    modes: str = within("comma-separated distinct render modes (DPR, UPR, FUPR, AAUPR)",
                        _distinct_modes, "DPR,UPR,FUPR,AAUPR")
    seed: int = nonnegative(1)

    # Trace: either a generator spec or an external CSV file.
    trace_file: str = ""
    trace_generator: str = _one_of("step_move", Generator)
    trace_n_frames: int = nonnegative(0)
    trace_frame_rate_hz: float = divisor(15.0)
    trace_base_eye_x_mm: float = 0.0
    trace_base_eye_y_mm: float = 0.0
    trace_base_eye_z_mm: float = 150.0
    trace_amplitude_mm: float = 250.0
    trace_depth_amplitude_mm: float = 100.0
    trace_dwell_frames: int = within("at least 1", lambda v: v >= 1, 150)
    trace_transition_frames: int = within("at least 1", lambda v: v >= 1, 30)
    trace_sway_period_s: float = divisor(4.0)

    ipd_mm: float = nonnegative(63.0)

    display_width_mm: float = divisor(109.0)
    display_height_mm: float = divisor(61.0)
    display_width_px: int = positive(1080)
    display_height_px: int = positive(608)
    display_z_world_mm: float = 300.0

    plane_width_mm: float = positive(506.0)
    plane_height_mm: float = positive(287.0)

    front_cam_fx: float = positive(250.0)
    front_cam_fy: float = positive(250.0)
    front_cam_width_px: int = positive(640)
    front_cam_height_px: int = positive(480)

    back_cam_fx: float = positive(400.0)
    back_cam_fy: float = positive(400.0)
    back_cam_width_px: int = positive(640)
    back_cam_height_px: int = positive(480)
    back_cam_offset_x_mm: float = 45.0
    back_cam_offset_y_mm: float = -25.0
    back_cam_offset_z_mm: float = -8.0

    dpr_fit: str = _one_of("stretch", FitPolicy)
    fupr_distance_mm: float = positive(150.0)

    threshold_eps_max_px: float = nonnegative(0.0)  # 0 -> 3% of front image diagonal
    threshold_refine_factor: float = within("in (0, 1)", lambda v: 0 < v < 1, 0.1)
    threshold_policy: str = _one_of("verbatim", sched.Policy)
    threshold_decay_rate: float = within("in (0, 1]", lambda v: 0 < v <= 1, 0.98)
    threshold_eps_min_px: float = nonnegative(0.0)  # 0 -> 0.1 * eps_max
    threshold_metric: str = _one_of("max", sched.EyeMetric)

    noise_flow_sigma_px: float = nonnegative(1.0)
    noise_drift_px_per_frame: float = nonnegative(0.05)
    noise_p_fail: float = within("in [0, 1]", lambda v: 0 <= v <= 1, 0.001)
    noise_jitter_sigma_mm: float = nonnegative(5.0)
    noise_latency_frames: int = nonnegative(0)

    cost_resolution: str = within("320x240 or 640x480",
                                  lambda v: v in ("320x240", "640x480"), "640x480")
    cost_face_track_320x240_ms: float = nonnegative(14.080)
    cost_face_track_640x480_ms: float = nonnegative(30.094)
    cost_flow_ms: float = nonnegative(0.5)
    cost_render_base_ms: float = nonnegative(20.733)

    # Plane-frame mm.
    targets: str = within(f"one or more x,y float pairs, separated by ';', each {SCALE[0]}",
                          _are_target_pairs, "0,0;150,80;-150,80;150,-80;-150,-80")

    errors_dwell_only: bool = True
    errors_px_per_mm: float = nonnegative(0.0)  # 0 -> report mm only

    def __post_init__(self):
        check_fields(self, ConfigError, SCALE)

    # ---- parsing -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse flat `key = value` lines; '#' starts a comment. Unknown
        and repeated keys are errors."""
        known = {f.name: f.type for f in fields(cls)}
        values: dict[str, object] = {}
        first: dict[str, int] = {}  # the line each key is set on
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
            if key in first:
                raise ConfigError(f"line {lineno}: duplicate config key {key!r} "
                                  f"(first on line {first[key]})")
            first[key] = lineno
            values[key] = checked(f"{key}: line {lineno}", _PARSERS[known[key]], val)
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_text(f.read())

    # ---- derived objects ----------------------------------------------

    def mode_list(self) -> list[RenderMode]:
        return [RenderMode(name.strip()) for name in self.modes.split(",")]

    def display(self) -> DisplayModel:
        pose = RigidTransform(np.eye(3), [0.0, 0.0, self.display_z_world_mm])
        return DisplayModel(self.display_width_mm, self.display_height_mm,
                            self.display_width_px, self.display_height_px, pose)

    def plane(self) -> ScenePlane:
        return ScenePlane((self.plane_width_mm, self.plane_height_mm))

    def back_cam(self) -> PinholeCamera:
        return back_camera((self.back_cam_offset_x_mm, self.back_cam_offset_y_mm,
                            self.back_cam_offset_z_mm), self.back_cam_fx, self.back_cam_fy,
                           self.back_cam_width_px, self.back_cam_height_px)

    def fit_policy(self) -> FitPolicy:
        return FitPolicy(self.dpr_fit)

    def threshold_config(self) -> sched.ThresholdConfig:
        eps = self.threshold_eps_max_px or sched.epsilon_default(self.front_cam_width_px,
                                                                 self.front_cam_height_px)
        return checked("threshold_*", sched.ThresholdConfig, eps, self.threshold_refine_factor,
                       sched.Policy(self.threshold_policy), self.threshold_decay_rate,
                       self.threshold_eps_min_px, sched.EyeMetric(self.threshold_metric))

    def cost_model(self) -> CostModel:
        return CostModel({"320x240": self.cost_face_track_320x240_ms,
                          "640x480": self.cost_face_track_640x480_ms}, self.cost_flow_ms)

    def target_points(self, plane: ScenePlane | None = None) -> np.ndarray:
        """The (T, 2) plane-frame targets, each within the bounds of plane
        (this config's plane when None)."""
        arr = np.array(_target_pairs(self.targets), dtype=float)
        plane = plane or self.plane()
        for x, y in arr:
            if not plane.contains_2d((x, y)):
                raise ConfigError(f"targets: ({x}, {y}) lies outside the plane bounds")
        return arr

    def build_trace(self) -> HeadTrace:
        if self.trace_file:
            return checked("trace_file", read_trace_csv, self.trace_file)
        spec = TraceSpec(
            generator=Generator(self.trace_generator), n_frames=self.trace_n_frames,
            frame_rate_hz=self.trace_frame_rate_hz,
            base_eye_mm=(self.trace_base_eye_x_mm, self.trace_base_eye_y_mm,
                         self.trace_base_eye_z_mm),
            ipd_mm=self.ipd_mm, amplitude_mm=self.trace_amplitude_mm,
            depth_amplitude_mm=self.trace_depth_amplitude_mm,
            dwell_frames=self.trace_dwell_frames,
            transition_frames=self.trace_transition_frames,
            sway_period_s=self.trace_sway_period_s, seed=self.seed)
        return checked("trace_*", generate_trace, spec)


def checked(key: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError (GeometryError included) or
    an OSError raised as a ConfigError that names the config key or CLI flag."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_bool(val: str) -> bool:
    if val.lower() in ("true", "1", "yes"):
        return True
    if val.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {val!r}")


#: Config-file value parser per ExperimentConfig field type.
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


class ModeRecord(NamedTuple):
    """One mode's run as per-frame columns; row i is trace frame i."""

    requests: np.ndarray            # (R,) int, ascending: face-tracker request frames
    reason: np.ndarray              # (F,) str; AAUPR's recalculations only, empty otherwise
    e_px: np.ndarray                # (F,)
    delta_e_px: np.ndarray          # (F,)
    est_eye_mm: np.ndarray          # (F, 3) eye rendered from; NaN for DPR
    errors_mm: np.ndarray           # (F, T); NaN when not evaluated / no-hit
    tracking_charge_ms: np.ndarray  # (F,) charges arriving at the frame


class Summary(NamedTuple):
    mode: str
    mean_error_mm: float
    sd_error_mm: float
    invocations: int
    invocation_fraction: float
    total_tracking_ms: float
    mean_frame_time_ms: float


class RunResult(NamedTuple):
    records: dict[str, ModeRecord]
    summaries: dict[str, Summary]
    trace: HeadTrace
    config: ExperimentConfig  # the config that ran


class _Scene(NamedTuple):
    """A run's config-derived objects (see the module doc); AAUPR's are None without it."""

    trace: HeadTrace
    threshold: sched.ThresholdConfig
    display: DisplayModel
    back_cam: PinholeCamera
    fit: FitPolicy
    cost: CostModel
    targets_world: np.ndarray  # (T, 3)
    evaluate: np.ndarray       # (F,) bool: the frames whose pointing error is evaluated
    front_cam: PinholeCamera | None
    projection: tuple | None   # (F, 2, 3) eyes; their pixel rows and visibility as lists


def _scene(config: ExperimentConfig) -> _Scene:
    # A bad config raises the trace's error first, then the threshold_* keys',
    # then the targets'.
    trace, threshold = config.build_trace(), config.threshold_config()
    plane, front, projection = config.plane(), None, None
    if "AAUPR" in config.modes:  # no other mode's name holds it
        front = front_camera(config.front_cam_fx, config.front_cam_fy,
                             config.front_cam_width_px, config.front_cam_height_px)
        eyes = eye_points(trace.eye_mm, trace.ipd_mm)
        flow_px, visible = project_eyes(front, eyes)
        projection = eyes, flow_px.tolist(), visible.tolist()
    return _Scene(trace, threshold, config.display(), config.back_cam(),
                  config.fit_policy(), config.cost_model(),
                  plane.from_plane_2d(config.target_points(plane)),
                  trace.dwell_mask() if config.errors_dwell_only else np.ones(len(trace), bool),
                  front, projection)


def run(config: ExperimentConfig) -> RunResult:
    """Run every configured mode over the configured trace; deterministic for a
    fixed config and seed. The batch of one config."""
    return next(_runs([config]))


def _runs(configs) -> Iterator[RunResult]:
    """The runs of the (nonempty) configs, in order, as one batch: each
    config after the first runs in the first one's scene with its own
    threshold config, so all must agree in every other key a scene reads.
    The three steps are the module doc's."""
    cells: deque = deque()
    for config in configs:
        scene = scene._replace(threshold=config.threshold_config()) if cells else _scene(config)
        modes = config.mode_list()
        cells.append((config, modes, [_run_mode(mode, config, scene) for mode in modes]))
    trace, evaluate, targets_world = scene.trace, scene.evaluate, scene.targets_world
    # No row mixes with another, so each is its stand-alone run's bit for bit.
    errors = iter(pointing_errors(
        [mode for _, modes, _ in cells for mode in modes], targets_world,
        [c["est_eye_mm"][evaluate] for _, _, cols in cells for c in cols],
        trace.eye_mm[evaluate], scene.display, scene.back_cam, fit=scene.fit))
    while cells:  # popped, so only its consumer keeps a yielded run
        config, modes, cols = cells.popleft()
        records: dict[str, ModeRecord] = {}
        summaries: dict[str, Summary] = {}
        for mode, c in zip(modes, cols):
            errors_mm = np.full((len(trace), len(targets_world)), np.nan)
            errors_mm[evaluate] = next(errors)
            records[mode.value] = rec = ModeRecord(errors_mm=errors_mm, **c)
            summaries[mode.value] = _summarize(mode.value, rec, config.cost_render_base_ms)
        yield RunResult(records=records, summaries=summaries, trace=trace, config=config)


def _run_mode(mode, config, scene) -> dict[str, np.ndarray]:
    """One mode's sensing columns, keyed by ModeRecord field name. UPR
    requests a face-tracker result on every frame; AAUPR's closed loop
    (sched.schedule over the flow stream's measurements, re-anchoring with
    its project_frame) runs on Python floats over the scene's projection,
    and chooses its request frames. One pass over the requests then builds
    the estimate and charge columns."""
    trace, cost = scene.trace, scene.cost
    n = len(trace)
    cal_eye = (0.0, 0.0, config.fupr_distance_mm)
    cols = {"requests": np.arange(0),
            "reason": np.full(n, "", dtype=object),
            "e_px": np.full(n, np.nan),
            "delta_e_px": np.full(n, np.nan),
            "est_eye_mm": np.full((n, 3), np.nan),
            "tracking_charge_ms": np.zeros(n)}
    if mode is RenderMode.FUPR:
        cols["est_eye_mm"][:] = cal_eye
    if mode not in (RenderMode.UPR, RenderMode.AAUPR):
        return cols  # no sensing, no charges

    idx = list(RenderMode).index(mode)  # each mode draws from its own streams
    # Request k's jitter, in one draw equal to n sequential size-3 draws; +0.0
    # at sigma 0. abs: the key's domain admits -0.0, which normal rejects.
    offsets = np.random.default_rng([config.seed, idx, 1]).normal(
        0.0, abs(config.noise_jitter_sigma_mm), size=(n, 3))
    charge = cols["tracking_charge_ms"]
    if mode is RenderMode.UPR:
        requests = np.arange(n)
    else:
        charge[:] = cost.flow_ms
        eyes, flow_px, visible = scene.projection
        # Lazy, so frame i + 1's draws follow frame i's reset_drift.
        flows, reset_drift, project_frame = FlowSimulator(
            scene.front_cam, config.noise_flow_sigma_px, config.noise_drift_px_per_frame,
            config.noise_p_fail, np.random.default_rng([config.seed, idx, 0])
        ).stream(flow_px, visible)

        def recompute(i, k):
            # eyes[i] + offsets[k], added on Python floats.
            (lx, ly, lz), (rx, ry, rz) = eyes[i].tolist()
            ox, oy, oz = offsets[k].tolist()
            reset_drift()  # draws; project_frame does not
            return project_frame(((lx + ox, ly + oy, lz + oz), (rx + ox, ry + oy, rz + oz)))

        reasons, cols["e_px"][:], cols["delta_e_px"][:], recalcs = sched.schedule(
            flows, scene.threshold, recompute)
        cols["reason"][:] = ["" if r is None else r._value_ for r in reasons]
        requests = np.array(recalcs, dtype=int)

    cols["requests"] = requests
    est = trace.eye_mm[requests] + offsets[:len(requests)]
    behind = est[:, 2] <= 0
    if behind.any():
        raise ConfigError(f"noise_jitter_sigma_mm: frame {requests[np.argmax(behind)]}: "
                          "estimate behind the panel")
    arrival = requests + config.noise_latency_frames
    # Unbuffered and in request order, so each frame sums as a queue would.
    np.add.at(charge, np.minimum(arrival, n - 1), cost.face_cost(config.cost_resolution))
    # Frame j renders the latest estimate arrived by j; arrivals ascend.
    latest = np.searchsorted(arrival, np.arange(n), side="right") - 1
    cols["est_eye_mm"][:] = np.where(latest[:, None] >= 0, est[latest], cal_eye)
    return cols


def _summarize(mode: str, rec: ModeRecord, render_base_ms: float) -> Summary:
    # Row-major, so the mean sums the same cells in the same order as a
    # reader of the frame CSV; the tracking total is its last cumulative cell.
    errs = rec.errors_mm.ravel()
    errs = errs[~np.isnan(errs)]
    mean_err = float(errs.mean()) if errs.size else float("nan")
    sd_err = float(errs.std(ddof=1)) if errs.size > 1 else float("nan")
    charge, invocations = rec.tracking_charge_ms, len(rec.requests)
    return Summary(mode=mode, mean_error_mm=mean_err, sd_error_mm=sd_err,
                   invocations=invocations, invocation_fraction=invocations / len(charge),
                   total_tracking_ms=float(np.cumsum(charge)[-1]),
                   mean_frame_time_ms=float((render_base_ms + charge).mean()))


# ---- CSV output --------------------------------------------------------

SUMMARY_CSV_HEADER = ",".join(Summary._fields)


def write_outputs(result: RunResult, outdir) -> None:
    """frames_<mode>.csv per mode and summary.csv in outdir."""
    os.makedirs(outdir, exist_ok=True)
    n, base = len(result.trace), result.config.cost_render_base_ms
    # The frame and true-eye columns are every mode's: format them once;
    # write_csv passes their text through.
    frame, *true_eye = map(format_column, [range(n), *result.trace.eye_mm.T])
    for mode, rec in result.records.items():
        charge = rec.tracking_charge_ms
        decision = (["recalculate" if r else "skip" for r in rec.reason.tolist()]
                    if mode == RenderMode.AAUPR.value else [""] * n)
        columns = {"frame": frame, "mode": [mode] * n, "decision": decision,
                   "reason": rec.reason, "e_px": rec.e_px, "delta_e_px": rec.delta_e_px,
                   **{f"est_eye_{a}_mm": c for a, c in zip("xyz", rec.est_eye_mm.T)},
                   **{f"true_eye_{a}_mm": c for a, c in zip("xyz", true_eye)},
                   **{f"err_target_{i}_mm": c for i, c in enumerate(rec.errors_mm.T)},
                   "tracking_charge_ms": charge,
                   "cumulative_tracking_ms": np.cumsum(charge),
                   "frame_time_ms": base + charge}
        write_csv(os.path.join(outdir, f"frames_{mode}.csv"), ",".join(columns),
                  columns.values())
    write_csv(os.path.join(outdir, "summary.csv"), SUMMARY_CSV_HEADER,
              zip(*result.summaries.values()))


# ---- parameter sweeps --------------------------------------------------

SWEEP_PARAMS = {
    "eps_max": "threshold_eps_max_px",
    "jitter_sigma": "noise_jitter_sigma_mm",
    "head_displacement": "trace_amplitude_mm",
}


def sweep(config: ExperimentConfig, parameter: str, values) -> list[tuple[float, Summary]]:
    """One run per value (same seed per cell); returns (value, Summary) rows
    for every configured mode. Unless the parameter shapes the trace, every
    cell runs in one batch, in the first cell's scene with its own threshold
    config. A trace that reads no amplitude cannot sweep it (a ConfigError)."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {sorted(SWEEP_PARAMS)}")
    values = list(values)
    if not values:
        raise ConfigError("sweep values must be nonempty")
    key = SWEEP_PARAMS[parameter]
    source = "trace_file" if config.trace_file else config.trace_generator
    if key == "trace_amplitude_mm" and source in ("trace_file", Generator.STATIONARY.value):
        raise ConfigError(f"{parameter}: a {source} trace does not read {key}")
    cells = (replace(config, **{key: v}) for v in values)
    # build_trace reads only trace_* keys, ipd_mm and seed.
    batches = ([cell] for cell in cells) if key.startswith("trace_") else [cells]
    runs = (result for batch in batches for result in _runs(batch))
    return [(v, s) for v, result in zip(values, runs) for s in result.summaries.values()]


def write_sweep_csv(rows: list[tuple[float, Summary]], parameter: str, path) -> None:
    write_csv(path, "parameter,value," + SUMMARY_CSV_HEADER,
              [[parameter] * len(rows), [float(v) for v, _ in rows],
               *zip(*(s for _, s in rows))])
