"""Closed-loop experiment runner.

Drives a head-motion trace through the mode-specific pipelines (per-frame
face tracking for UPR, scheduler-gated for AAUPR, none for FUPR/DPR),
accounts time against the cost model, and evaluates pointing error against
a target set on the scene plane.

Each mode's geometry is stateless, so it runs as numpy passes over the whole
trace: the flow proxy's exact eye pixels and visibility
(FlowSimulator.project) before the loop, and pointing error over frames x
targets (viewgen.pointing_errors) after it. The closed loop (_run_mode)
between them is sequential and only draws and decides: it owns the
scheduler state, the RNG draws and face-tracker results still pending on
latency, and fills per-frame columns (estimated eye, decision, reason, E,
dE, tracking charge). A mode's result is one ModeRecord of columns;
summaries and CSV writers read those columns. A sweep whose parameter does
not shape the trace builds the trace once and shares it across its cells.

WORLD LAYOUT
============
The scene plane (installed screen) is the world z = 0 plane with normal +z;
the handheld display hovers display_z_world_mm above it, parallel, with the
display frame axes aligned to world axes. The user's eye lives in the
display frame at positive z.

TIMING ACCOUNTING
=================
Per front-camera frame and mode:

    frame_time_ms = render_base_ms + charges arriving this frame

where the charges are flow_ms for every AAUPR frame plus a face-tracking
cost for every invocation. An invocation made at frame k is charged to the
frame where its result arrives (k + noise_latency_frames), and renders from
that frame on. Results due after the trace ends are never rendered, but
their charges are billed to the final frame, so totals always equal
invocations x cost. Tracking time totals count the same charges.

Latency model: an AAUPR recomputation requested at frame k is computed from
frame k's eye, and the scheduler re-anchors on that estimate at frame k
(apply_recalculation), so E from frame k+1 on is measured against it. The
renderer shows the estimate only from frame k + noise_latency_frames on.

Pointing error is evaluated at dwell frames only by default (touches happen
at rest, not mid-motion); set errors_dwell_only = false for every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import scheduler as sched
from .geometry import (
    DisplayModel,
    PinholeCamera,
    RigidTransform,
    ScenePlane,
    back_camera,
    front_camera,
)
from .tracksim import (
    CostModel,
    FaceTracker,
    FlowSimulator,
    Generator,
    HeadTrace,
    TraceSpec,
    eye_points,
    generate_trace,
    read_trace_csv,
)
from .viewgen import FitPolicy, FuprCalibration, RenderMode, fupr_eye, pointing_errors


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


#: Smallest face-tracker jitter sigma (mm) at which AAUPR's mean pointing
#: error drops to or below UPR's on the benchmark trace, aggregated over
#: seeds 1..5. Determined empirically from a seeded jitter sweep; AAUPR
#: benefits because the spatial threshold evicts bad pose draws after one
#: frame while good draws are held, which UPR's per-frame resampling cannot do.
BENCHMARK_JITTER_CROSSOVER_MM = 8.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration. Field names double as the config-file
    keys (one `key = value` per line); see README for the full schema."""

    modes: str = "DPR,UPR,FUPR,AAUPR"
    seed: int = 1

    # Trace: either a generator spec or an external CSV file.
    trace_file: str = ""
    trace_generator: str = "step_move"
    trace_n_frames: int = 0
    trace_frame_rate_hz: float = 15.0
    trace_base_eye_x_mm: float = 0.0
    trace_base_eye_y_mm: float = 0.0
    trace_base_eye_z_mm: float = 150.0
    trace_amplitude_mm: float = 250.0
    trace_depth_amplitude_mm: float = 100.0
    trace_dwell_frames: int = 150
    trace_transition_frames: int = 30
    trace_sway_period_s: float = 4.0

    ipd_mm: float = 63.0

    display_width_mm: float = 109.0
    display_height_mm: float = 61.0
    display_width_px: int = 1080
    display_height_px: int = 608
    display_z_world_mm: float = 300.0

    plane_width_mm: float = 506.0
    plane_height_mm: float = 287.0

    front_cam_fx: float = 250.0
    front_cam_fy: float = 250.0
    front_cam_width_px: int = 640
    front_cam_height_px: int = 480

    back_cam_fx: float = 400.0
    back_cam_fy: float = 400.0
    back_cam_width_px: int = 640
    back_cam_height_px: int = 480
    back_cam_offset_x_mm: float = 45.0
    back_cam_offset_y_mm: float = -25.0
    back_cam_offset_z_mm: float = -8.0

    dpr_fit: str = "stretch"
    fupr_distance_mm: float = 150.0

    threshold_eps_max_px: float = 0.0  # 0 -> 3% of front image diagonal
    threshold_refine_factor: float = 0.1
    threshold_policy: str = "verbatim"
    threshold_decay_rate: float = 0.98
    threshold_eps_min_px: float = 0.0  # 0 -> 0.1 * eps_max
    threshold_metric: str = "max"

    noise_flow_sigma_px: float = 1.0
    noise_drift_px_per_frame: float = 0.05
    noise_p_fail: float = 0.001
    noise_jitter_sigma_mm: float = 5.0
    noise_latency_frames: int = 0

    cost_resolution: str = "640x480"
    cost_face_track_320x240_ms: float = 14.080
    cost_face_track_640x480_ms: float = 30.094
    cost_flow_ms: float = 0.5
    cost_render_base_ms: float = 20.733

    # Semicolon-separated "x,y" pairs, plane-frame mm.
    targets: str = "0,0;150,80;-150,80;150,-80;-150,-80"

    errors_dwell_only: bool = True
    errors_px_per_mm: float = 0.0  # 0 -> report mm only

    # ---- parsing -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse flat `key = value` lines; '#' starts a comment. Unknown
        keys are errors."""
        known = {f.name: f.type for f in fields(cls)}
        values: dict[str, object] = {}
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
            values[key] = checked(f"line {lineno}: {key}", _PARSERS[known[key]], val)
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_text(f.read())

    # ---- derived objects ----------------------------------------------

    def mode_list(self) -> list[RenderMode]:
        out = []
        for name in self.modes.split(","):
            out.append(checked("modes: render mode", RenderMode, name.strip()))
        return out

    def display(self) -> DisplayModel:
        pose = RigidTransform(np.eye(3), [0.0, 0.0, self.display_z_world_mm])
        return checked("display_*", DisplayModel, self.display_width_mm,
                       self.display_height_mm, self.display_width_px,
                       self.display_height_px, pose)

    def plane(self) -> ScenePlane:
        return checked("plane_*", ScenePlane, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                       (self.plane_width_mm, self.plane_height_mm))

    def front_cam(self) -> PinholeCamera:
        return checked("front_cam_*", front_camera, self.front_cam_fx, self.front_cam_fy,
                       self.front_cam_width_px, self.front_cam_height_px)

    def back_cam(self) -> PinholeCamera:
        return checked("back_cam_*", back_camera,
                       (self.back_cam_offset_x_mm, self.back_cam_offset_y_mm,
                        self.back_cam_offset_z_mm),
                       self.back_cam_fx, self.back_cam_fy,
                       self.back_cam_width_px, self.back_cam_height_px)

    def fit_policy(self) -> FitPolicy:
        return checked("dpr_fit", FitPolicy, self.dpr_fit)

    def threshold_config(self) -> sched.ThresholdConfig:
        eps = self.threshold_eps_max_px or sched.epsilon_default(self.front_cam())
        policy = checked("threshold_policy", sched.Policy, self.threshold_policy)
        metric = checked("threshold_metric", sched.EyeMetric, self.threshold_metric)
        return checked("threshold_*", sched.ThresholdConfig,
                       eps_max_px=eps, refine_factor=self.threshold_refine_factor,
                       policy=policy, decay_rate=self.threshold_decay_rate,
                       eps_min_px=self.threshold_eps_min_px or None, metric=metric)

    def cost_model(self) -> CostModel:
        return checked("cost_*", CostModel,
                       face_track_ms={"320x240": self.cost_face_track_320x240_ms,
                                      "640x480": self.cost_face_track_640x480_ms},
                       flow_ms=self.cost_flow_ms, render_base_ms=self.cost_render_base_ms)

    def fupr_calibration(self) -> FuprCalibration:
        return checked("fupr_distance_mm", FuprCalibration, self.fupr_distance_mm)

    def target_points(self) -> np.ndarray:
        pts = []
        for chunk in self.targets.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                x, y = (float(v) for v in chunk.split(","))
            except ValueError:
                raise ConfigError(f"targets: expected 'x,y' pairs, got {chunk!r}")
            pts.append((x, y))
        if not pts:
            raise ConfigError("targets: at least one target required")
        arr = np.array(pts, dtype=float)
        plane = self.plane()
        for x, y in arr:
            if not plane.contains_2d((x, y)):
                raise ConfigError(f"targets: ({x}, {y}) lies outside the plane bounds")
        return arr

    def build_trace(self) -> HeadTrace:
        if self.trace_file:
            return checked("trace_file", read_trace_csv, self.trace_file)
        gen = checked("trace_generator", Generator, self.trace_generator)
        spec = TraceSpec(
            generator=gen, n_frames=self.trace_n_frames,
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
    """make(*args, **kwargs), with a ValueError (GeometryError included)
    raised as a ConfigError that names the config key or CLI flag."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_bool(val: str) -> bool:
    if val.lower() in ("true", "1", "yes"):
        return True
    if val.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {val!r}")


def _parse_float(val: str) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {val!r}")
    return x


#: Config-file value parser per ExperimentConfig field type.
_PARSERS = {"bool": _parse_bool, "int": int, "float": _parse_float, "str": str}


def benchmark_config(**overrides) -> ExperimentConfig:
    """The repo's benchmark large-workspace trace and default geometry:
    two dwell positions 250 mm apart laterally and 100 mm in depth,
    150 dwell frames each, 30 transition frames."""
    return replace(ExperimentConfig(), **overrides)


@dataclass(frozen=True)
class ModeRecord:
    """One mode's run as per-frame columns; row i is trace frame i."""

    mode: str
    decision: np.ndarray                # (F,) str; AAUPR only, empty otherwise
    reason: np.ndarray                  # (F,) str
    e_px: np.ndarray                    # (F,)
    delta_e_px: np.ndarray              # (F,)
    est_eye_mm: np.ndarray              # (F, 3) eye rendered from; NaN for DPR
    true_eye_mm: np.ndarray             # (F, 3)
    errors_mm: np.ndarray               # (F, T); NaN when not evaluated / no-hit
    tracking_charge_ms: np.ndarray      # (F,)
    cumulative_tracking_ms: np.ndarray  # (F,)
    frame_time_ms: np.ndarray           # (F,)

    def __len__(self) -> int:
        return len(self.tracking_charge_ms)


@dataclass(frozen=True)
class Summary:
    mode: str
    mean_error_mm: float
    sd_error_mm: float
    invocations: int
    invocation_fraction: float
    total_tracking_ms: float
    mean_frame_time_ms: float


@dataclass(frozen=True)
class RunResult:
    records: dict[str, ModeRecord]
    summaries: dict[str, Summary]
    trace: HeadTrace


def _proxies(config: ExperimentConfig, mode: RenderMode, front: PinholeCamera,
             face_cost: float, rate_hz: float) -> tuple[FlowSimulator, FaceTracker]:
    """A mode's flow and face-tracker proxies, each on its own seeded stream.
    Only UPR and AAUPR use them."""
    idx = list(RenderMode).index(mode)
    flow = checked("noise_*", FlowSimulator, front, config.noise_flow_sigma_px,
                   config.noise_drift_px_per_frame, config.noise_p_fail,
                   np.random.default_rng([config.seed, idx, 0]))
    face = checked("noise_jitter_sigma_mm", FaceTracker, config.noise_jitter_sigma_mm,
                   face_cost, rate_hz, np.random.default_rng([config.seed, idx, 1]))
    return flow, face


def run(config: ExperimentConfig, trace: HeadTrace | None = None) -> RunResult:
    """Run every configured mode over the configured trace, or over `trace`
    when given (it must be the one config.build_trace() returns). Deterministic
    for a fixed config and seed."""
    modes = config.mode_list()
    if trace is None:
        trace = config.build_trace()
    display = config.display()
    plane = config.plane()
    front = config.front_cam()
    back = config.back_cam()
    fit = config.fit_policy()
    tcfg = config.threshold_config()
    cost = config.cost_model()
    targets_world = plane.from_plane_2d(config.target_points())
    cal_eye = checked("ipd_mm", fupr_eye, config.fupr_calibration(), ipd_mm=config.ipd_mm)
    evaluate = trace.dwell_mask() if config.errors_dwell_only else np.ones(len(trace), bool)
    face_cost = checked("cost_resolution", cost.face_cost, config.cost_resolution)
    if config.noise_latency_frames < 0:
        raise ConfigError("noise_latency_frames: must be nonnegative")
    # Built before any mode runs, so that a bad noise setting fails first.
    proxies = [_proxies(config, mode, front, face_cost, trace.frame_rate_hz) for mode in modes]

    records: dict[str, ModeRecord] = {}
    summaries: dict[str, Summary] = {}
    for mode, (flow_sim, tracker) in zip(modes, proxies):
        cols = _run_mode(mode, config, trace, tcfg, cost, cal_eye, flow_sim, tracker)
        errors = np.full((len(trace), len(targets_world)), np.nan)
        errors[evaluate] = pointing_errors(mode, targets_world, cols["est_eye_mm"][evaluate],
                                           trace.eye_mm[evaluate], display, plane,
                                           back_cam=back, fit=fit)
        charge = cols["tracking_charge_ms"]
        rec = ModeRecord(mode=mode.value, true_eye_mm=trace.eye_mm, errors_mm=errors,
                         cumulative_tracking_ms=np.cumsum(charge),
                         frame_time_ms=cost.render_base_ms + charge, **cols)
        records[mode.value] = rec
        summaries[mode.value] = _summarize(mode, rec)
    return RunResult(records=records, summaries=summaries, trace=trace)


def _run_mode(mode, config, trace, tcfg, cost, cal_eye, flow_sim,
              tracker) -> dict[str, np.ndarray]:
    """Step the closed loop for one mode: flow draws, scheduler, face
    tracker and results pending on latency. Returns the per-frame columns
    the loop owns, keyed by ModeRecord field name."""
    n = len(trace)
    cols = {"decision": np.full(n, "", dtype=object),
            "reason": np.full(n, "", dtype=object),
            "e_px": np.full(n, np.nan),
            "delta_e_px": np.full(n, np.nan),
            "est_eye_mm": np.full((n, 3), np.nan),
            "tracking_charge_ms": np.zeros(n)}
    if mode is RenderMode.FUPR:
        cols["est_eye_mm"][:] = cal_eye.cyclopean_mm
    if mode not in (RenderMode.UPR, RenderMode.AAUPR):
        return cols  # no sensing, no charges

    decision_col, reason_col = cols["decision"], cols["reason"]
    e_col, de_col = cols["e_px"], cols["delta_e_px"]
    est_col, charge = cols["est_eye_mm"], cols["tracking_charge_ms"]
    latency = config.noise_latency_frames

    state = sched.initial_state(tcfg)
    current_est = cal_eye.cyclopean_mm
    pending: list[tuple[int, np.ndarray, float]] = []  # (arrival frame, estimate, charge)
    eyes = eye_points(trace.eye_mm, trace.ipd_mm)
    if mode is RenderMode.AAUPR:
        flow_px, visible = flow_sim.project(eyes)
        visible = visible.tolist()
    for i, t_ms in enumerate(trace.t_ms.tolist()):
        recalculate = mode is RenderMode.UPR
        if not recalculate:
            charge[i] = cost.flow_ms
            meas = flow_sim.measure(flow_px[i], visible[i])
            flow_input = sched.FLOW_FAILURE if meas.failed else meas.eye_px
            decision, state = sched.step(state, flow_input, tcfg)
            decision_col[i] = decision.kind.value
            reason_col[i] = decision.reason.value if decision.reason else ""
            e_col[i], de_col[i] = decision.e_px, decision.delta_e_px
            recalculate = decision.kind is sched.DecisionKind.RECALCULATE
        if recalculate:
            est, c = tracker.track(eyes[i], t_ms)
            if est[0, 2] <= 0:
                raise ConfigError(f"noise_jitter_sigma_mm: frame {i}: estimate behind the panel")
            if mode is RenderMode.AAUPR:
                state = sched.apply_recalculation(state, flow_sim.project(est)[0], tcfg)
                flow_sim.reset_drift()
            pending.append((i + latency, est[0], c))
        # Results whose latency has elapsed arrive, and are billed, now.
        while pending and pending[0][0] <= i:
            _, current_est, c = pending.pop(0)
            charge[i] += c
        est_col[i] = current_est
    # Results due after the trace ends are billed to the final frame.
    for _, _, c in pending:
        charge[-1] += c
    return cols


def _summarize(mode: RenderMode, rec: ModeRecord) -> Summary:
    # Row-major, so the mean sums the same cells in the same order as a
    # reader of the frame CSV.
    errs = rec.errors_mm.ravel()
    errs = errs[~np.isnan(errs)]
    mean_err = float(errs.mean()) if errs.size else float("nan")
    sd_err = float(errs.std(ddof=1)) if errs.size > 1 else float("nan")
    n_frames = len(rec)
    invocations = int(np.count_nonzero(rec.decision == "recalculate")) \
        if mode is RenderMode.AAUPR else (n_frames if mode is RenderMode.UPR else 0)
    return Summary(mode=mode.value, mean_error_mm=mean_err, sd_error_mm=sd_err,
                   invocations=invocations, invocation_fraction=invocations / n_frames,
                   total_tracking_ms=float(rec.cumulative_tracking_ms[-1]),
                   mean_frame_time_ms=float(rec.frame_time_ms.mean()))


# ---- CSV output --------------------------------------------------------

def _fmt(x: float) -> str:
    """Shortest round-tripping text of a float; 'nan' for NaN."""
    return repr(float(x))


def frame_csv_header(n_targets: int) -> str:
    cols = ["frame", "mode", "decision", "reason", "e_px", "delta_e_px",
            "est_eye_x_mm", "est_eye_y_mm", "est_eye_z_mm",
            "true_eye_x_mm", "true_eye_y_mm", "true_eye_z_mm"]
    cols += [f"err_target_{i}_mm" for i in range(n_targets)]
    cols += ["tracking_charge_ms", "cumulative_tracking_ms", "frame_time_ms"]
    return ",".join(cols)


SUMMARY_CSV_HEADER = ("mode,mean_error_mm,sd_error_mm,invocations,"
                      "invocation_fraction,total_tracking_ms,mean_frame_time_ms")


def write_frame_csv(rec: ModeRecord, path) -> None:
    # tolist() gives Python floats, whose str is the repr _fmt writes.
    n = len(rec)
    columns = [range(n), [rec.mode] * n, rec.decision.tolist(), rec.reason.tolist(),
               rec.e_px.tolist(), rec.delta_e_px.tolist(),
               *rec.est_eye_mm.T.tolist(), *rec.true_eye_mm.T.tolist(),
               *rec.errors_mm.T.tolist(), rec.tracking_charge_ms.tolist(),
               rec.cumulative_tracking_ms.tolist(), rec.frame_time_ms.tolist()]
    with open(path, "w", newline="") as f:
        f.write(frame_csv_header(rec.errors_mm.shape[1]) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in zip(*columns))


def _summary_cells(s: Summary) -> list[str]:
    return [s.mode, _fmt(s.mean_error_mm), _fmt(s.sd_error_mm), str(s.invocations),
            _fmt(s.invocation_fraction), _fmt(s.total_tracking_ms),
            _fmt(s.mean_frame_time_ms)]


def write_summary_csv(summaries: dict[str, Summary], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(SUMMARY_CSV_HEADER + "\n")
        for s in summaries.values():
            f.write(",".join(_summary_cells(s)) + "\n")


def write_outputs(result: RunResult, outdir) -> None:
    import os
    os.makedirs(outdir, exist_ok=True)
    for mode, rec in result.records.items():
        write_frame_csv(rec, os.path.join(outdir, f"frames_{mode}.csv"))
    write_summary_csv(result.summaries, os.path.join(outdir, "summary.csv"))


# ---- parameter sweeps --------------------------------------------------

SWEEP_PARAMS = {
    "eps_max": "threshold_eps_max_px",
    "jitter_sigma": "noise_jitter_sigma_mm",
    "head_displacement": "trace_amplitude_mm",
}


def sweep(config: ExperimentConfig, parameter: str, values) -> list[tuple[float, Summary]]:
    """One run per value (same seed per cell); returns (value, Summary) rows
    for every configured mode. Cells share the first cell's trace unless the
    parameter shapes the trace."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {sorted(SWEEP_PARAMS)}")
    values = list(values)
    if not values:
        raise ConfigError("sweep values must be nonempty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    key = SWEEP_PARAMS[parameter]
    # build_trace reads only trace_* keys, ipd_mm and seed.
    shares_trace = not key.startswith("trace_")
    trace = None
    rows: list[tuple[float, Summary]] = []
    for v in values:
        result = run(replace(config, **{key: v}), trace)
        if shares_trace:
            trace = result.trace
        for s in result.summaries.values():
            rows.append((v, s))
    return rows


def write_sweep_csv(rows: list[tuple[float, Summary]], parameter: str, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("parameter,value," + SUMMARY_CSV_HEADER + "\n")
        for v, s in rows:
            f.write(",".join([parameter, _fmt(v)] + _summary_cells(s)) + "\n")
