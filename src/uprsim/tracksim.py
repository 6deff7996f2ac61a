"""Synthetic sensing stack: head-motion traces (validated columns with no
device pose, since the display is fixed above the scene), a flow-based eye
tracker proxy (noisy projections of the two eye points, standing in for
sparse feature tracking), a costed and jittered 3D face-tracker proxy, and
the per-invocation cost model. Eye points are (..., 3, 3) arrays
(eye_points). The flow proxy projects a whole trace's eyes in one batch
pass (FlowSimulator.project); its per-frame measure only draws.

Everything is deterministic for a fixed seed. With all noise, drift and
failure parameters at zero the stack reproduces ground truth exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import PinholeCamera, project_pinhole

DEFAULT_FRAME_RATE_HZ = 15.0  # front-camera hardware limit


class Generator(enum.Enum):
    STATIONARY = "stationary"
    STEP_MOVE = "step_move"
    SWAY = "sway"
    RANDOM_WALK = "random_walk"


class TraceError(ValueError):
    """A head trace breaks an invariant at one frame; args are (frame, reason)."""

    def __str__(self) -> str:
        return "frame %d: %s" % self.args


@dataclass(frozen=True)
class HeadTrace:
    """Per-frame columns: t_ms (F,), eye_mm (F, 3) cyclopean eye in the
    display frame, ipd_mm (F,). The arrays are read-only."""

    t_ms: np.ndarray
    eye_mm: np.ndarray
    ipd_mm: np.ndarray
    frame_rate_hz: float

    def __post_init__(self):
        for name in ("t_ms", "eye_mm", "ipd_mm"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        t, eye, ipd = self.t_ms, self.eye_mm, self.ipd_mm
        if len(t) == 0:
            raise ValueError("trace must contain at least one frame")
        dt = np.diff(t)
        checks = [
            (~np.isfinite(np.column_stack([t, eye, ipd])).all(axis=1), "values must be finite"),
            (eye[:, 2] <= 0, "eye must be in front of the panel (z > 0)"),
            (ipd < 0, "ipd_mm must be nonnegative"),
            (np.r_[False, dt <= 0], "timestamps must be strictly increasing"),
            (np.r_[False, np.abs(dt - 1000.0 / self.frame_rate_hz) > 1e-6],
             "frame spacing inconsistent with frame rate"),
        ]
        for bad, reason in checks:
            if bad.any():
                raise TraceError(int(np.argmax(bad)), reason)

    def __len__(self) -> int:
        return len(self.t_ms)

    def dwell_mask(self, tol_mm: float = 0.5) -> np.ndarray:
        """Frames where the head is effectively at rest relative to the
        device, derived from the trace data itself (a frame dwells when the
        eye moved less than tol_mm since the previous frame)."""
        still = np.linalg.norm(np.diff(self.eye_mm, axis=0), axis=1) <= tol_mm
        mask = np.empty(len(self), dtype=bool)
        mask[1:] = still
        mask[0] = still[0] if len(still) else True
        return mask


def eye_points(eye_mm, ipd_mm) -> np.ndarray:
    """(..., 3, 3) eye points, rows cyclopean, left, right: the eyes split
    symmetrically along the display x-axis, as EyeState.from_cyclopean
    splits them."""
    c = np.asarray(eye_mm, dtype=float)
    half = np.multiply.outer(np.asarray(ipd_mm) / 2.0, [1.0, 0.0, 0.0])
    return np.stack([c, c - half, c + half], axis=-2)


@dataclass(frozen=True)
class TraceSpec:
    generator: Generator
    n_frames: int = 0  # derived for step_move when 0
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ
    base_eye_mm: tuple[float, float, float] = (0.0, 0.0, 300.0)
    ipd_mm: float = 63.0
    amplitude_mm: float = 200.0      # lateral travel (step_move, sway) / step sigma
    depth_amplitude_mm: float = 0.0  # additional travel along display z (step_move)
    dwell_frames: int = 50
    transition_frames: int = 20
    sway_period_s: float = 4.0
    seed: int = 0


def _smoothstep(x: np.ndarray) -> np.ndarray:
    return x * x * (3.0 - 2.0 * x)


def generate_trace(spec: TraceSpec) -> HeadTrace:
    """Deterministic synthetic head-motion trace per the generator spec."""
    if not spec.frame_rate_hz > 0:
        raise ValueError("frame rate must be positive")
    base = np.asarray(spec.base_eye_mm, dtype=float)

    if spec.generator is Generator.STEP_MOVE:
        # Dwell at the base pose, transition, dwell at the displaced pose.
        n = spec.n_frames or (2 * spec.dwell_frames + spec.transition_frames)
        if spec.dwell_frames < 1 or spec.transition_frames < 1:
            raise ValueError("step_move needs at least one dwell and transition frame")
        offset = np.array([spec.amplitude_mm, 0.0, spec.depth_amplitude_mm])
        frac = np.zeros(n)
        t0, t1 = spec.dwell_frames, spec.dwell_frames + spec.transition_frames
        frac[t0:t1] = _smoothstep((np.arange(t0, min(t1, n)) - t0 + 1) / spec.transition_frames)
        frac[t1:] = 1.0
        positions = base + np.outer(frac, offset)
    elif spec.generator is Generator.STATIONARY:
        n = _require_frames(spec)
        positions = np.tile(base, (n, 1))
    elif spec.generator is Generator.SWAY:
        n = _require_frames(spec)
        t_s = np.arange(n) / spec.frame_rate_hz
        x = spec.amplitude_mm * np.sin(2.0 * np.pi * t_s / spec.sway_period_s)
        positions = base + np.outer(x, [1.0, 0.0, 0.0])
    elif spec.generator is Generator.RANDOM_WALK:
        n = _require_frames(spec)
        rng = np.random.default_rng(spec.seed)
        steps = rng.normal(0.0, spec.amplitude_mm, size=(n - 1, 3)) if n > 1 else np.zeros((0, 3))
        positions = base + np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
        positions[:, 2] = np.maximum(positions[:, 2], 50.0)  # stay in front of the panel
    else:
        raise ValueError(f"unknown generator {spec.generator}")

    n = len(positions)
    return HeadTrace(t_ms=np.arange(n) * (1000.0 / spec.frame_rate_hz), eye_mm=positions,
                     ipd_mm=np.full(n, spec.ipd_mm), frame_rate_hz=spec.frame_rate_hz)


def _require_frames(spec: TraceSpec) -> int:
    if spec.n_frames <= 0:
        raise ValueError("n_frames must be positive for this generator")
    return spec.n_frames


TRACE_CSV_HEADER = ("frame,t_ms,eye_x_mm,eye_y_mm,eye_z_mm,ipd_mm,"
                    "dev_qw,dev_qx,dev_qy,dev_qz,dev_tx_mm,dev_ty_mm,dev_tz_mm")


#: The dev_* columns: the identity pose, the only one a trace may hold.
IDENTITY_POSE = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def write_trace_csv(trace: HeadTrace, path) -> None:
    """Full-precision CSV export (floats via repr, so import round-trips)."""
    # tolist() gives Python floats, whose str is their repr.
    rows = np.column_stack([trace.t_ms, trace.eye_mm, trace.ipd_mm]).tolist()
    with open(path, "w", newline="") as f:
        f.write(TRACE_CSV_HEADER + "\n")
        f.writelines(",".join(map(str, [i, *row, *IDENTITY_POSE])) + "\n"
                     for i, row in enumerate(rows))


def read_trace_csv(path) -> HeadTrace:
    """Errors name the file line of the first offending row."""
    n_cols = TRACE_CSV_HEADER.count(",") + 1
    lines, rows = [], []
    with open(path) as f:
        header = f.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise ValueError(f"unexpected trace CSV header: {header!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            vals = line.split(",")
            if len(vals) != n_cols:
                raise ValueError(f"line {lineno}: expected {n_cols} values, got {len(vals)}")
            rows.append([float(v) for v in vals])
            lines.append(lineno)
    data = np.array(rows).reshape(-1, n_cols)
    for bad, reason in [
            (~np.isfinite(data).all(axis=1), "values must be finite"),
            (np.any(data[:, 6:] != IDENTITY_POSE, axis=1), "dev_* pose must be the identity")]:
        if bad.any():
            raise ValueError(f"line {lines[np.argmax(bad)]}: {reason}")
    t = data[:, 1]
    rate = 1000.0 / (t[1] - t[0]) if len(t) > 1 and t[1] > t[0] else DEFAULT_FRAME_RATE_HZ
    try:
        return HeadTrace(t_ms=t, eye_mm=data[:, 2:5], ipd_mm=data[:, 5], frame_rate_hz=rate)
    except TraceError as exc:
        frame, reason = exc.args
        raise ValueError(f"line {lines[frame]}: {reason}") from None


@dataclass(frozen=True)
class FlowMeasurement:
    """Flow-tracked eye pixels for one front-camera frame, or a failure."""

    eye_px: np.ndarray | None  # (2, 2): rows left/right, or None on failure

    @property
    def failed(self) -> bool:
        return self.eye_px is None


class FlowSimulator:
    """Stand-in for sparse feature tracking of the two eye points.

    project gives the exact front-camera pixels of the eyes and whether the
    camera sees both; it is stateless, so it runs over any number of frames
    at once. measure then turns one frame's exact pixels into a measurement:
    tracking fails with probability p_fail per frame, and always fails when
    an eye is out of view; otherwise it adds accumulated drift (a slowly
    growing bias in a per-segment random direction, reset on every pose
    recomputation) and i.i.d. Gaussian pixel noise.
    """

    def __init__(self, front_cam: PinholeCamera, noise_sigma_px: float = 0.0,
                 drift_px_per_frame: float = 0.0, p_fail: float = 0.0,
                 rng: np.random.Generator | None = None):
        for name, value in (("noise_sigma_px", noise_sigma_px),
                            ("drift_px_per_frame", drift_px_per_frame)):
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if not 0 <= p_fail <= 1:
            raise ValueError(f"p_fail must be in [0, 1], got {p_fail}")
        self.front_cam = front_cam
        self.noise_sigma_px = noise_sigma_px
        self.drift_px_per_frame = drift_px_per_frame
        self.p_fail = p_fail
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._drift_frames = 0
        self._drift_dir = self._new_drift_dir()

    def _new_drift_dir(self) -> np.ndarray:
        theta = self.rng.uniform(0.0, 2.0 * np.pi)
        return np.array([np.cos(theta), np.sin(theta)])

    def reset_drift(self) -> None:
        """Called when the pose recomputation re-initializes motion estimation."""
        self._drift_frames = 0
        self._drift_dir = self._new_drift_dir()

    def project(self, eyes) -> tuple[np.ndarray, np.ndarray]:
        """Exact front-camera pixels of the left and right eyes of (..., 3, 3)
        eye points, as (..., 2, 2), and a (...,) mask: both eyes in front of
        the camera and inside the image. An eye behind the camera projects
        as NaN, which no bounds test passes."""
        cam = self.front_cam
        pts = cam.extrinsic.apply(np.asarray(eyes, dtype=float)[..., 1:, :])
        px = project_pinhole(cam, np.where(pts[..., 2:] > 0, pts, np.nan))
        return px, cam.contains(px).all(axis=-1)

    def measure(self, px: np.ndarray, visible: bool) -> FlowMeasurement:
        """One frame's measurement from its exact (2, 2) pixels and
        visibility, as project returns them. Draws from the rng only for a
        visible frame: the failure draw, then the noise."""
        if not visible:
            return FlowMeasurement(None)
        if self.p_fail > 0 and self.rng.random() < self.p_fail:
            return FlowMeasurement(None)
        self._drift_frames += 1
        drift = self._drift_dir * (self.drift_px_per_frame * self._drift_frames)
        px = px + drift
        if self.noise_sigma_px > 0:
            px = px + self.rng.normal(0.0, self.noise_sigma_px, size=px.shape)
        return FlowMeasurement(px)


class RateCeilingError(RuntimeError):
    """Face tracker invoked faster than its rate ceiling allows."""


class FaceTracker:
    """Costed, jittered stand-in for 3D face tracking.

    Returns the true eye points, (3, 3), rigidly displaced by one isotropic
    Gaussian draw. Each invocation charges cost_ms; invocations are
    bounded by max_rate_hz against the supplied timestamps.
    """

    def __init__(self, jitter_sigma_mm: float = 5.0, cost_ms: float = 30.094,
                 max_rate_hz: float = DEFAULT_FRAME_RATE_HZ,
                 rng: np.random.Generator | None = None):
        if not jitter_sigma_mm >= 0:
            raise ValueError(f"jitter_sigma_mm must be nonnegative, got {jitter_sigma_mm}")
        self.jitter_sigma_mm = jitter_sigma_mm
        self.cost_ms = cost_ms
        self.max_rate_hz = max_rate_hz
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._last_t_ms: float | None = None

    def track(self, eyes: np.ndarray, t_ms: float) -> tuple[np.ndarray, float]:
        min_dt = 1000.0 / self.max_rate_hz
        if self._last_t_ms is not None and (t_ms - self._last_t_ms) < min_dt - 1e-9:
            raise RateCeilingError(
                f"face tracker invoked after {t_ms - self._last_t_ms:.3f} ms, "
                f"ceiling requires >= {min_dt:.3f} ms")
        self._last_t_ms = t_ms
        if self.jitter_sigma_mm > 0:
            offset = self.rng.normal(0.0, self.jitter_sigma_mm, size=3)
        else:
            offset = np.zeros(3)
        return eyes + offset, self.cost_ms


@dataclass(frozen=True)
class CostModel:
    """Per-invocation timing charges, anchored to measured per-frame means.

    face_track_ms is keyed by front-camera resolution tier ("WxH").
    """

    face_track_ms: dict[str, float] = field(
        default_factory=lambda: {"320x240": 14.080, "640x480": 30.094})
    flow_ms: float = 0.5
    render_base_ms: float = 20.733

    def __post_init__(self):
        if any(v < 0 for v in self.face_track_ms.values()):
            raise ValueError("face_track_ms entries must be nonnegative")
        if self.flow_ms < 0 or self.render_base_ms < 0:
            raise ValueError(f"flow_ms ({self.flow_ms}) and render_base_ms "
                             f"({self.render_base_ms}) must be nonnegative")

    def face_cost(self, resolution: str) -> float:
        try:
            return self.face_track_ms[resolution]
        except KeyError:
            raise ValueError(f"no face-tracking cost for resolution tier {resolution!r}")
