"""Synthetic sensing stack: head-motion traces, a flow-based eye tracker
proxy (noisy projections of the two eye points, standing in for sparse
feature tracking), a costed and jittered 3D face-tracker proxy, and the
per-invocation cost model.

Everything is deterministic for a fixed seed. With all noise, drift and
failure parameters at zero the stack reproduces ground truth exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import EyeState, PinholeCamera, RigidTransform, project_pinhole

DEFAULT_FRAME_RATE_HZ = 15.0  # front-camera hardware limit


class Generator(enum.Enum):
    STATIONARY = "stationary"
    STEP_MOVE = "step_move"
    SWAY = "sway"
    RANDOM_WALK = "random_walk"


@dataclass(frozen=True)
class TraceFrame:
    t_ms: float
    true_eye: EyeState          # display frame
    device_pose: RigidTransform  # display frame -> world frame


@dataclass(frozen=True)
class HeadTrace:
    frames: tuple[TraceFrame, ...]
    frame_rate_hz: float

    def __post_init__(self):
        if len(self.frames) == 0:
            raise ValueError("trace must contain at least one frame")
        t = np.array([f.t_ms for f in self.frames])
        if len(t) > 1:
            dt = np.diff(t)
            if np.any(dt <= 0):
                raise ValueError("timestamps must be strictly increasing")
            expected = 1000.0 / self.frame_rate_hz
            if np.abs(dt - expected).max() > 1e-6:
                raise ValueError("frame spacing inconsistent with frame rate")

    def __len__(self) -> int:
        return len(self.frames)

    def dwell_mask(self, tol_mm: float = 0.5) -> np.ndarray:
        """Frames where the head is effectively at rest relative to the
        device, derived from the trace data itself (a frame dwells when the
        eye moved less than tol_mm since the previous frame)."""
        eyes = np.array([f.true_eye.cyclopean_mm for f in self.frames])
        still = np.linalg.norm(np.diff(eyes, axis=0), axis=1) <= tol_mm
        mask = np.empty(len(eyes), dtype=bool)
        mask[1:] = still
        mask[0] = still[0] if len(still) else True
        return mask


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
    device_pose: RigidTransform = field(default_factory=RigidTransform.identity)


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

    dt = 1000.0 / spec.frame_rate_hz
    frames = tuple(
        TraceFrame(t_ms=i * dt,
                   true_eye=EyeState.from_cyclopean(positions[i], ipd_mm=spec.ipd_mm),
                   device_pose=spec.device_pose)
        for i in range(len(positions)))
    return HeadTrace(frames=frames, frame_rate_hz=spec.frame_rate_hz)


def _require_frames(spec: TraceSpec) -> int:
    if spec.n_frames <= 0:
        raise ValueError("n_frames must be positive for this generator")
    return spec.n_frames


TRACE_CSV_HEADER = ("frame,t_ms,eye_x_mm,eye_y_mm,eye_z_mm,ipd_mm,"
                    "dev_qw,dev_qx,dev_qy,dev_qz,dev_tx_mm,dev_ty_mm,dev_tz_mm")


def write_trace_csv(trace: HeadTrace, path) -> None:
    """Full-precision CSV export (floats via repr, so import round-trips)."""
    # tolist() gives Python floats, whose str is their repr.
    rows = np.array([[fr.t_ms, *fr.true_eye.cyclopean_mm, fr.true_eye.ipd_mm,
                      *fr.device_pose.quaternion(), *fr.device_pose.translation]
                     for fr in trace.frames]).tolist()
    with open(path, "w", newline="") as f:
        f.write(TRACE_CSV_HEADER + "\n")
        f.writelines(",".join(map(str, [i, *row])) + "\n" for i, row in enumerate(rows))


def read_trace_csv(path) -> HeadTrace:
    frames = []
    with open(path) as f:
        header = f.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise ValueError(f"unexpected trace CSV header: {header!r}")
        for line in f:
            if not line.strip():
                continue
            vals = line.strip().split(",")
            (_, t_ms, ex, ey, ez, ipd, qw, qx, qy, qz, tx, ty, tz) = (float(v) for v in vals)
            pose = RigidTransform.from_quaternion([qw, qx, qy, qz], [tx, ty, tz])
            frames.append(TraceFrame(t_ms=t_ms,
                                     true_eye=EyeState.from_cyclopean([ex, ey, ez], ipd_mm=ipd),
                                     device_pose=pose))
    if len(frames) < 2:
        rate = DEFAULT_FRAME_RATE_HZ
    else:
        rate = 1000.0 / (frames[1].t_ms - frames[0].t_ms)
    return HeadTrace(frames=tuple(frames), frame_rate_hz=rate)


@dataclass(frozen=True)
class FlowMeasurement:
    """Flow-tracked eye pixels for one front-camera frame, or a failure."""

    eye_px: np.ndarray | None  # (2, 2): rows left/right, or None on failure

    @property
    def failed(self) -> bool:
        return self.eye_px is None


class FlowSimulator:
    """Stand-in for sparse feature tracking of the two eye points.

    Projects the true eyes through the front camera, then adds accumulated
    drift (a slowly growing bias in a per-segment random direction, reset on
    every pose recomputation) and i.i.d. Gaussian pixel noise. Tracking
    fails with probability p_fail per frame, and always fails when an eye
    leaves the front camera's field of view.
    """

    def __init__(self, front_cam: PinholeCamera, noise_sigma_px: float = 0.0,
                 drift_px_per_frame: float = 0.0, p_fail: float = 0.0,
                 rng: np.random.Generator | None = None):
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

    def measure(self, true_eye: EyeState) -> FlowMeasurement:
        pts_cam = self.front_cam.extrinsic.apply(
            np.stack([true_eye.left_mm, true_eye.right_mm]))
        if np.any(pts_cam[:, 2] <= 0):
            return FlowMeasurement(None)
        px = project_pinhole(self.front_cam, pts_cam)
        if not all(self.front_cam.contains(p) for p in px):
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

    Returns the true eyes rigidly displaced by an isotropic Gaussian draw on
    the cyclopean position. Each invocation charges cost_ms; invocations are
    bounded by max_rate_hz against the supplied timestamps.
    """

    def __init__(self, jitter_sigma_mm: float = 5.0, cost_ms: float = 30.094,
                 max_rate_hz: float = DEFAULT_FRAME_RATE_HZ,
                 rng: np.random.Generator | None = None):
        self.jitter_sigma_mm = jitter_sigma_mm
        self.cost_ms = cost_ms
        self.max_rate_hz = max_rate_hz
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._last_t_ms: float | None = None
        self.invocations = 0
        self.total_charge_ms = 0.0

    def track(self, true_eye: EyeState, t_ms: float) -> tuple[EyeState, float]:
        min_dt = 1000.0 / self.max_rate_hz
        if self._last_t_ms is not None and (t_ms - self._last_t_ms) < min_dt - 1e-9:
            raise RateCeilingError(
                f"face tracker invoked after {t_ms - self._last_t_ms:.3f} ms, "
                f"ceiling requires >= {min_dt:.3f} ms")
        self._last_t_ms = t_ms
        self.invocations += 1
        self.total_charge_ms += self.cost_ms
        if self.jitter_sigma_mm > 0:
            offset = self.rng.normal(0.0, self.jitter_sigma_mm, size=3)
        else:
            offset = np.zeros(3)
        return true_eye.translated(offset), self.cost_ms


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
