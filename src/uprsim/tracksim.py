"""Synthetic sensing stack: head-motion traces (validated columns with no
device pose, since the display is fixed above the scene), a flow-based eye
tracker proxy (noisy projections of the two eye points, standing in for
sparse feature tracking), a costed and jittered 3D face-tracker proxy, and
the per-invocation cost model. Eye points are (..., 3, 3) arrays
(eye_points). The flow proxy projects a whole trace's eyes in one numpy
pass (FlowSimulator.project); project_frame (one frame) and measure (drift
and noise) work on four Python floats: left u, v, right u, v. The face
tracker draws all its jitter at once (FaceTracker.offsets). write_csv is
the one CSV writer; harness writes its tables through it too.

Everything is deterministic for a fixed seed. With all noise, drift and
failure parameters at zero the stack reproduces ground truth exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import nan
from operator import add

import numpy as np

from .geometry import PinholeCamera, check_fields, nonnegative, positive, project_pinhole, within

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
    frame_rate_hz: float = positive()

    def __post_init__(self):
        check_fields(self)
        for name in ("t_ms", "eye_mm", "ipd_mm"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        t, eye, ipd = self.t_ms, self.eye_mm, self.ipd_mm
        if len(t) == 0:
            raise ValueError("trace must contain at least one frame")
        dt = np.diff(t)
        # 1e-6 ms, or the float resolution of timestamps too large for it.
        slack = 1e-6 + 2 * np.spacing(np.abs(t[1:]))
        checks = [
            (~np.isfinite(np.column_stack([t, eye, ipd])).all(axis=1), "values must be finite"),
            (eye[:, 2] <= 0, "eye must be in front of the panel (z > 0)"),
            (ipd < 0, "ipd_mm must be nonnegative"),
            (np.r_[False, dt <= 0], "timestamps must be strictly increasing"),
            (np.r_[False, np.abs(dt - 1000.0 / self.frame_rate_hz) > slack],
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
    n_frames: int = nonnegative(0)  # derived for step_move when 0
    frame_rate_hz: float = positive(DEFAULT_FRAME_RATE_HZ)
    base_eye_mm: tuple[float, float, float] = (0.0, 0.0, 300.0)
    ipd_mm: float = nonnegative(63.0)
    amplitude_mm: float = 200.0      # lateral travel (step_move, sway) / step sigma
    depth_amplitude_mm: float = 0.0  # additional travel along display z (step_move)
    dwell_frames: int = within("at least 1", lambda v: v >= 1, 50)
    transition_frames: int = within("at least 1", lambda v: v >= 1, 20)
    sway_period_s: float = positive(4.0)
    seed: int = nonnegative(0)

    def __post_init__(self):
        check_fields(self)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    return x * x * (3.0 - 2.0 * x)


def generate_trace(spec: TraceSpec) -> HeadTrace:
    """Deterministic synthetic head-motion trace per the generator spec."""
    base = np.asarray(spec.base_eye_mm, dtype=float)

    if spec.generator is Generator.STEP_MOVE:
        # Dwell at the base pose, transition, dwell at the displaced pose.
        n = spec.n_frames or (2 * spec.dwell_frames + spec.transition_frames)
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
        if not spec.amplitude_mm >= 0:
            raise ValueError("amplitude_mm must be nonnegative for random_walk")
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


def write_csv(path, header: str, rows) -> None:
    """Write header, then each row of cells as one comma-separated line.

    Each cell is written as str() of a Python value, never of a numpy
    scalar: a float as its shortest round-trip repr, NaN as `nan`. So equal
    values give equal bytes, and every float reads back exactly."""
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_trace_csv(trace: HeadTrace, path) -> None:
    """Full-precision CSV export: read_trace_csv gives the trace back."""
    rows = np.column_stack([trace.t_ms, trace.eye_mm, trace.ipd_mm]).tolist()
    write_csv(path, TRACE_CSV_HEADER,
              ([i, *row, *IDENTITY_POSE] for i, row in enumerate(rows)))


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

    eye_px: tuple[float, float, float, float] | None  # left u, v, right u, v

    @property
    def failed(self) -> bool:
        return self.eye_px is None


@dataclass(eq=False)
class FlowSimulator:
    """Stand-in for sparse feature tracking of the two eye points.

    project gives the exact front-camera pixels of the eyes and whether the
    camera sees both; it is stateless, so it runs over any number of frames
    at once; project_frame gives one frame's as four floats. measure turns
    one frame's exact pixels into a measurement on Python floats: tracking
    fails with probability p_fail per frame, and always fails when an eye is
    out of view; otherwise it adds accumulated drift (a slowly growing bias
    in a per-segment random direction, reset on every pose recomputation)
    and i.i.d. Gaussian pixel noise.
    """

    front_cam: PinholeCamera
    noise_sigma_px: float = nonnegative(0.0)
    drift_px_per_frame: float = nonnegative(0.0)
    p_fail: float = within("in [0, 1]", lambda v: 0 <= v <= 1, 0.0)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self):
        check_fields(self)
        self.reset_drift()

    def reset_drift(self) -> None:
        """Called when the pose recomputation re-initializes motion estimation."""
        self._drift_frames = 0
        theta = self.rng.uniform(0.0, 2.0 * np.pi)
        # numpy's cos and sin: math's need not give the same bits.
        self._drift_dir = (float(np.cos(theta)), float(np.sin(theta)))

    def project(self, eyes) -> tuple[np.ndarray, np.ndarray]:
        """Exact front-camera pixels of the left and right eyes of (..., 3, 3)
        eye points, as (..., 2, 2), and a (...,) mask: both eyes in front of
        the camera and inside the image. An eye behind the camera projects
        as NaN, which no bounds test passes."""
        cam = self.front_cam
        pts = cam.extrinsic.apply(np.asarray(eyes, dtype=float)[..., 1:, :])
        px = project_pinhole(cam, np.where(pts[..., 2:] > 0, pts, np.nan))
        return px, cam.contains(px).all(axis=-1)

    def project_frame(self, eyes) -> tuple[float, float, float, float]:
        """project's pixels of one frame's (3, 3) eye points, bit for bit, as
        four floats (left u, v, right u, v): the camera transform in numpy,
        then project's divide and behind-camera NaN on Python floats."""
        cam, px = self.front_cam, []
        for x, y, z in cam.extrinsic.apply(eyes[1:]).tolist():
            px += (x * cam.fx / z + cam.cx, y * cam.fy / z + cam.cy) if z > 0 else (nan, nan)
        return tuple(px)

    def measure(self, px, visible: bool) -> FlowMeasurement:
        """One frame's measurement from its four exact pixels (left u, v,
        right u, v) and visibility, as project gives them per frame. Draws
        from the rng only for a visible frame: the failure draw, then the
        noise, four values in one draw."""
        if not visible:
            return FlowMeasurement(None)
        if self.p_fail > 0 and self.rng.random() < self.p_fail:
            return FlowMeasurement(None)
        self._drift_frames += 1
        scale = self.drift_px_per_frame * self._drift_frames
        dx, dy = self._drift_dir[0] * scale, self._drift_dir[1] * scale
        px = (px[0] + dx, px[1] + dy, px[2] + dx, px[3] + dy)
        if self.noise_sigma_px > 0:
            px = tuple(map(add, px, self.rng.normal(0.0, self.noise_sigma_px, size=4).tolist()))
        return FlowMeasurement(px)


@dataclass(frozen=True)
class FaceTracker:
    """Costed, jittered stand-in for 3D face tracking.

    Its k-th invocation returns the true eye points, (3, 3), rigidly
    displaced by offsets(n)[k], one isotropic Gaussian draw, and charges
    cost_ms.
    """

    jitter_sigma_mm: float = nonnegative(5.0)
    cost_ms: float = nonnegative(30.094)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self):
        check_fields(self)

    def offsets(self, n: int) -> np.ndarray:
        """(n, 3) displacements of the first n invocations, in one draw that
        is bit-equal to n sequential size-3 draws; zeros, drawing nothing,
        without jitter."""
        if self.jitter_sigma_mm > 0:
            return self.rng.normal(0.0, self.jitter_sigma_mm, size=(n, 3))
        return np.zeros((n, 3))


@dataclass(frozen=True)
class CostModel:
    """Per-invocation timing charges, anchored to measured per-frame means.

    face_track_ms is keyed by front-camera resolution tier ("WxH").
    """

    face_track_ms: dict[str, float] = field(
        default_factory=lambda: {"320x240": 14.080, "640x480": 30.094})
    flow_ms: float = nonnegative(0.5)
    render_base_ms: float = nonnegative(20.733)

    def __post_init__(self):
        check_fields(self)
        if not all(0 <= v < np.inf for v in self.face_track_ms.values()):
            raise ValueError("face_track_ms: entries must be nonnegative and finite")

    def face_cost(self, resolution: str) -> float:
        try:
            return self.face_track_ms[resolution]
        except KeyError:
            raise ValueError(f"no face-tracking cost for resolution tier {resolution!r}")
