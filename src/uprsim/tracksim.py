"""Synthetic sensing stack: head-motion traces (validated columns with no
device pose, since the display is fixed above the scene), a flow-based eye
tracker proxy (noisy projections of the two eye points, standing in for
sparse feature tracking), the per-invocation cost model, and the CSV
writer. Eye points are (..., 2, 3) left/right arrays (eye_points); eye
pixels are left u, v, right u, v, and a flow measurement is those four
floats, or None for a failure.

Everything is deterministic for a fixed seed. With all noise, drift and
failure parameters at zero the stack reproduces ground truth exactly.
FlowSimulator and CostModel take every value, the stream included, from
their caller (a run, its config's); only TraceSpec has defaults, each its
config key's, so a default spec draws the default config's trace.
"""

from __future__ import annotations

import enum
from itertools import islice
from math import isfinite, nan, pi

import numpy as np

from .geometry import (PinholeCamera, Record, Value, check_fields, nonnegative, positive,
                       project_pinhole, within)

DEFAULT_FRAME_RATE_HZ = 15.0  # front-camera hardware limit
DWELL_TOL_MM = 0.5  # eye travel per frame (mm) at or below which the head is at rest
MIN_DIVISOR = 1e-9  # least eye z (mm), display size, frame rate, sway period
#: A quantity's range (config keys, a trace file's eye and ipd): with MIN_DIVISOR
#: under what a run divides by, nothing a run derives from them overflows.
SCALE = ("at most 1e6 in magnitude", lambda v: abs(v) <= 1e6)


class Generator(enum.Enum):
    STATIONARY = "stationary"
    STEP_MOVE = "step_move"
    SWAY = "sway"
    RANDOM_WALK = "random_walk"


class TraceError(ValueError):
    """A head trace breaks an invariant at one frame; args are (frame, reason)."""

    def __str__(self) -> str:
        return "frame %d: %s" % self.args


class HeadTrace(Value):
    """Per-frame columns: t_ms (F,), eye_mm (F, 3) cyclopean eye in the
    display frame, ipd_mm (F,), all read-only; every t_ms step equals the first."""

    t_ms: np.ndarray
    eye_mm: np.ndarray
    ipd_mm: np.ndarray

    def __post_init__(self):
        for name in ("t_ms", "eye_mm", "ipd_mm"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        t, eye, ipd = self.t_ms, self.eye_mm, self.ipd_mm
        if len(t) == 0:
            raise ValueError("trace must contain at least one frame")
        # A spacing that overflows is inf, and inf - inf is NaN: a TraceError.
        with np.errstate(over="ignore", invalid="ignore"):
            dt = np.diff(t)
            # 1e-6 ms, or the float resolution of timestamps too large for it.
            slack = 1e-6 + 2 * np.spacing(np.abs(t[1:]))
            checks = [
                (~np.isfinite(np.column_stack([t, eye, ipd])).all(axis=1),
                 "values must be finite"),
                (eye[:, 2] < MIN_DIVISOR,
                 f"eye must be in front of the panel (z >= {MIN_DIVISOR:g})"),
                (ipd < 0, "ipd_mm must be nonnegative"),
                (np.r_[False, dt <= 0], "timestamps must be strictly increasing"),
                (np.r_[False, ~(np.abs(dt - dt[:1]) <= slack)],
                 "frame spacing inconsistent with frame rate"),
            ]
        for bad, reason in checks:
            if bad.any():
                raise TraceError(int(np.argmax(bad)), reason)

    def __len__(self) -> int:
        return len(self.t_ms)

    def dwell_mask(self) -> np.ndarray:
        """Frames where the head is effectively at rest relative to the
        device, derived from the trace data itself (a frame dwells when the
        eye moved at most DWELL_TOL_MM since the previous frame)."""
        still = np.linalg.norm(np.diff(self.eye_mm, axis=0), axis=1) <= DWELL_TOL_MM
        mask = np.empty(len(self), dtype=bool)
        mask[1:] = still
        mask[0] = still[0] if len(still) else True
        return mask


def eye_points(eye_mm, ipd_mm) -> np.ndarray:
    """(..., 2, 3) eye points, rows left, right: the cyclopean eye_mm split
    symmetrically along the display x-axis, ipd_mm apart; the one split of
    a cyclopean eye (an EyeState, a trace row) into two eyes."""
    c = np.asarray(eye_mm, dtype=float)
    half = np.multiply.outer(np.asarray(ipd_mm) / 2.0, [1.0, 0.0, 0.0])
    return np.stack([c - half, c + half], axis=-2)


def project_eyes(cam: PinholeCamera, eyes) -> tuple[np.ndarray, np.ndarray]:
    """Exact pixels in cam of (..., 2, 3) left/right eye points, as (..., 4)
    rows (left u, v, right u, v), and a (...,) mask: both eyes in front of
    the camera and inside the image. An eye behind the camera projects as
    NaN, which no bounds test passes. Stateless: any number of frames at once."""
    px = project_pinhole(cam, cam.extrinsic.apply(eyes))
    return px.reshape(px.shape[:-2] + (4,)), cam.contains(px).all(axis=-1)


class TraceSpec(Value):
    """A synthetic trace's generator and parameters; generate_trace draws it."""

    generator: Generator
    n_frames: int = nonnegative(0)  # derived for step_move when 0
    frame_rate_hz: float = positive(DEFAULT_FRAME_RATE_HZ)
    base_eye_mm: tuple[float, float, float] = within(
        "three finite values", lambda v: len(v) == 3 and all(map(isfinite, v)), (0.0, 0.0, 150.0))
    ipd_mm: float = nonnegative(63.0)
    amplitude_mm: float = 250.0        # lateral travel (step_move, sway) / step sigma
    depth_amplitude_mm: float = 100.0  # additional travel along display z (step_move)
    dwell_frames: int = within("at least 1", lambda v: v >= 1, 150)
    transition_frames: int = within("at least 1", lambda v: v >= 1, 30)
    sway_period_s: float = positive(4.0)
    seed: int = nonnegative(1)

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
                     ipd_mm=np.full(n, spec.ipd_mm))


def _require_frames(spec: TraceSpec) -> int:
    if spec.n_frames <= 0:
        raise ValueError("n_frames must be positive for this generator")
    return spec.n_frames


TRACE_CSV_HEADER = ("frame,t_ms,eye_x_mm,eye_y_mm,eye_z_mm,ipd_mm,"
                    "dev_qw,dev_qx,dev_qy,dev_qz,dev_tx_mm,dev_ty_mm,dev_tz_mm")


#: The dev_* columns: the identity pose, the only one a trace may hold.
IDENTITY_POSE = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def format_column(col) -> list[str]:
    """A column's cells: str() of each Python value, never of a numpy
    scalar: a float as its shortest round-trip repr, NaN as `nan`. So equal
    values give equal bytes, and every float reads back exactly. A float64
    array is formatted once per distinct bit pattern (not value: -0.0 is
    not 0.0), and its cells are one take of those texts. Cells that are
    already str (a list, or an object array, of them) pass through as they
    are."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = np.array(list(map(str, bits.view(np.float64).tolist())), dtype=object)
        return text[inverse].tolist()
    cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
    return cells if set(map(type, cells)) <= {str} else list(map(str, cells))


#: Rows joined into one write call. A call per row made the sway write ~10%
#: slower; one string per table holds a second copy of the table's text
#: (sway_loop's 3,000-row tables: +1.1 MB peak RSS). 64 to 1,024 rows time
#: alike.
WRITE_BLOCK_ROWS = 256


def write_csv(path, header: str, columns) -> None:
    """Write header, then one comma-separated line per row of the columns,
    WRITE_BLOCK_ROWS lines per write call."""
    cells = list(map(format_column, columns))
    if len(set(map(len, cells))) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in cells]}")
    rows = map(",".join, zip(*cells))
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        while block := list(islice(rows, WRITE_BLOCK_ROWS)):
            f.write("\n".join(block) + "\n")


def write_trace_csv(trace: HeadTrace, path) -> None:
    """Full-precision CSV export: read_trace_csv gives the trace back."""
    n = len(trace)
    write_csv(path, TRACE_CSV_HEADER, [range(n), trace.t_ms, *trace.eye_mm.T, trace.ipd_mm,
                                       *([v] * n for v in IDENTITY_POSE)])


def read_trace_csv(path) -> HeadTrace:
    """Errors name the file line of the first offending row."""
    n_cols = TRACE_CSV_HEADER.count(",") + 1
    lines, vals = [], []  # vals: every row's values, one flat list
    with open(path) as f:
        header = f.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise ValueError(f"unexpected trace CSV header: {header!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            cols = line.split(",")
            if len(cols) != n_cols:
                raise ValueError(f"line {lineno}: expected {n_cols} values, got {len(cols)}")
            try:
                vals.extend(map(float, cols))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            lines.append(lineno)
    data = np.array(vals).reshape(-1, n_cols)
    for bad, reason in [
            (~np.isfinite(data).all(axis=1), "values must be finite"),
            (~SCALE[1](data[:, 2:6]).all(axis=1), f"eye and ipd values must be {SCALE[0]}"),
            (np.any(data[:, 6:] != IDENTITY_POSE, axis=1), "dev_* pose must be the identity")]:
        if bad.any():
            raise ValueError(f"line {lines[np.argmax(bad)]}: {reason}")
    try:
        return HeadTrace(t_ms=data[:, 1], eye_mm=data[:, 2:5], ipd_mm=data[:, 5])
    except TraceError as exc:
        frame, reason = exc.args
        raise ValueError(f"line {lines[frame]}: {reason}") from None


class FlowSimulator(Record):
    """Stand-in for sparse feature tracking of the two eye points.

    project_frame gives one frame's project_eyes row in front_cam as four
    floats. measurements turns each frame's exact pixels into a measurement
    on Python floats: tracking fails with probability p_fail per frame, and
    always fails when an eye is out of view; otherwise it adds accumulated
    drift (a slowly growing bias in a per-segment random direction, reset
    on every pose recomputation) and i.i.d. Gaussian pixel noise.
    """

    front_cam: PinholeCamera
    noise_sigma_px: float = nonnegative()
    drift_px_per_frame: float = nonnegative()
    p_fail: float = within("in [0, 1]", lambda v: 0 <= v <= 1)
    rng: np.random.Generator

    def __post_init__(self):
        check_fields(self)
        ext = self.front_cam.extrinsic
        self._rows, self._t = ext.rotation.tolist(), ext.translation.tolist()
        self._z = np.empty(4)  # measurements' standard-normal draws
        self.reset_drift()

    def reset_drift(self) -> None:
        """Called when the pose recomputation re-initializes motion estimation."""
        self._drift_frames = 0
        # rng.uniform(0.0, 2 pi)'s bits and stream position, at a third of its cost.
        theta = 2.0 * pi * self.rng.random()
        # numpy's cos and sin: math's need not give the same bits.
        self._drift_dir = (float(np.cos(theta)), float(np.sin(theta)))

    def project_frame(self, left_right) -> tuple[float, float, float, float]:
        """project_eyes' row of one frame in front_cam, bit for bit, from its
        (2, 3) left and right eye points (rows of floats, or an array), as
        four floats (left u, v, right u, v): the operations of
        RigidTransform.apply and project_pinhole, in their order, on Python
        floats, for any camera."""
        cam = self.front_cam
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self._rows
        ta, tb, tc = self._t
        px = []
        for x, y, z in left_right:
            x, y, z = (a0 * x + a1 * y + a2 * z + ta, b0 * x + b1 * y + b2 * z + tb,
                       c0 * x + c1 * y + c2 * z + tc)
            px += (x * cam.fx / z + cam.cx, y * cam.fy / z + cam.cy) if z > 0 else (nan, nan)
        return tuple(px)

    def measurements(self, flow_px, visible):
        """Each frame's measurement, lazily, from its exact pixels and
        visibility as project_eyes gives them: four floats, or None
        (scheduler.FLOW_FAILURE). A visible frame draws the failure, then
        four standard normals into a reused buffer, scaled as 0.0 + sigma *
        z: the bits and stream position of normal(0.0, sigma, size=4). A
        reset_drift between two frames takes effect from the next."""
        random, standard_normal, z = self.rng.random, self.rng.standard_normal, self._z
        p_fail, s, rate = self.p_fail, self.noise_sigma_px, self.drift_px_per_frame
        for (u0, v0, u1, v1), seen in zip(flow_px, visible):
            if not seen or p_fail > 0 and random() < p_fail:
                yield None
                continue
            self._drift_frames += 1
            (cos, sin), scale = self._drift_dir, rate * self._drift_frames
            dx, dy = cos * scale, sin * scale
            if s > 0:
                z0, z1, z2, z3 = standard_normal(out=z).tolist()
                yield ((u0 + dx) + (0.0 + s * z0), (v0 + dy) + (0.0 + s * z1),
                       (u1 + dx) + (0.0 + s * z2), (v1 + dy) + (0.0 + s * z3))
            else:
                yield (u0 + dx, v0 + dy, u1 + dx, v1 + dy)

    def measure(self, px, visible: bool) -> tuple[float, float, float, float] | None:
        """measurements of one frame: four floats, or None."""
        return next(self.measurements((px,), (visible,)))


class CostModel(Value):
    """Per-invocation timing charges, anchored to measured per-frame means.

    face_track_ms is keyed by front-camera resolution tier ("WxH").
    """

    face_track_ms: dict[str, float]
    flow_ms: float = nonnegative()

    def __post_init__(self):
        check_fields(self)
        if not all(0 <= v < np.inf for v in self.face_track_ms.values()):
            raise ValueError("face_track_ms: entries must be nonnegative and finite")

    def face_cost(self, resolution: str) -> float:
        try:
            return self.face_track_ms[resolution]
        except KeyError:
            raise ValueError(f"no face-tracking cost for resolution tier {resolution!r}")
