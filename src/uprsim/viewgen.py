"""Where scene content appears on the handheld display under each rendering
mode, and where a user perceives displayed content on the scene surface.

Render modes:
  DPR   - content drawn where the back camera sees it (device perspective).
  UPR   - content drawn on the eye-to-target line (user perspective).
  FUPR  - UPR with a fixed, once-calibrated eye on the display's center axis.
  AAUPR - same projection math as UPR; differs only in which eye estimate
          it is handed (scheduler-gated instead of per-frame).

Pointing error is the on-plane Euclidean distance between a target and the
point a user (looking from the true eye position) perceives the drawn target
to be at. The perceived point is the true-eye ray through the drawn pixel;
no motor noise term is added.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PARALLEL_TOL,
    DisplayModel,
    EyeState,
    GeometryError,
    PinholeCamera,
    Ray,
    ScenePlane,
    check_fields,
    intersect_ray_plane,
    positive,
    project_pinhole,
)


class RenderMode(enum.Enum):
    DPR = "DPR"
    UPR = "UPR"
    FUPR = "FUPR"
    AAUPR = "AAUPR"


class FitPolicy(enum.Enum):
    """How the back-camera image is mapped onto the display."""

    STRETCH = "stretch"
    LETTERBOX = "letterbox"


@dataclass(frozen=True)
class FuprCalibration:
    """One-time head-to-device distance; the implied eye sits on the
    perpendicular through the display center and is never updated."""

    distance_mm: float = positive()

    def __post_init__(self):
        check_fields(self)


def fupr_eye(cal: FuprCalibration, ipd_mm: float = 63.0) -> EyeState:
    return EyeState.from_cyclopean([0.0, 0.0, cal.distance_mm], ipd_mm=ipd_mm)


@dataclass(frozen=True)
class Homography:
    """3x3 planar homography, defined up to scale."""

    h: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.h, dtype=float).reshape(3, 3)
        if abs(np.linalg.det(m)) <= 1e-12:
            raise GeometryError("homography is singular")
        m.flags.writeable = False
        object.__setattr__(self, "h", m)

    def apply(self, pts) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        ones = np.ones(p.shape[:-1] + (1,))
        q = np.concatenate([p, ones], axis=-1) @ self.h.T
        return q[..., :2] / q[..., 2:3]


def _homography_from_points(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Exact homography from four point correspondences (DLT, 8x8 solve)."""
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i] = u
        b[2 * i + 1] = v
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("degenerate display/plane configuration") from exc
    return Homography(np.append(sol, 1.0).reshape(3, 3))


def _eye_ray_through_panel(eye_world: np.ndarray, display: DisplayModel, px) -> Ray:
    panel_world = display.pose_world.apply(display.px_to_mm(px))
    return Ray(eye_world, panel_world - eye_world)


def upr_display_to_plane(eye: EyeState, display: DisplayModel, plane: ScenePlane) -> Homography:
    """Homography taking display pixels to 2D scene-plane coordinates (mm)
    under user-perspective rendering from the cyclopean eye.

    Built from the four display-corner rays; since the eye is a center of
    projection between two planes, four correspondences determine the map
    exactly. Raises when any corner ray misses the plane forward.
    """
    eye_world = display.pose_world.apply(eye.cyclopean_mm)
    corners_px = display.corners_px()
    dst = []
    for px in corners_px:
        hit = intersect_ray_plane(_eye_ray_through_panel(eye_world, display, px), plane)
        if hit is None:
            raise GeometryError("display corner ray misses the scene plane")
        dst.append(plane.to_plane_2d(hit))
    return _homography_from_points(corners_px, np.array(dst))


def cam_px_to_display_px(cam_px, display: DisplayModel, cam: PinholeCamera,
                         fit: FitPolicy = FitPolicy.STRETCH) -> np.ndarray:
    p = np.asarray(cam_px, dtype=float)
    if fit is FitPolicy.STRETCH:
        return p / [cam.width_px / display.width_px, cam.height_px / display.height_px]
    s = min(cam.width_px / display.width_px, cam.height_px / display.height_px)
    disp_c = np.array([display.width_px / 2.0, display.height_px / 2.0])
    cam_c = np.array([cam.cx, cam.cy])
    return (p - cam_c) / s + disp_c


def perceived_plane_point(display_px, true_eye: EyeState, display: DisplayModel,
                          plane: ScenePlane) -> np.ndarray | None:
    """Plane point (2D, mm) a user at true_eye perceives behind a display
    pixel, i.e. where the true-eye ray through the pixel's physical location
    meets the plane. None when the ray misses the plane forward."""
    eye_world = display.pose_world.apply(true_eye.cyclopean_mm)
    hit = intersect_ray_plane(_eye_ray_through_panel(eye_world, display, display_px), plane)
    if hit is None:
        return None
    return plane.to_plane_2d(hit)


def _display_px_for_target_from_eye(eye_mm: np.ndarray, target_world,
                                    display: DisplayModel) -> np.ndarray:
    """Pixel where an eye-based mode draws a world target: the intersection
    of the eye-to-target segment with the panel surface (z = 0)."""
    target_disp = display.pose_world.invert().apply(np.asarray(target_world, dtype=float))
    dz = target_disp[2] - eye_mm[2]
    if abs(dz) < 1e-12 or eye_mm[2] <= 0:
        raise GeometryError("eye-to-target line does not cross the panel")
    t = eye_mm[2] / (eye_mm[2] - target_disp[2])
    if t <= 0:
        raise GeometryError("target is on the eye's side of the panel")
    hit = eye_mm + t * (target_disp - eye_mm)
    return display.mm_to_px(hit)


def render_target_px(mode: RenderMode, target_world, estimated_eye: EyeState | None,
                     display: DisplayModel, back_cam: PinholeCamera | None = None,
                     fit: FitPolicy = FitPolicy.STRETCH) -> np.ndarray:
    """Display pixel where the given mode draws a world-frame target.

    UPR/AAUPR use the supplied eye estimate, FUPR the fixed calibration eye
    (passed in as estimated_eye by the caller), DPR the back camera.
    """
    if mode is RenderMode.DPR:
        if back_cam is None:
            raise ValueError("DPR requires a back camera")
        target_disp = display.pose_world.invert().apply(np.asarray(target_world, dtype=float))
        target_cam = back_cam.extrinsic.apply(target_disp)
        cam_px = project_pinhole(back_cam, target_cam)
        return cam_px_to_display_px(cam_px, display, back_cam, fit)
    if estimated_eye is None:
        raise ValueError(f"{mode.value} requires an eye estimate")
    return _display_px_for_target_from_eye(estimated_eye.cyclopean_mm, target_world, display)


def pointing_error(mode: RenderMode, target_world, estimated_eye: EyeState | None,
                   true_eye: EyeState, display: DisplayModel, plane: ScenePlane,
                   back_cam: PinholeCamera | None = None,
                   fit: FitPolicy = FitPolicy.STRETCH) -> float:
    """On-plane distance (mm) between a target and where the user perceives
    the drawn target, looking from the true eye. Raises GeometryError when
    any involved ray fails to resolve."""
    p_display = render_target_px(mode, target_world, estimated_eye, display, back_cam, fit)
    perceived = perceived_plane_point(p_display, true_eye, display, plane)
    if perceived is None:
        raise GeometryError("perceived ray misses the scene plane")
    target_2d = plane.to_plane_2d(np.asarray(target_world, dtype=float))
    return float(np.linalg.norm(perceived - target_2d))


def pointing_errors(mode: RenderMode, targets_world, estimated_eyes_mm,
                    true_eyes_mm, display: DisplayModel, plane: ScenePlane,
                    back_cam: PinholeCamera | None = None,
                    fit: FitPolicy = FitPolicy.STRETCH) -> np.ndarray:
    """pointing_error over frames x targets in one pass.

    targets_world is (T, 3); the eyes are (F, 3) cyclopean positions in the
    display frame (estimated_eyes_mm is unused for DPR). Returns (F, T)
    errors in mm, NaN in every cell where pointing_error raises
    GeometryError.
    """
    targets = np.asarray(targets_world, dtype=float)
    target_disp = display.pose_world.invert().apply(targets)
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode is RenderMode.DPR:
            drawn_px = _dpr_target_px(target_disp, display, back_cam, fit)[None]
        else:
            drawn_px = _eye_target_px(np.asarray(estimated_eyes_mm, dtype=float),
                                      target_disp, display)
        # Perceived point: the true-eye ray through the drawn pixel, as in
        # intersect_ray_plane. NaN pixels propagate into the miss mask.
        eye_world = display.pose_world.apply(np.asarray(true_eyes_mm, dtype=float))[:, None]
        d = display.pose_world.apply(display.px_to_mm(drawn_px)) - eye_world
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        denom = d @ plane.normal_world
        t = ((plane.point_world - eye_world) @ plane.normal_world) / denom
        perceived = plane.to_plane_2d(eye_world + t[..., None] * d)
        err = np.linalg.norm(perceived - plane.to_plane_2d(targets), axis=-1)
        hit = (np.abs(denom) >= PARALLEL_TOL) & (t >= 0)
    return np.where(hit, err, np.nan)


def _eye_target_px(eyes_mm: np.ndarray, target_disp: np.ndarray,
                   display: DisplayModel) -> np.ndarray:
    """(F, T, 2) batch of _display_px_for_target_from_eye; NaN where it raises."""
    ez = eyes_mm[:, None, 2]
    tz = target_disp[None, :, 2]
    t = ez / (ez - tz)
    hit = eyes_mm[:, None] + t[..., None] * (target_disp[None] - eyes_mm[:, None])
    px = display.mm_to_px(hit)
    px[(np.abs(tz - ez) < 1e-12) | (ez <= 0) | ~(t > 0)] = np.nan
    return px


def _dpr_target_px(target_disp: np.ndarray, display: DisplayModel,
                   back_cam: PinholeCamera | None, fit: FitPolicy) -> np.ndarray:
    """(T, 2) batch of the DPR branch of render_target_px; NaN for targets
    at or behind the back camera."""
    if back_cam is None:
        raise ValueError("DPR requires a back camera")
    target_cam = back_cam.extrinsic.apply(target_disp)
    ahead = target_cam[:, 2] > 0
    cam_px = np.full((len(target_cam), 2), np.nan)
    cam_px[ahead] = project_pinhole(back_cam, target_cam[ahead])
    return cam_px_to_display_px(cam_px, display, back_cam, fit)
