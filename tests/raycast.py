"""The scalar ray-cast chain, one ray per pixel and one target per call,
and the UPR display-to-plane homography built on it.

They are the independent oracles for the simulator's batch geometry
(viewgen.pointing_errors, viewgen.perceived_points,
geometry.intersect_ray_plane): each ray-cast step below is written out once
per ray, as the simulator computed it before its passes were batched, and
the homography maps every display pixel to the plane from four corner rays
alone. The homography is a 3x3 array; apply_homography applies it.
"""

from dataclasses import dataclass

import numpy as np

from uprsim.geometry import (
    PARALLEL_TOL,
    DisplayModel,
    EyeState,
    GeometryError,
    PinholeCamera,
    _as_vec3,
    project_pinhole,
)
from uprsim.viewgen import FitPolicy, RenderMode, cam_px_to_display_px


@dataclass(frozen=True)
class Ray:
    """origin + t * direction, t >= 0; direction is unit norm."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = _as_vec3(self.origin, "origin")
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = np.linalg.norm(d)
        if n == 0:
            raise GeometryError("ray direction must be nonzero")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def intersect_ray_plane(ray: Ray) -> np.ndarray | None:
    """Forward intersection of a ray with the scene plane, world z = 0; None
    when the ray is parallel to the plane, the hit lies behind the origin, or
    the direction is NaN (NaN fails both tests)."""
    denom = float(ray.direction[2])
    if not abs(denom) >= PARALLEL_TOL:
        return None
    t = -float(ray.origin[2]) / denom
    if not t >= 0:
        return None
    return ray.at(t)


def _eye_ray_through_panel(eye_world: np.ndarray, display: DisplayModel, px) -> Ray:
    panel_world = display.pose_world.apply(display.px_to_mm(px))
    return Ray(eye_world, panel_world - eye_world)


def perceived_plane_point(display_px, true_eye: EyeState,
                          display: DisplayModel) -> np.ndarray | None:
    """Plane point (2D, mm) a user at true_eye perceives behind a display
    pixel, i.e. where the true-eye ray through the pixel's physical location
    meets the plane. None when the ray misses the plane forward."""
    eye_world = display.pose_world.apply(true_eye.cyclopean_mm)
    hit = intersect_ray_plane(_eye_ray_through_panel(eye_world, display, display_px))
    return None if hit is None else hit[:2]


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
        if target_cam[2] <= 0:
            raise GeometryError("point is behind the camera (z <= 0)")
        cam_px = project_pinhole(back_cam, target_cam)
        return cam_px_to_display_px(cam_px, display, back_cam, fit)
    if estimated_eye is None:
        raise ValueError(f"{mode.value} requires an eye estimate")
    return _display_px_for_target_from_eye(estimated_eye.cyclopean_mm, target_world, display)


def pointing_error(mode: RenderMode, target_world, estimated_eye: EyeState | None,
                   true_eye: EyeState, display: DisplayModel,
                   back_cam: PinholeCamera | None = None,
                   fit: FitPolicy = FitPolicy.STRETCH) -> float:
    """On-plane distance (mm) between a target and where the user perceives
    the drawn target, looking from the true eye. Raises GeometryError when
    any involved ray fails to resolve."""
    p_display = render_target_px(mode, target_world, estimated_eye, display, back_cam, fit)
    perceived = perceived_plane_point(p_display, true_eye, display)
    if perceived is None:
        raise GeometryError("perceived ray misses the scene plane")
    return float(np.linalg.norm(perceived - np.asarray(target_world, dtype=float)[:2]))


def homography_from_points(src, dst) -> np.ndarray:
    """The 3x3 homography, scaled to h[2, 2] = 1, that takes the four
    points src to dst exactly (DLT, one 8x8 solve)."""
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
    return np.append(sol, 1.0).reshape(3, 3)


def apply_homography(h: np.ndarray, pts) -> np.ndarray:
    """Map (..., 2) points through the homography h."""
    p = np.asarray(pts, dtype=float)
    q = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1) @ h.T
    return q[..., :2] / q[..., 2:3]


def upr_homography(eye: EyeState, display: DisplayModel) -> np.ndarray:
    """The homography taking display pixels to 2D scene-plane points (mm)
    under user-perspective rendering from eye's cyclopean point.

    The eye is a center of projection between two planes, so the four
    panel-corner rays fix the map exactly. Raises GeometryError when a
    corner ray misses the plane forward."""
    w, h = display.width_px, display.height_px
    corners = np.array([[w, 0.0], [0.0, 0.0], [0.0, h], [w, h]])
    dst = [perceived_plane_point(c, eye, display) for c in corners]
    if any(p is None for p in dst):
        raise GeometryError("display corner ray misses the scene plane")
    return homography_from_points(corners, dst)
