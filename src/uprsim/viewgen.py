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
to be at. The perceived point is where the true-eye ray through the drawn
pixel meets the plane, world z = 0 (geometry.intersect_ray_plane, the one
ray/plane hit); no motor noise term is added. pointing_errors evaluates
modes x frames x targets in one pass, once per run of a mode's consecutive
frames whose eyes are unchanged bit for bit (every step is elementwise per
frame, so the run's first frame gives the others' bits), and pointing_error
is its one-cell form.
"""

from __future__ import annotations

import enum

import numpy as np

from .geometry import (
    PARALLEL_TOL,
    DisplayModel,
    EyeState,
    GeometryError,
    PinholeCamera,
    ScenePlane,
    intersect_ray_plane,
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


def cam_px_to_display_px(cam_px, display: DisplayModel, cam: PinholeCamera,
                         fit: FitPolicy) -> np.ndarray:
    p = np.asarray(cam_px, dtype=float)
    if fit is FitPolicy.STRETCH:
        return p / [cam.width_px / display.width_px, cam.height_px / display.height_px]
    s = min(cam.width_px / display.width_px, cam.height_px / display.height_px)
    disp_c = np.array([display.width_px / 2.0, display.height_px / 2.0])
    cam_c = np.array([cam.cx, cam.cy])
    return (p - cam_c) / s + disp_c


def perceived_points(eyes_world, display_px, display: DisplayModel,
                     plane: ScenePlane) -> tuple[np.ndarray, np.ndarray]:
    """Where the ray from each world-frame eye (..., 3) through its drawn
    display pixel (..., 2) meets the plane: the (..., 2) plane points (mm)
    and the (...) hit mask, False (points NaN) where the ray misses the plane
    forward or the pixel is NaN. Eyes and pixels broadcast."""
    panel_world = display.pose_world.apply(display.px_to_mm(display_px))
    hits, hit = intersect_ray_plane(eyes_world, panel_world - eyes_world)
    return plane.to_plane_2d(hits), hit


def pointing_errors(modes, targets_world, estimated_eyes_mm, true_eyes_mm,
                    display: DisplayModel, plane: ScenePlane,
                    back_cam: PinholeCamera | None = None, *, fit: FitPolicy) -> np.ndarray:
    """On-plane distances (mm) between targets and where a user perceives
    them drawn, over modes x frames x targets in one pass.

    targets_world is (T, 3). estimated_eyes_mm holds one (F, 3) array per
    mode (DPR ignores its own, which may be None); true_eyes_mm is the (F, 3)
    eyes every mode shares. Eyes are cyclopean positions in the display
    frame. A mode draws each target from its estimated eye (UPR, FUPR,
    AAUPR) or from the back camera (DPR), and the user looks from the true
    eye. Returns (M, F, T) errors, NaN in every cell where the drawing (at an
    infinite pixel, say) or the perceived ray does not resolve. A frame
    whose eyes (the true eye alone for DPR) equal the same mode's previous
    frame's bit for bit takes its errors.
    """
    targets = np.asarray(targets_world, dtype=float)
    target_disp = display.pose_world.invert().apply(targets)
    true_eyes = np.asarray(true_eyes_mm, dtype=float)
    dpr = np.array([mode is RenderMode.DPR for mode in modes], dtype=bool)
    # Row (m, f) is mode m's estimate and true eye at frame f; DPR's estimate
    # stays 0, so its true eyes alone tell its rows apart.
    eyes = np.zeros((len(dpr), len(true_eyes), 6))
    eyes[..., 3:] = true_eyes
    for row, mode, est in zip(eyes, modes, estimated_eyes_mm, strict=True):
        if mode is not RenderMode.DPR:
            if est is None:
                raise ValueError(f"{mode.value} requires an eye estimate")
            row[:, :3] = est
    # No step below mixes rows (a 3-D stack's matmul runs per row), so the
    # first row of a run of bit-equal rows within a mode gives the run's bits.
    bits = eyes.view(np.int64)
    starts = np.ones(bits.shape[:2], dtype=bool)
    starts[:, 1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=2)
    mode_of, frame_of = starts.nonzero()
    first, drawn_dpr = eyes[mode_of, frame_of], dpr[mode_of]
    drawn_px = np.empty((len(first), len(targets), 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if drawn_dpr.any():
            drawn_px[drawn_dpr] = _dpr_target_px(target_disp, display, back_cam, fit)
        if not drawn_dpr.all():
            drawn_px[~drawn_dpr] = _eye_target_px(first[~drawn_dpr, :3], target_disp, display)
        eye_world = display.pose_world.apply(first[:, None, 3:])
        perceived, _ = perceived_points(eye_world, drawn_px, display, plane)
    errors = np.linalg.norm(perceived - plane.to_plane_2d(targets), axis=-1)
    return errors[starts.cumsum() - 1].reshape(*starts.shape, len(targets))


def pointing_error(mode: RenderMode, target_world, estimated_eye: EyeState | None,
                   true_eye: EyeState, display: DisplayModel, plane: ScenePlane,
                   back_cam: PinholeCamera | None = None, *, fit: FitPolicy) -> float:
    """pointing_errors for one mode, one target and one frame's eyes. Raises
    GeometryError where that cell is NaN, and ValueError when the mode's
    eye estimate or back camera is missing."""
    est = None if estimated_eye is None else [estimated_eye.cyclopean_mm]
    err = pointing_errors([mode], [target_world], [est], [true_eye.cyclopean_mm],
                          display, plane, back_cam, fit=fit)[0, 0, 0]
    if np.isnan(err):
        raise GeometryError("drawn target or perceived ray misses the scene plane")
    return float(err)


def _eye_target_px(eyes_mm: np.ndarray, target_disp: np.ndarray,
                   display: DisplayModel) -> np.ndarray:
    """(F, T, 2) pixels where each estimated eye's line to each display-frame
    target crosses the panel surface (z = 0); NaN where the eye is not in
    front of the panel or the line does not cross it toward the target."""
    ez = eyes_mm[:, None, 2]
    tz = target_disp[None, :, 2]
    t = ez / (ez - tz)
    hit = eyes_mm[:, None] + t[..., None] * (target_disp[None] - eyes_mm[:, None])
    px = display.mm_to_px(hit)
    px[(np.abs(tz - ez) < PARALLEL_TOL) | (ez <= 0) | ~(t > 0)] = np.nan
    return px


def _dpr_target_px(target_disp: np.ndarray, display: DisplayModel,
                   back_cam: PinholeCamera | None, fit: FitPolicy) -> np.ndarray:
    """(T, 2) pixels where DPR draws each display-frame target: its back
    camera projection, fitted to the display; NaN for targets at or behind
    the back camera."""
    if back_cam is None:
        raise ValueError("DPR requires a back camera")
    target_cam = back_cam.extrinsic.apply(target_disp)
    cam_px = project_pinhole(back_cam, target_cam)
    return cam_px_to_display_px(cam_px, display, back_cam, fit)
