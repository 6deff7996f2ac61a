import warnings
from math import nan
from unittest import mock

import numpy as np
import pytest
import raycast
from hypothesis import example, given, settings
from hypothesis import strategies as st
from raycast import (
    Ray,
    apply_homography,
    intersect_ray_plane,
    render_target_px,
    upr_homography,
)
from rotations import compose, from_quaternion, plane_frame, rotation_x, rotation_y

from uprsim import viewgen
from uprsim.geometry import (
    DisplayModel,
    EyeState,
    GeometryError,
    PinholeCamera,
    RigidTransform,
    ScenePlane,
    back_camera,
)
from uprsim.harness import ConfigError, ExperimentConfig, run
from uprsim.viewgen import (
    FitPolicy,
    RenderMode,
    cam_px_to_display_px,
    perceived_points,
    pointing_error,
    pointing_errors,
)
from uprsim.tracksim import eye_points

# FUPR staleness regression constant for the spec'd scenario below (head
# displaced 100 mm laterally from a 150 mm calibration, plane 300 mm behind
# a parallel display). Computed with the ray-cast oracle before the build:
# the drawn pixel is the display center, the true-eye ray through it reaches
# the plane at (-200, 0), i.e. 100 * 300 / 150 = 200 mm from the target.
FUPR_LATERAL_100MM_ERROR_MM = 200.0


def flat_display(z_world=300.0) -> DisplayModel:
    """The panel parallel to the scene plane (world z = 0), z_world above it."""
    pose = RigidTransform(np.eye(3), [0.0, 0.0, z_world])
    return DisplayModel(109.0, 61.0, 1080, 608, pose)


PLANE = ScenePlane((2000.0, 2000.0))
STRETCH = FitPolicy.STRETCH


def offset_back_camera(offset_mm) -> PinholeCamera:
    """The simulator's back camera (ExperimentConfig's back_cam_* intrinsics)
    with its optical center at offset_mm."""
    return back_camera(offset_mm, 400.0, 400.0, 640, 480)


def raycast_plane_point(eye_state, display, plane, display_px):
    """Brute-force oracle: cast the cyclopean-eye ray through the physical
    pixel location and intersect the plane directly."""
    eye_world = display.pose_world.apply(eye_state.cyclopean_mm)
    panel_world = display.pose_world.apply(display.px_to_mm(display_px))
    hit = intersect_ray_plane(Ray(eye_world, panel_world - eye_world))
    return None if hit is None else plane.to_plane_2d(hit)


# ---- FUPR's calibration eye -------------------------------------------

def fupr_eyes(**kw) -> np.ndarray:
    """The eyes a FUPR run renders from, one per frame."""
    return run(ExperimentConfig(modes="FUPR", **kw)).records["FUPR"].est_eye_mm


def test_fupr_eye_paper_distance():
    # The paper's 150 mm calibration, on the display's center axis, on every
    # frame of a head that moves.
    assert np.array_equal(fupr_eyes(), np.tile([0.0, 0.0, 150.0], (330, 1)))


def test_fupr_eye_boundary_and_split():
    assert np.array_equal(fupr_eyes(fupr_distance_mm=1.0)[0], [0.0, 0.0, 1.0])
    # The calibration eye splits as any cyclopean eye does.
    assert np.array_equal(eye_points([0.0, 0.0, 150.0], 63.0),
                          [[-31.5, 0.0, 150.0], [31.5, 0.0, 150.0]])
    with pytest.raises(ConfigError, match="^fupr_distance_mm: must be positive"):
        ExperimentConfig(fupr_distance_mm=0.0)


# ---- the UPR homography ------------------------------------------------
# A run maps each drawn pixel to the plane through perceived_points; the
# tests' homography maps every pixel from four corner rays, so where both
# resolve they must agree.

def perceived_grid(eye, display, plane, n=10):
    """An n x n grid of display pixels, and perceived_points on it."""
    grid = np.stack(np.meshgrid(np.linspace(0, display.width_px, n),
                                np.linspace(0, display.height_px, n)), axis=-1).reshape(-1, 2)
    perceived, hit = perceived_points(display.pose_world.apply(eye.cyclopean_mm), grid,
                                      display, plane)
    assert hit.all()
    return grid, perceived


def test_upr_homography_parallel_plane_is_similarity():
    eye = EyeState.from_cyclopean([0.0, 0.0, 400.0])
    h = upr_homography(eye, flat_display(), PLANE)  # h[2, 2] = 1
    assert abs(h[2, 0]) < 1e-9 and abs(h[2, 1]) < 1e-9
    # Uniform scale: |h00| == |h11| in mm-per-px terms adjusted for the
    # panel's px aspect.
    sx = abs(h[0, 0]) * 1080 / 109.0
    sy = abs(h[1, 1]) * 608 / 61.0
    assert abs(sx - sy) < 1e-9
    grid, perceived = perceived_grid(eye, flat_display(), PLANE)
    assert np.abs(apply_homography(h, grid) - perceived).max() < 1e-9


def test_upr_homography_matches_independent_camera():
    # A virtual pinhole camera at the eye whose image plane coincides with
    # the display must induce the same display-to-plane map.
    display = flat_display()
    plane = PLANE
    ez = 500.0
    eye = display.pose_world.apply([0.0, 0.0, ez])
    h = upr_homography(EyeState.from_cyclopean([0.0, 0.0, ez]), display, plane)
    cam = PinholeCamera(fx=ez * 1080 / 109.0, fy=ez * 608 / 61.0,
                        cx=540.0, cy=304.0, width_px=1080, height_px=608,
                        extrinsic=RigidTransform(np.eye(3), np.zeros(3)))
    rng = np.random.default_rng(3)
    for _ in range(25):
        px = rng.uniform([0, 0], [1080, 608])
        # Camera route: back-project the pixel by hand (camera y is down,
        # display y up, camera z points from the eye toward the plane i.e.
        # display -z).
        u, v = px
        d = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0]) * [1.0, -1.0, -1.0]
        expected = plane.to_plane_2d(intersect_ray_plane(Ray(eye, d)))
        perceived, hit = perceived_points(eye, px, display, plane)
        assert hit
        assert np.allclose(perceived, expected, atol=1e-6)
        assert np.allclose(apply_homography(h, px), expected, atol=1e-6)


def test_upr_homography_oblique_raycast_oracle():
    display = DisplayModel(109.0, 61.0, 1080, 608,
                           rotation_x(np.deg2rad(30.0), [0.0, 0.0, 300.0]))
    plane = PLANE
    eye = EyeState.from_cyclopean([40.0, -20.0, 350.0])
    h = upr_homography(eye, display, plane)
    grid, perceived = perceived_grid(eye, display, plane)
    for px, uv in zip(grid, perceived):
        expected = raycast_plane_point(eye, display, plane, px)
        assert np.abs(uv - expected).max() < 1e-6
        assert np.abs(apply_homography(h, px) - expected).max() < 1e-6


def test_upr_homography_corner_miss_raises_without_warnings():
    # The panel 400 mm below the plane, so the plane is on the eye's side of
    # it: every corner ray points away.
    eye = EyeState.from_cyclopean([0.0, 0.0, 250.0])
    below_plane = flat_display(-400.0)
    # Panel upright (display y -> world z) with the eye level with its top
    # edge: two corner rays run exactly parallel to the plane.
    upright = DisplayModel(109.0, 61.0, 1080, 608, RigidTransform(
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]), [0.0, 0.0, 300.0]))
    level = EyeState.from_cyclopean([0.0, 30.5, 1.0])
    corners = np.array([[1080.0, 0.0], [0.0, 0.0], [0.0, 608.0], [1080.0, 608.0]])
    # perceived_points marks those rays, and only those, as misses.
    for display, e, hits in ((below_plane, eye, [False] * 4),
                             (upright, level, [False, False, True, True])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uv, hit = perceived_points(display.pose_world.apply(e.cyclopean_mm), corners,
                                       display, PLANE)
        assert hit.tolist() == hits
        assert np.isnan(uv[~hit]).all() and not np.isnan(uv[hit]).any()
        with pytest.raises(GeometryError, match="display corner ray misses the scene plane"):
            upr_homography(e, display, PLANE)


# ---- DPR mapping -------------------------------------------------------

def test_dpr_equals_upr_at_coincident_viewpoint():
    # Back camera on the display axis with FOV chosen so the image exactly
    # spans the panel: DPR draws every target where UPR does for an eye at
    # the optical center.
    display = flat_display()
    plane = PLANE
    z = 50.0
    cam = PinholeCamera(fx=320.0 * z / 54.5, fy=240.0 * z / 30.5,
                        cx=320.0, cy=240.0, width_px=640, height_px=480,
                        extrinsic=RigidTransform(np.diag([1.0, -1.0, -1.0]),
                                                 -np.diag([1.0, -1.0, -1.0]) @ np.array([0.0, 0.0, z])))
    eye = EyeState.from_cyclopean([0.0, 0.0, z])
    for uv in ([0.0, 0.0], [-150.0, 80.0], [250.0, -140.0]):
        target = plane.from_plane_2d(uv)
        p_dpr = render_target_px(RenderMode.DPR, target, None, display, back_cam=cam)
        p_upr = render_target_px(RenderMode.UPR, target, eye, display)
        assert np.allclose(p_dpr, p_upr, atol=1e-6)


def test_dpr_corner_camera_differs_from_upr():
    display = flat_display()
    plane = PLANE
    cam = offset_back_camera((50.0, -30.0, 0.0))
    eye = EyeState.from_cyclopean([0.0, 0.0, 300.0])
    target = plane.from_plane_2d([0.0, 0.0])
    p_dpr = render_target_px(RenderMode.DPR, target, None, display, back_cam=cam)
    p_upr = render_target_px(RenderMode.UPR, target, eye, display)
    assert np.allclose(p_upr, [540.0, 304.0])
    assert np.linalg.norm(p_dpr - p_upr) > 1.0


def test_fit_policies():
    # 4:3 camera on a 16:9 display: letterbox keeps local scale isotropic,
    # stretch does not.
    identity = RigidTransform(np.eye(3), np.zeros(3))
    display = DisplayModel(160.0, 90.0, 1600, 900, identity)
    cam = PinholeCamera(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                        width_px=640, height_px=480, extrinsic=identity)
    p = np.array([300.0, 200.0])
    for fit, isotropic in ((FitPolicy.LETTERBOX, True), (FitPolicy.STRETCH, False)):
        p0 = cam_px_to_display_px(p, display, cam, fit)
        dx = cam_px_to_display_px(p + [1, 0], display, cam, fit) - p0
        dy = cam_px_to_display_px(p + [0, 1], display, cam, fit) - p0
        if isotropic:
            assert abs(np.linalg.norm(dx) - np.linalg.norm(dy)) < 1e-9
        else:
            assert abs(np.linalg.norm(dx) - np.linalg.norm(dy)) > 1e-3


# ---- perceived_points --------------------------------------------------

def perceived_point(display_px, eye, display, plane):
    """perceived_points for one eye and one pixel; None where it misses."""
    uv, hit = perceived_points(display.pose_world.apply(eye.cyclopean_mm), display_px,
                               display, plane)
    return uv if hit else None


def test_perceived_center_collinear():
    display = flat_display()
    plane = PLANE
    eye = EyeState.from_cyclopean([0.0, 0.0, 250.0])
    assert np.allclose(perceived_point([540.0, 304.0], eye, display, plane),
                       [0.0, 0.0], atol=1e-9)


def test_perceived_is_raycast():
    display = DisplayModel(109.0, 61.0, 1080, 608,
                           rotation_y(0.2, [10.0, 5.0, 300.0]))
    plane = PLANE
    eye = EyeState.from_cyclopean([30.0, -40.0, 280.0])
    px = [200.0, 450.0]
    assert np.allclose(perceived_point(px, eye, display, plane),
                       raycast_plane_point(eye, display, plane, px), atol=1e-9)


def test_perceived_no_hit():
    # The panel below the plane, the eye 1 mm above the panel: the ray
    # through the panel heads away from the plane and never reaches it.
    display = flat_display(-300.0)
    eye = EyeState.from_cyclopean([0.0, 0.0, 1.0])
    assert perceived_point([540.0, 304.0], eye, display, ScenePlane((100.0, 100.0))) is None


# ---- pointing_error ----------------------------------------------------

def test_upr_exact_compensation():
    display = flat_display()
    plane = PLANE
    rng = np.random.default_rng(5)
    for _ in range(50):
        eye = EyeState.from_cyclopean(
            [rng.uniform(-100, 100), rng.uniform(-60, 60), rng.uniform(150, 450)])
        target = plane.from_plane_2d(rng.uniform(-150, 150, size=2))
        err = pointing_error(RenderMode.UPR, target, eye, eye, display, plane, fit=STRETCH)
        assert err < 1e-9


def test_fupr_regression_constant():
    display = flat_display()
    plane = PLANE
    cal_eye = EyeState.from_cyclopean([0.0, 0.0, 150.0])
    true_eye = EyeState.from_cyclopean([100.0, 0.0, 150.0])
    err = pointing_error(RenderMode.FUPR, [0.0, 0.0, 0.0], cal_eye, true_eye,
                         display, plane, fit=STRETCH)
    assert abs(err - FUPR_LATERAL_100MM_ERROR_MM) < 1e-9


def test_dpr_positive_error_with_offset_camera():
    display = flat_display()
    plane = PLANE
    cam = offset_back_camera((50.0, -30.0, 0.0))
    eye = EyeState.from_cyclopean([0.0, 0.0, 300.0])
    err_dpr = pointing_error(RenderMode.DPR, [40.0, 20.0, 0.0], None, eye,
                             display, plane, back_cam=cam, fit=STRETCH)
    err_upr = pointing_error(RenderMode.UPR, [40.0, 20.0, 0.0], eye, eye,
                             display, plane, fit=STRETCH)
    assert err_upr < 1e-9
    assert err_dpr > err_upr


def test_mode_coincidence_at_calibration_pose():
    # Stationary head exactly at the calibration pose, noise-free: UPR,
    # FUPR and AAUPR draw every target at the same pixel.
    display = flat_display()
    eye = EyeState.from_cyclopean([0.0, 0.0, 150.0])
    rng = np.random.default_rng(9)
    for _ in range(20):
        target = [rng.uniform(-150, 150), rng.uniform(-90, 90), 0.0]
        px_upr = render_target_px(RenderMode.UPR, target, eye, display)
        px_fupr = render_target_px(RenderMode.FUPR, target, eye, display)
        px_aaupr = render_target_px(RenderMode.AAUPR, target, eye, display)
        assert np.abs(px_upr - px_fupr).max() < 1e-9
        assert np.abs(px_upr - px_aaupr).max() < 1e-9


def test_dpr_error_monotone_in_camera_offset():
    display = flat_display()
    plane = PLANE
    eye = EyeState.from_cyclopean([0.0, 0.0, 250.0])
    target = [30.0, 10.0, 0.0]
    errors = []
    for off in np.arange(0.0, 101.0, 10.0):
        cam = offset_back_camera((off, 0.0, 0.0))
        errors.append(pointing_error(RenderMode.DPR, target, None, eye,
                                     display, plane, back_cam=cam, fit=STRETCH))
    assert all(b >= a - 1e-9 for a, b in zip(errors, errors[1:]))


def test_fupr_error_monotone_in_head_displacement():
    display = flat_display()
    plane = PLANE
    cal_eye = EyeState.from_cyclopean([0.0, 0.0, 150.0])
    target = [0.0, 0.0, 0.0]
    errors = []
    for dx in np.arange(0.0, 201.0, 20.0):
        true_eye = EyeState.from_cyclopean([dx, 0.0, 150.0])
        errors.append(pointing_error(RenderMode.FUPR, target, cal_eye, true_eye,
                                     display, plane, fit=STRETCH))
    assert all(b >= a - 1e-9 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("mode", list(RenderMode))
def test_pointing_error_is_one_batch_cell(mode):
    # Tilted, offset displays on either side of a tilted plane (posed in
    # the plane's frame): the scalar call equals its batch cell bit for bit,
    # and raises exactly where the cell is NaN.
    rng = np.random.default_rng(47)
    plane = ScenePlane((3000.0, 3000.0))
    nan = 0
    for k in range(40):
        pose = from_quaternion([1.0, *rng.normal(scale=0.2, size=3)],
                               [*rng.normal(scale=30.0, size=2), rng.uniform(-400.0, 400.0)])
        normal = [*rng.normal(scale=0.2, size=2), 1.0]
        display = DisplayModel(109.0, 61.0, 1080, 608,
                               compose(plane_frame([0.0, 0.0, 0.0], normal), pose))
        target = plane.from_plane_2d(rng.uniform(-300.0, 300.0, size=2))
        est, true = rng.uniform([-100.0, -100.0, 20.0], [100.0, 100.0, 600.0], size=(2, 3))
        back = offset_back_camera(rng.uniform([-50.0, -30.0, -10.0], [50.0, 30.0, 0.0]))
        fit = (FitPolicy.STRETCH, FitPolicy.LETTERBOX)[k % 2]
        cell = pointing_errors([mode], [target], [[est]], [true], display, plane,
                               back_cam=back, fit=fit)[0, 0, 0]
        args = (mode, target, EyeState.from_cyclopean(est), EyeState.from_cyclopean(true),
                display, plane, back)
        if np.isnan(cell):
            with pytest.raises(GeometryError):
                pointing_error(*args, fit=fit)
            nan += 1
        else:
            assert pointing_error(*args, fit=fit) == cell
    assert 0 < nan < 40


def test_pointing_error_requires_eye_estimate_and_back_camera():
    eye = EyeState.from_cyclopean([0.0, 0.0, 250.0])
    target = [0.0, 0.0, 0.0]
    for mode, est, message in ((RenderMode.UPR, None, "UPR requires an eye estimate"),
                               (RenderMode.DPR, eye, "DPR requires a back camera")):
        with pytest.raises(ValueError, match=message) as excinfo:
            pointing_error(mode, target, est, eye, flat_display(), PLANE, fit=STRETCH)
        assert excinfo.type is ValueError


def test_pointing_errors_match_scalar_any_pose():
    # Tilted, offset displays on either side of a tilted plane (posed in
    # the plane's frame), with the estimated and true eyes drawn
    # independently: cells cover every way the scalar path can raise,
    # including a perceived ray that points away from the plane after the
    # drawn point resolved.
    rng = np.random.default_rng(31)
    plane = ScenePlane((3000.0, 3000.0))
    misses = hits = 0
    for k in range(40):
        pose = from_quaternion([1.0, *rng.normal(scale=0.2, size=3)],
                               [*rng.normal(scale=30.0, size=2), rng.uniform(-400.0, 400.0)])
        normal = [*rng.normal(scale=0.2, size=2), 1.0]
        display = DisplayModel(109.0, 61.0, 1080, 608,
                               compose(plane_frame([0.0, 0.0, 0.0], normal), pose))
        targets = plane.from_plane_2d(rng.uniform(-300.0, 300.0, size=(4, 2)))
        est = rng.uniform([-100.0, -100.0, 20.0], [100.0, 100.0, 600.0], size=(6, 3))
        true = rng.uniform([-100.0, -100.0, 20.0], [100.0, 100.0, 600.0], size=(6, 3))
        back = offset_back_camera(rng.uniform([-50.0, -30.0, -10.0], [50.0, 30.0, 0.0]))
        fit = (FitPolicy.STRETCH, FitPolicy.LETTERBOX)[k % 2]
        batch = pointing_errors(list(RenderMode), targets, [est] * 4, true, display, plane,
                                back_cam=back, fit=fit)
        assert batch.shape == (4, 6, 4)
        for mode, errs in zip(RenderMode, batch):
            for i in range(6):
                est_eye = None if mode is RenderMode.DPR else EyeState.from_cyclopean(est[i])
                for t in range(4):
                    try:
                        ref = raycast.pointing_error(mode, targets[t], est_eye,
                                                     EyeState.from_cyclopean(true[i]),
                                                     display, plane, back_cam=back, fit=fit)
                    except GeometryError:
                        assert np.isnan(errs[i, t])
                        misses += 1
                        continue
                    # Grazing rays give errors of tens of metres, where
                    # float64 holds ~1e-12 relative, not 1e-9 mm absolute.
                    assert errs[i, t] == pytest.approx(ref, rel=1e-12, abs=1e-9)
                    hits += 1
    assert misses > 0 and hits > 0


def test_pointing_errors_degenerate_cells_are_nan():
    plane = ScenePlane((3000.0, 3000.0))
    target = np.array([[0.0, 100.0, 0.0]])
    # Panel turned upright (display y -> world z): the true eye sits level
    # with the drawn point, so its ray runs parallel to the plane.
    upright = RigidTransform(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
                             [0.0, 0.0, 300.0])
    display = DisplayModel(109.0, 61.0, 1080, 608, upright)
    est, true = [0.0, 0.0, 200.0], [0.0, -200.0, 50.0]
    with pytest.raises(GeometryError):
        raycast.pointing_error(RenderMode.UPR, target[0], EyeState.from_cyclopean(est),
                               EyeState.from_cyclopean(true), display, plane)
    assert np.isnan(pointing_errors([RenderMode.UPR], target, [[est]], [true], display,
                                    plane, fit=STRETCH)).all()
    # Panel below the plane, so the target is 150 mm in front of it: an eye
    # level with the target never crosses the panel; an eye behind the panel
    # is rejected even though its line to the target would cross it.
    display = flat_display(z_world=-150.0)
    level = EyeState.from_cyclopean([0.0, 0.0, 150.0])
    with pytest.raises(GeometryError):
        raycast.pointing_error(RenderMode.UPR, target[0], level, level, display, plane)
    errs = pointing_errors([RenderMode.UPR], target, [[[0.0, 0.0, 150.0], [0.0, 0.0, -10.0]]],
                           [[0.0, 0.0, 150.0], [0.0, 0.0, 200.0]], display, plane,
                           fit=STRETCH)
    assert np.isnan(errs).all()


#: Coordinates that repeat, that differ from each other only in the sign of
#: zero (equal values, other bits), or put an eye behind the panel (z <= 0).
EYE_COORDS = st.sampled_from([0.0, -0.0, 40.0, -60.0]) | st.floats(-200.0, 200.0)
EYE_Z = st.sampled_from([0.0, -0.0, -50.0, 150.0, 300.0]) | st.floats(-100.0, 600.0)
EYE = st.tuples(EYE_COORDS, EYE_COORDS, EYE_Z)
ZERO, NEG_ZERO, BEHIND = (0.0, 0.0, 200.0), (-0.0, 0.0, 200.0), (10.0, 0.0, -40.0)


@st.composite
def eye_runs(draw):
    """(est, true) eye rows in runs: runs of repeated rows, drawn from a
    small pool of rows, NaN estimates among them."""
    pool = draw(st.lists(st.tuples(EYE | st.just((nan, nan, nan)), EYE), min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)), max_size=6))
    return [row for row, k in runs for _ in range(k)]


#: Modes in a batch, each with the shift that rolls the shared estimate rows
#: into its own; repeats allowed, so equal rows can meet across a boundary.
MODE_SHIFTS = st.lists(st.tuples(st.sampled_from(list(RenderMode)), st.integers(0, 3)),
                       min_size=1, max_size=5)
UPR, FUPR, DPR = RenderMode.UPR, RenderMode.FUPR, RenderMode.DPR
ORIGIN = (0.0, 0.0, 0.0)  # an estimate equal to the 0 that DPR's rows hold


@settings(max_examples=100)
@given(rows=eye_runs(), modes=MODE_SHIFTS, seed=st.integers(0, 2**32 - 1))
@example(rows=[(ZERO, ZERO)] * 3 + [(NEG_ZERO, ZERO)] * 2 + [(ZERO, NEG_ZERO)],
         modes=[(UPR, 0), (DPR, 0), (FUPR, 2)], seed=5)
@example(rows=[((nan, nan, nan), ZERO)] * 2 + [(BEHIND, ZERO), (ZERO, BEHIND), (ZERO, BEHIND)],
         modes=[(RenderMode.AAUPR, 0), (DPR, 1), (UPR, 3)], seed=6)
@example(rows=[], modes=[(mode, 0) for mode in RenderMode], seed=7)
@example(rows=[(ZERO, ZERO)] * 3, modes=[(UPR, 0), (UPR, 0), (DPR, 0), (DPR, 0)], seed=8)
@example(rows=[(ORIGIN, ZERO)] * 2, modes=[(UPR, 0), (DPR, 0), (FUPR, 0)], seed=9)
def test_pointing_errors_rows_equal_each_row_alone(rows, modes, seed):
    # Every step of the pointing path is elementwise per row, so evaluating
    # a run of bit-equal rows once and expanding it changes no bit: a batch
    # of modes equals every mode's every row evaluated alone. DPR ignores
    # its estimate, so its rows repeat when the true eyes do, whatever the
    # estimates, and it may pass None. Runs never cross a mode boundary, and
    # every mode's runs reach the ray/plane hit in one call.
    rng = np.random.default_rng(seed)
    pose = from_quaternion([1.0, *rng.normal(scale=0.2, size=3)],
                           [*rng.normal(scale=30.0, size=2), rng.uniform(-200.0, 0.0)])
    normal = [*rng.normal(scale=0.2, size=2), 1.0]
    display = DisplayModel(109.0, 61.0, 1080, 608,
                           compose(plane_frame([0.0, 0.0, -300.0], normal), pose))
    plane = ScenePlane((3000.0, 3000.0))
    targets = plane.from_plane_2d(rng.uniform(-300.0, 300.0, size=(3, 2)))
    back = offset_back_camera(rng.uniform([-50.0, -30.0, -10.0], [50.0, 30.0, 0.0]))
    est, true = np.array(rows, dtype=float).reshape(len(rows), 2, 3).transpose(1, 0, 2)
    modes, ests = [mode for mode, _ in modes], [np.roll(est, k, axis=0) for _, k in modes]
    runs = 0
    for mode, e in zip(modes, ests):
        key = true if mode is DPR else np.concatenate([e, true], axis=1)
        bits = key.view(np.int64)
        runs += int((bits[1:] != bits[:-1]).any(axis=1).sum()) + bool(len(rows))
    intersect, hit_rows = viewgen.intersect_ray_plane, []

    def spy(origins, directions):
        hit_rows.append(len(origins))
        return intersect(origins, directions)

    with mock.patch.object(viewgen, "intersect_ray_plane", spy):
        batch = pointing_errors(modes, targets, ests, true, display, plane, back_cam=back,
                                fit=STRETCH)
    assert hit_rows == [runs]
    assert batch.shape == (len(modes), len(rows), 3)
    alone = [[pointing_errors([mode], targets, [e[i:i + 1]], true[i:i + 1], display, plane,
                              back_cam=back, fit=STRETCH)[0, 0] for i in range(len(rows))]
             for mode, e in zip(modes, ests)]
    assert batch.view(np.int64).tolist() == np.reshape(alone, batch.shape).view(np.int64).tolist()
    dpr_none = [None if mode is DPR else e for mode, e in zip(modes, ests)]
    ignored = pointing_errors(modes, targets, dpr_none, true, display, plane, back_cam=back,
                              fit=STRETCH)
    assert ignored.view(np.int64).tolist() == batch.view(np.int64).tolist()
