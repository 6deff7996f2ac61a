"""Why user-perspective rendering matters: pointing error per render mode.

A handheld display hovers 300 mm above an installed screen. We place a
target on the screen and ask each render mode to draw it, then measure how
far from the target a user (whose eye is NOT where each mode assumes)
perceives the drawn dot.

Run: python3 demos/01_render_modes.py
"""

import numpy as np

from uprsim import (
    DisplayModel,
    EyeState,
    RigidTransform,
    ScenePlane,
    back_camera,
)
from uprsim.viewgen import RenderMode, pointing_error

display = DisplayModel(109.0, 61.0, 1080, 608,
                       RigidTransform(np.eye(3), [0.0, 0.0, 300.0]))
plane = ScenePlane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], (506.0, 287.0))
cam = back_camera()  # corner-mounted, looking at the screen

# FUPR's eye: on the display's center axis, at the head-to-device distance
# measured once.
calibration_eye = EyeState.from_cyclopean([0.0, 0.0, 150.0])

print(f"{'head offset':>12} {'DPR':>8} {'UPR':>8} {'FUPR':>8}   (pointing error, mm)")
for lateral in (0.0, 50.0, 100.0, 150.0, 200.0, 250.0):
    true_eye = EyeState.from_cyclopean([lateral, 0.0, 150.0])
    target = plane.from_plane_2d([100.0, 50.0])
    errs = {}
    # UPR tracks the head perfectly here; FUPR keeps the calibration eye;
    # DPR uses the back camera and ignores the head entirely.
    errs["UPR"] = pointing_error(RenderMode.UPR, target, true_eye, true_eye,
                                 display, plane)
    errs["FUPR"] = pointing_error(RenderMode.FUPR, target, calibration_eye,
                                  true_eye, display, plane)
    errs["DPR"] = pointing_error(RenderMode.DPR, target, None, true_eye,
                                 display, plane, back_cam=cam)
    print(f"{lateral:>9.0f} mm {errs['DPR']:>8.1f} {errs['UPR']:>8.1f} {errs['FUPR']:>8.1f}")

print()
print("UPR compensates exactly; FUPR degrades as the head leaves the")
print("calibration pose; DPR is wrong even with a perfectly still head.")
