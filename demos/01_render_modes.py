"""Why user-perspective rendering matters: pointing error per render mode.

A handheld display hovers 300 mm above an installed screen. We place a
target on the screen and ask each render mode to draw it, then measure how
far from the target a user (whose eye is NOT where each mode assumes)
perceives the drawn dot.

Run: python3 demos/01_render_modes.py
"""

import numpy as np

from uprsim import ExperimentConfig
from uprsim.viewgen import RenderMode, pointing_errors

# The simulator's rig: a 109 x 61 mm panel 300 mm above a 506 x 287 mm
# screen, and its corner-mounted back camera.
config = ExperimentConfig()
display, plane, cam = config.display(), config.plane(), config.back_cam()
target = plane.from_plane_2d([[100.0, 50.0]])

# One row per head offset: the user's eye, 150 mm from the display.
laterals = [0.0, 50.0, 100.0, 150.0, 200.0, 250.0]
true_eyes = np.array([[x, 0.0, 150.0] for x in laterals])
# FUPR's eye: on the display's center axis, at the head-to-device distance
# measured once.
calibration_eyes = np.tile([0.0, 0.0, 150.0], (len(laterals), 1))

# UPR tracks the head perfectly here; FUPR keeps the calibration eye;
# DPR uses the back camera and ignores the head entirely.
# One pass evaluates every mode: (mode, head offset, target) errors.
modes = [RenderMode.DPR, RenderMode.UPR, RenderMode.FUPR]
errs = pointing_errors(modes, target, [None, true_eyes, calibration_eyes], true_eyes,
                       display, plane, back_cam=cam, fit=config.fit_policy())[:, :, 0]

print(f"{'head offset':>12} {'DPR':>8} {'UPR':>8} {'FUPR':>8}   (pointing error, mm)")
for row in zip(laterals, *errs):
    print("{:>9.0f} mm {:>8.1f} {:>8.1f} {:>8.1f}".format(*row))

print()
print("UPR compensates exactly; FUPR degrades as the head leaves the")
print("calibration pose; DPR is wrong even with a perfectly still head.")
