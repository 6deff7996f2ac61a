"""The dual-thresholding scheduler, frame by frame.

We feed the scheduler a scripted stream of flow-tracked eye pixels: a hold,
a fast move, settling, and a tracking dropout. Watch when it decides to pay
for a full head-pose recomputation and why.

Run: python3 demos/02_dual_thresholding.py
"""

import math

from uprsim import ExperimentConfig
from uprsim.scheduler import FLOW_FAILURE, schedule


def eyes(x):
    """Flow-tracked eye pixels: left u, v, right u, v."""
    return (x, 240.0, x + 60.0, 240.0)


# Eye x-position over time: hold, sweep right, settle, dropout, hold.
script = ([eyes(100.0)] * 4
          + [eyes(100.0 + 15.0 * k) for k in range(1, 7)]  # 15 px/frame sweep
          + [eyes(190.0), eyes(190.5), eyes(190.7)]        # settling
          + [FLOW_FAILURE]                                 # flow tracker loses the face
          + [eyes(190.7)] * 3)

cfg = ExperimentConfig().threshold_config()  # eps: 3% of a 640x480 diagonal
# In the real pipeline each recomputation runs the expensive face tracker;
# here the "recomputed" eyes are just the flow positions.
reasons, e_px, delta_e_px, _ = schedule(
    script, cfg, lambda i, k: script[i] if script[i] is not FLOW_FAILURE else eyes(190.7))

print(f"eps = {cfg.eps_max_px} px, refine condition: dE < {cfg.refine_factor} * eps")
print(f"{'frame':>5} {'flow x':>8} {'E':>7} {'dE':>7}  decision")
for i, (flow, reason, e, de) in enumerate(zip(script, reasons, e_px, delta_e_px)):
    what = f"RECALCULATE ({reason.value})" if reason else "skip"  # a skip has no reason
    x = "lost" if flow is None else f"{flow[0]:.1f}"
    e = "-" if math.isnan(e) else f"{e:.1f}"
    de = "-" if math.isnan(de) else f"{de:.1f}"
    print(f"{i:>5} {x:>8} {e:>7} {de:>7}  {what}")

print()
print("Fast motion trips the spatial threshold; settling trips the refine")
print("condition so the pose is precise right when interaction happens;")
print("a flow dropout always forces a recomputation.")
