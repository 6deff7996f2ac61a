"""The dual-thresholding scheduler, frame by frame.

We feed the scheduler a scripted stream of flow-tracked eye pixels: a hold,
a fast move, settling, and a tracking dropout. Watch when it decides to pay
for a full head-pose recomputation and why.

Run: python3 demos/02_dual_thresholding.py
"""

import math

from uprsim.scheduler import (
    FLOW_FAILURE,
    DecisionKind,
    ThresholdConfig,
    apply_recalculation,
    initial_state,
    step,
)


def eyes(x):
    """Flow-tracked eye pixels: left u, v, right u, v."""
    return (x, 240.0, x + 60.0, 240.0)


# Eye x-position over time: hold, sweep right, settle, dropout, hold.
script = ([eyes(100.0)] * 4
          + [eyes(100.0 + 15.0 * k) for k in range(1, 7)]  # 15 px/frame sweep
          + [eyes(190.0), eyes(190.5), eyes(190.7)]        # settling
          + [FLOW_FAILURE]                                 # flow tracker loses the face
          + [eyes(190.7)] * 3)

cfg = ThresholdConfig(eps_max_px=24.0)  # 3% of a 640x480 diagonal
state = initial_state(cfg)

print(f"eps = {cfg.eps_max_px} px, refine condition: dE < {cfg.refine_factor} * eps")
print(f"{'frame':>5} {'flow x':>8} {'E':>7} {'dE':>7}  decision")
for i, flow in enumerate(script):
    decision, state = step(state, flow, cfg)
    if decision.kind is DecisionKind.RECALCULATE:
        # In the real pipeline this is where the expensive face tracker
        # runs; here the "recomputed" eyes are just the flow positions.
        new_eyes = flow if flow is not None else eyes(190.7)
        state = apply_recalculation(state, new_eyes, cfg)
        what = f"RECALCULATE ({decision.reason.value})"
    else:
        what = "skip"
    x = "lost" if flow is None else f"{flow[0]:.1f}"
    e = "-" if math.isnan(decision.e_px) else f"{decision.e_px:.1f}"
    de = "-" if math.isnan(decision.delta_e_px) else f"{decision.delta_e_px:.1f}"
    print(f"{i:>5} {x:>8} {e:>7} {de:>7}  {what}")

print()
print("Fast motion trips the spatial threshold; settling trips the refine")
print("condition so the pose is precise right when interaction happens;")
print("a flow dropout always forces a recomputation.")
