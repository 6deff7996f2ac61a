"""Dual thresholding: gate expensive 3D head-pose recomputation behind cheap
image-space eye motion.

Per front-camera frame, with eye pixel positions from the flow tracker as
four floats (left u, v, right u, v):

    E  = |pos_eye_calc - pos_eye_flow|       (motion since last recomputation)
    dE = |pos_eye_flow_last - pos_eye_flow|  (motion since last frame)

    recalculate iff  E > eps  OR  (dE < eps * refine_factor AND not is_precise)

The spatial condition catches large head motion; the temporal condition
recomputes once motion settles, so the pose is precise during interaction.

Three policies for the skip branch:
  verbatim - is_precise drops to False on every skip. On a perfectly
             stationary stream this recomputes on every second frame.
  latched  - is_precise stays True until E exceeds eps * refine_factor,
             which quiesces a stationary stream after one recomputation.
  decaying - like verbatim, plus eps decays multiplicatively on every skip
             toward a floor, and resets to its maximum on recomputation.

The rule is stated once, in schedule, which runs a whole trace with the
state (calc, flow_last, is_precise, eps) in locals, and the metric once, in
eye_distance_px, which it calls for E and dE.
"""

from __future__ import annotations

import enum
from math import nan, sqrt

from .geometry import Value, check_fields, nonnegative, positive, within

#: Flow-tracker failure marker that schedule() accepts in place of eye positions.
FLOW_FAILURE = None


class Policy(enum.Enum):
    VERBATIM = "verbatim"
    LATCHED = "latched"
    DECAYING = "decaying"


class EyeMetric(enum.Enum):
    """Norm reducing the two per-eye pixel distances to one scalar."""

    MAX = "max"
    MEAN = "mean"


class Reason(enum.Enum):
    SPATIAL = "spatial"        # E > eps
    REFINE = "refine"          # dE small while imprecise
    FLOW_FAILURE = "flow_failure"
    INITIAL = "initial"


class ThresholdConfig(Value):
    """The scheduler's thresholds. eps_min_px floors the decaying eps; 0 is 0.1 * eps_max_px."""

    eps_max_px: float = positive()
    refine_factor: float = within("in (0, 1)", lambda v: 0 < v < 1)
    policy: Policy
    decay_rate: float = within("in (0, 1]", lambda v: 0 < v <= 1)
    eps_min_px: float = nonnegative()  # 0 -> 0.1 * eps_max_px
    metric: EyeMetric

    def __post_init__(self):
        check_fields(self)
        if self.policy is Policy.DECAYING and not 0 < self.floor_px <= self.eps_max_px:
            raise ValueError("eps_min_px must be in (0, eps_max_px]")

    @property
    def floor_px(self) -> float:
        return self.eps_min_px or 0.1 * self.eps_max_px


_MAX = EyeMetric.MAX  # bound once: an enum member lookup costs a descriptor call


def epsilon_default(width_px: int, height_px: int) -> float:
    """Spatial threshold default: 3% of the input image diagonal in pixels.
    A complex's abs is the C library's hypot, as numpy's hypot is, so the two
    agree bit for bit; math.hypot rounds otherwise on some sizes."""
    return 0.03 * abs(complex(width_px, height_px))


def eye_distance_px(a, b, metric: EyeMetric) -> float:
    """Reduce per-eye pixel displacements between two eye pairs, each a
    4-tuple (left u, v, right u, v), to a scalar by metric: MAX, which
    triggers on either eye moving, or MEAN. Each distance is
    sqrt(dx*dx + dy*dy) on Python floats: np.linalg.norm's operations in its
    order, so the two agree bit for bit at a fraction of the cost."""
    dx0, dy0, dx1, dy1 = a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]
    d0, d1 = sqrt(dx0 * dx0 + dy0 * dy0), sqrt(dx1 * dx1 + dy1 * dy1)
    return max(d0, d1) if metric is _MAX else (d0 + d1) / 2


def schedule(flows, cfg: ThresholdConfig, recompute) -> tuple[tuple, tuple, tuple, list]:
    """A whole trace's decisions, with the state in locals: a Reason per
    recalculation, None per skip. Frame 0 has no anchor, so it recalculates
    (INITIAL, or FLOW_FAILURE, which keeps flow_last). flows yields each
    frame's eye pixels as four floats, or FLOW_FAILURE, one frame at a time,
    after the previous frame's recompute call. On a recalculation at frame i,
    recompute(i, k), k the number of earlier recalculations, returns the
    recomputed eyes' pixels, and the state re-anchors on them: precise, eps at
    its max; the first also seeds flow_last. Returns the reason, E and dE
    columns and the requests."""
    eps_max, refine_factor, metric = cfg.eps_max_px, cfg.refine_factor, cfg.metric
    floor, decay_rate = cfg.floor_px, cfg.decay_rate
    latched, decaying = cfg.policy is Policy.LATCHED, cfg.policy is Policy.DECAYING
    spatial, refining = Reason.SPATIAL, Reason.REFINE  # bound once, as _MAX
    refine_max = refine_factor * eps_max
    calc = flow_last = None
    is_precise, eps, refine = False, eps_max, refine_max
    rows, requests = [], []
    append = rows.append
    for i, flow in enumerate(flows):
        if flow is FLOW_FAILURE:
            append((Reason.FLOW_FAILURE, nan, nan))
        elif calc is None:
            flow_last = flow
            append((Reason.INITIAL, nan, nan))
        else:
            e = eye_distance_px(calc, flow, metric)
            de = eye_distance_px(flow_last, flow, metric)  # each anchor sets flow_last
            flow_last = flow
            if e > eps:
                append((spatial, e, de))
            elif de < refine and not is_precise:
                append((refining, e, de))
            else:
                append((None, e, de))
                is_precise = latched and is_precise and e <= refine
                if decaying:
                    eps = max(floor, eps * decay_rate)
                    refine = refine_factor * eps
                continue
        calc = recompute(i, len(requests))
        if flow_last is None:
            flow_last = calc
        is_precise, eps, refine = True, eps_max, refine_max
        requests.append(i)
    reasons, e_px, delta_e_px = zip(*rows) if rows else ((),) * 3
    return reasons, e_px, delta_e_px, requests
