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

The rule is stated once, in _rule, on plain values, and the state after a
recomputation once, in _anchor. schedule runs a whole trace, with the state
(calc, flow_last, is_precise, eps) in locals: one _rule call per frame, and
one _anchor call per recalculation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import inf, nan, sqrt

from .geometry import PinholeCamera, check_fields, nonnegative, positive, within

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


class DecisionKind(enum.Enum):
    RECALCULATE = "recalculate"
    SKIP = "skip"


class Reason(enum.Enum):
    SPATIAL = "spatial"        # E > eps
    REFINE = "refine"          # dE small while imprecise
    FLOW_FAILURE = "flow_failure"
    INITIAL = "initial"


@dataclass(frozen=True)
class ThresholdConfig:
    """The scheduler's thresholds. eps_min_px floors the decaying eps; 0 is 0.1 * eps_max_px."""

    eps_max_px: float = positive()
    refine_factor: float = within("in (0, 1)", lambda v: 0 < v < 1, 0.1)
    policy: Policy = Policy.VERBATIM
    decay_rate: float = within("in (0, 1]", lambda v: 0 < v <= 1, 0.98)
    eps_min_px: float = nonnegative(0.0)  # 0 -> 0.1 * eps_max_px
    metric: EyeMetric = EyeMetric.MAX

    def __post_init__(self):
        check_fields(self)
        if self.policy is Policy.DECAYING and not 0 < self.floor_px <= self.eps_max_px:
            raise ValueError("eps_min_px must be in (0, eps_max_px]")

    @property
    def floor_px(self) -> float:
        return self.eps_min_px or 0.1 * self.eps_max_px


# Bound once: read on every frame, and an enum member lookup costs a descriptor call.
_MAX, _LATCHED, _DECAYING = EyeMetric.MAX, Policy.LATCHED, Policy.DECAYING
_RECALCULATE, _SKIP, _FAILED = DecisionKind.RECALCULATE, DecisionKind.SKIP, Reason.FLOW_FAILURE
_SPATIAL, _REFINE, _INITIAL = Reason.SPATIAL, Reason.REFINE, Reason.INITIAL


def epsilon_default(front_cam: PinholeCamera) -> float:
    """Spatial threshold default: 3% of the input image diagonal in pixels."""
    return 0.03 * front_cam.diagonal_px()


def eye_distance_px(a, b, metric: EyeMetric = _MAX) -> float:
    """Reduce per-eye pixel displacements between two eye pairs, each a
    4-tuple (left u, v, right u, v), to a scalar.

    Default is the maximum over the two eyes (conservative: triggers on
    either eye moving). Each distance is sqrt(dx*dx + dy*dy) on Python
    floats: np.linalg.norm's operations in its order, so the two agree bit
    for bit at a fraction of the cost."""
    dx0, dy0, dx1, dy1 = a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]
    d0, d1 = sqrt(dx0 * dx0 + dy0 * dy0), sqrt(dx1 * dx1 + dy1 * dy1)
    return max(d0, d1) if metric is _MAX else (d0 + d1) / 2


def _rule(calc, flow_last, is_precise, eps, flow, cfg: ThresholdConfig):
    """One frame's decision on plain values: (reason, E, dE, and the next
    flow_last, is_precise and eps). reason is None on Skip; on Recalculate,
    is_precise and eps come back unchanged, for _anchor to replace. flow is
    four floats or FLOW_FAILURE, which keeps flow_last."""
    if flow is FLOW_FAILURE:
        return _FAILED, nan, nan, flow_last, is_precise, eps
    if calc is None:
        return _INITIAL, nan, nan, flow, is_precise, eps
    metric, refine = cfg.metric, cfg.refine_factor * eps
    e = eye_distance_px(calc, flow, metric)
    de = eye_distance_px(flow_last, flow, metric) if flow_last is not None else inf
    if e > eps:
        return _SPATIAL, e, de, flow, is_precise, eps
    if de < refine and not is_precise:
        return _REFINE, e, de, flow, is_precise, eps
    policy = cfg.policy
    precise = policy is _LATCHED and is_precise and e <= refine
    eps_next = max(cfg.floor_px, eps * cfg.decay_rate) if policy is _DECAYING else eps
    return None, e, de, flow, precise, eps_next


def _anchor(eyes, flow_last, cfg: ThresholdConfig):
    """(calc, flow_last, is_precise, eps) after a recomputation at eyes:
    precise, with eps at its max; the first one also seeds flow_last."""
    return eyes, eyes if flow_last is None else flow_last, True, cfg.eps_max_px


def schedule(flows, cfg: ThresholdConfig, recompute) -> tuple[tuple, tuple, tuple, tuple, list]:
    """A whole trace's decisions, with the state in locals. It starts with no
    anchor, so frame 0 always recalculates (INITIAL, or FLOW_FAILURE).

    flows yields each frame's flow-tracked eye pixels as four floats, or
    FLOW_FAILURE; it is read one frame at a time, after the previous frame's
    recompute call. On Recalculate at frame i, recompute(i, k), k the number
    of earlier recalculations, returns the recomputed eyes' projections as
    four floats, and the state re-anchors on them. Returns the kind, reason,
    E and dE columns as tuples and the request (recalculation) frames.
    """
    calc = flow_last = None
    is_precise, eps = False, cfg.eps_max_px
    rows, requests = [], []
    for i, flow in enumerate(flows):
        reason, e, de, flow_last, is_precise, eps = _rule(calc, flow_last, is_precise, eps,
                                                          flow, cfg)
        if reason is None:
            rows.append((_SKIP, None, e, de))
        else:
            rows.append((_RECALCULATE, reason, e, de))
            calc, flow_last, is_precise, eps = _anchor(recompute(i, len(requests)), flow_last, cfg)
            requests.append(i)
    kinds, reasons, e_px, delta_e_px = zip(*rows) if rows else ((),) * 4
    return kinds, reasons, e_px, delta_e_px, requests
