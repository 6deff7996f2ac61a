"""Dual thresholding: gate expensive 3D head-pose recomputation behind cheap
image-space eye motion.

Per front-camera frame, with eye pixel positions from the flow tracker:

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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PinholeCamera, check_fields, positive, within

#: Flow-tracker failure marker accepted by step() in place of eye positions.
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


class ProtocolError(RuntimeError):
    """apply_recalculation called without a preceding Recalculate decision."""


@dataclass(frozen=True)
class ThresholdConfig:
    eps_max_px: float = positive()
    refine_factor: float = within("in (0, 1)", lambda v: 0 < v < 1, 0.1)
    policy: Policy = Policy.VERBATIM
    decay_rate: float = within("in (0, 1]", lambda v: 0 < v <= 1, 0.98)
    eps_min_px: float | None = None  # defaults to 0.1 * eps_max_px
    metric: EyeMetric = EyeMetric.MAX

    def __post_init__(self):
        check_fields(self)
        if self.policy is Policy.DECAYING and not 0 < self.floor_px <= self.eps_max_px:
            raise ValueError("eps_min_px must be in (0, eps_max_px]")

    @property
    def floor_px(self) -> float:
        return self.eps_min_px if self.eps_min_px is not None else 0.1 * self.eps_max_px


@dataclass(frozen=True)
class SchedulerState:
    """Value threaded through step/apply_recalculation; no interior mutation.

    pos_eye_calc: eye pixels (left u, v, right u, v) at the last precise recomputation.
    pos_eye_flow_last: previous frame's flow-tracked eye pixels, the same 4 floats.
    """

    pos_eye_calc: tuple[float, float, float, float] | None
    pos_eye_flow_last: tuple[float, float, float, float] | None
    is_precise: bool
    frames_since_update: int
    eps_current_px: float
    pending_recalc: bool = False


def initial_state(cfg: ThresholdConfig) -> SchedulerState:
    """State before any recomputation; the first step forces Recalculate."""
    return SchedulerState(pos_eye_calc=None, pos_eye_flow_last=None,
                          is_precise=False, frames_since_update=0,
                          eps_current_px=cfg.eps_max_px)


def epsilon_default(front_cam: PinholeCamera) -> float:
    """Spatial threshold default: 3% of the input image diagonal in pixels."""
    return 0.03 * front_cam.diagonal_px()


def _px4(px) -> tuple[float, float, float, float]:
    """Four floats from four values or any (2, 2)-shaped eye pixels."""
    return tuple(map(float, px if len(px) == 4 else np.reshape(px, 4)))


def eye_distance_px(a, b, metric: EyeMetric = EyeMetric.MAX) -> float:
    """Reduce per-eye pixel displacements between two eye pairs, each a
    4-tuple (left u, v, right u, v), to a scalar.

    Default is the maximum over the two eyes (conservative: triggers on
    either eye moving). Each distance is sqrt(dx*dx + dy*dy) on Python
    floats: np.linalg.norm's operations in its order, so the two agree bit
    for bit at a fraction of the cost."""
    dx0, dy0, dx1, dy1 = a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]
    d0, d1 = math.sqrt(dx0 * dx0 + dy0 * dy0), math.sqrt(dx1 * dx1 + dy1 * dy1)
    return max(d0, d1) if metric is EyeMetric.MAX else (d0 + d1) / 2


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    reason: Reason | None
    e_px: float
    delta_e_px: float


def _recalc(state: SchedulerState, reason: Reason, e: float, de: float,
            flow: tuple | None) -> tuple[Decision, SchedulerState]:
    new = SchedulerState(state.pos_eye_calc,
                         flow if flow is not None else state.pos_eye_flow_last,
                         state.is_precise, state.frames_since_update,
                         state.eps_current_px, pending_recalc=True)
    return Decision(DecisionKind.RECALCULATE, reason, e, de), new


def step(state: SchedulerState, pos_eye_flow, cfg: ThresholdConfig) -> tuple[Decision, SchedulerState]:
    """One scheduling decision for one front-camera frame.

    pos_eye_flow is the flow-tracked eye pixels, (2, 2)-shaped or four
    values (left u, v, right u, v), or FLOW_FAILURE when the flow tracker
    lost the eyes (which forces a recomputation; failure is a valid input).

    A Recalculate decision must be completed with apply_recalculation before
    the next step.
    """
    if state.pending_recalc:
        raise ProtocolError("previous Recalculate decision was never applied")
    if pos_eye_flow is FLOW_FAILURE:
        return _recalc(state, Reason.FLOW_FAILURE, float("nan"), float("nan"), None)
    flow = _px4(pos_eye_flow)
    if state.pos_eye_calc is None:
        return _recalc(state, Reason.INITIAL, float("nan"), float("nan"), flow)

    e = eye_distance_px(state.pos_eye_calc, flow, cfg.metric)
    de = (eye_distance_px(state.pos_eye_flow_last, flow, cfg.metric)
          if state.pos_eye_flow_last is not None else float("inf"))
    eps = state.eps_current_px

    if e > eps:
        return _recalc(state, Reason.SPATIAL, e, de, flow)
    if de < cfg.refine_factor * eps and not state.is_precise:
        return _recalc(state, Reason.REFINE, e, de, flow)

    # Skip branch.
    precise = cfg.policy is Policy.LATCHED and state.is_precise and e <= cfg.refine_factor * eps
    eps_next = max(cfg.floor_px, eps * cfg.decay_rate) if cfg.policy is Policy.DECAYING else eps
    new = SchedulerState(state.pos_eye_calc, flow, precise,
                         state.frames_since_update + 1, eps_next)
    return Decision(DecisionKind.SKIP, None, e, de), new


def apply_recalculation(state: SchedulerState, new_eye_px, cfg: ThresholdConfig) -> SchedulerState:
    """Complete a Recalculate decision with the recomputed eyes' front-camera
    projections, in any form step takes. Resets the threshold to its max."""
    if not state.pending_recalc:
        raise ProtocolError("apply_recalculation called after a Skip decision")
    eyes = _px4(new_eye_px)
    flow_last = state.pos_eye_flow_last if state.pos_eye_flow_last is not None else eyes
    return SchedulerState(pos_eye_calc=eyes, pos_eye_flow_last=flow_last,
                          is_precise=True, frames_since_update=0,
                          eps_current_px=cfg.eps_max_px, pending_recalc=False)
