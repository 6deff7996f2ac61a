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

from .geometry import PinholeCamera

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
    eps_max_px: float
    refine_factor: float = 0.1
    policy: Policy = Policy.VERBATIM
    decay_rate: float = 0.98
    eps_min_px: float | None = None  # defaults to 0.1 * eps_max_px
    metric: EyeMetric = EyeMetric.MAX

    def __post_init__(self):
        if not 0 < self.eps_max_px < np.inf:
            raise ValueError("eps_max_px must be positive and finite")
        if not 0 < self.refine_factor < 1:
            raise ValueError("refine_factor must be in (0, 1)")
        if self.policy is Policy.DECAYING:
            if not 0 < self.decay_rate <= 1:
                raise ValueError("decay_rate must be in (0, 1]")
            if not 0 < self.floor_px <= self.eps_max_px:
                raise ValueError("eps_min_px must be in (0, eps_max_px]")

    @property
    def floor_px(self) -> float:
        return self.eps_min_px if self.eps_min_px is not None else 0.1 * self.eps_max_px


@dataclass(frozen=True)
class SchedulerState:
    """Value threaded through step/apply_recalculation; no interior mutation.

    pos_eye_calc: eye pixels recorded at the last precise recomputation.
    pos_eye_flow_last: previous frame's flow-tracked eye pixels.
    """

    pos_eye_calc: np.ndarray | None
    pos_eye_flow_last: np.ndarray | None
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


def eye_distance_px(a, b, metric: EyeMetric = EyeMetric.MAX) -> float:
    """Reduce per-eye pixel displacements between two eye pairs to a scalar.

    Default is the maximum over the two eyes (conservative: triggers on
    either eye moving). Each distance is sqrt(dx*dx + dy*dy) on Python
    floats: np.linalg.norm's operations in its order, so the two agree bit
    for bit at a fraction of the cost."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = [math.sqrt(dx * dx + dy * dy) for dx, dy in diff.tolist()]
    return max(d) if metric is EyeMetric.MAX else sum(d) / len(d)


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    reason: Reason | None
    e_px: float
    delta_e_px: float


def _recalc(state: SchedulerState, reason: Reason, e: float, de: float,
            flow: np.ndarray | None) -> tuple[Decision, SchedulerState]:
    new = SchedulerState(state.pos_eye_calc,
                         flow if flow is not None else state.pos_eye_flow_last,
                         state.is_precise, state.frames_since_update,
                         state.eps_current_px, pending_recalc=True)
    return Decision(DecisionKind.RECALCULATE, reason, e, de), new


def step(state: SchedulerState, pos_eye_flow, cfg: ThresholdConfig) -> tuple[Decision, SchedulerState]:
    """One scheduling decision for one front-camera frame.

    pos_eye_flow is a (2, 2) array of flow-tracked eye pixels, or
    FLOW_FAILURE when the flow tracker lost the eyes (which forces a
    recomputation; failure is a valid input, not an error).

    A Recalculate decision must be completed with apply_recalculation before
    the next step.
    """
    if state.pending_recalc:
        raise ProtocolError("previous Recalculate decision was never applied")
    if pos_eye_flow is FLOW_FAILURE:
        return _recalc(state, Reason.FLOW_FAILURE, float("nan"), float("nan"), None)
    flow = np.asarray(pos_eye_flow, dtype=float).reshape(2, 2)
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
    if cfg.policy is Policy.LATCHED:
        precise = state.is_precise and e <= cfg.refine_factor * eps
    else:
        precise = False
    eps_next = eps
    if cfg.policy is Policy.DECAYING:
        eps_next = max(cfg.floor_px, eps * cfg.decay_rate)
    new = SchedulerState(state.pos_eye_calc, flow, precise,
                         state.frames_since_update + 1, eps_next)
    return Decision(DecisionKind.SKIP, None, e, de), new


def apply_recalculation(state: SchedulerState, new_eye_px, cfg: ThresholdConfig) -> SchedulerState:
    """Complete a Recalculate decision with the recomputed eyes' front-camera
    projections. Resets the threshold to its maximum."""
    if not state.pending_recalc:
        raise ProtocolError("apply_recalculation called after a Skip decision")
    eyes = np.asarray(new_eye_px, dtype=float).reshape(2, 2)
    flow_last = state.pos_eye_flow_last if state.pos_eye_flow_last is not None else eyes
    return SchedulerState(pos_eye_calc=eyes, pos_eye_flow_last=flow_last,
                          is_precise=True, frames_since_update=0,
                          eps_current_px=cfg.eps_max_px, pending_recalc=False)
