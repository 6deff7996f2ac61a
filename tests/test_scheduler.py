import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uprsim.geometry import PinholeCamera
from uprsim.scheduler import (
    FLOW_FAILURE,
    DecisionKind,
    EyeMetric,
    Policy,
    ProtocolError,
    Reason,
    SchedulerState,
    ThresholdConfig,
    apply_recalculation,
    epsilon_default,
    eye_distance_px,
    initial_state,
    step,
)


def cfg(**kw) -> ThresholdConfig:
    kw.setdefault("eps_max_px", 24.0)
    return ThresholdConfig(**kw)


def eyes(x: float, y: float = 100.0) -> np.ndarray:
    """Two eye points, 60 px apart horizontally."""
    return np.array([[x, y], [x + 60.0, y]])


def px4(a) -> tuple:
    """Eye pixels in the 4-tuple form a SchedulerState holds."""
    return tuple(np.ravel(a).tolist())


def state_with(calc, flow_last, precise, eps=24.0) -> SchedulerState:
    return SchedulerState(pos_eye_calc=px4(calc), pos_eye_flow_last=px4(flow_last),
                          is_precise=precise, frames_since_update=3,
                          eps_current_px=eps)


# ---- epsilon default ---------------------------------------------------

def test_epsilon_default_640x480():
    cam = PinholeCamera(fx=500, fy=500, cx=320, cy=240, width_px=640, height_px=480)
    assert epsilon_default(cam) == 24.0


def test_epsilon_default_320x240():
    cam = PinholeCamera(fx=500, fy=500, cx=160, cy=120, width_px=320, height_px=240)
    assert epsilon_default(cam) == 12.0


def test_invalid_camera_rejected_upstream():
    with pytest.raises(ValueError):
        PinholeCamera(fx=500, fy=500, cx=500, cy=0, width_px=1000, height_px=0)


# ---- the five step truth-table cases -----------------------------------

def test_spatial_trigger():
    # E = 30 > eps = 24 -> Recalculate(spatial), regardless of dE.
    d, _ = step(state_with(eyes(0.0), eyes(25.0), precise=True), eyes(30.0), cfg())
    assert d.kind is DecisionKind.RECALCULATE and d.reason is Reason.SPATIAL
    assert d.e_px == pytest.approx(30.0)


def test_refine_trigger():
    # E = 5, dE = 1 < 2.4, imprecise -> Recalculate(refine).
    d, _ = step(state_with(eyes(0.0), eyes(4.0), precise=False), eyes(5.0), cfg())
    assert d.kind is DecisionKind.RECALCULATE and d.reason is Reason.REFINE
    assert d.e_px == pytest.approx(5.0)
    assert d.delta_e_px == pytest.approx(1.0)


def test_precise_skip_drops_precision():
    # Same E/dE but precise -> Skip, and is_precise falls to False.
    d, s = step(state_with(eyes(0.0), eyes(4.0), precise=True), eyes(5.0), cfg())
    assert d.kind is DecisionKind.SKIP and d.reason is None
    assert s.is_precise is False
    assert s.frames_since_update == 4


def test_neither_disjunct_skip():
    # E = 5 <= 24, dE = 10 >= 2.4 -> Skip even while imprecise.
    d, _ = step(state_with(eyes(0.0), eyes(-5.0), precise=False), eyes(5.0), cfg())
    assert d.kind is DecisionKind.SKIP


def test_flow_failure_forces_recalculation():
    d, _ = step(state_with(eyes(0.0), eyes(0.0), precise=True), FLOW_FAILURE, cfg())
    assert d.kind is DecisionKind.RECALCULATE and d.reason is Reason.FLOW_FAILURE


def test_initial_state_forces_recalculation():
    d, _ = step(initial_state(cfg()), eyes(0.0), cfg())
    assert d.kind is DecisionKind.RECALCULATE and d.reason is Reason.INITIAL


# ---- apply_recalculation -----------------------------------------------

def test_recalculation_resets_state():
    c = cfg()
    d, s = step(state_with(eyes(0.0), eyes(25.0), precise=False), eyes(30.0), c)
    s = apply_recalculation(s, eyes(30.0), c)
    assert s.is_precise and s.frames_since_update == 0
    assert s.eps_current_px == c.eps_max_px
    # Next-frame E is zero after reseeding with the flow positions.
    d2, _ = step(s, eyes(30.0), c)
    assert d2.e_px == pytest.approx(0.0)


def test_decaying_eps_restored_to_max():
    c = cfg(policy=Policy.DECAYING, decay_rate=0.5, eps_min_px=2.4)
    s = state_with(eyes(0.0), eyes(0.5), precise=True, eps=2.4)
    # Drive a skip first so the pending recalc flag is exercised honestly.
    d, s = step(s, eyes(30.0), c)
    assert d.kind is DecisionKind.RECALCULATE
    s = apply_recalculation(s, eyes(30.0), c)
    assert s.eps_current_px == c.eps_max_px


def test_consecutive_recalculations_idempotent():
    c = cfg()
    s0 = state_with(eyes(0.0), eyes(25.0), precise=False)
    d, s = step(s0, eyes(30.0), c)
    s = apply_recalculation(s, eyes(30.0), c)
    d, s2 = step(s, FLOW_FAILURE, c)
    s2 = apply_recalculation(s2, eyes(31.0), c)
    # Identical to a single recalculation with the latest eyes.
    d3, s3 = step(state_with(eyes(0.0), eyes(25.0), precise=False), eyes(30.0), c)
    s3 = apply_recalculation(s3, eyes(31.0), c)
    assert np.array_equal(s2.pos_eye_calc, s3.pos_eye_calc)
    assert s2.is_precise == s3.is_precise
    assert s2.frames_since_update == s3.frames_since_update
    assert s2.eps_current_px == s3.eps_current_px


def test_apply_after_skip_is_protocol_violation():
    c = cfg()
    d, s = step(state_with(eyes(0.0), eyes(-5.0), precise=False), eyes(5.0), c)
    assert d.kind is DecisionKind.SKIP
    with pytest.raises(ProtocolError):
        apply_recalculation(s, eyes(5.0), c)


def test_unapplied_recalculation_detected():
    c = cfg()
    d, s = step(initial_state(c), eyes(0.0), c)
    with pytest.raises(ProtocolError):
        step(s, eyes(0.0), c)


# ---- stationary-stream fixtures ----------------------------------------

def run_stream(stream, c):
    """Replay a flow stream; complete every Recalculate with the flow
    positions themselves (noise-free recomputation)."""
    s = initial_state(c)
    decisions = []
    for flow in stream:
        d, s = step(s, flow, c)
        if d.kind is DecisionKind.RECALCULATE:
            new_eyes = flow if flow is not None else (
                s.pos_eye_calc if s.pos_eye_calc is not None else eyes(0.0))
            s = apply_recalculation(s, new_eyes, c)
        decisions.append(d)
    return decisions


# Hand-executed trace of the update rule over 10 stationary noise-free
# frames (verbatim policy): the initial recomputation, then skip/refine
# alternation because every skip clears is_precise while dE stays at 0.
STATIONARY_10_FRAME_FIXTURE = [
    (DecisionKind.RECALCULATE, Reason.INITIAL),
    (DecisionKind.SKIP, None),
    (DecisionKind.RECALCULATE, Reason.REFINE),
    (DecisionKind.SKIP, None),
    (DecisionKind.RECALCULATE, Reason.REFINE),
    (DecisionKind.SKIP, None),
    (DecisionKind.RECALCULATE, Reason.REFINE),
    (DecisionKind.SKIP, None),
    (DecisionKind.RECALCULATE, Reason.REFINE),
    (DecisionKind.SKIP, None),
]


def test_verbatim_stationary_oscillation():
    decisions = run_stream([eyes(0.0)] * 10, cfg())
    assert [(d.kind, d.reason) for d in decisions] == STATIONARY_10_FRAME_FIXTURE


def test_latched_stationary_quiescence():
    decisions = run_stream([eyes(0.0)] * 100, cfg(policy=Policy.LATCHED))
    recalcs = [d for d in decisions if d.kind is DecisionKind.RECALCULATE]
    assert len(recalcs) == 1 and recalcs[0].reason is Reason.INITIAL


def test_decaying_policy_shrinks_eps_on_skip():
    c = cfg(policy=Policy.DECAYING, decay_rate=0.5, eps_min_px=5.0)
    s = state_with(eyes(0.0), eyes(-5.0), precise=False)
    for expected in (12.0, 6.0, 5.0, 5.0):  # floor clamps
        d, s = step(s, eyes(5.0), c)
        assert d.kind is DecisionKind.SKIP
        assert s.eps_current_px == pytest.approx(expected)
        s = SchedulerState(s.pos_eye_calc, px4(eyes(-5.0)), False,
                           s.frames_since_update, s.eps_current_px)


# ---- properties --------------------------------------------------------

def random_stream(rng, n=200):
    stream = []
    x = 0.0
    for _ in range(n):
        x += rng.normal(scale=8.0)
        if rng.random() < 0.02:
            stream.append(None)
        else:
            stream.append(eyes(x + rng.normal(scale=1.0), 100.0 + rng.normal(scale=1.0)))
    return stream


def test_skip_implies_e_below_eps():
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = cfg()
        s = initial_state(c)
        for flow in random_stream(rng):
            d, s = step(s, flow, c)
            if d.kind is DecisionKind.SKIP:
                assert d.e_px <= s.eps_current_px
            else:
                s = apply_recalculation(
                    s, flow if flow is not None else eyes(0.0), c)


def test_recalculate_reasons_justified():
    rng = np.random.default_rng(29)
    c = cfg()
    s = initial_state(c)
    for flow in random_stream(rng, 500):
        prior_precise = s.is_precise
        eps = s.eps_current_px
        d, s = step(s, flow, c)
        if d.kind is DecisionKind.RECALCULATE:
            assert (d.reason in (Reason.FLOW_FAILURE, Reason.INITIAL)
                    or d.e_px > eps
                    or (d.delta_e_px < c.refine_factor * eps and not prior_precise))
            s = apply_recalculation(s, flow if flow is not None else eyes(0.0), c)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(moves=st.lists(st.none() | st.floats(-6.0, 6.0), min_size=1, max_size=80),
       decay_rate=st.floats(0.01, 1.0), floor_frac=st.floats(0.01, 1.0))
def test_decaying_eps_floor_and_reset(moves, decay_rate, floor_frac):
    # moves: per-frame eye motion in px, None for a flow failure.
    c = cfg(policy=Policy.DECAYING, decay_rate=decay_rate, eps_min_px=24.0 * floor_frac)
    s = initial_state(c)
    x = 0.0
    for move in moves:
        x += move or 0.0
        flow = None if move is None else eyes(x)
        d, s = step(s, flow, c)
        assert s.eps_current_px >= c.floor_px
        if d.kind is DecisionKind.RECALCULATE:
            s = apply_recalculation(s, eyes(x), c)
            assert s.eps_current_px == c.eps_max_px


def test_determinism():
    rng = np.random.default_rng(31)
    stream = random_stream(rng)
    a = run_stream(stream, cfg())
    b = run_stream(stream, cfg())
    key = lambda d: (d.kind, d.reason, repr(d.e_px), repr(d.delta_e_px))
    assert [key(d) for d in a] == [key(d) for d in b]


def test_monotone_spatial_gating():
    # A smaller spatial threshold never yields fewer spatial recalculations
    # on a fixed input stream.
    rng = np.random.default_rng(37)
    stream = random_stream(rng, 400)
    counts = []
    for eps in (48.0, 24.0, 12.0, 6.0):
        decisions = run_stream(stream, cfg(eps_max_px=eps))
        counts.append(sum(1 for d in decisions if d.reason is Reason.SPATIAL))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# ---- metric and config validation --------------------------------------

def test_eye_distance_metrics():
    a = (0.0, 0.0, 10.0, 0.0)
    b = (3.0, 4.0, 10.0, 0.0)
    assert eye_distance_px(a, b, EyeMetric.MAX) == pytest.approx(5.0)
    assert eye_distance_px(a, b, EyeMetric.MEAN) == pytest.approx(2.5)


eye_pair = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(derandomize=True, deadline=None, max_examples=300)
@given(a=eye_pair, b=eye_pair, metric=st.sampled_from(EyeMetric))
def test_eye_distance_bit_equals_norm(a, b, metric):
    # The float arithmetic must reproduce the np.linalg.norm formulation
    # exactly, overflow to inf included, or AAUPR decisions could flip.
    d = np.linalg.norm(np.reshape(a, (2, 2)) - np.reshape(b, (2, 2)), axis=-1)
    expected = float(d.max() if metric is EyeMetric.MAX else d.mean())
    assert eye_distance_px(a, b, metric) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        ThresholdConfig(eps_max_px=0.0)
    with pytest.raises(ValueError):
        ThresholdConfig(eps_max_px=24.0, refine_factor=1.5)
    with pytest.raises(ValueError):
        ThresholdConfig(eps_max_px=24.0, policy=Policy.DECAYING, decay_rate=1.5)
    with pytest.raises(ValueError):
        ThresholdConfig(eps_max_px=24.0, policy=Policy.DECAYING, eps_min_px=30.0)
