import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uprsim.geometry import PinholeCamera
from uprsim.scheduler import (
    FLOW_FAILURE,
    DecisionKind,
    EyeMetric,
    Policy,
    Reason,
    ThresholdConfig,
    _anchor,
    _rule,
    epsilon_default,
    eye_distance_px,
    schedule,
)
from uprsim.tracksim import FlowMeasurement


def cfg(**kw) -> ThresholdConfig:
    kw.setdefault("eps_max_px", 24.0)
    return ThresholdConfig(**kw)


def eyes(x: float, y: float = 100.0) -> tuple:
    """Two eye points, 60 px apart horizontally: left u, v, right u, v."""
    return (x, y, x + 60.0, y)


def run_stream(stream, c):
    """Replay a flow stream through schedule; complete every Recalculate with
    the flow positions themselves (noise-free recomputation), or on a flow
    failure with the last anchor (eyes(0.0) before any). One (kind, reason,
    E, dE) row per frame."""
    anchors = [eyes(0.0)]

    def recompute(i, k):
        anchors.append(stream[i] or anchors[-1])
        return anchors[-1]
    return list(zip(*schedule(stream, c, recompute)[:4]))


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


# ---- the five truth-table cases ----------------------------------------
# _rule on a state (calc, flow_last, is_precise, eps) and a frame's flow
# returns (reason, E, dE, flow_last, is_precise, eps); reason None is Skip.

def test_spatial_trigger():
    # E = 30 > eps = 24 -> Recalculate(spatial), regardless of dE.
    reason, e, *_ = _rule(eyes(0.0), eyes(25.0), True, 24.0, eyes(30.0), cfg())
    assert reason is Reason.SPATIAL
    assert e == pytest.approx(30.0)


def test_refine_trigger():
    # E = 5, dE = 1 < 2.4, imprecise -> Recalculate(refine).
    reason, e, de, *_ = _rule(eyes(0.0), eyes(4.0), False, 24.0, eyes(5.0), cfg())
    assert reason is Reason.REFINE
    assert e == pytest.approx(5.0)
    assert de == pytest.approx(1.0)


def test_precise_skip_drops_precision():
    # Same E/dE but precise -> Skip, and is_precise falls to False.
    reason, _, _, _, precise, _ = _rule(eyes(0.0), eyes(4.0), True, 24.0, eyes(5.0), cfg())
    assert reason is None
    assert precise is False


def test_neither_disjunct_skip():
    # E = 5 <= 24, dE = 10 >= 2.4 -> Skip even while imprecise.
    reason, *_ = _rule(eyes(0.0), eyes(-5.0), False, 24.0, eyes(5.0), cfg())
    assert reason is None


def test_flow_failure_forces_recalculation():
    reason, *_ = _rule(eyes(0.0), eyes(0.0), True, 24.0, FLOW_FAILURE, cfg())
    assert reason is Reason.FLOW_FAILURE


def test_initial_state_forces_recalculation():
    kinds, reasons, *_ = schedule([eyes(0.0)], cfg(), lambda i, k: eyes(0.0))
    assert kinds == (DecisionKind.RECALCULATE,) and reasons == (Reason.INITIAL,)


# ---- the re-anchor ------------------------------------------------------

def test_recalculation_resets_state():
    c = cfg()
    reason, _, _, flow_last, _, _ = _rule(eyes(0.0), eyes(25.0), False, 24.0, eyes(30.0), c)
    assert reason is not None
    calc, flow_last, precise, eps = _anchor(eyes(30.0), flow_last, c)
    assert precise
    assert eps == c.eps_max_px
    # Next-frame E is zero after reseeding with the flow positions.
    _, e, *_ = _rule(calc, flow_last, precise, eps, eyes(30.0), c)
    assert e == pytest.approx(0.0)


def test_decaying_eps_restored_to_max():
    c = cfg(policy=Policy.DECAYING, decay_rate=0.5, eps_min_px=2.4)
    reason, _, _, flow_last, _, _ = _rule(eyes(0.0), eyes(0.5), True, 2.4, eyes(30.0), c)
    assert reason is not None
    _, _, _, eps = _anchor(eyes(30.0), flow_last, c)
    assert eps == c.eps_max_px


def test_consecutive_recalculations_idempotent():
    c = cfg()
    _, _, _, flow_last, _, _ = _rule(eyes(0.0), eyes(25.0), False, 24.0, eyes(30.0), c)
    calc, flow_last, precise, eps = _anchor(eyes(30.0), flow_last, c)
    _, _, _, flow_last, precise, eps = _rule(calc, flow_last, precise, eps, FLOW_FAILURE, c)
    calc2, _, precise2, eps2 = _anchor(eyes(31.0), flow_last, c)
    # Identical to a single recalculation with the latest eyes.
    _, _, _, flow_last, _, _ = _rule(eyes(0.0), eyes(25.0), False, 24.0, eyes(30.0), c)
    calc3, _, precise3, eps3 = _anchor(eyes(31.0), flow_last, c)
    assert np.array_equal(calc2, calc3)
    assert precise2 == precise3
    assert eps2 == eps3


# ---- stationary-stream fixtures ----------------------------------------

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
    assert [(kind, reason) for kind, reason, _, _ in decisions] == STATIONARY_10_FRAME_FIXTURE


def test_latched_stationary_quiescence():
    decisions = run_stream([eyes(0.0)] * 100, cfg(policy=Policy.LATCHED))
    recalcs = [reason for kind, reason, _, _ in decisions if kind is DecisionKind.RECALCULATE]
    assert len(recalcs) == 1 and recalcs[0] is Reason.INITIAL


def test_decaying_policy_shrinks_eps_on_skip():
    c = cfg(policy=Policy.DECAYING, decay_rate=0.5, eps_min_px=5.0)
    eps = 24.0
    for expected in (12.0, 6.0, 5.0, 5.0):  # floor clamps
        reason, _, _, _, _, eps = _rule(eyes(0.0), eyes(-5.0), False, eps, eyes(5.0), c)
        assert reason is None
        assert eps == pytest.approx(expected)


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
        calc = flow_last = None
        precise, eps = False, c.eps_max_px
        for flow in random_stream(rng):
            reason, e, _, flow_last, precise, eps = _rule(calc, flow_last, precise, eps, flow, c)
            if reason is None:
                assert e <= eps
            else:
                calc, flow_last, precise, eps = _anchor(
                    flow if flow is not None else eyes(0.0), flow_last, c)


def test_recalculate_reasons_justified():
    rng = np.random.default_rng(29)
    c = cfg()
    calc = flow_last = None
    precise, eps = False, c.eps_max_px
    for flow in random_stream(rng, 500):
        prior_precise, prior_eps = precise, eps
        reason, e, de, flow_last, precise, eps = _rule(calc, flow_last, precise, eps, flow, c)
        if reason is not None:
            assert (reason in (Reason.FLOW_FAILURE, Reason.INITIAL)
                    or e > prior_eps
                    or (de < c.refine_factor * prior_eps and not prior_precise))
            calc, flow_last, precise, eps = _anchor(
                flow if flow is not None else eyes(0.0), flow_last, c)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(moves=st.lists(st.none() | st.floats(-6.0, 6.0), min_size=1, max_size=80),
       decay_rate=st.floats(0.01, 1.0), floor_frac=st.floats(0.01, 1.0))
def test_decaying_eps_floor_and_reset(moves, decay_rate, floor_frac):
    # moves: per-frame eye motion in px, None for a flow failure.
    c = cfg(policy=Policy.DECAYING, decay_rate=decay_rate, eps_min_px=24.0 * floor_frac)
    calc = flow_last = None
    precise, eps = False, c.eps_max_px
    x = 0.0
    for move in moves:
        x += move or 0.0
        flow = None if move is None else eyes(x)
        reason, _, _, flow_last, precise, eps = _rule(calc, flow_last, precise, eps, flow, c)
        assert eps >= c.floor_px
        if reason is not None:
            calc, flow_last, precise, eps = _anchor(eyes(x), flow_last, c)
            assert eps == c.eps_max_px


def test_determinism():
    rng = np.random.default_rng(31)
    stream = random_stream(rng)
    a = run_stream(stream, cfg())
    b = run_stream(stream, cfg())
    key = lambda row: (row[0], row[1], repr(row[2]), repr(row[3]))
    assert [key(row) for row in a] == [key(row) for row in b]


def test_monotone_spatial_gating():
    # A smaller spatial threshold never yields fewer spatial recalculations
    # on a fixed input stream.
    rng = np.random.default_rng(37)
    stream = random_stream(rng, 400)
    counts = []
    for eps in (48.0, 24.0, 12.0, 6.0):
        decisions = run_stream(stream, cfg(eps_max_px=eps))
        counts.append(sum(1 for _, reason, _, _ in decisions if reason is Reason.SPATIAL))
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


@pytest.mark.parametrize("policy", Policy)
@pytest.mark.parametrize("bad, domain", [(np.nan, "finite"), (np.inf, "finite"),
                                         (-5.0, "nonnegative")])
def test_eps_floor_checked_under_every_policy(policy, bad, domain):
    with pytest.raises(ValueError, match=f"^eps_min_px: must be {domain}"):
        ThresholdConfig(24.0, policy=policy, eps_min_px=bad)


def test_eps_floor_zero_is_tenth_of_max():
    assert ThresholdConfig(24.0, eps_min_px=0.0).floor_px == pytest.approx(2.4)


# ---- the tuple-backed values -------------------------------------------

def test_values_are_immutable_and_keep_their_fields():
    m = FlowMeasurement(eyes(0.0))
    with pytest.raises(AttributeError):
        m.eye_px = None
    # perfbench's traced pass reads this.
    assert not m.failed and FlowMeasurement(None).failed


class DataclassSchedulerOracle:
    """schedule's reference, written apart from _rule and _anchor: the
    scheduler frame by frame on frozen dataclasses, a step per frame and an
    apply_recalculation after each Recalculate."""

    @dataclass(frozen=True)
    class State:
        pos_eye_calc: tuple | None
        pos_eye_flow_last: tuple | None
        is_precise: bool
        eps_current_px: float
        pending_recalc: bool = False

    @dataclass(frozen=True)
    class Decision:
        kind: DecisionKind
        reason: Reason | None
        e_px: float
        delta_e_px: float

    @staticmethod
    def distance(a, b, metric):
        dx0, dy0, dx1, dy1 = a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]
        d0, d1 = math.sqrt(dx0 * dx0 + dy0 * dy0), math.sqrt(dx1 * dx1 + dy1 * dy1)
        return max(d0, d1) if metric is EyeMetric.MAX else (d0 + d1) / 2

    @classmethod
    def initial_state(cls, cfg):
        return cls.State(None, None, is_precise=False, eps_current_px=cfg.eps_max_px)

    @classmethod
    def _recalc(cls, state, reason, e, de, flow):
        new = cls.State(state.pos_eye_calc, state.pos_eye_flow_last if flow is None else flow,
                        state.is_precise, state.eps_current_px, pending_recalc=True)
        return cls.Decision(DecisionKind.RECALCULATE, reason, e, de), new

    @classmethod
    def step(cls, state, pos_eye_flow, cfg):
        assert not state.pending_recalc
        if pos_eye_flow is None:
            return cls._recalc(state, Reason.FLOW_FAILURE, float("nan"), float("nan"), None)
        flow = tuple(map(float, pos_eye_flow))
        if state.pos_eye_calc is None:
            return cls._recalc(state, Reason.INITIAL, float("nan"), float("nan"), flow)
        e = cls.distance(state.pos_eye_calc, flow, cfg.metric)
        de = (cls.distance(state.pos_eye_flow_last, flow, cfg.metric)
              if state.pos_eye_flow_last is not None else float("inf"))
        eps = state.eps_current_px
        if e > eps:
            return cls._recalc(state, Reason.SPATIAL, e, de, flow)
        if de < cfg.refine_factor * eps and not state.is_precise:
            return cls._recalc(state, Reason.REFINE, e, de, flow)
        precise = (cfg.policy is Policy.LATCHED and state.is_precise
                   and e <= cfg.refine_factor * eps)
        eps_next = (max(cfg.floor_px, eps * cfg.decay_rate) if cfg.policy is Policy.DECAYING
                    else eps)
        return cls.Decision(DecisionKind.SKIP, None, e, de), cls.State(
            state.pos_eye_calc, flow, precise, eps_next)

    @classmethod
    def apply_recalculation(cls, state, new_eye_px, cfg):
        assert state.pending_recalc
        eyes = tuple(map(float, new_eye_px))
        flow_last = state.pos_eye_flow_last if state.pos_eye_flow_last is not None else eyes
        return cls.State(eyes, flow_last, is_precise=True, eps_current_px=cfg.eps_max_px)


# A frame: FLOW_FAILURE, or both eyes moved by one power-of-two step (so,
# with the power-of-two thresholds below, E and dE often land exactly on a
# threshold) or by arbitrary floats; then the re-anchor's offset from the
# flow, used if the frame recalculates.
power_of_two = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
frame_op = st.tuples(
    st.none() | st.tuples(power_of_two, st.just(0.0) | power_of_two).map(lambda d: d + d)
    | st.tuples(*[st.floats(-40.0, 40.0)] * 4),
    st.just((0.0,) * 4) | st.tuples(*[st.floats(-3.0, 3.0)] * 4))


def step_loop(flows, c, recompute):
    """schedule's oracle: DataclassSchedulerOracle's step and
    apply_recalculation frame by frame, as schedule's columns and request
    frames."""
    oracle = DataclassSchedulerOracle
    s = oracle.initial_state(c)
    decisions, requests = [], []
    for i, flow in enumerate(flows):
        d, s = oracle.step(s, flow, c)
        decisions.append(d)
        if d.kind is DecisionKind.RECALCULATE:
            s = oracle.apply_recalculation(s, recompute(i, len(requests)), c)
            requests.append(i)
    columns = (tuple(getattr(d, f.name) for d in decisions) for f in fields(oracle.Decision))
    return (*columns, requests)


def same_fields(values, oracle) -> bool:
    """Equal to the oracle's leading fields, NaN equal to NaN: repr is exact
    for floats."""
    return repr(tuple(values)) == repr(tuple(getattr(oracle, f.name)
                                             for f in fields(oracle))[:len(values)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(policy=st.sampled_from(Policy), metric=st.sampled_from(EyeMetric),
       eps=st.sampled_from([4.0, 8.0, 16.0]) | st.floats(0.5, 50.0),
       refine_factor=st.sampled_from([0.125, 0.25, 0.5]) | st.floats(0.01, 0.99),
       decay_rate=st.sampled_from([0.5, 1.0]) | st.floats(0.01, 1.0),
       floor_frac=st.just(0.0) | st.floats(0.01, 1.0),
       ops=st.lists(frame_op, min_size=10, max_size=40))
@example(policy=Policy.VERBATIM, metric=EyeMetric.MAX, eps=8.0, refine_factor=0.25,
         decay_rate=1.0, floor_frac=0.0,  # dE on the refine threshold, then E on eps
         ops=[(move, (0.0,) * 4) for move in [(0.0,) * 4, (0.0,) * 4, (2.0, 0.0) * 2,
                                              (6.0, 0.0) * 2]])
@example(policy=Policy.LATCHED, metric=EyeMetric.MEAN, eps=8.0, refine_factor=0.25,
         decay_rate=1.0, floor_frac=0.0,  # E on the latch's refine threshold
         ops=[(move, (0.0,) * 4) for move in [(0.0,) * 4, (2.0, 0.0) * 2]])
def test_step_equals_dataclass_oracle(policy, metric, eps, refine_factor, decay_rate,
                                      floor_frac, ops):
    # One frame's step, _rule and then _anchor on Recalculate: every decision
    # and every state value equal the frozen-dataclass formulation's, through
    # failures, re-anchors and all three policies.
    c = cfg(eps_max_px=eps, refine_factor=refine_factor, policy=policy, metric=metric,
            decay_rate=decay_rate, eps_min_px=floor_frac * eps)
    oracle = DataclassSchedulerOracle
    calc = flow_last = None
    is_precise, eps_now = False, c.eps_max_px
    o = oracle.initial_state(c)
    assert same_fields((calc, flow_last, is_precise, eps_now), o)
    last = eyes(0.0)
    for move, anchor_offset in ops:
        flow = FLOW_FAILURE if move is None else tuple(map(sum, zip(last, move)))
        reason, e, de, flow_last, is_precise, eps_now = _rule(calc, flow_last, is_precise,
                                                              eps_now, flow, c)
        kind = DecisionKind.SKIP if reason is None else DecisionKind.RECALCULATE
        od, o = oracle.step(o, flow, c)
        assert same_fields((kind, reason, e, de), od)
        assert same_fields((calc, flow_last, is_precise, eps_now), o)
        if kind is DecisionKind.RECALCULATE:
            last = flow or last
            anchor = tuple(map(sum, zip(last, anchor_offset)))
            calc, flow_last, is_precise, eps_now = _anchor(anchor, flow_last, c)
            o = oracle.apply_recalculation(o, anchor, c)
            assert same_fields((calc, flow_last, is_precise, eps_now), o)
        elif flow is not FLOW_FAILURE:
            last = flow


def float_bits(column) -> list:
    """A float column's bit patterns: bitwise equal, NaN equal to NaN."""
    return np.array(column, dtype=float).view(np.uint64).tolist()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(policy=st.sampled_from(Policy), metric=st.sampled_from(EyeMetric),
       eps=st.sampled_from([4.0, 8.0, 16.0]) | st.floats(0.5, 50.0),
       refine_factor=st.sampled_from([0.125, 0.25, 0.5]) | st.floats(0.01, 0.99),
       decay_rate=st.sampled_from([0.5, 1.0]) | st.floats(0.01, 1.0),
       floor_frac=st.just(0.0) | st.floats(0.01, 1.0),
       ops=st.lists(frame_op, min_size=1, max_size=40))
@example(policy=Policy.VERBATIM, metric=EyeMetric.MAX, eps=8.0, refine_factor=0.25,
         decay_rate=1.0, floor_frac=0.0,  # dE on the refine threshold, then E on eps
         ops=[(move, (0.0,) * 4) for move in [(0.0,) * 4, (0.0,) * 4, (2.0, 0.0) * 2,
                                              (6.0, 0.0) * 2]])
@example(policy=Policy.LATCHED, metric=EyeMetric.MEAN, eps=8.0, refine_factor=0.25,
         decay_rate=1.0, floor_frac=0.0,  # E on the latch's refine threshold
         ops=[(move, (0.0,) * 4) for move in [(0.0,) * 4, (2.0, 0.0) * 2]])
@example(policy=Policy.VERBATIM, metric=EyeMetric.MAX, eps=8.0, refine_factor=0.25,
         decay_rate=1.0, floor_frac=0.0,  # failures first, then dE and E on thresholds
         ops=[(move, (0.0,) * 4) for move in [None, None, (0.0,) * 4, (0.0,) * 4,
                                              (2.0, 0.0) * 2, (6.0, 0.0) * 2, None]])
@example(policy=Policy.LATCHED, metric=EyeMetric.MEAN, eps=8.0, refine_factor=0.25,
         decay_rate=1.0, floor_frac=0.0,  # E on the latch's refine threshold
         ops=[(move, (0.0,) * 4) for move in [(0.0,) * 4, (2.0, 0.0) * 2, (0.0,) * 4]])
def test_schedule_equals_step_loop(policy, metric, eps, refine_factor, decay_rate, floor_frac,
                                   ops):
    # The whole-trace driver gives the frozen-dataclass formulation's columns
    # bit for bit and the same request frames, through failures (on frame 0
    # too), re-anchors, all policies and metrics, and E or dE exactly on a
    # threshold. It reads each frame's flow only after the previous frame's
    # recompute call.
    c = cfg(eps_max_px=eps, refine_factor=refine_factor, policy=policy, metric=metric,
            decay_rate=decay_rate, eps_min_px=floor_frac * eps)
    flows, last = [], eyes(0.0)
    for move, _ in ops:
        if move is not None:
            last = tuple(map(sum, zip(last, move)))
        flows.append(FLOW_FAILURE if move is None else last)

    def driven(run):
        events = []

        def read():
            for i, flow in enumerate(flows):
                events.append(("flow", i))
                yield flow

        def recompute(i, k):
            # The frame's flow plus the drawn offset and k/4 px.
            events.append(("recompute", i, k))
            return tuple(b + o + 0.25 * k for b, o in zip(flows[i] or eyes(0.0), ops[i][1]))
        return run(read(), c, recompute), events

    (kinds, reasons, e_px, delta_e_px, requests), events = driven(schedule)
    (o_kinds, o_reasons, o_e_px, o_delta_e_px, o_requests), o_events = driven(step_loop)
    assert kinds == o_kinds and reasons == o_reasons
    assert float_bits(e_px) == float_bits(o_e_px)
    assert float_bits(delta_e_px) == float_bits(o_delta_e_px)
    assert requests == o_requests and events == o_events


def test_schedule_of_no_frames():
    assert schedule(iter(()), cfg(), None) == ((), (), (), (), [])
