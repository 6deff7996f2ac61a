import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uprsim.geometry import PinholeCamera, RigidTransform
from uprsim.harness import ExperimentConfig
from uprsim.scheduler import (
    FLOW_FAILURE,
    EyeMetric,
    Policy,
    Reason,
    ThresholdConfig,
    epsilon_default,
    eye_distance_px,
    schedule,
)


def cfg(**kw) -> ThresholdConfig:
    """The default config's thresholds (eps 24 px) with kw replaced."""
    return replace(ExperimentConfig().threshold_config(), **kw)


def eyes(x: float, y: float = 100.0) -> tuple:
    """Two eye points, 60 px apart horizontally: left u, v, right u, v."""
    return (x, y, x + 60.0, y)


def run_stream(stream, c, anchors=()):
    """Replay a flow stream through schedule. Recalculate k re-anchors on
    anchors[k]; past their end, on the flow positions themselves (noise-free
    recomputation), or on a flow failure on the last anchor (eyes(0.0)
    before any). One (reason, E, dE) row per frame; a skip's reason is None."""
    done = [eyes(0.0)]

    def recompute(i, k):
        done.append(anchors[k] if k < len(anchors) else stream[i] or done[-1])
        return done[-1]
    return list(zip(*schedule(stream, c, recompute)[:3]))


def assert_eps(stream, c, anchors, eps):
    """After stream, last re-anchored on eyes(0.0), the spatial threshold is
    exactly eps: a frame that moves the left eye eps px (E = eps, exactly,
    under the max metric) takes no spatial trigger, and one float further
    does."""
    assert anchors[-1] == eyes(0.0) and c.metric is EyeMetric.MAX
    for d, spatial in ((eps, False), (math.nextafter(eps, math.inf), True)):
        reason, e, _ = run_stream(stream + [(d, 100.0, 60.0, 100.0)], c, anchors)[-1]
        assert e == d
        assert (reason is Reason.SPATIAL) == spatial


# ---- epsilon default ---------------------------------------------------

def test_epsilon_default_640x480():
    assert epsilon_default(640, 480) == 24.0


def test_epsilon_default_320x240():
    assert epsilon_default(320, 240) == 12.0


def test_epsilon_default_is_numpy_hypot_bit_for_bit():
    # 3% of np.hypot of the size, as when the default read a camera's
    # diagonal; math.hypot differs from it on 21 of these 60 x 60 sizes.
    sizes = range(101, 701, 10)
    assert [epsilon_default(w, h) for w in sizes for h in sizes] == [
        0.03 * float(np.hypot(w, h)) for w in sizes for h in sizes]


def test_invalid_camera_rejected_upstream():
    with pytest.raises(ValueError):
        PinholeCamera(fx=500, fy=500, cx=500, cy=0, width_px=1000, height_px=0,
                      extrinsic=RigidTransform(np.eye(3), np.zeros(3)))


# ---- the five truth-table cases ----------------------------------------
# Each state (anchor, flow_last, is_precise, eps) is reached through scripted
# flows: frame 0 recalculates (INITIAL) and re-anchors on eyes(0.0), precise,
# with eps at its max, 24; a skip then leaves it imprecise (verbatim policy).

def test_spatial_trigger():
    # flow_last eyes(25), precise: E = 30 > eps = 24 -> Recalculate(spatial),
    # regardless of dE.
    reason, e, _ = run_stream([eyes(25.0), eyes(30.0)], cfg(), [eyes(0.0)])[1]
    assert reason is Reason.SPATIAL
    assert e == pytest.approx(30.0)


def test_refine_trigger():
    # A skip at eyes(4) (dE = 9) leaves flow_last eyes(4), imprecise. Then
    # E = 5, dE = 1 < 2.4 -> Recalculate(refine).
    rows = run_stream([eyes(-5.0), eyes(4.0), eyes(5.0)], cfg(), [eyes(0.0)])
    assert rows[1][0] is None
    reason, e, de = rows[2]
    assert reason is Reason.REFINE
    assert e == pytest.approx(5.0)
    assert de == pytest.approx(1.0)


def test_precise_skip_drops_precision():
    # Same E/dE but precise -> Skip, and is_precise falls to False: a still
    # frame (dE = 0 < 2.4) then refines.
    rows = run_stream([eyes(4.0), eyes(5.0), eyes(5.0)], cfg(), [eyes(0.0)])
    reason, e, de = rows[1]
    assert reason is None
    assert (e, de) == (pytest.approx(5.0), pytest.approx(1.0))
    assert rows[2][0] is Reason.REFINE


def test_neither_disjunct_skip():
    # Imprecise after a skip at eyes(-5): E = 5 <= 24, dE = 10 >= 2.4 -> Skip
    # even while imprecise.
    rows = run_stream([eyes(-20.0), eyes(-5.0), eyes(5.0)], cfg(), [eyes(0.0)])
    assert rows[1][0] is None
    assert rows[2][0] is None


def test_flow_failure_forces_recalculation():
    reason, _, _ = run_stream([eyes(0.0), FLOW_FAILURE], cfg(), [eyes(0.0)])[1]
    assert reason is Reason.FLOW_FAILURE


def test_initial_state_forces_recalculation():
    reasons, *_ = schedule([eyes(0.0)], cfg(), lambda i, k: eyes(0.0))
    assert reasons == (Reason.INITIAL,)


# ---- the re-anchor ------------------------------------------------------

def test_recalculation_resets_state():
    c = cfg()
    # Anchored at eyes(-30), imprecise after a skip at eyes(-10): E = 30 > eps
    # at eyes(0) recalculates, and the state re-anchors on eyes(0).
    stream, anchors = [eyes(-40.0), eyes(-10.0), eyes(0.0)], [eyes(-30.0), eyes(0.0)]
    rows = run_stream(stream, c, anchors)
    assert rows[1][0] is None and rows[2][0] is Reason.SPATIAL
    # Precise: a still frame skips. Next-frame E is zero after reseeding with
    # the flow positions.
    reason, e, _ = run_stream(stream + [eyes(0.0)], c, anchors)[-1]
    assert reason is None
    assert e == pytest.approx(0.0)
    assert_eps(stream, c, anchors, c.eps_max_px)


def test_decaying_eps_restored_to_max():
    c = cfg(policy=Policy.DECAYING, decay_rate=0.5, eps_min_px=2.4)
    # Skips at E = 2, dE = 4 take eps from 24 down to its 2.4 floor.
    stream, anchors = [eyes(-2.0)] + [eyes(2.0), eyes(-2.0)] * 2, [eyes(0.0), eyes(0.0)]
    assert {row[0] for row in run_stream(stream, c, anchors)[1:]} == {None}
    assert_eps(stream, c, anchors, 2.4)
    # E = 30 recalculates, and the re-anchor restores eps to its max.
    stream.append(eyes(30.0))
    assert run_stream(stream, c, anchors)[-1][0] is Reason.SPATIAL
    assert_eps(stream, c, anchors, c.eps_max_px)


def test_consecutive_recalculations_idempotent():
    c = cfg()
    # Anchored at eyes(0), imprecise after a skip at eyes(20): E = 30
    # recalculates at eyes(30).
    head = [eyes(-10.0), eyes(20.0), eyes(30.0)]
    twice = (head + [FLOW_FAILURE], [eyes(0.0), eyes(30.0), eyes(31.0)])
    once = (head, [eyes(0.0), eyes(31.0)])
    # A flow failure's recalculation on eyes(31) is identical to a single
    # recalculation with the latest eyes: the same anchor (a still frame at
    # eyes(31): E = 0), precision (it skips) and eps (E = 24 skips, and the
    # next float up, 24 + 2**-47, recalculates), to the bit.
    for probe, (reason, e) in [
            (eyes(31.0), (None, 0.0)),
            (eyes(55.0), (None, 24.0)),
            (eyes(math.nextafter(55.0, math.inf)), (Reason.SPATIAL, 24.0 + 2.0**-47))]:
        rows = [run_stream(stream + [probe], c, anchors)[-1] for stream, anchors in (twice, once)]
        assert repr(rows[0]) == repr(rows[1])
        assert rows[0][:2] == (reason, e)


# ---- stationary-stream fixtures ----------------------------------------

# Hand-executed trace of the update rule over 10 stationary noise-free
# frames (verbatim policy): the initial recomputation, then skip/refine
# alternation because every skip clears is_precise while dE stays at 0. A
# skip is a None reason.
STATIONARY_10_FRAME_FIXTURE = [Reason.INITIAL, None] + [Reason.REFINE, None] * 4


def test_verbatim_stationary_oscillation():
    decisions = run_stream([eyes(0.0)] * 10, cfg())
    assert [reason for reason, _, _ in decisions] == STATIONARY_10_FRAME_FIXTURE


def test_latched_stationary_quiescence():
    decisions = run_stream([eyes(0.0)] * 100, cfg(policy=Policy.LATCHED))
    recalcs = [reason for reason, _, _ in decisions if reason is not None]
    assert len(recalcs) == 1 and recalcs[0] is Reason.INITIAL


def test_decaying_policy_shrinks_eps_on_skip():
    c = cfg(policy=Policy.DECAYING, decay_rate=0.5, eps_min_px=5.0)
    # Anchored at eyes(0), then skips between eyes(5) and eyes(-5): E = 5,
    # dE = 10.
    stream, anchors = [eyes(-5.0)], [eyes(0.0)]
    for expected in (12.0, 6.0, 5.0, 5.0):  # floor clamps
        stream.append(eyes(-stream[-1][0]))
        assert run_stream(stream, c, anchors)[-1][0] is None
        assert_eps(stream, c, anchors, expected)


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
    # Under the verbatim policy eps stays at its max.
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = cfg()
        for reason, e, _ in run_stream(random_stream(rng), c):
            if reason is None:
                assert e <= c.eps_max_px


def test_recalculate_reasons_justified():
    # Under the verbatim policy eps stays at its max, and the state is
    # precise right after a recalculation and imprecise after a skip.
    rng = np.random.default_rng(29)
    c = cfg()
    prior_precise = False
    for reason, e, de in run_stream(random_stream(rng, 500), c):
        if reason is not None:
            assert (reason in (Reason.FLOW_FAILURE, Reason.INITIAL)
                    or e > c.eps_max_px
                    or (de < c.refine_factor * c.eps_max_px and not prior_precise))
        prior_precise = reason is not None


@settings(max_examples=50)
@given(moves=st.lists(st.none() | st.floats(-6.0, 6.0), min_size=1, max_size=80),
       decay_rate=st.floats(0.01, 1.0), floor_frac=st.floats(0.01, 1.0))
def test_decaying_eps_floor_and_reset(moves, decay_rate, floor_frac):
    # moves: per-frame eye motion in px, None for a flow failure. Each
    # recomputation reports the current eyes. eps, as each decision shows
    # it (spatial exactly when E > eps), decays on every skip but never
    # below its floor, and is back at its max after every recalculation.
    c = cfg(policy=Policy.DECAYING, decay_rate=decay_rate, eps_min_px=24.0 * floor_frac)
    xs, flows, x = [], [], 0.0
    for move in moves:
        x += move or 0.0
        xs.append(x)
        flows.append(None if move is None else eyes(x))
    rows = zip(*schedule(flows, c, lambda i, k: eyes(xs[i]))[:3])
    eps = c.eps_max_px
    for reason, e, _ in rows:
        if not math.isnan(e):
            assert (reason is Reason.SPATIAL) == (e > eps)
        if reason is None:
            eps = max(c.floor_px, eps * decay_rate)
            assert eps >= c.floor_px
        else:
            eps = c.eps_max_px


def test_determinism():
    rng = np.random.default_rng(31)
    stream = random_stream(rng)
    a = run_stream(stream, cfg())
    b = run_stream(stream, cfg())
    key = lambda row: (row[0], repr(row[1]), repr(row[2]))
    assert [key(row) for row in a] == [key(row) for row in b]


def test_monotone_spatial_gating():
    # A smaller spatial threshold never yields fewer spatial recalculations
    # on a fixed input stream.
    rng = np.random.default_rng(37)
    stream = random_stream(rng, 400)
    counts = []
    for eps in (48.0, 24.0, 12.0, 6.0):
        decisions = run_stream(stream, cfg(eps_max_px=eps))
        counts.append(sum(1 for reason, _, _ in decisions if reason is Reason.SPATIAL))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# ---- metric and config validation --------------------------------------

def test_eye_distance_metrics():
    a = (0.0, 0.0, 10.0, 0.0)
    b = (3.0, 4.0, 10.0, 0.0)
    assert eye_distance_px(a, b, EyeMetric.MAX) == pytest.approx(5.0)
    assert eye_distance_px(a, b, EyeMetric.MEAN) == pytest.approx(2.5)


eye_pair = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=300)
@given(a=eye_pair, b=eye_pair, metric=st.sampled_from(EyeMetric))
def test_eye_distance_bit_equals_norm(a, b, metric):
    # The float arithmetic must reproduce the np.linalg.norm formulation
    # exactly, overflow to inf included, or AAUPR decisions could flip.
    d = np.linalg.norm(np.reshape(a, (2, 2)) - np.reshape(b, (2, 2)), axis=-1)
    expected = float(d.max() if metric is EyeMetric.MAX else d.mean())
    assert eye_distance_px(a, b, metric) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(eps_max_px=0.0)
    with pytest.raises(ValueError):
        cfg(refine_factor=1.5)
    with pytest.raises(ValueError):
        cfg(policy=Policy.DECAYING, decay_rate=1.5)
    with pytest.raises(ValueError):
        cfg(policy=Policy.DECAYING, eps_min_px=30.0)


@pytest.mark.parametrize("policy", Policy)
@pytest.mark.parametrize("bad, domain", [(np.nan, "finite"), (np.inf, "finite"),
                                         (-5.0, "nonnegative")])
def test_eps_floor_checked_under_every_policy(policy, bad, domain):
    with pytest.raises(ValueError, match=f"^eps_min_px: must be {domain}"):
        cfg(policy=policy, eps_min_px=bad)


def test_eps_floor_zero_is_tenth_of_max():
    assert cfg(eps_min_px=0.0).floor_px == pytest.approx(2.4)


# ---- schedule against a frame-by-frame oracle --------------------------

class Kind(enum.Enum):
    """The oracle's own decision kind: schedule states it only as a reason,
    or None for a skip."""

    RECALCULATE = "recalculate"
    SKIP = "skip"


class DataclassSchedulerOracle:
    """schedule's reference, written apart from it: the
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
        reason: Reason | None
        e_px: float
        delta_e_px: float
        kind: Kind

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
        return cls.Decision(reason, e, de, Kind.RECALCULATE), new

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
        return cls.Decision(None, e, de, Kind.SKIP), cls.State(
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
    apply_recalculation frame by frame, as schedule's columns, the oracle's
    kind column and the request frames."""
    oracle = DataclassSchedulerOracle
    s = oracle.initial_state(c)
    decisions, requests = [], []
    for i, flow in enumerate(flows):
        d, s = oracle.step(s, flow, c)
        decisions.append(d)
        if d.kind is Kind.RECALCULATE:
            s = oracle.apply_recalculation(s, recompute(i, len(requests)), c)
            requests.append(i)
    columns = (tuple(getattr(d, f.name) for d in decisions) for f in fields(oracle.Decision))
    return (*columns, requests)


def same_fields(row, decision) -> bool:
    """A schedule row (reason, E, dE) equal to the oracle decision's, NaN
    equal to NaN (repr is exact for floats), and a None reason exactly
    where the oracle's kind is a skip."""
    oracle = (decision.reason, decision.e_px, decision.delta_e_px)
    return repr(tuple(row)) == repr(oracle) and (row[0] is None) == (decision.kind is Kind.SKIP)


@settings(max_examples=200)
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
    # After every frame (step, then apply_recalculation on Recalculate), the
    # state schedule holds equals the frozen-dataclass formulation's, as a
    # next frame sees it: probes at the oracle's flow_last (dE = 0, so
    # imprecision shows as a refine), moved by refine_factor * eps (dE on
    # the refine threshold), and at its anchor moved by eps (E on the
    # spatial threshold) get the oracle's decision, bit for bit, through
    # failures, re-anchors and all three policies.
    c = cfg(eps_max_px=eps, refine_factor=refine_factor, policy=policy, metric=metric,
            decay_rate=decay_rate, eps_min_px=floor_frac * eps)
    oracle = DataclassSchedulerOracle
    flows, anchors, last = [], [], eyes(0.0)
    for move, anchor_offset in ops:
        flow = FLOW_FAILURE if move is None else tuple(map(sum, zip(last, move)))
        last = flow or last
        flows.append(flow)
        anchors.append(tuple(map(sum, zip(last, anchor_offset))))
    recompute = lambda i, k: anchors[i] if i < len(anchors) else eyes(0.0)
    shift = lambda p, d: (p[0] + d, p[1], p[2] + d, p[3])
    o = oracle.initial_state(c)
    for j, flow in enumerate(flows):
        od, o = oracle.step(o, flow, c)
        if od.kind is Kind.RECALCULATE:
            o = oracle.apply_recalculation(o, anchors[j], c)
        flow_last, eps_now = o.pos_eye_flow_last, o.eps_current_px
        for probe in (flow_last, shift(flow_last, c.refine_factor * eps_now),
                      shift(o.pos_eye_calc, eps_now)):
            rows = list(zip(*schedule(flows[:j + 1] + [probe], c, recompute)[:3]))
            assert same_fields(rows[j], od)
            assert same_fields(rows[-1], oracle.step(o, probe, c)[0])


def float_bits(column) -> list:
    """A float column's bit patterns: bitwise equal, NaN equal to NaN."""
    return np.array(column, dtype=float).view(np.uint64).tolist()


@settings(max_examples=200)
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

    (reasons, e_px, delta_e_px, requests), events = driven(schedule)
    (o_reasons, o_e_px, o_delta_e_px, o_kinds, o_requests), o_events = driven(step_loop)
    assert reasons == o_reasons
    assert [r is None for r in reasons] == [k is Kind.SKIP for k in o_kinds]
    assert float_bits(e_px) == float_bits(o_e_px)
    assert float_bits(delta_e_px) == float_bits(o_delta_e_px)
    assert requests == o_requests and events == o_events


def test_schedule_of_no_frames():
    assert schedule(iter(()), cfg(), None) == ((), (), (), [])
