import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uprsim.geometry import EyeState, RigidTransform, front_camera, project_pinhole
from uprsim.tracksim import (
    CostModel,
    FaceTracker,
    FlowSimulator,
    Generator,
    RateCeilingError,
    TraceSpec,
    generate_trace,
    read_trace_csv,
    write_trace_csv,
)


def spec(**kw) -> TraceSpec:
    kw.setdefault("generator", Generator.STATIONARY)
    kw.setdefault("n_frames", 100)
    return TraceSpec(**kw)


# ---- trace generation --------------------------------------------------

def test_stationary_trace():
    trace = generate_trace(spec())
    eyes = np.array([f.true_eye.cyclopean_mm for f in trace.frames])
    assert len(trace) == 100
    assert np.ptp(eyes, axis=0).max() == 0.0
    assert trace.dwell_mask().all()


def test_step_move_dwells():
    trace = generate_trace(TraceSpec(generator=Generator.STEP_MOVE,
                                     amplitude_mm=200.0, depth_amplitude_mm=0.0,
                                     dwell_frames=50, transition_frames=20))
    eyes = np.array([f.true_eye.cyclopean_mm for f in trace.frames])
    assert len(trace) == 120
    assert np.ptp(eyes[:50], axis=0).max() == 0.0
    assert np.ptp(eyes[-50:], axis=0).max() == 0.0
    assert np.allclose(eyes[-1] - eyes[0], [200.0, 0.0, 0.0])
    mask = trace.dwell_mask()
    assert mask[:50].all() and mask[-50:].all()
    assert not mask[55:65].any()


def test_timestamps_match_rate():
    trace = generate_trace(spec(frame_rate_hz=15.0))
    t = np.array([f.t_ms for f in trace.frames])
    assert np.allclose(np.diff(t), 1000.0 / 15.0)


def test_random_walk_deterministic():
    a = generate_trace(spec(generator=Generator.RANDOM_WALK, seed=42, amplitude_mm=5.0))
    b = generate_trace(spec(generator=Generator.RANDOM_WALK, seed=42, amplitude_mm=5.0))
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.true_eye.cyclopean_mm, fb.true_eye.cyclopean_mm)


def test_sway_is_periodic_lateral():
    trace = generate_trace(spec(generator=Generator.SWAY, n_frames=61,
                                amplitude_mm=100.0, sway_period_s=4.0))
    eyes = np.array([f.true_eye.cyclopean_mm for f in trace.frames])
    assert abs(eyes[:, 0]).max() == pytest.approx(100.0, abs=1.0)
    assert np.ptp(eyes[:, 1]) == 0.0 and np.ptp(eyes[:, 2]) == 0.0


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        generate_trace(spec(n_frames=0))
    with pytest.raises(ValueError):
        generate_trace(spec(frame_rate_hz=0.0))


# ---- trace CSV ---------------------------------------------------------

# Each example overwrites the same two files, so sharing tmp_path is safe.
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(generator=st.sampled_from(Generator), n_frames=st.integers(1, 60),
       rate_hz=st.floats(1.0, 120.0), amplitude_mm=st.floats(0.0, 200.0),
       depth_mm=st.floats(0.0, 100.0), seed=st.integers(0, 2**32 - 1),
       base_eye_mm=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
                             st.floats(60.0, 500.0)))
@example(generator=Generator.RANDOM_WALK, n_frames=40, rate_hz=15.0, amplitude_mm=4.0,
         depth_mm=0.0, seed=3, base_eye_mm=(0.0, 0.0, 300.0))
def test_trace_csv_round_trip_bytes(tmp_path, generator, n_frames, rate_hz, amplitude_mm,
                                    depth_mm, seed, base_eye_mm):
    trace = generate_trace(spec(generator=generator, n_frames=n_frames, frame_rate_hz=rate_hz,
                                amplitude_mm=amplitude_mm, depth_amplitude_mm=depth_mm,
                                dwell_frames=5, transition_frames=3, seed=seed,
                                base_eye_mm=base_eye_mm))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    back = read_trace_csv(p1)
    write_trace_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # Full precision: the values read back are the values written.
    assert [f.t_ms for f in back.frames] == [f.t_ms for f in trace.frames]
    assert np.array_equal([f.true_eye.cyclopean_mm for f in back.frames],
                          [f.true_eye.cyclopean_mm for f in trace.frames])


def test_trace_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("frame,t_ms\n0,0.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(p)


# ---- flow simulator ----------------------------------------------------

def eye_at(pos) -> EyeState:
    return EyeState.from_cyclopean(pos)


def test_noise_free_flow_is_exact_projection():
    cam = front_camera()
    sim = FlowSimulator(cam)
    eye = eye_at([10.0, -5.0, 250.0])
    m = sim.measure(eye)
    expected = project_pinhole(cam, cam.extrinsic.apply(
        np.stack([eye.left_mm, eye.right_mm])))
    assert not m.failed
    assert np.abs(m.eye_px - expected).max() == 0.0


def test_flow_fails_when_eye_leaves_view():
    cam = front_camera()
    sim = FlowSimulator(cam)
    assert sim.measure(eye_at([5000.0, 0.0, 100.0])).failed


def test_flow_noise_sigma_statistical():
    cam = front_camera()
    sim = FlowSimulator(cam, noise_sigma_px=2.0, rng=np.random.default_rng(5))
    eye = eye_at([0.0, 0.0, 300.0])
    samples = np.array([sim.measure(eye).eye_px for _ in range(10_000)])
    resid = samples - samples.mean(axis=0)
    sample_sigma = resid.std()
    assert abs(sample_sigma - 2.0) / 2.0 < 0.05


def test_flow_drift_accumulates_and_resets():
    cam = front_camera()
    sim = FlowSimulator(cam, drift_px_per_frame=0.1, rng=np.random.default_rng(7))
    eye = eye_at([0.0, 0.0, 300.0])
    exact = project_pinhole(cam, cam.extrinsic.apply(
        np.stack([eye.left_mm, eye.right_mm])))
    for i in range(1, 30):
        m = sim.measure(eye)
        assert np.linalg.norm(m.eye_px[0] - exact[0]) == pytest.approx(0.1 * i, abs=1e-9)
    sim.reset_drift()
    m = sim.measure(eye)
    assert np.linalg.norm(m.eye_px[0] - exact[0]) == pytest.approx(0.1, abs=1e-9)


def test_flow_failure_probability():
    cam = front_camera()
    sim = FlowSimulator(cam, p_fail=0.5, rng=np.random.default_rng(9))
    eye = eye_at([0.0, 0.0, 300.0])
    fails = sum(sim.measure(eye).failed for _ in range(2000))
    assert 900 < fails < 1100


# ---- face tracker proxy ------------------------------------------------

def test_face_tracker_exact_without_jitter():
    tracker = FaceTracker(jitter_sigma_mm=0.0, cost_ms=30.094)
    eye = eye_at([5.0, 5.0, 200.0])
    est, charge = tracker.track(eye, 0.0)
    assert np.array_equal(est.cyclopean_mm, eye.cyclopean_mm)
    assert charge == 30.094


def test_face_tracker_cost_accumulation():
    tracker = FaceTracker(jitter_sigma_mm=0.0, cost_ms=30.094)
    eye = eye_at([0.0, 0.0, 200.0])
    dt = 1000.0 / 15.0
    for i in range(1000):
        tracker.track(eye, i * dt)
    assert tracker.invocations == 1000
    assert tracker.total_charge_ms == pytest.approx(30094.0, abs=1e-6)


def test_face_tracker_jitter_statistical():
    tracker = FaceTracker(jitter_sigma_mm=5.0, max_rate_hz=1e12,
                          rng=np.random.default_rng(11))
    eye = eye_at([0.0, 0.0, 300.0])
    offsets = np.array([tracker.track(eye, float(i))[0].cyclopean_mm - eye.cyclopean_mm
                        for i in range(10_000)])
    assert abs(offsets.std() - 5.0) / 5.0 < 0.05
    # Both eyes displaced rigidly.
    est, _ = tracker.track(eye, 1e7)
    assert np.allclose(est.right_mm - est.left_mm, eye.right_mm - eye.left_mm)


def test_face_tracker_rate_ceiling():
    tracker = FaceTracker(max_rate_hz=15.0)
    eye = eye_at([0.0, 0.0, 200.0])
    tracker.track(eye, 0.0)
    with pytest.raises(RateCeilingError):
        tracker.track(eye, 10.0)
    tracker.track(eye, 1000.0 / 15.0)  # exactly at the ceiling is allowed


# ---- cost model --------------------------------------------------------

def test_cost_model_defaults_ordered():
    cm = CostModel()
    assert cm.face_cost("640x480") > cm.face_cost("320x240")
    with pytest.raises(ValueError):
        cm.face_cost("1280x720")


def test_cost_model_rejects_negative():
    with pytest.raises(ValueError):
        CostModel(flow_ms=-1.0)
