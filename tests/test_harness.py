import csv
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from raycast import pointing_error
from strategies import aaupr_decides, running_configs

from uprsim import harness
from uprsim import scheduler as sched
from uprsim.geometry import EyeState, GeometryError, RigidTransform, project_pinhole
from uprsim.harness import (
    SWEEP_PARAMS,
    ConfigError,
    ExperimentConfig,
    run,
    sweep,
    write_outputs,
    write_sweep_csv,
)
from uprsim.tracksim import FlowSimulator, eye_points, project_eyes, write_trace_csv
from uprsim.viewgen import RenderMode, pointing_errors


def quiet_config(**kw) -> ExperimentConfig:
    """Noise-free configuration for exact fixtures."""
    base = dict(noise_flow_sigma_px=0.0, noise_drift_px_per_frame=0.0,
                noise_p_fail=0.0, noise_jitter_sigma_mm=0.0)
    base.update(kw)
    return ExperimentConfig(**base)


# ---- config parsing ----------------------------------------------------

def test_parse_defaults_and_comments():
    cfg = ExperimentConfig.from_text("""
        # benchmark override
        seed = 7
        modes = UPR,AAUPR
        noise_jitter_sigma_mm = 2.5   # mm
        errors_dwell_only = false
    """)
    assert cfg.seed == 7
    assert cfg.modes == "UPR,AAUPR"
    assert cfg.noise_jitter_sigma_mm == 2.5
    assert cfg.errors_dwell_only is False


def test_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_text("epsilon = 24\n")


def test_bad_value_reports_field():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_text("seed = banana\n")
    with pytest.raises(ConfigError, match="key = value"):
        ExperimentConfig.from_text("just some words\n")


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="render mode"):
        ExperimentConfig(modes="UPR,XPR").mode_list()


def test_target_outside_plane_rejected():
    with pytest.raises(ConfigError, match="targets"):
        ExperimentConfig(targets="9999,0").target_points()


def test_bad_targets_format_rejected():
    # The format is the field's own domain, checked when a config is built.
    with pytest.raises(ConfigError, match=r"^targets: must be one or more x,y float pairs, "
                                          r"separated by ';', each at most 1e6 in magnitude, "
                                          r"got '1;2;3'$"):
        ExperimentConfig(targets="1;2;3")


def test_threshold_defaults_from_front_camera():
    cfg = ExperimentConfig()
    assert cfg.threshold_config().eps_max_px == pytest.approx(24.0)


# ---- scheduler-in-the-loop fixtures ------------------------------------

def stationary(n_frames, **kw):
    return quiet_config(modes="AAUPR", trace_generator="stationary",
                        trace_n_frames=n_frames, **kw)


def test_stationary_verbatim_51_of_101():
    res = run(stationary(101, threshold_policy="verbatim"))
    assert res.summaries["AAUPR"].invocations == 51


def test_stationary_latched_single_invocation():
    res = run(stationary(101, threshold_policy="latched"))
    assert res.summaries["AAUPR"].invocations == 1


def test_upr_tracking_total_1000_frames():
    cfg = quiet_config(modes="UPR,FUPR", trace_generator="stationary",
                       trace_n_frames=1000)
    res = run(cfg)
    assert res.summaries["UPR"].invocations == 1000
    assert res.summaries["UPR"].total_tracking_ms == pytest.approx(30094.0, abs=1e-6)
    assert res.summaries["FUPR"].total_tracking_ms == 0.0


def test_invocation_ordering():
    res = run(ExperimentConfig())
    s = res.summaries
    assert s["FUPR"].invocations == 0 and s["DPR"].invocations == 0
    assert s["AAUPR"].invocations <= s["UPR"].invocations == len(res.trace)


def test_noise_free_upr_error_zero():
    res = run(quiet_config(modes="UPR"))
    assert res.summaries["UPR"].mean_error_mm < 1e-9


def frame_rows(outdir, mode) -> list[dict[str, str]]:
    with open(outdir / f"frames_{mode}.csv", newline="") as f:
        return list(csv.DictReader(f))


def test_frame_time_accounting(tmp_path):
    # The frame CSV's running total and frame time follow from each frame's
    # charge, and the summary is their last cell and mean, to the bit.
    cfg = quiet_config(modes="UPR,AAUPR,FUPR")
    res = run(cfg)
    assert res.config is cfg  # write_outputs reads the render base time from it
    write_outputs(res, tmp_path)
    for mode, rec in res.records.items():
        rows = frame_rows(tmp_path, mode)
        cumulative = 0.0
        for charge, row in zip(rec.tracking_charge_ms, rows, strict=True):
            assert float(row["tracking_charge_ms"]) == charge
            cumulative += charge
            assert float(row["cumulative_tracking_ms"]) == pytest.approx(cumulative)
            assert float(row["frame_time_ms"]) == pytest.approx(cfg.cost_render_base_ms + charge)
        s = res.summaries[mode]
        assert s.total_tracking_ms == float(rows[-1]["cumulative_tracking_ms"])
        assert s.mean_frame_time_ms == np.mean([float(row["frame_time_ms"]) for row in rows])
    # FUPR never charges tracking time.
    assert all(charge == 0.0 for charge in res.records["FUPR"].tracking_charge_ms)


def test_aaupr_decisions_recorded(tmp_path):
    # AAUPR's decision column: a recalculation where the frame has a reason,
    # a skip where it has none. Other modes decide nothing.
    write_outputs(run(quiet_config(modes="AAUPR,UPR")), tmp_path)
    rows = frame_rows(tmp_path, "AAUPR")
    assert (rows[0]["decision"], rows[0]["reason"]) == ("recalculate", "initial")
    assert {row["decision"] for row in rows} == {"recalculate", "skip"}
    assert all((row["decision"] == "skip") == (row["reason"] == "") for row in rows)
    assert {row["decision"] for row in frame_rows(tmp_path, "UPR")} == {""}


def test_errors_only_at_dwell_frames_by_default():
    res = run(quiet_config(modes="FUPR"))
    dwell = res.trace.dwell_mask()
    for errors, d in zip(res.records["FUPR"].errors_mm, dwell):
        evaluated = not all(np.isnan(errors))
        if d:
            assert evaluated
        else:
            assert not evaluated


def test_all_frames_option():
    res = run(quiet_config(modes="FUPR", errors_dwell_only=False))
    assert all(not all(np.isnan(errors)) for errors in res.records["FUPR"].errors_mm)


def test_degenerate_geometry_yields_nan_not_abort():
    # The display hangs below the scene plane while the head moves 300 mm in
    # depth: in many frames the eye-to-target line does not cross the panel
    # in front of the eye. Those cells surface as NaN, not as an abort.
    cfg = ExperimentConfig(modes="UPR,FUPR", display_z_world_mm=-300.0,
                           trace_depth_amplitude_mm=300.0, errors_dwell_only=False)
    res = run(cfg)  # must not raise
    assert len(res.records["FUPR"].tracking_charge_ms) == len(res.trace)
    errors = res.records["UPR"].errors_mm
    no_hit = np.isnan(errors)
    assert 0 < no_hit.sum() < errors.size
    mean = res.summaries["UPR"].mean_error_mm
    assert np.isfinite(mean)
    assert mean == pytest.approx(errors[~no_hit].mean(), rel=1e-12)
    assert np.isnan(res.summaries["FUPR"].mean_error_mm)  # every FUPR cell misses


NO_HIT = dict(display_z_world_mm=-300.0, trace_depth_amplitude_mm=300.0,
              errors_dwell_only=False)


def random_config(case: int) -> ExperimentConfig:
    """A seeded random geometry on a short step_move trace; the case index
    alternates the DPR fit policy and dwell-only evaluation."""
    rng = np.random.default_rng(case)
    targets = ";".join(f"{x:.3f},{y:.3f}" for x, y in
                       rng.uniform([-250.0, -140.0], [250.0, 140.0], size=(4, 2)))
    return ExperimentConfig(
        seed=case + 1, trace_dwell_frames=20, trace_transition_frames=10,
        trace_base_eye_x_mm=rng.uniform(-60.0, 60.0),
        trace_base_eye_z_mm=rng.uniform(100.0, 400.0),
        trace_amplitude_mm=rng.uniform(-300.0, 300.0),
        trace_depth_amplitude_mm=rng.uniform(-40.0, 300.0),
        display_z_world_mm=rng.uniform(100.0, 600.0),
        back_cam_offset_x_mm=rng.uniform(-50.0, 50.0),
        back_cam_offset_y_mm=rng.uniform(-30.0, 30.0),
        noise_jitter_sigma_mm=rng.uniform(0.0, 10.0),
        dpr_fit=("stretch", "letterbox")[case % 2],
        errors_dwell_only=bool(case // 2 % 2), targets=targets)


def scalar_errors(cfg: ExperimentConfig, res, mode: str) -> np.ndarray:
    """The (F, T) error table recomputed cell by cell with the scalar
    ray-cast oracle's pointing_error, from the eyes the loop recorded."""
    display, plane, back, fit = cfg.display(), cfg.plane(), cfg.back_cam(), cfg.fit_policy()
    targets = plane.from_plane_2d(cfg.target_points())
    rec = res.records[mode]
    evaluate = res.trace.dwell_mask() if cfg.errors_dwell_only else np.ones(len(res.trace), bool)
    out = np.full(rec.errors_mm.shape, np.nan)
    trace = res.trace
    for i in np.flatnonzero(evaluate):
        est = None if mode == "DPR" else EyeState.from_cyclopean(rec.est_eye_mm[i], cfg.ipd_mm)
        true = EyeState.from_cyclopean(trace.eye_mm[i], trace.ipd_mm[i])
        for t, target in enumerate(targets):
            try:
                out[i, t] = pointing_error(RenderMode(mode), target, est, true,
                                           display, back_cam=back, fit=fit)
            except GeometryError:
                pass
    return out


@pytest.mark.parametrize("case", [0, 1, 2, 3, 4, 5, "no_hit"])
def test_batch_errors_match_scalar_oracle(case):
    cfg = (ExperimentConfig(trace_dwell_frames=20, trace_transition_frames=10, **NO_HIT)
           if case == "no_hit" else random_config(case))
    res = run(cfg)
    for mode in ("DPR", "UPR", "FUPR", "AAUPR"):
        batch, ref = res.records[mode].errors_mm, scalar_errors(cfg, res, mode)
        assert np.array_equal(np.isnan(batch), np.isnan(ref)), mode
        hit = ~np.isnan(ref)
        assert np.abs(batch[hit] - ref[hit]).max(initial=0.0) <= 1e-9, mode
    if case == "no_hit":
        upr = res.records["UPR"].errors_mm
        assert 0 < np.isnan(upr).sum() < upr.size


@pytest.mark.parametrize("latency", [0, 1, 2, 3])
@pytest.mark.parametrize("mode", ["UPR", "AAUPR"])
def test_tracking_total_is_invocations_times_cost(mode, latency):
    # Verbatim AAUPR on a still head recalculates every other frame,
    # including the final one; UPR invokes on every frame.
    cfg = quiet_config(modes=mode, trace_generator="stationary", trace_n_frames=101,
                       noise_latency_frames=latency)
    res = run(cfg)
    s = res.summaries[mode]
    cm = cfg.cost_model()
    face_cost = cm.face_cost(cfg.cost_resolution)
    owed = s.invocations * face_cost
    if mode == "AAUPR":
        owed += len(res.trace) * cm.flow_ms
    assert s.total_tracking_ms == pytest.approx(owed, abs=1e-6)
    # An invocation made on the final frame is billed there.
    assert res.records[mode].tracking_charge_ms[-1] >= face_cost


@pytest.mark.parametrize("policy", ["verbatim", "latched", "decaying"])
@pytest.mark.parametrize("latency", range(6))
@settings(max_examples=3)
@given(seed=st.integers(1, 2**31 - 1), p_fail=st.floats(0.0, 0.2),
       jitter_mm=st.floats(0.0, 20.0), amplitude_mm=st.floats(0.0, 300.0))
def test_tracking_total_property(policy, latency, seed, p_fail, jitter_mm, amplitude_mm):
    # Total tracking time is invocations x face cost (plus flow cost on
    # every AAUPR frame), whatever the latency, policy and noise.
    cfg = ExperimentConfig(modes="UPR,AAUPR", seed=seed, threshold_policy=policy,
                           noise_latency_frames=latency, noise_p_fail=p_fail,
                           noise_jitter_sigma_mm=jitter_mm, trace_amplitude_mm=amplitude_mm,
                           trace_dwell_frames=20, trace_transition_frames=10)
    res = run(cfg)
    cm = cfg.cost_model()
    for mode, s in res.summaries.items():
        owed = s.invocations * cm.face_cost(cfg.cost_resolution)
        if mode == "AAUPR":
            owed += len(res.trace) * cm.flow_ms
        assert s.total_tracking_ms == pytest.approx(owed, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
@pytest.mark.parametrize("policy", ["verbatim", "latched", "decaying"])
@pytest.mark.parametrize("latency", [0, 3])
def test_invocations_are_the_request_frames(latency, policy, p_fail):
    # Each mode's request frames ascend: none for DPR and FUPR, every frame
    # for UPR, the recalculations for AAUPR; its summary counts them.
    cfg = ExperimentConfig(trace_generator="sway", trace_n_frames=60, noise_p_fail=p_fail,
                           threshold_policy=policy, noise_latency_frames=latency)
    res = run(cfg)
    n = len(res.trace)
    for mode, rec in res.records.items():
        assert np.all(np.diff(rec.requests) > 0), mode
        expected = {"UPR": np.arange(n), "AAUPR": np.flatnonzero(rec.reason != "")}
        assert np.array_equal(rec.requests, expected.get(mode, [])), mode
        assert res.summaries[mode].invocations == len(rec.requests), mode


@pytest.mark.parametrize("mode", ["UPR", "AAUPR"])
def test_estimate_behind_panel_is_config_error(mode):
    # A jitter draw that puts the face-tracker estimate at z <= 0 names the
    # config key and the frame instead of failing deep in the geometry.
    with pytest.raises(ConfigError, match=r"noise_jitter_sigma_mm: frame \d+: estimate behind"):
        run(ExperimentConfig(modes=mode, noise_jitter_sigma_mm=200.0))


def test_latency_reanchors_scheduler_at_request_renders_at_arrival():
    # A recomputation requested at frame k re-anchors the scheduler at k, so
    # E at k+1 is measured against the new estimate; the renderer shows that
    # estimate only from frame k + latency on.
    cfg = quiet_config(modes="AAUPR", threshold_policy="latched", noise_latency_frames=2)
    res = run(cfg)
    rec, true_eye = res.records["AAUPR"], res.trace.eye_mm
    k = int(np.flatnonzero(rec.reason == "spatial")[0])
    # No earlier request is still in flight at k+1 or k+2.
    assert rec.reason[k - 2:k].tolist() == ["", ""]  # two skips
    front, metric = harness._scene(cfg).front_cam, sched.EyeMetric(cfg.threshold_metric)

    def eye_px(eye_mm):
        px = project_pinhole(front, front.extrinsic.apply(eye_points(eye_mm, cfg.ipd_mm)))
        return tuple(px.reshape(4).tolist())

    flow = eye_px(true_eye[k + 1])
    assert rec.e_px[k + 1] == pytest.approx(
        sched.eye_distance_px(eye_px(true_eye[k]), flow, metric), abs=1e-9)
    assert abs(rec.e_px[k + 1]
               - sched.eye_distance_px(eye_px(rec.est_eye_mm[k + 1]), flow, metric)) > 1.0
    assert np.array_equal(rec.est_eye_mm[k + 1], rec.est_eye_mm[k])
    assert np.allclose(rec.est_eye_mm[k + 2], true_eye[k], rtol=0, atol=1e-12)
    assert not np.allclose(rec.est_eye_mm[k + 1], rec.est_eye_mm[k + 2])


def pending_queue_reference(cfg: ExperimentConfig, res, mode: str):
    """est_eye_mm and tracking_charge_ms built frame by frame with a queue of
    pending results, from the request frames the run recorded: a request at
    frame k draws its jitter then, arrives and is billed at k + latency, and
    results still queued when the trace ends are billed to its final frame."""
    rec, n = res.records[mode], len(res.trace)
    cm = cfg.cost_model()
    face_cost = cm.face_cost(cfg.cost_resolution)
    rng = np.random.default_rng([cfg.seed, list(RenderMode).index(RenderMode(mode)), 1])
    requests = set(range(n)) if mode == "UPR" else \
        set(np.flatnonzero(rec.reason != "").tolist())
    sigma = cfg.noise_jitter_sigma_mm
    est_col, charge = np.full((n, 3), np.nan), np.zeros(n)
    current = np.array([0.0, 0.0, cfg.fupr_distance_mm])
    pending = []
    for i in range(n):
        if mode == "AAUPR":
            charge[i] = cm.flow_ms
        if i in requests:
            offset = rng.normal(0.0, sigma, size=3) if sigma > 0 else np.zeros(3)
            pending.append((i + cfg.noise_latency_frames, res.trace.eye_mm[i] + offset, face_cost))
        while pending and pending[0][0] <= i:
            _, current, c = pending.pop(0)
            charge[i] += c
        est_col[i] = current
    for _, _, c in pending:
        charge[-1] += c
    return est_col, charge


@pytest.mark.parametrize("latency", range(7))
@settings(max_examples=25)
@given(seed=st.integers(0, 2**31 - 1), n_frames=st.integers(1, 30),
       jitter_mm=st.one_of(st.just(0.0), st.floats(0.01, 20.0)),
       amplitude_mm=st.floats(0.0, 200.0), p_fail=st.floats(0.0, 0.3),
       policy=st.sampled_from(["verbatim", "latched", "decaying"]),
       flow_ms=st.floats(0.0, 2.0), face_ms=st.floats(1.0, 60.0))
def test_request_events_equal_pending_queue(latency, seed, n_frames, jitter_mm, amplitude_mm,
                                            p_fail, policy, flow_ms, face_ms):
    # The one pass over request frames gives the sequential queue's columns
    # bit for bit, traces no longer than the latency included. Drawn costs
    # make the final frame's sum sensitive to its order.
    cfg = ExperimentConfig(modes="UPR,AAUPR", seed=seed, trace_generator="sway",
                           trace_n_frames=n_frames, trace_sway_period_s=2.0,
                           trace_amplitude_mm=amplitude_mm, noise_p_fail=p_fail,
                           noise_jitter_sigma_mm=jitter_mm, threshold_policy=policy,
                           noise_latency_frames=latency, cost_flow_ms=flow_ms,
                           cost_face_track_640x480_ms=face_ms)
    res = run(cfg)
    for mode in ("UPR", "AAUPR"):
        est, charge = pending_queue_reference(cfg, res, mode)
        assert np.array_equal(res.records[mode].est_eye_mm, est), mode
        assert np.array_equal(res.records[mode].tracking_charge_ms, charge), mode


def bit_equal(a, b) -> bool:
    """Same shape and values, floats compared by their bits (NaN equals NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == np.float64 == b.dtype:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), n_frames=st.integers(1, 30),
       walk=st.booleans(), amplitude=st.floats(0.0, 1.0),
       jitter_mm=st.one_of(st.just(0.0), st.floats(0.01, 20.0)), p_fail=st.floats(0.0, 0.3),
       policy=st.sampled_from(["verbatim", "latched", "decaying"]))
def test_latency_shifts_rendering_not_loop(seed, n_frames, walk, amplitude, jitter_mm, p_fail,
                                           policy):
    # Latency L moves each estimate L frames later and changes nothing the
    # loop decides: requests, reasons (so skips too), E and dE stay bit-equal.
    cfg = ExperimentConfig(modes="UPR,AAUPR", seed=seed, trace_n_frames=n_frames,
                           trace_generator="random_walk" if walk else "sway",
                           trace_amplitude_mm=amplitude * (5.0 if walk else 200.0),
                           noise_jitter_sigma_mm=jitter_mm, noise_p_fail=p_fail,
                           threshold_policy=policy)
    at_zero = run(cfg).records
    cal_eye = [0.0, 0.0, cfg.fupr_distance_mm]
    for latency in range(1, 6):
        records = run(replace(cfg, noise_latency_frames=latency)).records
        for mode, rec in records.items():
            ref = at_zero[mode]
            for col in ("requests", "reason", "e_px", "delta_e_px"):
                assert bit_equal(getattr(rec, col), getattr(ref, col)), (mode, latency, col)
            shifted = np.vstack([np.tile(cal_eye, (latency, 1)), ref.est_eye_mm])[:n_frames]
            assert bit_equal(rec.est_eye_mm, shifted), (mode, latency)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), n_frames=st.integers(1, 30),
       order=st.permutations([m.value for m in RenderMode]),
       jitter_mm=st.one_of(st.just(0.0), st.floats(0.01, 20.0)), p_fail=st.floats(0.0, 0.3),
       latency=st.integers(0, 3), policy=st.sampled_from(["verbatim", "latched", "decaying"]))
def test_modes_are_independent(seed, n_frames, order, jitter_mm, p_fail, latency, policy):
    # Each mode's record in a four-mode run, in any order, is the record of
    # a run configured with that mode alone, column for column.
    cfg = ExperimentConfig(modes=",".join(order), seed=seed, trace_generator="sway",
                           trace_n_frames=n_frames, trace_sway_period_s=2.0,
                           noise_jitter_sigma_mm=jitter_mm, noise_p_fail=p_fail,
                           noise_latency_frames=latency, threshold_policy=policy,
                           errors_dwell_only=False)
    together = run(cfg).records
    for mode in order:
        alone = run(replace(cfg, modes=mode)).records[mode]
        for name, column in zip(alone._fields, alone):
            assert bit_equal(getattr(together[mode], name), column), (mode, name)


@settings(max_examples=40)
@given(config=running_configs(), cut=st.floats(0.0, 1.0))
@example(config=ExperimentConfig(trace_dwell_frames=20, trace_transition_frames=5,
                                  noise_latency_frames=3), cut=0.0)  # N = 2
@example(config=ExperimentConfig(trace_dwell_frames=20, trace_transition_frames=5,
                                  noise_latency_frames=3), cut=1.0)  # N = n
def test_a_run_on_a_prefix_is_the_full_runs_prefix(config, cut):
    # Runs are causal. A run on the trace's first N frames (2 <= N <= n)
    # gives each mode's record of the full run's first N rows, bit for bit:
    # the requests below N, the reason, E, dE, estimate and error columns,
    # and the charges of frames 0 to N - 2. Frame N - 1 is the stated
    # exception: its charge is the full run's there plus the face cost of
    # each request below N whose result arrives after it, as a late result
    # is billed to the last frame. A draw made ahead of its frame (later
    # frames' flow noise, say) changes a prefix, and fails here.
    full = run(config)
    assert aaupr_decides(full)
    n = len(full.trace)
    N = 2 + round(cut * (n - 2))
    prefix = run(replace(config, trace_n_frames=N)).records
    face_ms = config.cost_model().face_cost(config.cost_resolution)
    for mode, rec in full.records.items():
        got = prefix[mode]
        assert bit_equal(got.requests, rec.requests[rec.requests < N]), mode
        for name in ("reason", "e_px", "delta_e_px", "est_eye_mm", "errors_mm"):
            assert bit_equal(getattr(got, name), getattr(rec, name)[:N]), (mode, name)
        assert bit_equal(got.tracking_charge_ms[:-1], rec.tracking_charge_ms[:N - 1]), mode
        last = rec.tracking_charge_ms[N - 1]
        arrival = np.minimum(got.requests + config.noise_latency_frames, n - 1)
        for _ in range(np.count_nonzero(arrival > N - 1)):  # in request order, as a run adds
            last += face_ms
        assert bit_equal(got.tracking_charge_ms[-1], last), mode


def caller(depth=2) -> tuple[str, str]:
    """(module, function) of the code that called the caller of this."""
    frame = sys._getframe(depth)
    return frame.f_globals["__name__"], frame.f_code.co_name


def counting_project(monkeypatch) -> list:
    """Patch the harness's project_eyes to record the shape of each call's eyes."""
    calls = []

    def counting(cam, eyes):
        calls.append(np.shape(eyes))
        return project_eyes(cam, eyes)

    monkeypatch.setattr(harness, "project_eyes", counting)
    return calls


def test_aaupr_loop_makes_no_per_frame_numpy_hop(monkeypatch):
    # The closed loop runs on Python floats: one project_eyes pass over the
    # trace, the re-anchor's camera transform without numpy, and no
    # np.asarray inside the scheduler on any frame.
    project_calls = counting_project(monkeypatch)
    apply_callers, asarray_callers = [], []
    apply, asarray = RigidTransform.apply, np.asarray

    def counting_apply(self, points):
        apply_callers.append(caller())
        return apply(self, points)

    def counting_asarray(*args, **kwargs):
        asarray_callers.append(caller())
        return asarray(*args, **kwargs)

    monkeypatch.setattr(RigidTransform, "apply", counting_apply)
    monkeypatch.setattr(np, "asarray", counting_asarray)
    rec = run(ExperimentConfig(modes="AAUPR", trace_generator="sway", trace_n_frames=300,
                               trace_amplitude_mm=120.0)).records["AAUPR"]
    assert "" in rec.reason and len(set(rec.reason.tolist())) > 1  # skips and recalculations
    assert project_calls == [(300, 2, 3)]
    # viewgen's pointing-error pass applies the display pose; the flow proxy
    # applies the camera transform once, in project_eyes.
    assert [c for c in apply_callers if c[0] == "uprsim.tracksim"] == [
        ("uprsim.tracksim", "project_eyes")]
    assert ("uprsim.geometry", "apply") in asarray_callers  # the counter sees calls
    assert [c for c in asarray_callers if c[0] == sched.__name__] == []


def test_only_aaupr_builds_a_flow_simulator(monkeypatch):
    # AAUPR opens one flow stream per run, over the scene's projection, from
    # a simulator of its config's noise keys; no other mode opens one.
    opened = []
    stream = FlowSimulator.stream
    monkeypatch.setattr(FlowSimulator, "stream",
                        lambda sim, *args: opened.append((sim, *args)) or stream(sim, *args))
    run(ExperimentConfig(modes="DPR,UPR,FUPR"))
    assert opened == []
    cfg = ExperimentConfig(modes="AAUPR")
    n = len(run(cfg).trace)
    ((sim, flow_px, visible),) = opened
    assert (sim.noise_sigma_px, sim.drift_px_per_frame, sim.p_fail) == (
        cfg.noise_flow_sigma_px, cfg.noise_drift_px_per_frame, cfg.noise_p_fail)
    assert len(flow_px) == len(visible) == n


def test_trace_file_input(tmp_path):
    cfg = quiet_config(modes="FUPR")
    trace = cfg.build_trace()
    p = tmp_path / "trace.csv"
    write_trace_csv(trace, p)
    res_file = run(quiet_config(modes="FUPR", trace_file=str(p)))
    res_gen = run(cfg)
    assert res_file.summaries["FUPR"].mean_error_mm == pytest.approx(
        res_gen.summaries["FUPR"].mean_error_mm)


# ---- determinism and CSV output ----------------------------------------

def test_byte_identical_outputs(tmp_path):
    cfg = ExperimentConfig(seed=5)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    write_outputs(run(cfg), d1)
    write_outputs(run(cfg), d2)
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_csv_schemas(tmp_path):
    cfg = ExperimentConfig(targets="0,0;100,50")
    write_outputs(run(cfg), tmp_path)
    header = (tmp_path / "frames_UPR.csv").read_text().splitlines()[0]
    assert header.startswith("frame,mode,decision,reason,e_px,delta_e_px,"
                             "est_eye_x_mm,est_eye_y_mm,est_eye_z_mm,"
                             "true_eye_x_mm,true_eye_y_mm,true_eye_z_mm,"
                             "err_target_0_mm,err_target_1_mm")
    assert header.endswith("tracking_charge_ms,cumulative_tracking_ms,frame_time_ms")
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == ("mode,mean_error_mm,sd_error_mm,invocations,"
                          "invocation_fraction,total_tracking_ms,mean_frame_time_ms")
    assert len(summary) == 5  # four modes


@pytest.mark.parametrize("table", ["frames", "summary", "sweep", "trace"])
def test_frame_csv_cells_are_plain_floats(tmp_path, table):
    if table in ("frames", "summary"):
        write_outputs(run(ExperimentConfig(seed=3)), tmp_path)
        paths = sorted(tmp_path.glob(f"{table}*.csv"))
        assert len(paths) == (4 if table == "frames" else 1)
    elif table == "sweep":
        # A library caller may pass ints and numpy scalars as sweep values.
        cfg = ExperimentConfig(modes="UPR,AAUPR", trace_dwell_frames=20,
                               trace_transition_frames=5)
        paths = [tmp_path / "sweep.csv"]
        write_sweep_csv(sweep(cfg, "eps_max", [24, np.float64(12.5)]), "eps_max", paths[0])
    else:
        paths = [tmp_path / "trace.csv"]
        write_trace_csv(ExperimentConfig(seed=3).build_trace(), paths[0])
    for path in paths:
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                for key, cell in row.items():
                    assert "np." not in cell, (path.name, key, cell)
                    if key not in ("mode", "decision", "reason", "parameter"):
                        float(cell)


# ---- sweeps ------------------------------------------------------------

def test_eps_sweep_monotone_invocations():
    cfg = ExperimentConfig(modes="AAUPR", trace_generator="sway",
                           trace_n_frames=200, trace_amplitude_mm=120.0)
    rows = sweep(cfg, "eps_max", [12.0, 24.0, 48.0])
    fracs = [s.invocation_fraction for _, s in rows]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_eps_sweep_benchmark_trace_invocations_rise():
    # Unlike the sway trace's above, the benchmark trace's AAUPR invocations
    # (seed 1, verbatim) rise with eps from 12 to 48 px, and at the default
    # 24 px refine triggers (dE < refine_factor x eps while imprecise) make
    # most of them.
    cfg = ExperimentConfig(modes="AAUPR", seed=1)
    rows = sweep(cfg, "eps_max", [12.0, 24.0, 48.0])
    assert [s.invocations for _, s in rows] == [62, 120, 157]
    reasons = run(replace(cfg, threshold_eps_max_px=24.0)).records["AAUPR"].reason.tolist()
    assert (reasons.count("refine"), reasons.count("spatial")) == (107, 12)


def test_head_displacement_sweep_fupr_error_growth():
    cfg = quiet_config(modes="FUPR")
    rows = sweep(cfg, "head_displacement", [0.0, 50.0, 100.0, 150.0, 200.0])
    errs = [s.mean_error_mm for _, s in rows]
    assert all(b >= a - 1e-9 for a, b in zip(errs, errs[1:]))


def test_jitter_sweep_upr_error_growth():
    cfg = ExperimentConfig(modes="UPR", trace_n_frames=200,
                           trace_dwell_frames=85, trace_transition_frames=30)
    rows = sweep(cfg, "jitter_sigma", [0.0, 2.0, 5.0, 10.0])
    errs = [s.mean_error_mm for _, s in rows]
    assert all(b >= a for a, b in zip(errs, errs[1:]))


def test_sweep_validation():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError):
        sweep(cfg, "nonsense", [1.0])
    with pytest.raises(ConfigError):
        sweep(cfg, "eps_max", [])
    with pytest.raises(ConfigError, match="^threshold_eps_max_px: must be finite"):
        sweep(cfg, "eps_max", [float("inf")])
    with pytest.raises(ConfigError, match="^threshold_eps_max_px: must be finite"):
        sweep(cfg, "eps_max", [float("nan")])
    with pytest.raises(ConfigError, match="^noise_jitter_sigma_mm: must be nonnegative"):
        sweep(cfg, "jitter_sigma", [-5.0])


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if f.type == "float"])
def test_library_route_rejects_nonfinite_floats(key):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite, got {value}$"):
            ExperimentConfig(**{key: value})


#: perfbench's trace_sweep cells, on a generated 1 mm random walk.
TRACE_SWEEP = dict(modes="AAUPR", threshold_policy="decaying", noise_latency_frames=2,
                   trace_generator="random_walk", trace_n_frames=300, trace_amplitude_mm=1.0,
                   trace_base_eye_z_mm=150.0, seed=7)


@pytest.mark.parametrize("parameter, values, overrides", [
    pytest.param("eps_max", [8.0, 24.0, 48.0], {}, id="eps_max-values0"),
    pytest.param("jitter_sigma", [0.0, 5.0, 10.0], {}, id="jitter_sigma-values1"),
    pytest.param("head_displacement", [50.0, 150.0, 250.0], {}, id="head_displacement-values2"),
    pytest.param("eps_max", [8.0, 16.0, 24.0, 32.0], TRACE_SWEEP, id="trace_sweep"),
])
def test_sweep_rows_equal_per_cell_runs(parameter, values, overrides):
    # Cells that share the first cell's trace and projection, and
    # head_displacement cells that each build their own, give exactly their
    # stand-alone runs.
    cfg = ExperimentConfig(**{"modes": "DPR,UPR,FUPR,AAUPR", "trace_dwell_frames": 40,
                              "trace_transition_frames": 10, **overrides})
    expected = per_cell_rows(cfg, SWEEP_PARAMS[parameter], values)
    assert repr(sweep(cfg, parameter, values)) == repr(expected)


def per_cell_rows(config, key, values):
    return [(v, s) for v in values for s in run(replace(config, **{key: v})).summaries.values()]


#: Swept values on which every running_configs() draw's AAUPR decides: in a
#: probe of 300 draws, eps 16 and 96 and jitter 0 and 10 all did, while eps
#: 8 recalculated on every frame of 16 sway and random-walk draws.
SHARED_SCENE_VALUES = {"eps_max": st.floats(16.0, 96.0), "jitter_sigma": st.floats(0.0, 10.0)}


@settings(max_examples=20)
@given(config=running_configs(), data=st.data())
def test_a_shared_scene_changes_no_row(config, data):
    # The cells of an eps_max or jitter_sigma sweep share one scene and one
    # pointing-error pass, and give exactly their own runs' summaries; each
    # cell's AAUPR skips and recalculates, so its threshold and its draws
    # decide its rows.
    for parameter, strategy in SHARED_SCENE_VALUES.items():
        key = SWEEP_PARAMS[parameter]
        values = data.draw(st.lists(strategy, min_size=2, max_size=2, unique=True))
        runs = [run(replace(config, **{key: v})) for v in values]
        assert all(map(aaupr_decides, runs))
        expected = [(v, s) for v, r in zip(values, runs) for s in r.summaries.values()]
        assert repr(sweep(config, parameter, values)) == repr(expected)


def test_eps_sweep_evaluates_errors_once(monkeypatch):
    # An eps_max sweep's cells share one pointing_errors pass, and each
    # cell's rows are still its own run's; a head_displacement cell has its
    # own trace, so its own pass.
    cfg = ExperimentConfig(trace_dwell_frames=40, trace_transition_frames=10)
    eps, amplitudes = [8.0, 16.0, 24.0, 32.0], [50.0, 150.0]
    expected = {"eps_max": per_cell_rows(cfg, "threshold_eps_max_px", eps),
                "head_displacement": per_cell_rows(cfg, "trace_amplitude_mm", amplitudes)}
    calls = []

    def counting(modes, *args, **kwargs):
        calls.append(len(modes))
        return pointing_errors(modes, *args, **kwargs)

    monkeypatch.setattr(harness, "pointing_errors", counting)
    assert repr(sweep(cfg, "eps_max", eps)) == repr(expected["eps_max"])
    assert calls == [4 * 4]
    calls.clear()
    assert (repr(sweep(cfg, "head_displacement", amplitudes))
            == repr(expected["head_displacement"]))
    assert calls == [4, 4]


def test_eps_sweep_reads_trace_file_once(tmp_path, monkeypatch):
    from uprsim.tracksim import read_trace_csv
    path = tmp_path / "trace.csv"
    write_trace_csv(ExperimentConfig().build_trace(), path)
    calls = []

    def counting_read(p):
        calls.append(p)
        return read_trace_csv(p)

    monkeypatch.setattr(harness, "read_trace_csv", counting_read)
    rows = sweep(ExperimentConfig(modes="AAUPR", trace_file=str(path)), "eps_max",
                 [8.0, 16.0, 24.0, 32.0])
    assert len(rows) == 4
    assert calls == [str(path)]


def test_sweep_projects_a_shared_trace_once(tmp_path, monkeypatch):
    # Cells that share a trace share its flow projection; a head_displacement
    # cell projects its own trace.
    cfg = ExperimentConfig(modes="AAUPR", trace_dwell_frames=40, trace_transition_frames=10)
    path = tmp_path / "trace.csv"
    write_trace_csv(cfg.build_trace(), path)
    calls = counting_project(monkeypatch)
    sweep(replace(cfg, trace_file=str(path)), "eps_max", [8.0, 16.0, 24.0, 32.0])
    assert calls == [(90, 2, 3)]
    calls.clear()
    sweep(cfg, "head_displacement", [50.0, 150.0, 250.0])
    assert calls == [(90, 2, 3)] * 3
