"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
Tolerances are pinned here, not calibrated elsewhere."""

import functools
import time

import numpy as np
import pytest
from raycast import apply_homography, pointing_error, upr_homography
from rotations import from_quaternion

from uprsim.geometry import (
    DisplayModel,
    EyeState,
    GeometryError,
    RigidTransform,
    ScenePlane,
    back_camera,
)
from uprsim.harness import (
    BENCHMARK_JITTER_CROSSOVER_MM,
    ExperimentConfig,
    run,
    write_outputs,
)
from uprsim.scheduler import FLOW_FAILURE, Reason, ThresholdConfig, epsilon_default, schedule
from uprsim.viewgen import RenderMode, perceived_points


def criterion(number, text, max_seconds=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2} FAIL: {text}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:>2} PASS: {text} ({elapsed:.2f}s)")
            if max_seconds is not None:
                assert elapsed < max_seconds, f"criterion {number} exceeded {max_seconds}s"
        return wrapper
    return deco


def pair(x):
    """Eye pixels 60 px apart: left u, v, right u, v."""
    return (x, 100.0, x + 60.0, 100.0)


@criterion(1, "scheduler truth table (spatial / refine / precise-skip / skip / failure)",
           max_seconds=1.0)
def test_criterion_1_truth_table():
    cfg = ThresholdConfig(eps_max_px=24.0)

    def reasons(*xs):
        """schedule's reasons over flows pair(x), FLOW_FAILURE for None, each
        recomputation reporting pair(0.0). Frame 0 anchors there, precise,
        with eps 24; a skip leaves the state imprecise."""
        flows = [FLOW_FAILURE if x is None else pair(x) for x in xs]
        return schedule(flows, cfg, lambda i, k: pair(0.0))[0]

    assert reasons(25.0, 30.0)[1] is Reason.SPATIAL  # E = 30 > 24
    # A skip at 4 (dE = 9), then E = 5, dE = 1 < 2.4 while imprecise.
    assert reasons(-5.0, 4.0, 5.0)[1:] == (None, Reason.REFINE)
    # Precise: the same E and dE skip, and is_precise falls to False, so a
    # still frame then refines.
    assert reasons(4.0, 5.0, 5.0)[1:] == (None, Reason.REFINE)
    # Imprecise, E = 5, dE = 10: neither disjunct holds.
    assert reasons(-20.0, -5.0, 5.0)[1:] == (None, None)
    assert reasons(0.0, None)[1] is Reason.FLOW_FAILURE


def _stationary(policy):
    return ExperimentConfig(modes="AAUPR", trace_generator="stationary",
                            trace_n_frames=101, threshold_policy=policy,
                            noise_flow_sigma_px=0.0, noise_drift_px_per_frame=0.0,
                            noise_p_fail=0.0, noise_jitter_sigma_mm=0.0)


@criterion(2, "stationary 101-frame fixture: verbatim -> 51 recomputations, latched -> 1",
           max_seconds=1.0)
def test_criterion_2_stationary_fixture():
    assert run(_stationary("verbatim")).summaries["AAUPR"].invocations == 51
    assert run(_stationary("latched")).summaries["AAUPR"].invocations == 1


@criterion(3, "epsilon default is 3% of the front image diagonal (24.0 / 12.0 px)")
def test_criterion_3_epsilon_default():
    assert epsilon_default(640, 480) == 24.0
    assert epsilon_default(320, 240) == 12.0


@criterion(4, "timing anchor: UPR over 1000 frames accumulates 30094 ms, FUPR 0.0")
def test_criterion_4_timing_anchor():
    cfg = ExperimentConfig(modes="UPR,FUPR", trace_generator="stationary",
                           trace_n_frames=1000, noise_jitter_sigma_mm=0.0,
                           noise_flow_sigma_px=0.0, noise_p_fail=0.0,
                           noise_drift_px_per_frame=0.0)
    res = run(cfg)
    # 1000 binary-float additions of 30.094; exact up to representation error.
    assert res.summaries["UPR"].total_tracking_ms == pytest.approx(30094.0, abs=1e-6)
    assert res.summaries["FUPR"].total_tracking_ms == 0.0


@criterion(5, "benchmark AAUPR/UPR tracking-time ratio lies in [0.25, 0.60]",
           max_seconds=5.0)
def test_criterion_5_tracking_ratio():
    res = run(ExperimentConfig(modes="UPR,AAUPR"))
    ratio = (res.summaries["AAUPR"].total_tracking_ms
             / res.summaries["UPR"].total_tracking_ms)
    assert 0.25 <= ratio <= 0.60, f"ratio {ratio:.3f} outside bracket"


@criterion(6, "benchmark mean error ordering DPR > FUPR > AAUPR (strict)",
           max_seconds=5.0)
def test_criterion_6_error_ordering():
    s = run(ExperimentConfig(modes="DPR,FUPR,AAUPR")).summaries
    assert s["DPR"].mean_error_mm > s["FUPR"].mean_error_mm > s["AAUPR"].mean_error_mm


@criterion(7, f"jitter crossover: AAUPR <= UPR at sigma = "
              f"{BENCHMARK_JITTER_CROSSOVER_MM} mm over seeds 1..5")
def test_criterion_7_jitter_crossover():
    upr, aaupr = jitter_seed_means(BENCHMARK_JITTER_CROSSOVER_MM)
    assert aaupr <= upr


def jitter_seed_means(sigma):
    """UPR's and AAUPR's mean errors on the benchmark trace at jitter sigma
    (mm), each averaged over seeds 1..5."""
    upr, aaupr = [], []
    for seed in range(1, 6):
        s = run(ExperimentConfig(modes="UPR,AAUPR", seed=seed,
                                 noise_jitter_sigma_mm=sigma)).summaries
        upr.append(s["UPR"].mean_error_mm)
        aaupr.append(s["AAUPR"].mean_error_mm)
    return np.mean(upr), np.mean(aaupr)


@pytest.mark.parametrize("sigma", [0.0, 2.0, 5.0])
def test_jitter_crossover_is_smallest_on_demo_grid(sigma):
    # The recorded crossover is the smallest sigma of demo 04's grid (0, 2,
    # 5, 8, 12, 20 mm) at which AAUPR <= UPR: below it, AAUPR is behind.
    upr, aaupr = jitter_seed_means(sigma)
    assert aaupr > upr


def test_jitter_crossover_bracket():
    # Off demo 04's grid, the seed-mean crossover lies between 6.0 and
    # 6.25 mm: AAUPR is behind UPR at 6.0 and at or ahead of it at 6.25.
    upr, aaupr = jitter_seed_means(6.0)
    assert aaupr > upr
    upr, aaupr = jitter_seed_means(6.25)
    assert aaupr <= upr


#: The seeds over which README states the benchmark claims.
CLAIM_SEEDS = range(1, 101)


def test_benchmark_claims_over_seeds():
    # README's benchmark claims on every seed in CLAIM_SEEDS: DPR > FUPR >
    # AAUPR on mean error, and AAUPR's tracking time at 30-45% of UPR's
    # (0.344-0.417 on these seeds). At the default 5 mm jitter AAUPR is not
    # ahead of UPR on every seed: the AAUPR - UPR mean error's range and the
    # seeds where AAUPR is behind are recorded values, pinned here.
    gaps = []
    for seed in CLAIM_SEEDS:
        s = run(ExperimentConfig(seed=seed)).summaries
        dpr, fupr, upr, aaupr = (s[m] for m in ("DPR", "FUPR", "UPR", "AAUPR"))
        assert dpr.mean_error_mm > fupr.mean_error_mm > aaupr.mean_error_mm, seed
        assert 0.30 <= aaupr.total_tracking_ms / upr.total_tracking_ms <= 0.45, seed
        gaps.append(aaupr.mean_error_mm - upr.mean_error_mm)
    assert min(gaps) == pytest.approx(-1.9013943923992418, abs=1e-9)
    assert max(gaps) == pytest.approx(1.4766585076020373, abs=1e-9)
    assert sum(gap > 0 for gap in gaps) == 42


@criterion(8, "homography vs perceived_points: 100 random configs, 10x10 grid, 1e-6 mm",
           max_seconds=2.0)
def test_criterion_8_homography_oracle():
    # The four-corner homography, built in the tests from scalar ray casts,
    # against the per-pixel map a run computes.
    rng = np.random.default_rng(2024)
    plane = ScenePlane((4000.0, 4000.0))
    grid = np.stack(np.meshgrid(np.linspace(0, 1080, 10),
                                np.linspace(0, 608, 10)), axis=-1).reshape(-1, 2)
    checked = 0
    for _ in range(1000):  # draws; a call that fails on every draw fails the test
        # A display posed relative to a plane at plane_at, moved by -plane_at
        # so that the plane is world z = 0.
        quaternion, shift = rng.normal(scale=0.15, size=3), rng.normal(scale=30.0, size=3)
        plane_at = np.array([*rng.normal(scale=50.0, size=2), rng.uniform(-600.0, -250.0)])
        display = DisplayModel(109.0, 61.0, 1080, 608,
                               from_quaternion([1.0, *quaternion], shift - plane_at))
        eye = EyeState.from_cyclopean(
            [rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(200, 500)])
        try:
            h = upr_homography(eye, display, plane)
        except GeometryError:
            continue  # degenerate draw; only non-degenerate configs count
        eye_world = display.pose_world.apply(eye.cyclopean_mm)
        perceived, hit = perceived_points(eye_world, grid, display, plane)
        assert hit.all()
        assert np.abs(apply_homography(h, grid) - perceived).max() < 1e-6
        checked += 1
        if checked == 100:
            break
    assert checked == 100, f"1000 draws gave {checked} non-degenerate configs"


@criterion(9, "exact compensation: UPR error < 1e-9 mm over 1000 random configs",
           max_seconds=2.0)
def test_criterion_9_exact_compensation():
    rng = np.random.default_rng(99)
    plane = ScenePlane((3000.0, 3000.0))
    done = 0
    while done < 1000:
        # The plane 200-600 mm below the display; it is world z = 0.
        height = -rng.uniform(-600.0, -200.0)
        display = DisplayModel(109.0, 61.0, 1080, 608,
                               RigidTransform(np.eye(3), [0.0, 0.0, height]))
        eye = EyeState.from_cyclopean(
            [rng.uniform(-120, 120), rng.uniform(-80, 80), rng.uniform(120, 500)])
        target = plane.from_plane_2d(rng.uniform(-200, 200, size=2))
        err = pointing_error(RenderMode.UPR, target, eye, eye, display, plane)
        assert err < 1e-9
        done += 1


@criterion(10, "monotone error growth: DPR vs camera offset, FUPR vs head displacement",
           max_seconds=2.0)
def test_criterion_10_monotonicity():
    display = DisplayModel(109.0, 61.0, 1080, 608, RigidTransform(np.eye(3), [0.0, 0.0, 300.0]))
    plane = ScenePlane((2000.0, 2000.0))
    eye = EyeState.from_cyclopean([0.0, 0.0, 250.0])
    target = [30.0, 10.0, 0.0]
    errs = [pointing_error(RenderMode.DPR, target, None, eye, display, plane,
                           back_cam=back_camera((off, 0.0, 0.0), 400.0, 400.0, 640, 480))
            for off in np.arange(0.0, 101.0, 10.0)]
    assert all(b >= a - 1e-9 for a, b in zip(errs, errs[1:]))

    cal_eye = EyeState.from_cyclopean([0.0, 0.0, 150.0])
    errs = [pointing_error(RenderMode.FUPR, [0.0, 0.0, 0.0], cal_eye,
                           EyeState.from_cyclopean([dx, 0.0, 150.0]), display, plane)
            for dx in np.arange(0.0, 201.0, 20.0)]
    assert all(b >= a - 1e-9 for a, b in zip(errs, errs[1:]))


@criterion(11, "determinism: identical config and seed produce byte-identical CSVs")
def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(seed=11)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_outputs(run(cfg), d1)
    write_outputs(run(cfg), d2)
    for p in sorted(d1.iterdir()):
        assert p.read_bytes() == (d2 / p.name).read_bytes()
