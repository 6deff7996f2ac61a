"""Lengths have one unit, and so do costs: whole-run scale relations.

Multiplying by a power of two is exact in float64, and every step of a run
is either scale-free (x / z in the projection, comparisons of two scaled
values) or scales its result exactly (sums, differences, norms, means). So
scaling every length key of a config by k = 2^j scales every mm output by
exactly k and leaves every px output and every decision bit-identical; and
scaling the four cost_* keys by 2 or 0.5 scales every charge and frame time
by it and leaves every error alone. A run of the scaled config is an oracle
for the whole run, AAUPR's closed loop included, that needs no second
implementation.

Two lengths are constants, not config keys, so they do not scale with the
rest, and the draws stay clear of them:
- tracksim.DWELL_TOL_MM, the eye travel at or below which a frame dwells:
  the draws set errors_dwell_only = false;
- the random walk's 50 mm floor on eye z in generate_trace: no draw is a
  random_walk trace.

Where one run raises a ConfigError, the other raises one naming the same
key. The relation is exact only where no product or square of two scaled
values falls into float64's subnormal range, where it loses bits: with
lengths at 1e-300, (k x)(k y) is not k^2 (x y). So a value that scales and
is nonzero but under MIN_DIVISOR (1e-9) in magnitude is drawn as its key's
default, as configs() draws a value outside a key's domain. A draw is
skipped where either side fails a domain bound: the scaled config leaves a
key's domain (SCALE, the MIN_DIVISOR floors), or one trace alone fails (its
eye under the MIN_DIVISOR floor on z).
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_cli import configs

from uprsim.harness import ConfigError, ExperimentConfig, run
from uprsim.tracksim import MIN_DIVISOR

#: The config keys that hold a length (mm), and errors_px_per_mm, a px per
#: length, each with the power of k it scales by; `targets` holds length pairs.
LENGTHS = {**dict.fromkeys(("trace_base_eye_x_mm", "trace_base_eye_y_mm", "trace_base_eye_z_mm",
                            "trace_amplitude_mm", "trace_depth_amplitude_mm", "ipd_mm",
                            "display_width_mm", "display_height_mm", "display_z_world_mm",
                            "plane_width_mm", "plane_height_mm", "back_cam_offset_x_mm",
                            "back_cam_offset_y_mm", "back_cam_offset_z_mm", "fupr_distance_mm",
                            "noise_jitter_sigma_mm"), 1),
           "errors_px_per_mm": -1}

COSTS = dict.fromkeys(("cost_face_track_320x240_ms", "cost_face_track_640x480_ms",
                       "cost_flow_ms", "cost_render_base_ms"), 1)


def draws(powers):
    """configs(), with each value of powers' keys that is nonzero but under
    MIN_DIVISOR in magnitude drawn as its default (see the module doc)."""
    default = ExperimentConfig()
    return configs().map(lambda c: replace(c, **{
        key: getattr(default, key) for key in powers if 0 < abs(getattr(c, key)) < MIN_DIVISOR}))


def scaled(config: ExperimentConfig, powers, k: float, targets: bool = False) -> ExperimentConfig:
    """config with each key of powers times k to its power, and each target
    coordinate times k if targets. Skips the draw where a scaled key leaves
    its domain."""
    new = {key: getattr(config, key) * k ** p for key, p in powers.items()}
    if targets:
        new["targets"] = ";".join(f"{float(x) * k!r},{float(y) * k!r}" for x, y in (
            pair.split(",") for pair in config.targets.split(";") if pair.strip()))
    try:
        return replace(config, **new)
    except ConfigError:
        assume(False)


def outcomes(config: ExperimentConfig, other: ExperimentConfig) -> list:
    """Each config's run, or the key that its ConfigError names: two runs,
    or two errors that name the same key. Skips the draw where one trace
    alone fails (its eye under the MIN_DIVISOR floor on z)."""
    results = []
    for c in (config, other):
        try:
            results.append(run(c))
        except ConfigError as exc:
            results.append(str(exc).partition(":")[0])
    kinds = [isinstance(r, str) for r in results]
    if kinds[0] != kinds[1]:
        assume("trace_*" not in results)
    assert kinds[0] == kinds[1], results
    if kinds[0]:
        assert results[0] == results[1]
    return results


def bits(a) -> list:
    """a's float64 bits, every NaN alike, so that equal lists mean the same
    values and signs of zero."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64).tolist()


def times(a, k: float) -> list:
    return bits(np.asarray(a, dtype=float) * k)


#: Configs that stay clear of both constant lengths (see the module doc).
LENGTH_CONFIGS = draws(LENGTHS).filter(lambda c: c.trace_generator != "random_walk").map(
    lambda c: replace(c, errors_dwell_only=False))

RELATION = settings(max_examples=30, suppress_health_check=[HealthCheck.filter_too_much])

#: The benchmark run with every frame evaluated, in which AAUPR skips most
#: frames and recalculates for spatial, refine and initial reasons. Drawn
#: configs seldom let AAUPR skip, so without these examples the relation
#: would seldom test its decisions.
EVERY_FRAME = ExperimentConfig(errors_dwell_only=False)


@RELATION
@given(config=LENGTH_CONFIGS, k=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
@example(config=EVERY_FRAME, k=0.5)
@example(config=EVERY_FRAME, k=4.0)
@example(config=replace(EVERY_FRAME, threshold_policy="decaying", threshold_metric="mean"), k=2.0)
def test_lengths_scale_every_mm_output_and_no_decision(config, k):
    base, big = outcomes(config, scaled(config, LENGTHS, k, targets=True))
    if isinstance(base, str):
        return  # both runs fail on the same key
    assert bits(big.trace.t_ms) == bits(base.trace.t_ms)
    assert bits(big.trace.eye_mm) == times(base.trace.eye_mm, k)
    assert bits(big.trace.ipd_mm) == times(base.trace.ipd_mm, k)
    for mode, rec in base.records.items():
        other = big.records[mode]
        assert other.requests.tolist() == rec.requests.tolist()
        assert other.reason.tolist() == rec.reason.tolist()
        for px in ("e_px", "delta_e_px", "tracking_charge_ms"):
            assert bits(getattr(other, px)) == bits(getattr(rec, px)), px
        assert bits(other.est_eye_mm) == times(rec.est_eye_mm, k)
        assert bits(other.errors_mm) == times(rec.errors_mm, k)
        s, t = base.summaries[mode], big.summaries[mode]
        assert t.mode == s.mode
        assert bits(t[1:3]) == times(s[1:3], k)  # the error mean and sd
        assert bits(t[3:]) == bits(s[3:])  # the invocations and times
        # The CLI's pixel mean: errors_px_per_mm went over k.
        assert bits(t.mean_error_mm * big.config.errors_px_per_mm) == bits(
            s.mean_error_mm * config.errors_px_per_mm)


@RELATION
@given(config=draws(COSTS), c=st.sampled_from([0.5, 2.0]))
def test_costs_scale_every_charge_and_no_error(config, c):
    base, dear = outcomes(config, scaled(config, COSTS, c))
    if isinstance(base, str):
        return  # both runs fail on the same key
    for mode, rec in base.records.items():
        other = dear.records[mode]
        assert bits(other.tracking_charge_ms) == times(rec.tracking_charge_ms, c)
        for name in ("requests", "reason", "e_px", "delta_e_px", "est_eye_mm", "errors_mm"):
            a, b = getattr(other, name), getattr(rec, name)
            assert (a.tolist() == b.tolist() if a.dtype.kind in "iO" else bits(a) == bits(b)), name
        s, t = base.summaries[mode], dear.summaries[mode]
        assert t.mode == s.mode
        assert bits(t[1:5]) == bits(s[1:5])  # the errors and invocations
        assert bits(t[5:]) == times(s[5:], c)  # the tracking total and frame time
