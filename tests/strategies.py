"""Hypothesis strategies for relations about a run's decisions.

test_cli.configs() draws every key across its whole domain. That is right
for "any config runs or names its key", but most of its draws fail, or
leave AAUPR recalculating on every frame, so a relation about decisions
would rarely meet one. running_configs() starts from ExperimentConfig()
and perturbs a few keys within ranges that keep a run valid and its
AAUPR deciding. A test that claims to cover decisions still checks, per
example, that AAUPR skipped a frame and recalculated (aaupr_decides), so
coverage is a checked property, not a share of the draws.
"""

from __future__ import annotations

from hypothesis import strategies as st

from uprsim.harness import ExperimentConfig, RunResult


@st.composite
def running_configs(draw) -> ExperimentConfig:
    """ExperimentConfig() with its trace generator, seed, policy, latency
    and noise drawn. Traces are short (at most 120 frames), a walk's steps
    are millimetres, and the jitter keeps every estimate in front of the
    panel."""
    generator = draw(st.sampled_from(["step_move", "stationary", "sway", "random_walk"]))
    if generator == "step_move":
        trace = {"trace_dwell_frames": draw(st.integers(5, 50)),
                 "trace_transition_frames": draw(st.integers(1, 20))}
    else:
        trace = {"trace_n_frames": draw(st.integers(10, 120))}
    if generator == "sway":
        trace["trace_amplitude_mm"] = draw(st.floats(20.0, 120.0))
        trace["trace_sway_period_s"] = draw(st.floats(2.0, 8.0))
    elif generator == "random_walk":
        trace["trace_amplitude_mm"] = draw(st.floats(0.5, 5.0))
    return ExperimentConfig(
        trace_generator=generator, **trace, seed=draw(st.integers(1, 1000)),
        threshold_policy=draw(st.sampled_from(["verbatim", "latched", "decaying"])),
        noise_latency_frames=draw(st.integers(0, 3)),
        noise_flow_sigma_px=draw(st.floats(0.0, 2.0)),
        noise_p_fail=draw(st.sampled_from([0.0, 0.001, 0.02])),
        noise_jitter_sigma_mm=draw(st.floats(0.0, 10.0)),
        errors_dwell_only=draw(st.booleans()))


def aaupr_decides(result: RunResult) -> bool:
    """Whether the run's AAUPR skipped at least one frame and recalculated
    at least once."""
    reasons = result.records["AAUPR"].reason.tolist()
    return "" in reasons and any(reasons)
