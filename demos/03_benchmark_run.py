"""The benchmark large-workspace run: cost vs accuracy across all modes.

The trace moves the head between two dwell positions 250 mm apart laterally
and 100 mm in depth (150 dwell frames each, 30 transition frames), with
default sensing noise. UPR pays for face tracking on every front-camera
frame; AAUPR only when the dual-thresholding scheduler asks for it.

Run: python3 demos/03_benchmark_run.py
"""

from uprsim.harness import ExperimentConfig, run

result = run(ExperimentConfig())

print(f"{'mode':>6} {'mean err (mm)':>14} {'sd':>8} {'invocations':>12} "
      f"{'duty':>6} {'tracking (ms)':>14}")
for s in result.summaries.values():
    print(f"{s.mode:>6} {s.mean_error_mm:>14.1f} {s.sd_error_mm:>8.1f} "
          f"{s.invocations:>12} {s.invocation_fraction:>6.2f} "
          f"{s.total_tracking_ms:>14.1f}")

upr = result.summaries["UPR"]
aaupr = result.summaries["AAUPR"]
print()
print(f"AAUPR spends {aaupr.total_tracking_ms / upr.total_tracking_ms:.0%} of "
      f"UPR's tracking time for nearly the same pointing error.")
print("Error ordering matches the expected regime: DPR worst, then FUPR,")
print("with the adaptive scheduler close to full per-frame tracking.")
