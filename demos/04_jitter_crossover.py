"""When does adaptive scheduling beat per-frame tracking?

Face trackers jitter. UPR resamples that jitter every frame; the adaptive
scheduler holds a pose estimate while the head is still, and its spatial
threshold evicts a bad draw after a single frame while good draws persist.
Sweep the jitter sigma and watch the mean errors cross.

Run: python3 demos/04_jitter_crossover.py
"""

import numpy as np
from dataclasses import replace

from uprsim.harness import BENCHMARK_JITTER_CROSSOVER_MM, benchmark_config, run

cfg = benchmark_config(modes="UPR,AAUPR")
seeds = range(1, 6)

print(f"{'jitter (mm)':>12} {'UPR err':>10} {'AAUPR err':>10}")
for sigma in (0.0, 2.0, 5.0, 8.0, 12.0, 20.0):
    cells = [run(replace(cfg, seed=s, noise_jitter_sigma_mm=sigma)).summaries for s in seeds]
    upr = np.mean([c["UPR"].mean_error_mm for c in cells])
    aaupr = np.mean([c["AAUPR"].mean_error_mm for c in cells])
    marker = "  <- AAUPR ahead" if aaupr <= upr else ""
    print(f"{sigma:>12.1f} {upr:>10.2f} {aaupr:>10.2f}{marker}")

print()
print(f"Recorded crossover: {BENCHMARK_JITTER_CROSSOVER_MM} mm. Below it the "
      f"scheduler's staleness dominates; above it, holding good draws wins.")
