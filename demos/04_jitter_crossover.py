"""When does adaptive scheduling beat per-frame tracking?

Face trackers jitter. UPR resamples that jitter every frame; the adaptive
scheduler holds a pose estimate while the head is still, and its spatial
threshold evicts a bad draw after a single frame while good draws persist.
Sweep the jitter sigma and watch the mean errors cross.

Run: python3 demos/04_jitter_crossover.py
"""

import numpy as np
from dataclasses import replace

from uprsim.harness import BENCHMARK_JITTER_CROSSOVER_MM, ExperimentConfig, run

cfg = ExperimentConfig(modes="UPR,AAUPR")
seeds = range(1, 6)
grid = (0.0, 2.0, 5.0, 8.0, 12.0, 20.0)

print(f"{'jitter (mm)':>12} {'UPR err':>10} {'AAUPR err':>10}")
for sigma in grid:
    cells = [run(replace(cfg, seed=s, noise_jitter_sigma_mm=sigma)).summaries for s in seeds]
    upr = np.mean([c["UPR"].mean_error_mm for c in cells])
    aaupr = np.mean([c["AAUPR"].mean_error_mm for c in cells])
    marker = "  <- AAUPR ahead" if aaupr <= upr else ""
    print(f"{sigma:>12.1f} {upr:>10.2f} {aaupr:>10.2f}{marker}")

print()
crossover = BENCHMARK_JITTER_CROSSOVER_MM
print(f"Recorded crossover: {crossover} mm, the smallest jitter on this grid at which "
      f"AAUPR's mean error over seeds 1-5 is at or below UPR's.")
print(f"The exact crossover lies between {max(s for s in grid if s < crossover)} and "
      f"{crossover} mm; this grid does not locate it.")
