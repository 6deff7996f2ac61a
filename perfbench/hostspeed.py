"""Host-speed calibration for the end-to-end times.

On a shared machine the CPU time a fixed piece of work takes drifts by tens
of percent over seconds, as neighbours come and go. The benchmark therefore
runs a fixed calibration kernel between ops and scales each op's CPU time by
NOMINAL_S / (the kernel's CPU time around that op). A reported time is thus
"the op's CPU time on a host where the kernel takes NOMINAL_S", and a change
to the program moves it while a change of host speed largely does not.

The kernel uses only the standard library and numpy, never uprsim, so no
change to the program can change it. It does the kind of work the simulator
does per frame: small numpy matrix inverses and products, float arithmetic
and float-to-text formatting.

Set-up time is mostly module imports in a fresh interpreter, which the kernel
does not track well (page faults and file reads, not arithmetic). So each
set-up probe is scaled instead by the reference probes of setup_probe.py run
just before and just after it, which import numpy and the standard modules
uprsim uses, to NOMINAL_IMPORT_S.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

#: CPU seconds the kernel is scaled to: about its time on a 2-core Intel
#: Xeon cloud VM with Python 3.11 and numpy 2.
NOMINAL_S = 0.040
#: CPU seconds the reference import probe is scaled to, on the same host.
NOMINAL_IMPORT_S = 0.150
ITERATIONS = 3000


def kernel_seconds() -> float:
    """CPU seconds this process spends on one run of the kernel."""
    rng = random.Random(0)
    m = np.eye(4)
    v = np.ones(3)
    acc = 0.0
    rows = []
    t0 = time.process_time()
    for i in range(ITERATIONS):
        m[0, 3] = rng.random()
        inv = np.linalg.inv(m)
        p = inv[:3, :3] @ v + inv[:3, 3]
        acc += math.hypot(float(p[0]), float(p[1]))
        rows.append(f"{acc!r},{i},{p[2]!r}")
    "\n".join(rows)
    return time.process_time() - t0
