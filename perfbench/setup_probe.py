"""Set-up time of one CLI run, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG
       python3 setup_probe.py

With arguments, it times importing uprsim.cli, parsing the config file and
building its trace (generated, or read from the config's trace CSV). Without
arguments, it times only importing the modules that uprsim imports: numpy
and a few standard modules. That is the reference that set-up times are
scaled by. Either way it prints CPU seconds.
"""

import sys
import time

t0 = time.process_time()
if len(sys.argv) > 1:
    sys.path.insert(0, sys.argv[1])
    import uprsim.cli  # noqa: F401
    from uprsim.harness import ExperimentConfig

    ExperimentConfig.from_file(sys.argv[2]).build_trace()
else:
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import enum  # noqa: F401
    import math  # noqa: F401

    import numpy  # noqa: F401
print(repr(time.process_time() - t0))
