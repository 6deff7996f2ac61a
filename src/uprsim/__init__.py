"""uprsim: deterministic simulator for adaptive user-perspective rendering
on handheld AR devices.

Modules:
  geometry  - rigid transforms, pinhole cameras, planes, the batch ray/plane hit.
  viewgen   - the four render modes and on-plane pointing error.
  scheduler - dual thresholding of head-pose recomputation.
  tracksim  - synthetic head traces, the flow-tracker proxy, cost model.
  harness   - closed-loop experiment runner, summaries, CSV output.
"""

from .geometry import (
    DisplayModel,
    EyeState,
    PinholeCamera,
    RigidTransform,
    ScenePlane,
    back_camera,
    front_camera,
    intersect_ray_plane,
    project_pinhole,
)
from .harness import ExperimentConfig, RunResult, Summary, benchmark_config, run, sweep
from .scheduler import (
    Policy,
    Reason,
    ThresholdConfig,
    epsilon_default,
    schedule,
)
from .tracksim import (
    CostModel,
    FlowSimulator,
    HeadTrace,
    TraceSpec,
    generate_trace,
    read_trace_csv,
    write_trace_csv,
)
from .viewgen import FitPolicy, RenderMode, pointing_error

__version__ = "0.1.0"
