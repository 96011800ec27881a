"""The GPU layer: what tracking kernels cost and how clients share the GPU.

* :mod:`.device` — the calibrated CPU/GPU tracking-latency model;
* :mod:`.scheduler` — the shared GPU's spatial / temporal sharing on
  the simulated clock.
"""

from .device import (
    CpuCostModel,
    GpuCostModel,
    StageBreakdown,
    TrackingLatencyModel,
)
from .scheduler import GpuScheduler, KernelRecord

__all__ = [
    "CpuCostModel",
    "GpuCostModel",
    "GpuScheduler",
    "KernelRecord",
    "StageBreakdown",
    "TrackingLatencyModel",
]
