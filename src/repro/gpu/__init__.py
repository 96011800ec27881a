"""The GPU layer: where kernels run, what they cost, how clients share it.

* :mod:`.array` — the ``backend`` name and the array module a kernel
  body runs on (the host numpy module, or a probed cupy device);
* :mod:`.device` — the calibrated CPU/GPU tracking-latency model;
* :mod:`.scheduler` — the shared GPU's spatial / temporal sharing on
  the simulated clock.
"""

from .array import (
    ArrayModule,
    host_array_module,
    probe_array_module,
    resolve_backend,
    use_array_module,
)
from .device import (
    CpuCostModel,
    GpuCostModel,
    StageBreakdown,
    TrackingLatencyModel,
)
from .scheduler import GpuScheduler, KernelRecord

__all__ = [
    "ArrayModule",
    "CpuCostModel",
    "GpuCostModel",
    "GpuScheduler",
    "KernelRecord",
    "StageBreakdown",
    "TrackingLatencyModel",
    "host_array_module",
    "probe_array_module",
    "resolve_backend",
    "use_array_module",
]
