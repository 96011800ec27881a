"""GPU substrate: the calibrated latency models and the sharing scheduler."""

from .device import (
    CpuCostModel,
    GpuCostModel,
    StageBreakdown,
    TrackingLatencyModel,
)
from .scheduler import BatchingConfig, GpuScheduler, KernelRecord

__all__ = [
    "BatchingConfig",
    "CpuCostModel",
    "GpuCostModel",
    "GpuScheduler",
    "KernelRecord",
    "StageBreakdown",
    "TrackingLatencyModel",
]
