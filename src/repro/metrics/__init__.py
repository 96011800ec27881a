"""Evaluation metrics: ATE (cumulative & short-term), latency, CPU."""

from .ate import (
    ATEResult,
    absolute_trajectory_error,
    associate,
    cumulative_ate_series,
    short_term_ate_series,
)
from .cpu import (
    CYCLES_PER_SECOND,
    SERVER_CORES,
    ClientOpCosts,
    CpuAccountant,
    CpuSample,
)
from .plots import ascii_xy_plot
from .latency import (
    TABLE4_COMPONENTS,
    LatencyBreakdown,
    average_breakdowns,
    format_table4,
)

__all__ = [
    "ATEResult",
    "CYCLES_PER_SECOND",
    "ClientOpCosts",
    "CpuAccountant",
    "CpuSample",
    "LatencyBreakdown",
    "SERVER_CORES",
    "TABLE4_COMPONENTS",
    "absolute_trajectory_error",
    "ascii_xy_plot",
    "associate",
    "average_breakdowns",
    "cumulative_ate_series",
    "format_table4",
    "short_term_ate_series",
]
