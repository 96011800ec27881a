"""GPU/CPU tracking-latency cost models (simulated V100 + Xeon).

We do not have the paper's Tesla V100; what the end-to-end figures need
is a *calibrated* model of how long each tracking stage takes on the
CPU versus the GPU.  Stage costs are driven by the real per-frame
operation counts reported by the tracker
(:class:`repro.slam.tracking.TrackingWorkload`) and by constants
calibrated against the paper's own measurements:

* Fig. 5 — CPU tracking >34 ms/frame, ORB extraction >50% of it,
  search-local-points ~30%;
* Fig. 8 — GPU cuts extraction by >2x and search by 25-50%, for a
  ~40% (mono) to >50% (stereo) total reduction, under 33 ms.

All returned times are **simulated milliseconds** and clearly distinct
from wall-clock benchmarking (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..obs import get_metrics

if TYPE_CHECKING:  # the slam kernels import this package for .array
    from ..slam.tracking import TrackingWorkload

_metrics = get_metrics()
_breakdowns_total = _metrics.counter(
    "gpu.breakdowns", "tracking-stage breakdowns computed"
)
# One histogram per Fig. 5/8 tracking stage (simulated milliseconds).
_STAGE_HISTS = {
    stage: _metrics.histogram(
        f"gpu.stage.{stage}_ms", f"{stage} stage latency (sim)", unit="ms"
    )
    for stage in (
        "orb_extraction",
        "orb_matching",
        "pose_prediction",
        "search_local_points",
        "pnp",
        "total",
    )
}


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation costs of the sequential (Xeon-class) CPU path."""

    pixel_ns: float = 58.0             # FAST + pyramid + descriptor per pixel
    pair_ns: float = 110.0             # search-local-points per candidate pair
    feature_match_ns: float = 10_000.0 # ORB matching per extracted feature
    pose_predict_us: float = 3_000.0   # motion model + frame bookkeeping
    pnp_iteration_us: float = 350.0    # pose optimization per GN/LM iteration


@dataclass(frozen=True)
class GpuCostModel:
    """V100-class accelerator: throughput scaling + fixed overheads."""

    extraction_speedup: float = 4.5   # data-parallel FAST/BRIEF
    search_speedup: float = 3.0       # search-local-points kernel
    kernel_launch_us: float = 25.0    # per kernel launch
    transfer_bandwidth_gbps: float = 10.0  # host->device PCIe for the frame
    kernels_per_frame: int = 3        # pyramid + FAST + descriptors
    # One SLAM stream is far from saturating a V100; under GSlice-style
    # spatial sharing, up to this many concurrent clients co-run with
    # no per-client slowdown, after which rates degrade linearly.
    saturation_clients: int = 4

    def sharing_slowdown(self, gpu_share: float) -> float:
        """Per-kernel slowdown for a client granted ``gpu_share`` of the GPU."""
        concurrent = 1.0 / gpu_share
        return max(1.0, concurrent / self.saturation_clients)


@dataclass
class StageBreakdown:
    """Per-stage tracking latency (milliseconds, simulated)."""

    orb_extraction: float
    orb_matching: float
    pose_prediction: float
    search_local_points: float
    pnp: float

    @property
    def total(self) -> float:
        return (
            self.orb_extraction
            + self.orb_matching
            + self.pose_prediction
            + self.search_local_points
            + self.pnp
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "orb_extraction": self.orb_extraction,
            "orb_matching": self.orb_matching,
            "pose_prediction": self.pose_prediction,
            "search_local_points": self.search_local_points,
            "pnp": self.pnp,
            "total": self.total,
        }


class TrackingLatencyModel:
    """Convert per-frame workloads into stage latencies for a device."""

    def __init__(
        self,
        cpu: CpuCostModel = CpuCostModel(),
        gpu: GpuCostModel = GpuCostModel(),
    ) -> None:
        self.cpu = cpu
        self.gpu = gpu

    def _extraction_ms(self, workload: TrackingWorkload, stereo: bool,
                       device: str, gpu_share: float) -> float:
        pixels = workload.image_pixels * (2 if stereo else 1)
        serial_ms = pixels * self.cpu.pixel_ns * 1e-6
        if device == "cpu":
            return serial_ms
        transfer_ms = pixels * 1.0 / (self.gpu.transfer_bandwidth_gbps * 1e9) * 1e3
        launch_ms = self.gpu.kernels_per_frame * self.gpu.kernel_launch_us * 1e-3
        slowdown = self.gpu.sharing_slowdown(gpu_share)
        return launch_ms + transfer_ms + slowdown * serial_ms / (
            self.gpu.extraction_speedup
        )

    def _search_ms(self, workload: TrackingWorkload, device: str,
                   gpu_share: float) -> float:
        serial_ms = workload.candidate_pairs * self.cpu.pair_ns * 1e-6
        if device == "cpu":
            return serial_ms
        launch_ms = self.gpu.kernel_launch_us * 1e-3
        slowdown = self.gpu.sharing_slowdown(gpu_share)
        return launch_ms + slowdown * serial_ms / self.gpu.search_speedup

    def breakdown(
        self,
        workload: TrackingWorkload,
        stereo: bool = False,
        device: str = "cpu",
        gpu_share: float = 1.0,
    ) -> StageBreakdown:
        """Stage latencies for one frame on ``device``.

        ``gpu_share`` in (0, 1] models GSlice-style spatial sharing: one
        SLAM stream does not saturate the GPU, so shares above
        ``1/saturation_clients`` run at full per-stream rate; smaller
        shares degrade linearly.
        """
        if device not in ("cpu", "gpu"):
            raise ValueError(f"unknown device {device!r}")
        if not 0.0 < gpu_share <= 1.0:
            raise ValueError("gpu_share must be in (0, 1]")
        n_feat = max(workload.n_features, 1)
        matching_ms = n_feat * self.cpu.feature_match_ns * 1e-6
        result = StageBreakdown(
            orb_extraction=self._extraction_ms(workload, stereo, device, gpu_share),
            orb_matching=matching_ms,
            pose_prediction=self.cpu.pose_predict_us * 1e-3,
            search_local_points=self._search_ms(workload, device, gpu_share),
            pnp=workload.pnp_iterations * self.cpu.pnp_iteration_us * 1e-3,
        )
        if _metrics.enabled:
            _breakdowns_total.inc()
            for stage, stage_ms in result.as_dict().items():
                _STAGE_HISTS[stage].record(stage_ms)
        return result
