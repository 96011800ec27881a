"""Frame-rate accounting: achieved FPS from per-frame latencies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


@dataclass
class FpsTracker:
    """Tracks whether per-frame processing keeps up with the camera.

    A frame 'makes' real time when its processing latency fits within
    the camera period (33.3 ms at 30 FPS).  The achieved FPS is the
    camera rate capped by the sustained processing rate, the way the
    paper reports "at least 30 FPS throughout the trajectory".
    """

    camera_fps: float = 30.0
    latencies_ms: List[float] = field(default_factory=list)

    def record(self, latency_ms: float) -> None:
        self.latencies_ms.append(float(latency_ms))

    @property
    def frame_budget_ms(self) -> float:
        return 1000.0 / self.camera_fps

    @property
    def n_frames(self) -> int:
        return len(self.latencies_ms)

    def realtime_fraction(self) -> float:
        """Fraction of frames processed within the camera period."""
        if not self.latencies_ms:
            return 0.0
        lat = np.asarray(self.latencies_ms)
        return float((lat <= self.frame_budget_ms).mean())

    def achieved_fps(self) -> float:
        """Sustained frame rate: camera rate capped by processing rate."""
        if not self.latencies_ms:
            return 0.0
        mean_latency_s = float(np.mean(self.latencies_ms)) / 1000.0
        processing_fps = 1.0 / max(mean_latency_s, 1e-9)
        return min(self.camera_fps, processing_fps)

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(self.latencies_ms, q))
