"""Client-side IMU motion model — the paper's Algorithm 1.

The client advances its pose every frame from preintegrated IMU deltas
(``ApproxPose_UpdateMM``).  Server SLAM poses arrive with a delay of one
or more frames; when ``receive_slam_pose`` fires (``Recv_SLAMPose``),
the stored state at that frame index is corrected by fusing the IMU
estimate with the (more accurate) server pose, and the motion model is
re-propagated through the buffered deltas up to the present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry import SE3, so3
from .model import GRAVITY_W
from .preintegration import ImuDelta, ImuState, propagate


@dataclass
class FusionConfig:
    """Weights of the pose-fusion optimization (paper §4.2.2).

    The paper fuses IMU and server poses by minimizing a weighted sum of
    residuals; with Gaussian weights the closed form is a convex blend.
    ``server_weight`` ~ 1 trusts SLAM almost fully (its error is cm-level
    while IMU drift grows quadratically in time).
    """

    server_weight: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 <= self.server_weight <= 1.0:
            raise ValueError("server_weight must be in [0, 1]")


class ClientMotionModel:
    """Per-frame pose estimation on the client (Alg. 1)."""

    def __init__(
        self,
        initial_state: ImuState,
        gravity: np.ndarray = GRAVITY_W,
        fusion: Optional[FusionConfig] = None,
    ) -> None:
        self.gravity = np.asarray(gravity, dtype=float)
        self.fusion = fusion or FusionConfig()
        self.states: List[ImuState] = [initial_state]
        self.deltas: List[ImuDelta] = []   # deltas[i] advances state i -> i+1
        self.corrected_up_to = 0
        self._last_fused: Optional[tuple] = None  # (index, position, timestamp)

    def current_pose_bw(self) -> SE3:
        """World->body pose of the newest frame (what AR rendering uses)."""
        return self.states[-1].pose_bw()

    # ------------------------------------------------- ApproxPose_UpdateMM
    def advance(self, delta: ImuDelta) -> SE3:
        """Propagate one frame forward with IMU; returns the new pose_bw."""
        new_state = propagate(self.states[-1], delta, self.gravity)
        self.states.append(new_state)
        self.deltas.append(delta)
        return new_state.pose_bw()

    # ------------------------------------------------------ Recv_SLAMPose
    def receive_slam_pose(self, frame_index: int, pose_bw: SE3) -> None:
        """Fuse a (delayed) server SLAM pose and re-propagate (Alg. 1 l.10-15)."""
        if not 0 <= frame_index < len(self.states):
            raise IndexError(f"no state for frame {frame_index}")
        imu_state = self.states[frame_index]
        pose_wb = pose_bw.inverse()
        w = self.fusion.server_weight
        # Closed-form weighted fusion of the two pose estimates.
        rot_residual = so3.log(imu_state.rotation_wb.T @ pose_wb.rotation)
        fused_rot = imu_state.rotation_wb @ so3.exp(w * rot_residual)
        fused_pos = (1.0 - w) * imu_state.position + w * pose_wb.translation

        # Velocity: finite difference between *fused* poses when two are
        # available.  Differencing against the raw IMU state would divide
        # its position drift by one frame period and blow it up a
        # hundredfold; between two server-accurate poses the quotient
        # noise is benign.
        velocity = imu_state.velocity
        if self._last_fused is not None:
            _, last_pos, last_t = self._last_fused
            dt = imu_state.timestamp - last_t
            if 1e-3 <= dt <= 2.0:
                velocity = (fused_pos - last_pos) / dt
        self._last_fused = (frame_index, fused_pos.copy(), imu_state.timestamp)
        self.states[frame_index] = ImuState(
            fused_rot, fused_pos, velocity, imu_state.timestamp
        )
        # Update motion model forward through the buffered deltas.
        for j in range(frame_index, len(self.deltas)):
            self.states[j + 1] = propagate(
                self.states[j], self.deltas[j], self.gravity
            )
        self.corrected_up_to = max(self.corrected_up_to, frame_index)

    def invalidate_fusion_history(self) -> None:
        """Forget the last fused pose (call after a frame rebase/merge).

        Differencing a new-frame fused position against an old-frame one
        would produce a wildly wrong velocity.
        """
        self._last_fused = None

    def drift_since_correction(self) -> float:
        """Seconds of pure-IMU propagation since the last server fix."""
        return (
            self.states[-1].timestamp - self.states[self.corrected_up_to].timestamp
        )
