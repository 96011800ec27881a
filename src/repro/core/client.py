"""The SLAM-Share client: IMU tracking, video encoding, pose fusion.

Per the paper (Fig. 3, §4.2.2-4.2.3) the client does only three light
things each frame:

1. advance its pose with the IMU motion model (Alg. 1),
2. encode the camera frame into the H.264-like stream and upload it,
3. when a (delayed) server pose arrives, fuse it into the motion model.

Everything heavy — feature extraction, tracking, mapping, merging —
lives on the server.  The client also keeps CPU accounting so Fig. 13
can contrast it with the full-SLAM baseline client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry import SE3, Sim3, Trajectory, TrajectoryPoint, quaternion
from ..imu import ClientMotionModel, FusionConfig, ImuDelta, ImuState
from ..metrics.cpu import CpuAccountant
from ..slam.tracking import IMAGE_PIXELS
from ..video import H264LikeCodec, StreamStats
from .config import SlamShareConfig


@dataclass
class FrameUpload:
    """What the client ships per frame."""

    frame_index: int
    timestamp: float
    video_bytes: int


class SlamShareClient:
    """Device-side state of one AR participant."""

    def __init__(
        self,
        client_id: int,
        config: SlamShareConfig,
        initial_pose_bw: SE3,
        gravity_map: np.ndarray,
        fusion: Optional[FusionConfig] = None,
    ) -> None:
        self.client_id = client_id
        self.config = config
        pose_wb = initial_pose_bw.inverse()
        self.motion_model = ClientMotionModel(
            ImuState(pose_wb.rotation, pose_wb.translation, np.zeros(3), 0.0),
            gravity=gravity_map,
            fusion=fusion,
        )
        self.codec = H264LikeCodec(
            gop=config.video_gop, quantization=config.video_quantization
        )
        self.stream_stats = StreamStats()
        self.cpu = CpuAccountant()
        self.display_trajectory: List[TrajectoryPoint] = []
        self._merge_transform: Optional[Sim3] = None
        self._frame_count = 0
        self._stale_before_frame = -1  # poses older than this are pre-rebase

    # ----------------------------------------------------------- per frame
    def capture_frame(
        self,
        timestamp: float,
        imu_delta: Optional[ImuDelta],
        pixels: Optional[np.ndarray] = None,
        nominal_bytes: int = 4000,
    ) -> FrameUpload:
        """Advance IMU pose, encode the frame, return the upload record."""
        if imu_delta is not None:
            self.motion_model.advance(imu_delta)
            n_imu = max(
                int(imu_delta.dt * self.config.imu_rate_hz), 1
            )
        else:
            n_imu = 0
        if pixels is not None:
            encoded = self.codec.encode(pixels)
            self.stream_stats.record(encoded)
            video_bytes = encoded.n_bytes
            n_pixels = pixels.size
        else:
            video_bytes = nominal_bytes
            n_pixels = IMAGE_PIXELS
        self.cpu.add_lightweight_frame(n_pixels, n_imu)
        self._record_display_pose(timestamp)
        upload = FrameUpload(self._frame_count, timestamp, video_bytes)
        self._frame_count += 1
        return upload

    def _record_display_pose(self, timestamp: float) -> None:
        """The pose AR rendering uses *right now* (IMU-fresh)."""
        pose_wb = self.motion_model.current_pose_bw().inverse()
        if (
            self.display_trajectory
            and timestamp <= self.display_trajectory[-1].timestamp
        ):
            return
        self.display_trajectory.append(
            TrajectoryPoint(
                timestamp,
                pose_wb.translation,
                quaternion.from_matrix(pose_wb.rotation),
            )
        )

    # --------------------------------------------------------- server pose
    def receive_server_pose(self, frame_index: int, pose_bw: SE3) -> None:
        """Fuse a delayed SLAM pose (Alg. 1 Recv_SLAMPose).

        Poses computed before the client's frame was rebased by a merge
        are expressed in the retired coordinate frame; fusing them would
        yank the motion model back to the old frame, so they are dropped.
        """
        if frame_index < self._stale_before_frame:
            return
        if 0 <= frame_index < len(self.motion_model.states):
            self.motion_model.receive_slam_pose(frame_index, pose_bw)

    def apply_merge_transform(self, transform: Sim3,
                              gravity_map: np.ndarray) -> None:
        """Rebase the client's frame after its map merged into the global map.

        The server applies ``transform`` to every map entity the client
        contributed; the client's IMU states (and recorded display
        trajectory) live in the old frame and must move with it.
        """
        self._merge_transform = transform
        self._stale_before_frame = self._frame_count
        self.motion_model.invalidate_fusion_history()
        self.motion_model.gravity = np.asarray(gravity_map, dtype=float)
        for i, state in enumerate(self.motion_model.states):
            new_pose_cw = transform.transform_pose(state.pose_bw())
            pose_wb = new_pose_cw.inverse()
            velocity = transform.scale * (transform.rotation @ state.velocity)
            self.motion_model.states[i] = ImuState(
                pose_wb.rotation, pose_wb.translation, velocity, state.timestamp
            )
        self.display_trajectory = [
            TrajectoryPoint(
                p.timestamp,
                transform.apply(p.position),
                quaternion.from_matrix(
                    transform.rotation @ quaternion.to_matrix(p.orientation)
                ),
            )
            for p in self.display_trajectory
        ]

    # ------------------------------------------------------------- metrics
    def displayed_trajectory(self) -> Trajectory:
        return Trajectory(list(self.display_trajectory))
