"""Single-user SLAM system: the ORB-SLAM3 stand-in.

Wires the tracker and local mapper over one map.  This class is used in
three roles across the repo:

* vanilla single-user SLAM (the "ORB-SLAM3" comparison lines);
* the per-client *server process* of SLAM-Share (pointed at the shared
  global map);
* the *client-side* SLAM of the Edge-SLAM-style baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..geometry import SE3, Trajectory, TrajectoryPoint, quaternion
from ..imu import ImuDelta, ImuState, propagate
from ..vision.camera import PinholeCamera
from ..vision.orb import FeatureSet
from .bow import KeyframeDatabase, Vocabulary, default_vocabulary
from .frame import Frame
from .keyframe import KeyFrame
from .local_mapping import MAX_DEPTH, MIN_DEPTH, LocalMapper, LocalMappingConfig
from .map import IdAllocator, SlamMap
from .tracking import Tracker, TrackerConfig, TrackingResult


@dataclass
class SlamConfig:
    keyframe_interval: int = 8          # max frames between keyframes
    keyframe_min_matches: int = 40      # force a keyframe below this
    mono_scale: float = 1.0             # monocular map scale, unknown to SLAM (1 = metric)
    relocalize_on_loss: bool = True     # BoW recovery when tracking fails
    loop_closing: bool = False          # within-map loop detection
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    mapping: LocalMappingConfig = field(default_factory=LocalMappingConfig)


@dataclass
class SlamFrameResult:
    tracking: TrackingResult
    keyframe: Optional[KeyFrame] = None

    @property
    def pose_cw(self) -> Optional[SE3]:
        return self.tracking.frame.pose_cw


class SlamSystem:
    """Tracking + local mapping over one (possibly shared) map."""

    def __init__(
        self,
        camera: PinholeCamera,
        config: Optional[SlamConfig] = None,
        client_id: int = 0,
        slam_map: Optional[SlamMap] = None,
        database: Optional[KeyframeDatabase] = None,
        vocabulary: Optional[Vocabulary] = None,
        gravity: Optional[np.ndarray] = None,
    ) -> None:
        """``gravity`` is the gravity vector expressed in the map frame.

        Real visual-inertial SLAM estimates it during initialization; we
        accept it from the caller (the session runner derives it from
        the dataset), the standard simplification for a simulated rig.
        """
        self.camera = camera
        self.config = config or SlamConfig()
        self.client_id = client_id
        self.gravity_map = (
            np.asarray(gravity, dtype=float) if gravity is not None else None
        )
        self.vocabulary = vocabulary or default_vocabulary()
        self.map = slam_map if slam_map is not None else SlamMap(map_id=client_id)
        self.database = database if database is not None else KeyframeDatabase(
            self.vocabulary
        )
        self.tracker = Tracker(self.map, camera, self.config.tracker)
        self.mapper = LocalMapper(
            self.map,
            camera,
            self.vocabulary,
            self.database,
            kf_allocator=IdAllocator(client_id),
            point_allocator=IdAllocator(client_id),
            config=self.config.mapping,
            client_id=client_id,
        )
        from .loop_closing import LoopCloser
        from .relocalization import Relocalizer

        self.relocalizer = Relocalizer(
            self.map, self.database, self.vocabulary, camera
        )
        self.loop_closer = LoopCloser(self.map, self.database, camera)
        self._frame_counter = 0
        self._frames_since_keyframe = 0
        self._initialized = False
        self._trajectory_points: List[TrajectoryPoint] = []
        self._last_tracked: Optional[TrajectoryPoint] = None
        self._prev_tracked: Optional[TrajectoryPoint] = None
        self.n_relocalizations = 0

    @property
    def depth_scale(self) -> float:
        """Scale applied to measured depths (models monocular ambiguity)."""
        return self.config.mono_scale

    def _record_pose(self, timestamp: float, pose_cw: SE3) -> None:
        pose_wc = pose_cw.inverse()
        if self._trajectory_points and timestamp <= self._trajectory_points[-1].timestamp:
            return
        point = TrajectoryPoint(
            timestamp, pose_wc.translation, quaternion.from_matrix(pose_wc.rotation)
        )
        self._trajectory_points.append(point)
        self._prev_tracked = self._last_tracked
        self._last_tracked = point

    def _imu_prior(self, imu_delta: ImuDelta) -> Optional[SE3]:
        """IMU-propagated pose prior from the last tracked pose.

        Gyro-driven rotation prediction is exogenous — unlike the
        constant-velocity model it doesn't recycle the visual jitter, so
        the pose-feedback loop stays contracting.
        """
        if self._last_tracked is None or self.gravity_map is None:
            return None
        last = self._last_tracked
        if self._prev_tracked is not None:
            dt = last.timestamp - self._prev_tracked.timestamp
            velocity = (last.position - self._prev_tracked.position) / max(dt, 1e-9)
        else:
            velocity = np.zeros(3)
        state = ImuState(
            quaternion.to_matrix(last.orientation), last.position, velocity,
            last.timestamp,
        )
        return propagate(state, imu_delta, self.gravity_map).pose_bw()

    def _bootstrap(self, frame: Frame) -> SlamFrameResult:
        # A map starts from points; with no feature at a usable depth the
        # keyframe would hold none and every later frame would be lost.
        depths = frame.features.depths * self.depth_scale
        if not ((depths >= MIN_DEPTH) & (depths <= MAX_DEPTH)).any():
            return SlamFrameResult(TrackingResult(frame, False, 0, float("inf")))
        frame.pose_cw = SE3.identity()
        keyframe = self.mapper.insert_keyframe(frame, depth_scale=self.depth_scale)
        self.tracker.force_pose(frame.pose_cw)
        self.tracker.reference_keyframe_id = keyframe.keyframe_id
        self._initialized = True
        self._frames_since_keyframe = 0
        self._record_pose(frame.timestamp, frame.pose_cw)
        workload_result = TrackingResult(frame, True, len(frame), 0.0)
        return SlamFrameResult(workload_result, keyframe)

    def _should_insert_keyframe(self, tracking: TrackingResult) -> bool:
        if self._frames_since_keyframe >= self.config.keyframe_interval:
            return True
        return tracking.n_matches < self.config.keyframe_min_matches

    def process_frame(
        self,
        timestamp: float,
        observations: FeatureSet,
        pose_prior: Optional[SE3] = None,
        imu_delta: Optional[ImuDelta] = None,
    ) -> SlamFrameResult:
        """Run tracking (and possibly mapping) on one frame.

        ``pose_prior`` (e.g. a SLAM-Share client's IMU pose) takes
        precedence; otherwise an ``imu_delta`` drives IMU-based
        prediction, falling back to the constant-velocity model.
        """
        frame = Frame(self._frame_counter, timestamp, observations)
        self._frame_counter += 1
        if not self._initialized:
            return self._bootstrap(frame)

        if pose_prior is None and imu_delta is not None:
            pose_prior = self._imu_prior(imu_delta)
        tracking = self.tracker.track(frame, pose_prior=pose_prior)
        if not tracking.success and self.config.relocalize_on_loss:
            recovery = self.relocalizer.relocalize(frame)
            if recovery.success:
                self.n_relocalizations += 1
                self.tracker.force_pose(recovery.pose_cw)
                self.tracker.reference_keyframe_id = recovery.anchor_keyframe_id
                tracking = TrackingResult(
                    frame, True, recovery.n_inliers, 0.0, tracking.workload
                )
        keyframe = None
        if tracking.success:
            self._frames_since_keyframe += 1
            self._record_pose(timestamp, frame.pose_cw)
            if self._should_insert_keyframe(tracking):
                keyframe = self.mapper.insert_keyframe(
                    frame, depth_scale=self.depth_scale
                )
                self.tracker.reference_keyframe_id = keyframe.keyframe_id
                self._frames_since_keyframe = 0
                if self.config.loop_closing:
                    self.loop_closer.try_close(keyframe)
        return SlamFrameResult(tracking, keyframe)

    def retarget_to(self, new_map: SlamMap, new_database: KeyframeDatabase,
                    transform) -> None:
        """Switch this system onto a new (global) map after a merge.

        ``transform`` is the Sim3 the merger applied to this client's
        entities; every piece of pose state the system carries — motion
        model, recorded trajectory, gravity direction — must move with
        it so tracking continues seamlessly in the global frame.
        """
        self.map = new_map
        self.database = new_database
        self.tracker.map = new_map
        self.mapper.map = new_map
        self.mapper.database = new_database
        self.relocalizer.map = new_map
        self.relocalizer.database = new_database
        self.loop_closer.map = new_map
        self.loop_closer.database = new_database
        if self.tracker.last_pose is not None:
            old = self.tracker.last_pose
            self.tracker.last_pose = transform.transform_pose(old)
            self.tracker.velocity = SE3.identity()
        if self.gravity_map is not None:
            self.gravity_map = transform.rotation @ self.gravity_map

        def move(point: TrajectoryPoint) -> TrajectoryPoint:
            return TrajectoryPoint(
                point.timestamp,
                transform.apply(point.position),
                quaternion.from_matrix(
                    transform.rotation @ quaternion.to_matrix(point.orientation)
                ),
            )

        self._trajectory_points = [move(p) for p in self._trajectory_points]
        self._last_tracked = move(self._last_tracked) if self._last_tracked else None
        self._prev_tracked = move(self._prev_tracked) if self._prev_tracked else None

    def estimated_trajectory(self) -> Trajectory:
        """Per-frame estimated camera trajectory (world = first camera)."""
        return Trajectory(list(self._trajectory_points))
