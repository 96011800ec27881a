"""Local mapping: keyframe insertion, map-point creation and culling.

Mirrors the ORB-SLAM3 local-mapping thread (paper Fig. 3 "Local
Mapping"): when tracking promotes a frame to a keyframe, new map points
are created from its unmatched features ("Mappoint creation"), the BoW
vector is computed for place recognition, and local bundle adjustment
refines the surrounding map on every keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..vision.camera import PinholeCamera
from ..vision.matching import search_by_projection_vectorized
from .bow import KeyframeDatabase, Vocabulary
from .bundle_adjustment import BAStats, local_bundle_adjustment
from .frame import Frame
from .keyframe import KeyFrame
from .map import IdAllocator, SlamMap
from .mappoint import MapPoint


# Depths (m) at which a feature may create or refine a map point.
MIN_DEPTH = 0.05
MAX_DEPTH = 80.0
# Keyframes in a local-BA window: the new one and its best covisible.
BA_WINDOW = 6
# A point seen at least CULL_MIN_VISIBLE times but re-found in under
# CULL_FOUND_RATIO of them is culled.
CULL_FOUND_RATIO = 0.25
CULL_MIN_VISIBLE = 8


@dataclass
class LocalMappingConfig:
    # Long-lived-map budgets: ``None`` disables eviction (unbounded, the
    # historical behavior).  When set, every keyframe insertion enforces
    # them via covisibility-aware LRU eviction on the map.
    max_keyframes: Optional[int] = None
    max_mappoints: Optional[int] = None


class LocalMapper:
    """Server-side map maintenance for one client's stream."""

    def __init__(
        self,
        slam_map: SlamMap,
        camera: PinholeCamera,
        vocabulary: Vocabulary,
        database: KeyframeDatabase,
        kf_allocator: IdAllocator,
        point_allocator: IdAllocator,
        config: Optional[LocalMappingConfig] = None,
        client_id: int = 0,
    ) -> None:
        self.map = slam_map
        self.camera = camera
        self.vocabulary = vocabulary
        self.database = database
        self.kf_allocator = kf_allocator
        self.point_allocator = point_allocator
        self.config = config or LocalMappingConfig()
        self.client_id = client_id
        self.last_keyframe_id: Optional[int] = None

    def _fuse_unmatched(self, keyframe: KeyFrame) -> int:
        """Associate unmatched features with existing nearby map points.

        Without this step every keyframe would mint duplicate landmarks
        for features tracking happened to miss, and the duplicates'
        position errors would feed back into tracking (ORB-SLAM3's
        ``SearchInNeighbors``/Fuse serves the same purpose).
        """
        unmatched = np.nonzero(keyframe.point_ids < 0)[0]
        if len(unmatched) == 0:
            return 0
        neighbor_ids = [keyframe.keyframe_id]
        if self.last_keyframe_id is not None:
            neighbor_ids.append(self.last_keyframe_id)
            neighbor_ids += self.map.covisible_keyframes(self.last_keyframe_id)[:8]
        points = self.map.local_map_points(neighbor_ids)
        if not points:
            return 0
        positions = np.array([p.position for p in points])
        uv, _, valid = self.camera.project_world(positions, keyframe.pose_cw)
        visible = np.nonzero(valid)[0]
        if len(visible) == 0:
            return 0
        proj_uv = uv[visible]
        descs = np.stack([points[i].descriptor for i in visible])
        matches = search_by_projection_vectorized(
            proj_uv,
            descs,
            keyframe.uv[unmatched],
            keyframe.descriptors[unmatched],
            radius=6.0,
        )
        fused = 0
        for m in matches:
            feat_idx = int(unmatched[m.train_idx])
            point = points[int(visible[m.query_idx])]
            if point.point_id in keyframe.point_ids:
                continue  # already observed by another feature
            keyframe.point_ids[feat_idx] = point.point_id
            fused += 1
        return fused

    def insert_keyframe(self, frame: Frame, depth_scale: float = 1.0) -> KeyFrame:
        """Promote a tracked frame into the map and create new points.

        ``depth_scale`` rescales the measured depths; monocular clients
        use it to model the unknown map scale (Sim3 merging recovers it).
        """
        keyframe = KeyFrame.from_frame(
            self.kf_allocator.allocate(), frame, client_id=self.client_id
        )
        # Fold the (SLAM-unknowable) monocular scale into the stored
        # depths once, so the whole map — positions, BA depth residuals,
        # refinement — lives consistently in the scaled frame.
        if depth_scale != 1.0:
            keyframe.depths = keyframe.depths * depth_scale
        self._fuse_unmatched(keyframe)
        pose_wc = keyframe.pose_cw.inverse()
        created = 0
        for feat_idx in range(len(keyframe)):
            if keyframe.point_ids[feat_idx] >= 0:
                continue
            depth = float(keyframe.depths[feat_idx])
            if not (MIN_DEPTH <= depth <= MAX_DEPTH):
                continue
            point_cam = self.camera.unproject(
                keyframe.uv[feat_idx][None], np.array([depth])
            )[0]
            point = MapPoint(
                point_id=self.point_allocator.allocate(),
                position=pose_wc.apply(point_cam),
                descriptor=keyframe.descriptors[feat_idx].copy(),
                client_id=self.client_id,
            )
            point.add_observation(keyframe.keyframe_id, feat_idx)
            keyframe.point_ids[feat_idx] = point.point_id
            self.map.add_mappoint(point)
            created += 1
        # Register observations of already-known points, and refine their
        # positions as a running average of depth-unprojections: the
        # cheap stand-in for continuous map refinement between BA runs.
        for feat_idx, pid in enumerate(keyframe.point_ids):
            pid = int(pid)
            if pid < 0 or pid not in self.map.mappoints:
                continue
            point = self.map.mappoints[pid]
            point.add_observation(keyframe.keyframe_id, feat_idx)
            depth = float(keyframe.depths[feat_idx])
            if MIN_DEPTH <= depth <= MAX_DEPTH:
                observed = pose_wc.apply(
                    self.camera.unproject(
                        keyframe.uv[feat_idx][None], np.array([depth])
                    )[0]
                )
                n = max(point.n_observations, 1)
                weight = 1.0 / (n + 1.0)
                if np.linalg.norm(observed - point.position) < 1.0:
                    self.map.set_point_position(
                        pid, (1.0 - weight) * point.position + weight * observed
                    )
        keyframe.bow_vector = self.vocabulary.transform(keyframe.descriptors)
        self.map.add_keyframe(keyframe)
        self.database.add(keyframe.keyframe_id, keyframe.bow_vector)
        self.last_keyframe_id = keyframe.keyframe_id
        self.run_local_ba(keyframe.keyframe_id)
        self.enforce_budgets(keyframe)
        return keyframe

    def enforce_budgets(self, keyframe: Optional[KeyFrame] = None) -> int:
        """Apply the configured map budgets (no-op when unbounded).

        Runs after BA so the adjustment window is never evicted from
        under the optimizer.  The freshly inserted keyframe and its
        points are protected; evicted keyframes also leave the BoW
        database so place recognition cannot return a resident-looking
        keyframe the map no longer holds.
        """
        cfg = self.config
        if cfg.max_keyframes is None and cfg.max_mappoints is None:
            return 0
        protect_kfs = set()
        protect_pts = set()
        if keyframe is not None:
            protect_kfs.add(keyframe.keyframe_id)
            protect_pts.update(int(p) for p in keyframe.observed_point_ids())
        evicted_kfs, evicted_pts = self.map.enforce_budgets(
            cfg.max_keyframes,
            cfg.max_mappoints,
            protect_keyframes=protect_kfs,
            protect_points=protect_pts,
        )
        for kf_id in evicted_kfs:
            self.database.remove(kf_id)
            if self.last_keyframe_id == kf_id:
                self.last_keyframe_id = None
        return len(evicted_kfs) + len(evicted_pts)

    def run_local_ba(self, center_keyframe_id: int) -> BAStats:
        """Local bundle adjustment around a keyframe (fixing the oldest)."""
        window = [center_keyframe_id] + self.map.covisible_keyframes(
            center_keyframe_id
        )[: BA_WINDOW - 1]
        for kf_id in window:
            self.map.touch_keyframe(kf_id)
        fixed = {min(window)} if len(window) > 1 else set()
        return local_bundle_adjustment(
            self.map, self.camera, window, fixed_keyframe_ids=fixed,
            iterations=2,
        )

    def cull_mappoints(self) -> int:
        """Remove rarely re-found points (tracking outliers, ghosts)."""
        doomed = [
            pid
            for pid, point in self.map.mappoints.items()
            if point.client_id == self.client_id
            and point.times_visible >= CULL_MIN_VISIBLE
            and point.found_ratio() < CULL_FOUND_RATIO
        ]
        for pid in doomed:
            self.map.remove_mappoint(pid)
        return len(doomed)
