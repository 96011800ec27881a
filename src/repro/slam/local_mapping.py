"""Local mapping: keyframe insertion, map-point creation and culling.

Mirrors the ORB-SLAM3 local-mapping thread (paper Fig. 3 "Local
Mapping"): when tracking promotes a frame to a keyframe, new map points
are created from its unmatched features ("Mappoint creation"), the BoW
vector is computed for place recognition, and local bundle adjustment
refines the surrounding map on every keyframe.

Insertion runs in array passes: one unprojection of every feature with
a depth in range, point fusion over the map's packed rows, and one
masked running-average update of the observed points.  Each pass keeps
the per-feature loop's arithmetic, so it returns the same bytes as
``tests/oracles.py::insert_keyframe_reference``.
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
        unmatched = np.flatnonzero(keyframe.point_ids < 0)
        if len(unmatched) == 0:
            return 0
        neighbor_ids = [keyframe.keyframe_id]
        if self.last_keyframe_id is not None:
            neighbor_ids.append(self.last_keyframe_id)
            neighbor_ids += self.map.covisible_keyframes(self.last_keyframe_id)[:8]
        point_ids = np.array(
            [p.point_id for p in self.map.local_map_points(neighbor_ids)],
            dtype=np.int64,
        )
        if len(point_ids) == 0:
            return 0
        positions, descriptors = self.map.gather_point_arrays(point_ids)
        uv, _, valid = self.camera.project_world(positions, keyframe.pose_cw)
        visible = np.flatnonzero(valid)
        if len(visible) == 0:
            return 0
        matches = search_by_projection_vectorized(
            uv[visible],
            descriptors,
            keyframe.uv[unmatched],
            keyframe.descriptors[unmatched],
            radius=6.0,
            point_rows=visible,
        )
        # A match is one-to-one, so only a point some other feature
        # already observes is skipped.
        fused = point_ids[visible[matches.query_idx]]
        fresh = ~np.isin(fused, keyframe.point_ids)
        keyframe.point_ids[unmatched[matches.train_idx[fresh]]] = fused[fresh]
        return int(fresh.sum())

    def insert_keyframe(self, frame: Frame, depth_scale: float = 1.0) -> KeyFrame:
        """Promote a tracked frame into the map and create new points.

        ``depth_scale`` rescales the measured depths; monocular clients
        use it to model the unknown map scale (Sim3 merging recovers it).

        Every feature with a depth in range is unprojected once.  An
        unmatched one creates a point there (in feature order); every
        feature whose point is in the map then registers its observation
        and, where the point is within 1 m of the unprojection, moves the
        point to the running average of the two.
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
        point_ids = keyframe.point_ids
        in_range = (keyframe.depths >= MIN_DEPTH) & (keyframe.depths <= MAX_DEPTH)
        feats = np.flatnonzero(in_range)
        # The rotation is one stacked (n, 3, 3) @ (n, 3, 1) product: each
        # row is the matrix-vector product of the one-point
        # ``SE3.apply``, so it rounds the same.
        pose_wc = keyframe.pose_cw.inverse()
        points_cam = self.camera.unproject(keyframe.uv[feats], keyframe.depths[feats])
        observed = np.zeros((len(keyframe), 3))
        observed[feats] = (
            np.broadcast_to(pose_wc.rotation, (len(feats), 3, 3)) @ points_cam[:, :, None]
        )[:, :, 0] + pose_wc.translation
        for feat_idx in feats[point_ids[feats] < 0].tolist():
            point = MapPoint(
                point_id=self.point_allocator.allocate(),
                position=observed[feat_idx].copy(),
                descriptor=keyframe.descriptors[feat_idx].copy(),
                client_id=self.client_id,
            )
            point_ids[feat_idx] = point.point_id
            self.map.add_mappoint(point)
        self._register_and_refine(keyframe, observed, in_range)
        keyframe.bow_vector = self.vocabulary.transform(keyframe.descriptors)
        self.map.add_keyframe(keyframe)
        self.database.add(keyframe.keyframe_id, keyframe.bow_vector)
        self.last_keyframe_id = keyframe.keyframe_id
        self.run_local_ba(keyframe.keyframe_id)
        self.enforce_budgets(keyframe)
        return keyframe

    def _register_and_refine(self, keyframe: KeyFrame, observed: np.ndarray,
                             in_range: np.ndarray) -> None:
        """Register the keyframe's observations of map points, and refine
        their positions as a running average of depth-unprojections: the
        cheap stand-in for continuous map refinement between BA runs.

        Each point's update reads only its own row, so all points update
        in one masked pass.  A point two features observe (the last one
        is its registered observation) is averaged once per feature, in
        feature order.
        """
        feats = np.flatnonzero(keyframe.point_ids >= 0)
        rows = self.map.lookup_point_rows(keyframe.point_ids[feats])
        known = rows >= 0
        feats, rows = feats[known], rows[known]
        pids = keyframe.point_ids[feats]
        points = [self.map.mappoints[pid] for pid in pids.tolist()]
        kf_id = keyframe.keyframe_id
        for point, feat_idx in zip(points, feats.tolist()):
            point.observations[kf_id] = feat_idx
        weight = 1.0 / (np.maximum([len(p.observations) for p in points], 1) + 1.0)
        # The i-th feature of a point goes in pass i.
        order = np.argsort(pids, kind="stable")
        first = np.flatnonzero(np.diff(pids[order], prepend=-1))
        rank = np.empty(len(pids), dtype=np.intp)
        rank[order] = np.arange(len(pids)) - np.repeat(first, np.diff(first, append=len(pids)))
        for i in range(int(rank.max(initial=-1)) + 1):
            sel = np.flatnonzero((rank == i) & in_range[feats])
            position = self.map.packed_positions()[rows[sel]]
            obs = observed[feats[sel]]
            diff = obs - position
            # The distance is |d| as np.linalg.norm takes it: the root of
            # the dot product d . d.
            close = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0]) < 1.0
            sel, position, obs = sel[close], position[close], obs[close]
            w = weight[sel][:, None]
            self.map.set_point_positions(
                pids[sel], (1.0 - w) * position + w * obs, rows[sel])

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
