"""Loop closing: detect trajectory loops and correct accumulated drift.

The single-user cousin of map merging: when a client revisits a place
it mapped earlier, BoW place recognition fires against its *own* old
keyframes (temporally-near neighbours are excluded — they always look
similar).  A rigid correction is estimated from matched map points, a
loop edge is added to the essential graph, and pose-graph optimization
spreads the correction over the trajectory (Alg. 2 lines 13-15 mention
the same machinery running after merges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from ..geometry import ransac_umeyama
from ..vision.camera import PinholeCamera
from ..vision.matching import match_descriptors
from .bow import KeyframeDatabase
from .keyframe import KeyFrame
from .map import SlamMap
from .pose_graph import (
    PoseGraphEdge,
    PoseGraphStats,
    build_essential_graph,
    optimize_pose_graph,
)


@dataclass
class LoopClosureResult:
    detected: bool
    query_keyframe_id: Optional[int] = None
    loop_keyframe_id: Optional[int] = None
    n_correspondences: int = 0
    correction_magnitude: float = 0.0
    pose_graph: Optional[PoseGraphStats] = None


@dataclass
class LoopCloserConfig:
    min_bow_score: float = 0.10
    min_temporal_gap_s: float = 8.0     # exclude recent keyframes
    min_correspondences: int = 12
    ransac_inlier_threshold: float = 0.3
    min_correction_m: float = 0.0       # close even tiny loops by default


class LoopCloser:
    """Within-map loop detection and correction."""

    def __init__(
        self,
        slam_map: SlamMap,
        database: KeyframeDatabase,
        camera: PinholeCamera,
        config: Optional[LoopCloserConfig] = None,
        seed: int = 23,
    ) -> None:
        self.map = slam_map
        self.database = database
        self.camera = camera
        self.config = config or LoopCloserConfig()
        self._rng = np.random.default_rng(seed)
        self.closed_loops: List[LoopClosureResult] = []

    def _candidates(self, keyframe: KeyFrame):
        """BoW hits excluding the temporal neighbourhood of the query."""
        cfg = self.config
        exclude: Set[int] = {
            kf_id
            for kf_id, kf in self.map.keyframes.items()
            if abs(kf.timestamp - keyframe.timestamp) < cfg.min_temporal_gap_s
        }
        return self.database.query(
            keyframe.bow_vector,
            min_score=cfg.min_bow_score,
            max_results=5,
            exclude=exclude,
        )

    def try_close(self, keyframe: KeyFrame) -> LoopClosureResult:
        """Check one (new) keyframe for a loop and correct if found."""
        cfg = self.config
        for candidate in self._candidates(keyframe):
            loop_kf = self.map.keyframes.get(candidate.keyframe_id)
            if loop_kf is None:
                continue
            matches = match_descriptors(
                keyframe.descriptors, loop_kf.descriptors, max_distance=64
            )
            src, dst = [], []
            for pid_q, pid_l in zip(keyframe.point_ids[matches.query_idx].tolist(),
                                    loop_kf.point_ids[matches.train_idx].tolist()):
                pq = self.map.mappoints.get(pid_q) if pid_q >= 0 else None
                pl = self.map.mappoints.get(pid_l) if pid_l >= 0 else None
                if pq is None or pl is None or pid_q == pid_l:
                    continue
                src.append(pq.position)
                dst.append(pl.position)
            if len(src) < cfg.min_correspondences:
                continue
            transform, mask = ransac_umeyama(
                np.array(src),
                np.array(dst),
                self._rng,
                with_scale=False,
                inlier_threshold=cfg.ransac_inlier_threshold,
                min_inliers=cfg.min_correspondences,
            )
            if transform is None:
                continue
            correction = float(np.linalg.norm(transform.translation))
            if correction < cfg.min_correction_m:
                continue
            # Loop edge: where the query SHOULD sit relative to the loop
            # keyframe, per the matched-landmark alignment.
            corrected_query = transform.transform_pose(keyframe.pose_cw)
            edge = PoseGraphEdge(
                kf_a=keyframe.keyframe_id,
                kf_b=loop_kf.keyframe_id,
                relative=corrected_query * loop_kf.pose_cw.inverse(),
                weight=100.0,
                is_loop_edge=True,
            )
            edges = build_essential_graph(self.map, extra_edges=[edge])
            anchor = min(self.map.keyframes)
            stats = optimize_pose_graph(self.map, edges, fixed={anchor})
            result = LoopClosureResult(
                detected=True,
                query_keyframe_id=keyframe.keyframe_id,
                loop_keyframe_id=loop_kf.keyframe_id,
                n_correspondences=len(src),
                correction_magnitude=correction,
                pose_graph=stats,
            )
            self.closed_loops.append(result)
            return result
        return LoopClosureResult(False)
