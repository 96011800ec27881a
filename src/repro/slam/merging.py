"""Multi-client map merging (the paper's Algorithm 2).

Given a client map and the global map, the merger:

1. iterates over **all** the client's keyframes (unlike vanilla
   ORB-SLAM3, which only checks the newest active keyframe — the
   paper's key modification for late-joining clients) running
   ``DetectCommonRegion`` against the global BoW database;
2. on a hit, matches features between the client keyframe and the
   candidate global keyframe, producing 3D-3D map-point
   correspondences, and robustly estimates the aligning Sim(3);
3. only once a weld is found, inserts the client's keyframes and map
   points into the global map (id collisions are impossible —
   per-client id ranges, §4.3.1), applies the transform to every entity
   the client contributed, fuses duplicate map points, and runs a local
   bundle adjustment around the weld (lines 13-15 of Alg. 2).

The search reads client entities from the client map and global ones
from the global map, so a failed attempt mutates neither.  Attempts are
retried on every keyframe of an unmerged client; a caller that keeps a
:data:`RejectedPairs` memo across attempts pays only for keyframe pairs
it has not already seen fail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..geometry import Sim3, ransac_umeyama
from ..obs import get_metrics, get_tracer
from ..vision.camera import PinholeCamera
from ..vision.matching import match_descriptors
from .bow import KeyframeDatabase
from .bundle_adjustment import BAStats, local_bundle_adjustment
from .keyframe import KeyFrame
from .map import SlamMap
from .place_recognition import detect_common_region

_tracer = get_tracer()
_metrics = get_metrics()
_bow_queries = _metrics.counter(
    "merge.bow_queries", "DetectCommonRegion queries during merging"
)
_pairs_skipped = _metrics.counter(
    "merge.pairs_skipped", "keyframe pairs skipped as already rejected"
)
_fused_points = _metrics.counter(
    "merge.fused_points", "duplicate map points fused by merges"
)

# (client keyframe id, global keyframe id) -> the number of map-point
# associations each keyframe had when the pair last failed to weld.  A
# pair is worth retrying only once either keyframe has gained some.
RejectedPairs = Dict[Tuple[int, int], Tuple[int, int]]

# Alg.-2 merge rounds are traced under the paper's Table-4 component
# name so trace output lines up with the latency-table vocabulary.
MERGE_SPAN = "map_merging"

# DetectCommonRegion's BoW-score floor for a candidate global keyframe.
MIN_BOW_SCORE = 0.08
# Hamming bound on a descriptor match between the two keyframes.
FUSE_DESCRIPTOR_DISTANCE = 64
# RANSAC Sim(3) inlier distance (m) between aligned map points.
RANSAC_INLIER_THRESHOLD = 0.35
# Gauss-Newton iterations of the weld-local BA.
WELD_BA_ITERATIONS = 2


@dataclass
class MergeResult:
    success: bool
    transform: Optional[Sim3] = None
    merge_keyframe_id: Optional[int] = None      # client KF that matched
    anchor_keyframe_id: Optional[int] = None     # global KF it matched against
    n_correspondences: int = 0
    n_fused_points: int = 0
    n_keyframes_checked: int = 0
    n_pairs_tried: int = 0       # keyframe pairs matched (+ RANSAC) this call
    n_pairs_skipped: int = 0     # pairs the rejected-pair memo ruled out
    ba_stats: Optional[BAStats] = None


@dataclass
class MergerConfig:
    min_correspondences: int = 8
    check_all_keyframes: bool = True   # False models vanilla ORB-SLAM3
    with_scale: bool = True            # Sim3 for mono, SE3 for stereo/inertial


class MapMerger:
    """Implements Alg. 2 over a global map and its BoW database."""

    def __init__(
        self,
        global_map: SlamMap,
        database: KeyframeDatabase,
        camera: PinholeCamera,
        config: Optional[MergerConfig] = None,
        seed: int = 99,
    ) -> None:
        self.map = global_map
        self.database = database
        self.camera = camera
        self.config = config or MergerConfig()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------ ingestion
    def ingest_client_map(self, client_map: SlamMap) -> None:
        """Copy a client map's entities into the global map (lines 2-5).

        In SLAM-Share proper the client process wrote them into shared
        memory already; this path serves the baseline (deserialized
        maps) and late joiners shipping an existing map.
        """
        for point in client_map.mappoints.values():
            if point.point_id not in self.map.mappoints:
                self.map.add_mappoint(point)
        for kf in sorted(client_map.keyframes.values(), key=lambda k: k.timestamp):
            if kf.keyframe_id not in self.map.keyframes:
                self.map.add_keyframe(kf)
                self.database.add(kf.keyframe_id, kf.bow_vector)

    # ------------------------------------------------------- correspondences
    def _correspondences(
        self, client_kf: KeyFrame, global_kf: KeyFrame, client_map: SlamMap
    ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int]]]:
        """3D-3D point pairs via descriptor matches between two keyframes."""
        matches = match_descriptors(
            client_kf.descriptors,
            global_kf.descriptors,
            max_distance=FUSE_DESCRIPTOR_DISTANCE,
        )
        src, dst, id_pairs = [], [], []
        for m in matches:
            pid_c = int(client_kf.point_ids[m.query_idx])
            pid_g = int(global_kf.point_ids[m.train_idx])
            if pid_c < 0 or pid_g < 0 or pid_c == pid_g:
                continue
            pc = client_map.mappoints.get(pid_c)
            pg = self.map.mappoints.get(pid_g)
            if pc is None or pg is None:
                continue
            src.append(pc.position)
            dst.append(pg.position)
            id_pairs.append((pid_c, pid_g))
        if not src:
            return np.zeros((0, 3)), np.zeros((0, 3)), []
        return np.array(src), np.array(dst), id_pairs

    def _align_pair(
        self, client_kf: KeyFrame, global_kf: KeyFrame, client_map: SlamMap
    ) -> Optional[Tuple[Sim3, List[Tuple[int, int]], np.ndarray]]:
        """``(Sim3, id pairs, inlier mask)`` welding the pair, else None."""
        cfg = self.config
        with _tracer.span("correspondences"):
            src, dst, id_pairs = self._correspondences(
                client_kf, global_kf, client_map
            )
        if len(src) < cfg.min_correspondences:
            return None
        with _tracer.span("estimate_sim3", n_pairs=len(id_pairs)):
            transform, mask = ransac_umeyama(
                src,
                dst,
                self._rng,
                with_scale=cfg.with_scale,
                inlier_threshold=RANSAC_INLIER_THRESHOLD,
                min_inliers=cfg.min_correspondences,
            )
        if transform is None:
            return None
        return transform, id_pairs, mask

    # ---------------------------------------------------------------- search
    def _find_weld(
        self, client_map: SlamMap, client_id: int, rejected: RejectedPairs
    ) -> Tuple[Optional[tuple], MergeResult]:
        """Lines 6-9: the first keyframe pair that aligns, read-only.

        Returns ``(client_kf, global_kf, Sim3, id pairs, inlier mask)`` (or
        None) and a failed :class:`MergeResult` carrying the search counts.
        """
        cfg = self.config
        client_kfs = sorted(
            client_map.keyframes_of_client(client_id), key=lambda kf: kf.timestamp
        )
        if not cfg.check_all_keyframes:
            client_kfs = client_kfs[-1:]
        # A client trivially matches whatever it already has in the map.
        own = {kf.keyframe_id for kf in self.map.keyframes_of_client(client_id)}
        stats = MergeResult(success=False)
        for kf in client_kfs:
            stats.n_keyframes_checked += 1
            _bow_queries.inc()
            with _tracer.span("detect_common_region", keyframe_id=kf.keyframe_id):
                region = detect_common_region(
                    kf,
                    self.map,
                    self.database,
                    min_score=MIN_BOW_SCORE,
                    exclude=own,
                )
            n_tracked = kf.n_tracked_points
            for candidate in region.candidates:
                global_kf = self.map.keyframes[candidate.keyframe_id]
                pair = (kf.keyframe_id, global_kf.keyframe_id)
                support = (n_tracked, global_kf.n_tracked_points)
                seen = rejected.get(pair)
                if seen is not None and support[0] <= seen[0] and support[1] <= seen[1]:
                    stats.n_pairs_skipped += 1
                    continue
                stats.n_pairs_tried += 1
                aligned = self._align_pair(kf, global_kf, client_map)
                if aligned is not None:
                    return (kf, global_kf, *aligned), stats
                rejected[pair] = support
        return None, stats

    # ----------------------------------------------------------------- merge
    def merge_maps(
        self,
        client_map: SlamMap,
        client_id: int,
        rejected: Optional[RejectedPairs] = None,
    ) -> MergeResult:
        """Full Alg. 2: find a weld, then ingest and align the client map.

        ``rejected`` is the caller's memo of pairs that failed in earlier
        attempts, read and updated in place.  Every client keyframe still
        costs its BoW query (and counts in ``n_keyframes_checked``); a
        memoised pair costs nothing more.  Without a weld neither map nor
        the database is touched.
        """
        with _tracer.span(MERGE_SPAN, client_id=client_id) as merge_span:
            weld, result = self._find_weld(
                client_map, client_id, {} if rejected is None else rejected
            )
            if weld is not None:
                with _tracer.span("ingest", client_id=client_id):
                    self.ingest_client_map(client_map)
                result = self._apply_merge(client_id, result, *weld)
            merge_span.set(
                success=result.success,
                n_keyframes_checked=result.n_keyframes_checked,
                n_pairs_tried=result.n_pairs_tried,
                n_pairs_skipped=result.n_pairs_skipped,
                n_fused=result.n_fused_points,
            )
        _pairs_skipped.inc(result.n_pairs_skipped)
        return result

    def _apply_merge(
        self,
        client_id: int,
        searched: MergeResult,
        client_kf: KeyFrame,
        global_kf: KeyFrame,
        transform: Sim3,
        id_pairs: List[Tuple[int, int]],
        inlier_mask: np.ndarray,
    ) -> MergeResult:
        # Lines 10-12: snap every client entity into the global frame.
        with _tracer.span("apply_transform", client_id=client_id):
            self.map.apply_transform_to_client(transform, client_id)
        # Fuse duplicate landmarks: the client's matched points are
        # replaced by their global counterparts.
        fused = 0
        with _tracer.span("fuse_points") as fuse_span:
            for (pid_c, pid_g), inlier in zip(id_pairs, inlier_mask):
                if not inlier:
                    continue
                self.map.replace_mappoint(pid_c, pid_g)
                fused += 1
            self.map.rebuild_covisibility()
            fuse_span.set(n_fused=fused)
        _fused_points.inc(fused)
        # Lines 13-15: weld-local bundle adjustment.
        window = (
            [client_kf.keyframe_id, global_kf.keyframe_id]
            + self.map.covisible_keyframes(global_kf.keyframe_id)[:4]
            + self.map.covisible_keyframes(client_kf.keyframe_id)[:4]
        )
        window = [k for k in dict.fromkeys(window) if k in self.map.keyframes]
        with _tracer.span("weld_ba", window=len(window)):
            ba_stats = local_bundle_adjustment(
                self.map,
                self.camera,
                window,
                fixed_keyframe_ids={global_kf.keyframe_id},
                iterations=WELD_BA_ITERATIONS,
            )
        return replace(
            searched,
            success=True,
            transform=transform,
            merge_keyframe_id=client_kf.keyframe_id,
            anchor_keyframe_id=global_kf.keyframe_id,
            n_correspondences=len(id_pairs),
            n_fused_points=fused,
            ba_stats=ba_stats,
        )
