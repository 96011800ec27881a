"""Top-level SLAM-Share configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..gpu.device import CpuCostModel
from ..net.tc import PROFILE_IDEAL, ShapingProfile
from ..slam.merging import MergerConfig
from ..slam.system import SlamConfig


def mobile_cpu_model() -> CpuCostModel:
    """Mobile-class client silicon: ~4x the per-op cost of the server CPU.

    The Edge-SLAM-style baseline's on-device full-SLAM clients run on it.
    """
    return CpuCostModel(pixel_ns=220.0, pair_ns=100.0, feature_match_ns=3600.0)


@dataclass
class MergeCostModel:
    """Simulated merge-computation time (calibrated to Table 4, §5.5).

    The paper measures ~190 ms for a SLAM-Share merge (in shared
    memory, weld-local BA only) and ~2339 ms for the baseline's full
    merge of a freshly deserialized map.  Costs scale with the checked
    keyframes (BoW queries) and the map size being welded.
    """

    bow_query_ms: float = 2.2            # per keyframe checked
    alignment_ms: float = 28.0           # RANSAC Sim3 on correspondences
    fuse_ms_per_point: float = 0.045     # duplicate fusion
    weld_ba_ms: float = 110.0            # local BA around the weld
    full_ba_ms_per_keyframe: float = 34.0  # baseline's full-map refinement

    def slam_share_merge_ms(self, n_keyframes_checked: int,
                            n_fused_points: int) -> float:
        return (
            n_keyframes_checked * self.bow_query_ms
            + self.alignment_ms
            + n_fused_points * self.fuse_ms_per_point
            + self.weld_ba_ms
        )

    def baseline_merge_ms(self, n_keyframes_checked: int, n_fused_points: int,
                          n_map_keyframes: int) -> float:
        """The baseline refines the whole deserialized map, not a weld."""
        return (
            n_keyframes_checked * self.bow_query_ms
            + self.alignment_ms
            + n_fused_points * self.fuse_ms_per_point
            + n_map_keyframes * self.full_ba_ms_per_keyframe
        )


@dataclass
class ServingConfig:
    """Scale-out serving policy: sharding and admission control.

    The defaults keep small sessions byte-for-byte compatible with the
    pre-scale-out behavior (no staleness shedding, a queue deep enough
    that 4-client sessions never shed) while the sharded store and
    admission bookkeeping are always on.  Set ``map_shards=1`` and
    ``admission=False`` for the unsharded / unadmitted A/B baseline.
    """

    # --- sharded map store
    map_shards: int = 8
    # --- store backend: where the store's arena (one record log per
    # shard, repro.sharedmem.arena) lives.  "local" (default) lays it out
    # in an anonymous mapping of this process; "shm" in a named OS
    # shared-memory segment that real worker processes can attach
    # (repro.sharedmem.ShmShardedMapStore).  Either is built with the
    # store's own region size, pack capacity and slab size.
    store_backend: str = "local"
    # --- admission control / load shedding
    admission: bool = True
    queue_depth: int = 8                 # in-flight frames per client
    stale_ms: Optional[float] = None     # shed frames older than this
    # --- long-lived maps: compaction and persistence (the map's
    # eviction budgets are ``SlamConfig.mapping.max_keyframes`` /
    # ``max_mappoints``).
    # Store compaction trigger: compact any shard whose log crosses this
    # utilization after evictions land.  None disables it; a log that
    # fills up still compacts itself before it refuses a record.
    store_compact_utilization: Optional[float] = 0.6
    # Snapshot/restore wiring (repro.cli snapshot / restore): restore
    # preloads the global map before any client joins; snapshot saves it
    # when the session ends.
    restore_path: Optional[str] = None
    snapshot_path: Optional[str] = None


@dataclass
class SlamShareConfig:
    """Everything a multi-user session needs."""

    camera_fps: float = 30.0
    imu_rate_hz: float = 200.0
    video_gop: int = 30
    video_quantization: int = 8
    shaping: ShapingProfile = PROFILE_IDEAL
    slam: SlamConfig = field(default_factory=SlamConfig)
    merger: MergerConfig = field(default_factory=MergerConfig)
    render_video_frames: bool = True    # real codec on rendered frames
    serving: ServingConfig = field(default_factory=ServingConfig)


@dataclass
class BaselineConfig:
    """The Edge-SLAM-style multi-user baseline (paper §5.1).

    A round is late (``SyncRound.missed``) when it completes more than
    one hold-down period, ``hold_down_frames / camera_fps``, after it
    started.
    """

    hold_down_frames: int = 150          # batch size between map uploads
