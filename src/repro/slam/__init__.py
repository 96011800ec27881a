"""SLAM core: maps, tracking, mapping, place recognition and merging."""

from .bow import KeyframeDatabase, QueryResult, Vocabulary, default_vocabulary
from .bundle_adjustment import (
    BAStats,
    global_bundle_adjustment,
    local_bundle_adjustment,
)
from .frame import Frame
from .keyframe import KeyFrame
from .local_mapping import LocalMapper, LocalMappingConfig
from .map import CLIENT_ID_STRIDE, IdAllocator, SlamMap
from .mappoint import MapPoint
from .merging import MapMerger, MergeResult, MergerConfig
from .loop_closing import LoopCloser, LoopCloserConfig, LoopClosureResult
from .place_recognition import CommonRegion, detect_common_region
from .pose_graph import (
    PoseGraphEdge,
    PoseGraphStats,
    build_essential_graph,
    optimize_pose_graph,
)
from .relocalization import RelocalizationResult, Relocalizer
from .pnp import PnPResult, solve_pnp, solve_pnp_ransac
from .system import SlamConfig, SlamFrameResult, SlamSystem
from .tracking import Tracker, TrackerConfig, TrackingResult, TrackingWorkload

__all__ = [
    "BAStats",
    "CLIENT_ID_STRIDE",
    "CommonRegion",
    "Frame",
    "IdAllocator",
    "KeyFrame",
    "KeyframeDatabase",
    "LocalMapper",
    "LocalMappingConfig",
    "LoopCloser",
    "LoopCloserConfig",
    "LoopClosureResult",
    "MapMerger",
    "MapPoint",
    "MergeResult",
    "MergerConfig",
    "PnPResult",
    "PoseGraphEdge",
    "PoseGraphStats",
    "QueryResult",
    "RelocalizationResult",
    "Relocalizer",
    "SlamConfig",
    "SlamFrameResult",
    "SlamMap",
    "SlamSystem",
    "Tracker",
    "TrackerConfig",
    "TrackingResult",
    "TrackingWorkload",
    "Vocabulary",
    "build_essential_graph",
    "default_vocabulary",
    "detect_common_region",
    "global_bundle_adjustment",
    "local_bundle_adjustment",
    "optimize_pose_graph",
    "solve_pnp",
    "solve_pnp_ransac",
]
