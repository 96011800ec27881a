"""Atlas: managing multiple maps (ORB-SLAM3's multi-map container).

ORB-SLAM3 keeps an *Atlas* of disconnected maps: the active map being
extended plus inactive maps from before tracking losses or from other
sessions.  SLAM-Share's server is exactly an atlas whose member maps
belong to different clients, with merging promoting members into the
global map.  This class gives that structure a first-class API: create,
activate, look up by entity id, and merge members pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..vision.camera import PinholeCamera
from .bow import KeyframeDatabase, Vocabulary
from .map import SlamMap
from .merging import MapMerger, MergeResult, MergerConfig


@dataclass
class AtlasEntry:
    slam_map: SlamMap
    database: KeyframeDatabase
    label: str = ""
    active: bool = False


class Atlas:
    """A registry of maps sharing one vocabulary."""

    def __init__(self, vocabulary: Vocabulary,
                 merger_config: Optional[MergerConfig] = None) -> None:
        self.vocabulary = vocabulary
        self.merger_config = merger_config or MergerConfig()
        self._entries: Dict[int, AtlasEntry] = {}
        self._next_map_id = 0
        self._active_id: Optional[int] = None

    # --------------------------------------------------------------- admin
    def create_map(self, label: str = "") -> SlamMap:
        """Create a new empty member map and make it active."""
        slam_map = SlamMap(map_id=self._next_map_id)
        entry = AtlasEntry(
            slam_map=slam_map,
            database=KeyframeDatabase(self.vocabulary),
            label=label or f"map-{self._next_map_id}",
        )
        self._entries[self._next_map_id] = entry
        self.set_active(self._next_map_id)
        self._next_map_id += 1
        return slam_map

    def adopt(self, slam_map: SlamMap, database: KeyframeDatabase,
              label: str = "") -> int:
        """Register an externally built map (e.g. a joining client's)."""
        map_id = self._next_map_id
        self._entries[map_id] = AtlasEntry(
            slam_map=slam_map, database=database,
            label=label or f"map-{map_id}",
        )
        self._next_map_id += 1
        return map_id

    def set_active(self, map_id: int) -> None:
        if map_id not in self._entries:
            raise KeyError(f"no map {map_id} in atlas")
        for key, entry in self._entries.items():
            entry.active = key == map_id
        self._active_id = map_id

    @property
    def active_map(self) -> Optional[SlamMap]:
        if self._active_id is None:
            return None
        return self._entries[self._active_id].slam_map

    def __len__(self) -> int:
        return len(self._entries)

    def maps(self) -> List[SlamMap]:
        return [e.slam_map for e in self._entries.values()]

    def entry(self, map_id: int) -> AtlasEntry:
        return self._entries[map_id]

    # --------------------------------------------------------------- lookup
    def map_of_keyframe(self, keyframe_id: int) -> Optional[int]:
        """Which member map holds a keyframe id (None if nowhere)."""
        for map_id, entry in self._entries.items():
            if keyframe_id in entry.slam_map.keyframes:
                return map_id
        return None

    def map_of_point(self, point_id: int) -> Optional[int]:
        for map_id, entry in self._entries.items():
            if point_id in entry.slam_map.mappoints:
                return map_id
        return None

    def total_keyframes(self) -> int:
        return sum(e.slam_map.n_keyframes for e in self._entries.values())

    # ---------------------------------------------------------------- merge
    def merge_members(
        self,
        target_id: int,
        source_id: int,
        camera: PinholeCamera,
        source_client: int,
    ) -> MergeResult:
        """Merge the source member map into the target (Alg. 2).

        On success the source member is removed from the atlas (its
        entities live on inside the target map) and the target becomes
        active.  On failure both members are left untouched.
        """
        if target_id == source_id:
            raise ValueError("cannot merge a map with itself")
        target = self._entries[target_id]
        source = self._entries[source_id]
        merger = MapMerger(
            target.slam_map, target.database, camera, self.merger_config
        )
        result = merger.merge_maps(source.slam_map, client_id=source_client)
        if result.success:
            del self._entries[source_id]
            self.set_active(target_id)
        return result

    def summary(self) -> str:
        parts = []
        for map_id, entry in sorted(self._entries.items()):
            star = "*" if entry.active else " "
            parts.append(
                f"{star}{entry.label}: {entry.slam_map.n_keyframes} KFs, "
                f"{entry.slam_map.n_mappoints} points"
            )
        return " | ".join(parts)
