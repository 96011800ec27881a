"""Shared-memory substrate: the map arena, the map's one byte format
(packed records, framed streams, the wire codec), RW lock, map store."""

from .arena import (
    ALIGNMENT,
    ArenaError,
    ArenaStats,
    SharedMapPack,
    ShmMapLayout,
)
from .records import (
    deserialize_map,
    frame_records,
    keyframe_record_size,
    map_payload_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    restore_map,
    serialize_map,
    walk_records,
    write_keyframe_record,
    write_mappoint_record,
)
from .rwlock import ProcessRWLock, RWLock
from .sharding import (
    DEFAULT_CAPACITY,
    ShardedMapStore,
    StoreStats,
    spatial_shard,
)
from .shm_backend import SharedMemoryRegion
from .snapshot import (
    LoadedSnapshot,
    SnapshotError,
    SnapshotInfo,
    load_snapshot,
    restore_into_store,
    save_snapshot,
)
from .shm_store import ShmShardedMapStore, ShmStoreHandle

__all__ = [
    "ALIGNMENT",
    "ArenaError",
    "ArenaStats",
    "DEFAULT_CAPACITY",
    "ProcessRWLock",
    "RWLock",
    "ShardedMapStore",
    "SharedMapPack",
    "ShmMapLayout",
    "ShmShardedMapStore",
    "ShmStoreHandle",
    "spatial_shard",
    "SharedMemoryRegion",
    "StoreStats",
    "LoadedSnapshot",
    "SnapshotError",
    "SnapshotInfo",
    "load_snapshot",
    "restore_into_store",
    "restore_map",
    "save_snapshot",
    "deserialize_map",
    "frame_records",
    "keyframe_record_size",
    "map_payload_size",
    "mappoint_record_size",
    "read_keyframe_record",
    "read_mappoint_record",
    "serialize_map",
    "walk_records",
    "write_keyframe_record",
    "write_mappoint_record",
]
