"""Shared-memory substrate: arena, packed records, RW lock, map store."""

from .arena import ALIGNMENT, Arena, ArenaError, ArenaStats
from .records import (
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from .rwlock import ProcessRWLock, RWLock
from .sharding import (
    DEFAULT_CAPACITY,
    ShardedMapStore,
    SharedMapStore,
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
    restore_map,
    save_snapshot,
)
from .shm_store import (
    SharedMapPack,
    ShmMapLayout,
    ShmShardedMapStore,
    ShmStoreHandle,
)

__all__ = [
    "ALIGNMENT",
    "Arena",
    "ArenaError",
    "ArenaStats",
    "DEFAULT_CAPACITY",
    "ProcessRWLock",
    "RWLock",
    "ShardedMapStore",
    "SharedMapPack",
    "SharedMapStore",
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
    "keyframe_record_size",
    "mappoint_record_size",
    "read_keyframe_record",
    "read_mappoint_record",
    "write_keyframe_record",
    "write_mappoint_record",
]
