"""True shared-memory map tier: one segment, N attached processes.

This module backs the shared-map abstractions with a real
``multiprocessing.shared_memory`` segment so separate OS processes —
not threads under the GIL — read and write the global map zero-copy,
the deployment the paper actually describes (§4.3.2: the orchestrator
allocates the region, each per-client server process "searches and
attaches the shared memory buffer to its own virtual address space").

Everything lives in **one arena** (a single named segment):

::

    +--------------------------------------------------------------+
    | global header (64 B): magic, layout ver, n_shards,           |
    |   pack_capacity, shard_slab_bytes, region_size               |
    +--------------------------------------------------------------+
    | map pack slab:                                               |
    |   header (64 B): count u64 | version u64 | capacity u64 |    |
    |                  lock word (16 B)                            |
    |   positions   f64[capacity, 3]    <- PR-2/5 packed matrices  |
    |   descriptors u8 [capacity, 32]                              |
    |   point_ids   i64[capacity]                                  |
    +--------------------------------------------------------------+
    | shard slab 0..n-1 (each shard_slab_bytes):                   |
    |   header (64 B): bytes_used u64 | n_records u64 |            |
    |                  version u64 | lock word (16 B) | epoch u64  |
    |   append-only record log:                                    |
    |     (kind u32 | flags u32 | entity_id u64 | size u64)        |
    |     + packed keyframe/mappoint record, 8-aligned             |
    +--------------------------------------------------------------+

The *map pack* holds the map's packed ``(n, 3)`` position and
``(n, 32)`` descriptor matrices as numpy views straight over the
segment — worker processes run the vectorized tracking kernels
(Hamming matching, projection search) on them with zero copies.  The
*shard slabs* are the record store: :class:`ShmShardedMapStore` is the
:class:`~repro.sharedmem.sharding.ShardedMapStore` body over
:class:`_LogShard` — a bump-cursor log per spatial shard whose cursor
(``bytes_used``) lives in the shard header, i.e. the allocator state
itself is in shared memory.  Each shard and the pack are guarded by a
:class:`~repro.sharedmem.rwlock.ProcessRWLock` whose lock word sits in
the corresponding header.

Record indexes (entity id -> log offset) are process-local caches,
rebuilt incrementally by scanning the log tail under the shard lock —
deterministic because appends are serialized by the write lock.
Sticky id->shard routing works cross-process the same way: a record's
shard is fixed by the spatial hash of its *creation* position, and a
process learns placements by reading; updates always append to the
shard the entity already lives in.
"""

from __future__ import annotations

import multiprocessing as mp
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arena import ArenaError, ArenaStats
from .records import KIND_KEYFRAME, KIND_MAPPOINT, RECORD_FRAME
from .rwlock import ProcessRWLock
from .sharding import ShardedMapStore, _check_shape, _new_home, _Shard
from .shm_backend import SharedMemoryRegion

MAGIC = 0x534C4D53  # "SLMS"
LAYOUT_VERSION = 1
_GLOBAL_HEADER = struct.Struct("<IIIIQQd")
HEADER_BYTES = 64
_SLAB_COUNTS = struct.Struct("<QQQ")     # count/bytes_used, version, capacity
_LOCK_WORD_OFFSET = 24                   # within a slab header
# Compaction epoch (u64) after the 16-byte lock word; bumped whenever a
# shard's log is rewritten in place so every attached process knows its
# cached offsets and scan cursor are stale and rescans from offset 0.
_SLAB_EPOCH_OFFSET = 40
_SLAB_EPOCH = struct.Struct("<Q")

# Log-only record kinds: a tombstone for each entity kind.
_TOMBSTONE = {KIND_KEYFRAME: 3, KIND_MAPPOINT: 4}
_TOMBSTONE_OF = {tomb: kind for kind, tomb in _TOMBSTONE.items()}

_POS_BYTES = 24       # f64[3]
_DESC_BYTES = 32      # u8[32]
_ID_BYTES = 8         # i64


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class ShmMapLayout:
    """Offset arithmetic for the single-segment map arena."""

    n_shards: int = 8
    pack_capacity: int = 65536
    shard_slab_bytes: int = 4 * 1024 * 1024
    region_size: float = 8.0

    @property
    def pack_offset(self) -> int:
        return HEADER_BYTES

    @property
    def pack_positions_offset(self) -> int:
        return self.pack_offset + HEADER_BYTES

    @property
    def pack_descriptors_offset(self) -> int:
        return self.pack_positions_offset + self.pack_capacity * _POS_BYTES

    @property
    def pack_ids_offset(self) -> int:
        return self.pack_descriptors_offset + self.pack_capacity * _DESC_BYTES

    @property
    def shards_offset(self) -> int:
        return _align8(self.pack_ids_offset + self.pack_capacity * _ID_BYTES)

    def shard_offset(self, index: int) -> int:
        return self.shards_offset + index * self.shard_slab_bytes

    @property
    def shard_log_capacity(self) -> int:
        return self.shard_slab_bytes - HEADER_BYTES

    @property
    def total_bytes(self) -> int:
        return self.shards_offset + self.n_shards * self.shard_slab_bytes

    def write_global_header(self, buf: memoryview) -> None:
        _GLOBAL_HEADER.pack_into(
            buf, 0, MAGIC, LAYOUT_VERSION, self.n_shards, 0,
            self.pack_capacity, self.shard_slab_bytes, self.region_size,
        )

    @classmethod
    def from_global_header(cls, buf: memoryview) -> "ShmMapLayout":
        magic, version, n_shards, _, cap, slab, region = (
            _GLOBAL_HEADER.unpack_from(buf, 0)
        )
        if magic != MAGIC:
            raise ValueError("segment does not hold a SLAM-share map arena")
        if version != LAYOUT_VERSION:
            raise ValueError(
                f"layout version mismatch: segment v{version}, "
                f"code v{LAYOUT_VERSION}"
            )
        return cls(n_shards=n_shards, pack_capacity=cap,
                   shard_slab_bytes=slab, region_size=region)


class SharedMapPack:
    """The map's packed matrices as numpy views over the segment.

    ``positions``/``descriptors``/``point_ids`` are zero-copy views;
    row ``i`` of each belongs to one map point.  Readers hold the pack
    read lock for the duration of a kernel call
    (:meth:`read`); writers append rows or nudge positions in place
    under the write lock, bumping ``version``.
    """

    def __init__(self, buffer: memoryview, layout: ShmMapLayout,
                 lock: ProcessRWLock) -> None:
        self._buf = buffer
        self._layout = layout
        self.lock = lock
        cap = layout.pack_capacity
        self.positions = np.frombuffer(
            buffer, dtype="<f8", count=cap * 3,
            offset=layout.pack_positions_offset,
        ).reshape(cap, 3)
        self.descriptors = np.frombuffer(
            buffer, dtype=np.uint8, count=cap * _DESC_BYTES,
            offset=layout.pack_descriptors_offset,
        ).reshape(cap, _DESC_BYTES)
        self.point_ids = np.frombuffer(
            buffer, dtype="<i8", count=cap,
            offset=layout.pack_ids_offset,
        )

    # ------------------------------------------------------------- header
    def _counts(self) -> Tuple[int, int, int]:
        return _SLAB_COUNTS.unpack_from(self._buf, self._layout.pack_offset)

    def _set_counts(self, count: int, version: int) -> None:
        _SLAB_COUNTS.pack_into(self._buf, self._layout.pack_offset,
                               count, version, self._layout.pack_capacity)

    @property
    def capacity(self) -> int:
        return self._layout.pack_capacity

    @property
    def count(self) -> int:
        return self._counts()[0]

    @property
    def version(self) -> int:
        return self._counts()[1]

    # -------------------------------------------------------------- write
    def append(self, positions, descriptors, point_ids) -> Tuple[int, int]:
        """Append rows under the write lock; returns the (start, end) range."""
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.uint8))
        point_ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        n = len(positions)
        with self.lock.write():
            count, version, _ = self._counts()
            if count + n > self.capacity:
                raise ArenaError(
                    f"map pack exhausted: {count}+{n} > {self.capacity}"
                )
            self.positions[count : count + n] = positions
            self.descriptors[count : count + n] = descriptors
            self.point_ids[count : count + n] = point_ids
            self._set_counts(count + n, version + 1)
            return count, count + n

    def set_positions(self, rows, positions) -> None:
        """Nudge existing rows (a BA update) in place under the write lock."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        with self.lock.write():
            count, version, _ = self._counts()
            if len(rows) and int(rows.max()) >= count:
                raise IndexError("set_positions beyond the appended range")
            self.positions[rows] = positions
            self._set_counts(count, version + 1)

    # --------------------------------------------------------------- read
    @contextmanager
    def read(self):
        """Yield ``(positions, descriptors, point_ids, version)`` views of
        the appended rows, valid while the read lock is held."""
        with self.lock.read():
            count, version, _ = self._counts()
            yield (self.positions[:count], self.descriptors[:count],
                   self.point_ids[:count], version)

    def snapshot(self):
        """Copy of the appended rows (safe to use after the lock drops)."""
        with self.read() as (pos, desc, ids, version):
            return pos.copy(), desc.copy(), ids.copy(), version


class _LogShard(_Shard):
    """Shard whose allocator is an append-only record log in a slab of
    the segment; this object is one process's handle on it.

    The bump cursor, record count and compaction epoch live in the slab
    header, so every attachment allocates from the same state.  New
    versions and tombstones are appended; dead bytes stay until
    :meth:`compact`.  The index is a process-local cache that
    :meth:`refresh` rebuilds from the log tail.
    """

    def __init__(self, index: int, region: SharedMemoryRegion,
                 layout: ShmMapLayout, lock: ProcessRWLock,
                 home: Dict[int, Dict[int, int]]) -> None:
        super().__init__(index, lock, home)
        self._region = region
        self.header_offset = layout.shard_offset(index)
        self.log_offset = self.header_offset + HEADER_BYTES
        self.log_capacity = layout.shard_log_capacity
        self.scanned = 0          # log bytes this process has indexed
        self.epoch = 0            # compaction epoch our index reflects

    def _counts(self) -> Tuple[int, int, int]:
        """``(bytes_used, n_records, version)`` from the slab header."""
        return _SLAB_COUNTS.unpack_from(self._region.buffer,
                                        self.header_offset)

    def refresh(self) -> None:
        """Index log records appended since our last scan.

        Caller holds the shard's read or write lock, so ``bytes_used``
        is a stable cursor and every record before it is fully written.
        A compaction-epoch mismatch means another process rewrote the
        log under us: every cached offset is stale, so the local index
        is dropped and the (now shorter) log rescanned from the start.
        """
        buf = self._region.buffer
        buf_epoch = _SLAB_EPOCH.unpack_from(
            buf, self.header_offset + _SLAB_EPOCH_OFFSET
        )[0]
        if buf_epoch != self.epoch:
            for kind, index in self.records.items():
                for entity_id in list(index):
                    self._drop(kind, entity_id)
            self.scanned = 0
            self.epoch = buf_epoch
        bytes_used = self._counts()[0]
        if self.scanned >= bytes_used:
            return
        cursor = self.log_offset + self.scanned
        end = self.log_offset + bytes_used
        while cursor < end:
            kind, _flags, entity_id, size = RECORD_FRAME.unpack_from(
                buf, cursor
            )
            payload = cursor + RECORD_FRAME.size
            if kind in self.records:
                self._bind(kind, entity_id, (payload, size))
            elif kind in _TOMBSTONE_OF:
                self._drop(_TOMBSTONE_OF[kind], entity_id)
            else:
                raise ValueError(
                    f"corrupt shard {self.index} log: kind {kind} at "
                    f"offset {cursor - self.log_offset}"
                )
            cursor = payload + _align8(size)
        self.scanned = bytes_used

    def sync(self) -> None:
        with self.lock.read():
            self.refresh()

    def _append(self, kind: int, entity_id: int, size: int) -> int:
        """Append one framed record under the held write lock (index
        refreshed); returns the payload's offset in the segment."""
        bytes_used, n_records, version = self._counts()
        need = RECORD_FRAME.size + _align8(size)
        if bytes_used + need > self.log_capacity:
            raise ArenaError(
                f"shard {self.index} arena exhausted: need {need} bytes, "
                f"{self.log_capacity - bytes_used} free"
            )
        buf = self._region.buffer
        record = self.log_offset + bytes_used
        RECORD_FRAME.pack_into(buf, record, kind, 0, entity_id, size)
        _SLAB_COUNTS.pack_into(buf, self.header_offset, bytes_used + need,
                               n_records + 1, version + 1)
        self.scanned = bytes_used + need
        self.writes += 1
        return record + RECORD_FRAME.size

    def reserve(self, kind: int, entity_id: int, size: int) -> memoryview:
        payload = self._append(kind, entity_id, size)
        self._bind(kind, entity_id, (payload, size))
        return self._region.buffer[payload : payload + size]

    def lookup(self, kind: int, entity_id: int) -> Optional[memoryview]:
        entry = self.records[kind].get(entity_id)
        if entry is None:
            return None
        offset, size = entry
        return self._region.buffer[offset : offset + size]

    def remove(self, kind: int, entity_id: int) -> None:
        if entity_id in self.records[kind]:
            self._append(_TOMBSTONE[kind], entity_id, 0)
            self._drop(kind, entity_id)

    def compact(self) -> int:
        """Rewrite the live records from the log start.

        Live records move leftward past the tombstones and superseded
        versions, the bump cursor resets to the new log length and the
        compaction epoch bumps so other attached processes drop their
        stale offsets on next refresh.  Each payload is copied out
        before rewriting, and live records only ever move to lower
        offsets, so in-place rewriting never reads bytes it has already
        overwritten.  Returns the log bytes reclaimed.
        """
        buf = self._region.buffer
        bytes_used, _, version = self._counts()
        live = self._live()
        cursor = self.log_offset
        for offset, size, kind, entity_id in live:
            payload = bytes(buf[offset : offset + size])
            RECORD_FRAME.pack_into(buf, cursor, kind, 0, entity_id, size)
            dst = cursor + RECORD_FRAME.size
            buf[dst : dst + size] = payload
            self.records[kind][entity_id] = (dst, size)
            cursor += RECORD_FRAME.size + _align8(size)
        new_used = cursor - self.log_offset
        _SLAB_COUNTS.pack_into(buf, self.header_offset, new_used, len(live),
                               version + 1)
        self.epoch += 1
        _SLAB_EPOCH.pack_into(
            buf, self.header_offset + _SLAB_EPOCH_OFFSET, self.epoch
        )
        self.scanned = new_used
        return max(0, bytes_used - new_used)

    def arena_stats(self) -> ArenaStats:
        bytes_used, n_records, _ = self._counts()
        return ArenaStats(capacity=self.log_capacity, allocated=bytes_used,
                          n_blocks=n_records, peak_allocated=bytes_used)


@dataclass
class ShmStoreHandle:
    """Picklable attach ticket: segment name + layout + shared locks.

    Pass it to a worker ``Process`` at spawn time (the conditions inside
    the locks only pickle on that path) and call :meth:`attach` there.
    """

    segment_name: str
    layout: ShmMapLayout
    pack_lock: ProcessRWLock
    shard_locks: List[ProcessRWLock]

    def attach(self) -> "ShmShardedMapStore":
        return ShmShardedMapStore.attach(self)


class ShmShardedMapStore(ShardedMapStore):
    """:class:`ShardedMapStore` across processes.

    The store body is inherited unchanged; every byte of state that
    must be shared — payload records, allocator cursors, lock words,
    the packed map matrices — lives in one named shared segment that
    any number of worker processes attach.
    """

    def __init__(self, region: SharedMemoryRegion, layout: ShmMapLayout,
                 pack_lock: ProcessRWLock,
                 shard_locks: Sequence[ProcessRWLock],
                 owner: bool) -> None:
        if len(shard_locks) != layout.n_shards:
            raise ValueError("one lock per shard required")
        self.region = region
        self.layout = layout
        buf = region.buffer
        pack_lock.bind(buf, layout.pack_offset + _LOCK_WORD_OFFSET)
        self.pack = SharedMapPack(buf, layout, pack_lock)
        home = _new_home()
        shards = []
        for i, lock in enumerate(shard_locks):
            lock.bind(buf, layout.shard_offset(i) + _LOCK_WORD_OFFSET)
            shards.append(_LogShard(i, region, layout, lock, home))
        self._adopt(shards, home, layout.region_size)
        self._owner = owner

    # ---------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls,
        n_shards: int = 8,
        pack_capacity: int = 65536,
        shard_slab_bytes: int = 4 * 1024 * 1024,
        region_size: float = 8.0,
        ctx=None,
        name: Optional[str] = None,
        lock_timeout_s: Optional[float] = None,
    ) -> "ShmShardedMapStore":
        """Allocate the segment and initialize headers (orchestrator)."""
        _check_shape(n_shards, region_size)
        ctx = ctx if ctx is not None else mp.get_context()
        layout = ShmMapLayout(
            n_shards=n_shards, pack_capacity=pack_capacity,
            shard_slab_bytes=shard_slab_bytes, region_size=region_size,
        )
        region = SharedMemoryRegion(name=name, size=layout.total_bytes)
        buf = region.buffer
        # Segments arrive zero-filled; only non-zero fields need writing.
        layout.write_global_header(buf)
        _SLAB_COUNTS.pack_into(buf, layout.pack_offset, 0, 0, pack_capacity)
        pack_lock = ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
        shard_locks = [
            ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
            for _ in range(n_shards)
        ]
        return cls(region, layout, pack_lock, shard_locks, owner=True)

    @classmethod
    def attach(cls, handle: ShmStoreHandle) -> "ShmShardedMapStore":
        """Attach the named segment in a worker (process or thread).

        Locks are cloned — same shared condition and lock word, but a
        per-attachment segment view and wait accounting — so several
        attachments of one segment inside one process (the threaded
        baseline) cannot unbind each other's views on close.
        """
        region = SharedMemoryRegion(name=handle.segment_name, create=False)
        layout = ShmMapLayout.from_global_header(region.buffer)
        return cls(region, layout, handle.pack_lock.clone(),
                   [lk.clone() for lk in handle.shard_locks],
                   owner=False)

    def handle(self) -> ShmStoreHandle:
        return ShmStoreHandle(
            segment_name=self.region.name,
            layout=self.layout,
            pack_lock=self.pack.lock,
            shard_locks=[s.lock for s in self.shards],
        )

    def close(self) -> None:
        """Detach: drop numpy/lock views, then close the mapping."""
        self.pack.lock.unbind()
        for shard in self.shards:
            shard.lock.unbind()
        self.pack.positions = self.pack.descriptors = None
        self.pack.point_ids = None
        self.pack._buf = None
        self.region.close()

    def unlink(self) -> None:
        self.region.unlink()

    def __enter__(self) -> "ShmShardedMapStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()

    # ------------------------------------------------------------ metrics
    def metrics_snapshot(self) -> Dict[str, object]:
        """Per-lock wait totals of *this process* (workers ship this)."""
        return {
            "pack": self.pack.lock.metrics_snapshot(),
            "shards": [s.lock.metrics_snapshot() for s in self.shards],
        }

    def fold_metrics(self, snapshot: Dict[str, object]) -> None:
        """Fold a worker's snapshot into the orchestrator's lock totals."""
        self.pack.lock.fold_metrics(snapshot.get("pack", {}))
        for shard, snap in zip(self.shards, snapshot.get("shards", [])):
            shard.lock.fold_metrics(snap)
