"""The map arena: one block of memory, one layout, one shard format.

SLAM-Share places the global map in a single shared-memory region
(2 GB in the paper, §4.3.2) that every per-client server process
attaches; records are written into it in place and read back zero-copy.
:class:`ShmMapLayout` lays such a block out:

::

    +--------------------------------------------------------------+
    | global header (64 B): magic, layout ver, n_shards,           |
    |   pack_capacity, shard_slab_bytes, region_size               |
    +--------------------------------------------------------------+
    | map pack slab:                                               |
    |   header (64 B): count u64 | version u64 | capacity u64 |    |
    |                  lock word (16 B)                            |
    |   positions   f64[capacity, 3]                               |
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

The block is either an anonymous mapping owned by one process
(``store_backend="local"``,
:class:`~repro.sharedmem.sharding.ShardedMapStore`) or a named OS
segment other processes attach (``"shm"``,
:class:`~repro.sharedmem.shm_store.ShmShardedMapStore`); the bytes are
the same either way.  Pages are touched only when something is written
to them, so a store's resident size follows its map, not its capacity.

The *map pack* (:class:`SharedMapPack`) holds the map's packed
``(n, 3)`` position and ``(n, 32)`` descriptor matrices as numpy views
straight over the block.  Each *shard slab* is one :class:`_LogShard`:
a bump-cursor record log whose cursor, record count and compaction
epoch live in the slab header, so the allocator state itself is in the
shared bytes.  Each slab and the pack carry the lock word of the
:class:`~repro.sharedmem.rwlock.RWLock` that guards them.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import get_metrics
from .records import KIND_KEYFRAME, KIND_MAPPOINT, RECORD_FRAME
from .rwlock import RWLock

ALIGNMENT = 8

MAGIC = 0x534C4D53  # "SLMS"
# 2: keyframe records carry uv / depths as <f8 (v1 wrote <f4).
LAYOUT_VERSION = 2
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

_metrics = get_metrics()
_compactions_total = _metrics.counter(
    "sharedmem.compactions", "store compaction passes"
)
_reclaimed_bytes = _metrics.counter(
    "sharedmem.reclaimed_bytes", "bytes reclaimed by store compaction"
)


def _align8(n: int) -> int:
    return (n + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class ArenaError(RuntimeError):
    """Out of space: a shard log or the map pack is full."""


@dataclass
class ArenaStats:
    capacity: int
    allocated: int
    n_blocks: int
    peak_allocated: int

    @property
    def utilization(self) -> float:
        return self.allocated / self.capacity if self.capacity else 0.0


@dataclass(frozen=True)
class ShmMapLayout:
    """Offset arithmetic for the single-block map arena."""

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

    def format(self, buf) -> None:
        """Write the headers a zero-filled block needs to hold this
        layout (zero is an empty log, an empty pack, an unheld lock)."""
        self.write_global_header(buf)
        _SLAB_COUNTS.pack_into(buf, self.pack_offset, 0, 0,
                               self.pack_capacity)

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
    """The map's packed matrices as numpy views over the block.

    ``positions``/``descriptors``/``point_ids`` are zero-copy views;
    row ``i`` of each belongs to one map point.  Readers hold the pack
    read lock for the duration of a kernel call
    (:meth:`read`); writers append rows or nudge positions in place
    under the write lock, bumping ``version``.
    """

    def __init__(self, buffer: memoryview, layout: ShmMapLayout,
                 lock: RWLock) -> None:
        self._buf = buffer
        self._layout = layout
        self.lock = lock.bind(buffer, layout.pack_offset + _LOCK_WORD_OFFSET)
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

    # --------------------------------------------------------------- read
    @contextmanager
    def read(self):
        """Yield ``(positions, descriptors, point_ids, version)`` views of
        the appended rows, valid while the read lock is held."""
        with self.lock.read():
            count, version, _ = self._counts()
            yield (self.positions[:count], self.descriptors[:count],
                   self.point_ids[:count], version)

    def release(self) -> None:
        """Drop every view of the block (before it is unmapped)."""
        self.positions = self.descriptors = self.point_ids = None
        self._buf = None


class _LogShard:
    """One slice of the map: a lock, a record index and an append-only
    record log in one slab of the block; this object is one process's
    handle on it.

    The bump cursor, record count and compaction epoch live in the slab
    header, so every attachment allocates from the same state.  A new
    version of a record, or a tombstone, is appended; dead bytes stay
    until :meth:`compact`, which a full log also runs before it gives
    up.  ``records[kind]`` maps entity id to its payload's ``(offset,
    size)`` in the block: a process-local cache that :meth:`refresh`
    rebuilds from the log tail.  The shard keeps the store's sticky
    routing table (``home``) in step with it, so an id routes here
    exactly while it is indexed here.  Except for :meth:`sync`, callers
    hold :attr:`lock`: the write lock for :meth:`reserve`,
    :meth:`remove` and :meth:`compact`.
    """

    def __init__(self, index: int, buf: memoryview, layout: ShmMapLayout,
                 lock: RWLock, home: Dict[int, Dict[int, int]]) -> None:
        self.index = index
        self.buf = buf
        self.header_offset = layout.shard_offset(index)
        self.log_offset = self.header_offset + HEADER_BYTES
        self.log_capacity = layout.shard_log_capacity
        self.lock = lock.bind(buf, self.header_offset + _LOCK_WORD_OFFSET)
        self.records: Dict[int, Dict[int, tuple]] = {
            KIND_KEYFRAME: {}, KIND_MAPPOINT: {},
        }
        self._home = home
        self.writes = 0
        self.reads = 0
        self.scanned = 0          # log bytes this process has indexed
        self.epoch = 0            # compaction epoch our index reflects

    def _bind(self, kind: int, entity_id: int, entry: tuple) -> None:
        self.records[kind][entity_id] = entry
        self._home[kind][entity_id] = self.index

    def _drop(self, kind: int, entity_id: int) -> Optional[tuple]:
        self._home[kind].pop(entity_id, None)
        return self.records[kind].pop(entity_id, None)

    def _live(self) -> List[tuple]:
        """``(offset, size, kind, entity_id)`` of every indexed record,
        in ascending offset order — the order compaction rewrites in."""
        return sorted(
            (offset, size, kind, entity_id)
            for kind, index in self.records.items()
            for entity_id, (offset, size) in index.items()
        )

    def _counts(self) -> Tuple[int, int, int]:
        """``(bytes_used, n_records, version)`` from the slab header."""
        return _SLAB_COUNTS.unpack_from(self.buf, self.header_offset)

    def refresh(self) -> None:
        """Index log records appended since our last scan.

        Caller holds the shard's read or write lock, so ``bytes_used``
        is a stable cursor and every record before it is fully written.
        A compaction-epoch mismatch means another process rewrote the
        log under us: every cached offset is stale, so the local index
        is dropped and the (now shorter) log rescanned from the start.
        """
        buf = self.buf
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
        """:meth:`refresh` for a caller that holds no lock."""
        with self.lock.read():
            self.refresh()

    def _append(self, kind: int, entity_id: int, size: int) -> int:
        """Append one framed record under the held write lock (index
        refreshed); returns the payload's offset in the block.

        A full log is compacted first; only live records plus this one
        outgrowing the slab raise :class:`ArenaError`.
        """
        need = RECORD_FRAME.size + _align8(size)
        bytes_used, n_records, version = self._counts()
        if bytes_used + need > self.log_capacity:
            reclaimed = self.compact()
            if _metrics.enabled:
                _compactions_total.inc()
                _reclaimed_bytes.inc(reclaimed)
            bytes_used, n_records, version = self._counts()
            if bytes_used + need > self.log_capacity:
                raise ArenaError(
                    f"shard {self.index} arena exhausted: need {need} "
                    f"bytes, {self.log_capacity - bytes_used} free after "
                    f"compaction"
                )
        record = self.log_offset + bytes_used
        RECORD_FRAME.pack_into(self.buf, record, kind, 0, entity_id, size)
        _SLAB_COUNTS.pack_into(self.buf, self.header_offset,
                               bytes_used + need, n_records + 1, version + 1)
        self.scanned = bytes_used + need
        self.writes += 1
        return record + RECORD_FRAME.size

    def reserve(self, kind: int, entity_id: int, size: int) -> memoryview:
        """Make room for a new version of a record, superseding any old
        one, and return the payload bytes to pack it into."""
        payload = self._append(kind, entity_id, size)
        # The routing entry never lapses across an update: lock-free
        # routing lookups must never see a live entity as missing.
        self._bind(kind, entity_id, (payload, size))
        return self.buf[payload : payload + size]

    def lookup(self, kind: int, entity_id: int) -> Optional[memoryview]:
        """The record's payload bytes, or ``None`` if not indexed here."""
        entry = self.records[kind].get(entity_id)
        if entry is None:
            return None
        offset, size = entry
        return self.buf[offset : offset + size]

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
        buf = self.buf
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
        """Capacity / used bytes (live and dead) / records in the log."""
        bytes_used, n_records, _ = self._counts()
        return ArenaStats(capacity=self.log_capacity, allocated=bytes_used,
                          n_blocks=n_records, peak_allocated=bytes_used)
