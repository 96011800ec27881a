"""The shared-memory global map store (paper §4.3.2), spatially sharded.

One store holds every keyframe and map-point record of the global map.
Per-client server processes write their updates directly into it (no
serialization, no copies between processes) and the merge process reads
them in place.  A write-preferring readers-writer lock serializes
writers while letting all clients read concurrently, mirroring the
Boost named-sharable-mutex scheme.

A single lock over the whole map is correct but serializes every map
publish against every reader once tens of per-client server processes
hammer it.  :class:`ShardedMapStore` therefore splits the map into
``n_shards`` shards, each with its own :class:`RWLock`, and routes every
entity to a shard by the *spatial region* it lives in (keyframes by
camera center, map points by position).  SLAM access is spatially local
— a tracking process reads the region its client is looking at — so
most operations touch exactly one shard and proceed in parallel with
publishes to other regions.  ``n_shards=1`` is the unsharded store.

Cross-shard operations (an Alg.-2 merge rewrites entities spread over
several regions, and a publish batch may straddle a region boundary)
acquire every involved shard's write lock in **ascending shard order**
before touching any payload, which makes the multi-lock acquisition
deadlock-free regardless of how merges and publishes interleave.

Shard assignment hashes the entity's grid cell (cell edge =
``region_size`` metres) with the classic 3-D spatial hash primes, so
the mapping is deterministic across processes and runs.  Assignment is
*sticky*: once an entity lands in a shard, updates stay there even if
bundle adjustment nudges its position across a cell boundary — readers
never race a record migrating between shards.

Routing, locking order, publish, compaction scheduling and stats are
this module's one store body.  Where the bytes live and how they are
allocated is a shard's business (:class:`_Shard`): here a free-list
:class:`Arena` over a ``bytearray``; in :mod:`repro.sharedmem.shm_store`
a record log inside an OS shared-memory segment.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..obs import get_metrics, get_tracer
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from .arena import Arena, ArenaStats
from .records import (
    KIND_KEYFRAME,
    KIND_MAPPOINT,
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from .rwlock import RWLock

DEFAULT_CAPACITY = 256 * 1024 * 1024  # scaled-down 2 GB region

_tracer = get_tracer()
_metrics = get_metrics()
_publishes_total = _metrics.counter(
    "sharedmem.publishes", "map-update batches published"
)
_publish_bytes = _metrics.counter(
    "sharedmem.publish_bytes", "bytes written by map publishes"
)
_publish_hist = _metrics.histogram(
    "sharedmem.publish_ms", "publish_map wall time", unit="ms"
)
_multi_shard_writes = _metrics.counter(
    "sharedmem.multi_shard_writes", "publishes spanning more than one shard"
)
_shards_per_write = _metrics.histogram(
    "sharedmem.shards_per_write", "write-locked shards per publish batch"
)
_compactions_total = _metrics.counter(
    "sharedmem.compactions", "store compaction passes"
)
_reclaimed_bytes = _metrics.counter(
    "sharedmem.reclaimed_bytes", "bytes reclaimed by store compaction"
)


@dataclass
class StoreStats:
    n_keyframes: int
    n_mappoints: int
    arena: ArenaStats
    writes: int
    reads: int


def spatial_shard(position, region_size: float, n_shards: int) -> int:
    """Deterministic shard index for a 3-D position.

    Grid-cell hash with the canonical spatial-hashing primes; stable
    across interpreter runs and processes (no ``PYTHONHASHSEED``
    dependence), which matters because every attached process must
    agree on where a region lives.
    """
    inv = 1.0 / region_size
    cx = math.floor(float(position[0]) * inv)
    cy = math.floor(float(position[1]) * inv)
    cz = math.floor(float(position[2]) * inv)
    h = (cx * 73856093) ^ (cy * 19349663) ^ (cz * 83492791)
    return (h & 0x7FFFFFFF) % n_shards


def _check_shape(n_shards: int, region_size: float) -> None:
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if region_size <= 0:
        raise ValueError("region_size must be positive")


def _new_home() -> Dict[int, Dict[int, int]]:
    """Sticky routing table of one store: kind -> entity id -> shard."""
    return {KIND_KEYFRAME: {}, KIND_MAPPOINT: {}}


class _Shard:
    """One slice of the map: a lock, a record index, an allocator.

    This is everything the store body knows about where records live.
    ``records[kind]`` maps entity id to the allocator's ``(offset,
    size)``; the shard keeps the store's sticky routing table (``home``)
    in step with it, so an id routes here exactly while it is indexed
    here.  Except for :meth:`sync`, callers hold :attr:`lock` — the
    write lock for :meth:`reserve`, :meth:`remove` and :meth:`compact`.
    """

    def __init__(self, index: int, lock: RWLock,
                 home: Dict[int, Dict[int, int]]) -> None:
        self.index = index
        self.lock = lock
        self.records: Dict[int, Dict[int, tuple]] = {
            KIND_KEYFRAME: {}, KIND_MAPPOINT: {},
        }
        self._home = home
        self.writes = 0
        self.reads = 0

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

    def refresh(self) -> None:
        """Bring the index up to date with what other attachments of
        the same memory wrote.  Nobody else writes a private arena."""

    def sync(self) -> None:
        """:meth:`refresh` for a caller that holds no lock."""

    def reserve(self, kind: int, entity_id: int, size: int) -> memoryview:
        """Make room for a new version of a record, superseding any old
        one, and return the payload bytes to pack it into."""
        raise NotImplementedError

    def lookup(self, kind: int, entity_id: int) -> Optional[memoryview]:
        """The record's payload bytes, or ``None`` if not indexed here."""
        raise NotImplementedError

    def remove(self, kind: int, entity_id: int) -> None:
        raise NotImplementedError

    def compact(self) -> int:
        """Pack the live records together in place; returns the bytes
        of contiguous space won."""
        raise NotImplementedError

    def arena_stats(self) -> ArenaStats:
        """Capacity / used bytes / record count of this shard's memory."""
        raise NotImplementedError


class _ArenaShard(_Shard):
    """Shard over a process-private buffer with a free-list allocator.

    Superseded and removed records return their block to the free list
    at once, so the arena holds live bytes only and compaction is pure
    defragmentation.
    """

    def __init__(self, index: int, buffer,
                 home: Dict[int, Dict[int, int]]) -> None:
        super().__init__(index, RWLock(), home)
        self.arena = Arena(buffer)

    def reserve(self, kind: int, entity_id: int, size: int) -> memoryview:
        # The routing entry stays put across an update: lock-free
        # routing lookups must never see a live entity as missing.
        old = self.records[kind].pop(entity_id, None)
        if old is not None:
            self.arena.free(old[0])
        offset = self.arena.alloc(size)
        self._bind(kind, entity_id, (offset, size))
        self.writes += 1
        return self.arena.view(offset, size)

    def lookup(self, kind: int, entity_id: int) -> Optional[memoryview]:
        entry = self.records[kind].get(entity_id)
        return None if entry is None else self.arena.view(*entry)

    def remove(self, kind: int, entity_id: int) -> None:
        entry = self._drop(kind, entity_id)
        if entry is not None:
            self.arena.free(entry[0])

    def compact(self) -> int:
        """Live records slide to the front of the buffer in ascending
        offset order, which coalesces every fragmentation hole the
        first-fit free list accumulated into one tail block.  Every new
        offset is <= the old one and each payload is copied out before
        it is rewritten, so no unread source is clobbered.  Returns the
        growth of the largest contiguous free span."""
        before = self.arena.largest_free()
        fresh = Arena(self.arena.buffer)
        for offset, size, kind, entity_id in self._live():
            new_offset = fresh.alloc(size)
            if new_offset != offset:
                fresh.view(new_offset, size)[:] = bytes(
                    self.arena.view(offset, size)
                )
                self.records[kind][entity_id] = (new_offset, size)
        self.arena = fresh
        return max(0, fresh.largest_free() - before)

    def arena_stats(self) -> ArenaStats:
        return self.arena.stats()


class ShardedMapStore:
    """Region-sharded store of the global map's records.

    put/get/remove, ``publish_map``, ``stats``, shard introspection and
    the ordered multi-shard write transaction used by merges.
    """

    def __init__(
        self,
        n_shards: int = 8,
        capacity: int = DEFAULT_CAPACITY,
        region_size: float = 8.0,
    ) -> None:
        _check_shape(n_shards, region_size)
        per_shard = max(capacity // n_shards, 1024)
        home = _new_home()
        self._adopt(
            [_ArenaShard(i, bytearray(per_shard), home)
             for i in range(n_shards)],
            home, region_size,
        )

    def _adopt(self, shards: List[_Shard], home: Dict[int, Dict[int, int]],
               region_size: float) -> None:
        self.shards = shards
        self.n_shards = len(shards)
        self.region_size = region_size
        # Sticky routing: entity id -> shard index, maintained by the
        # shards as they index records.  Mutated only while holding the
        # target shard's lock; lookups are plain dict reads (atomic
        # under the GIL) — process-local metadata beside the shared
        # payload bytes.
        self._home = home
        self._kf_shard = home[KIND_KEYFRAME]
        self._mp_shard = home[KIND_MAPPOINT]

    def close(self) -> None:
        """Release what the store holds outside this process's heap
        (nothing, for private arenas)."""

    # ----------------------------------------------------------- routing
    def shard_of_keyframe(self, kf: KeyFrame) -> int:
        sticky = self._kf_shard.get(kf.keyframe_id)
        if sticky is not None:
            return sticky
        return spatial_shard(kf.camera_center(), self.region_size,
                             self.n_shards)

    def shard_of_mappoint(self, point: MapPoint) -> int:
        sticky = self._mp_shard.get(point.point_id)
        if sticky is not None:
            return sticky
        return spatial_shard(point.position, self.region_size, self.n_shards)

    def _sync(self) -> None:
        for shard in self.shards:
            shard.sync()

    def _locate(self, kind: int, entity_id: int) -> Optional[_Shard]:
        """The shard an existing entity lives in, looking once more
        after a sync before calling it a miss."""
        home = self._home[kind]
        idx = home.get(entity_id)
        if idx is None:
            self._sync()
            idx = home.get(entity_id)
            if idx is None:
                return None
        return self.shards[idx]

    # ------------------------------------------------- ordered write lock
    @contextmanager
    def write_transaction(self, shard_indices: Sequence[int], trace=None):
        """Hold the write locks of ``shard_indices``, acquired in
        ascending shard order — the same global order every thread and
        every attached process uses, which makes interleaved multi-shard
        writers deadlock-free.

        ``trace`` (a frame's :class:`~repro.obs.TraceContext`) attaches
        the acquisition as a ``sharedmem.lock_wait`` wall span to that
        frame's lifecycle, so contended shard locks show up in the
        per-frame waterfall.
        """
        ordered = sorted(set(shard_indices))
        acquired: List[_Shard] = []
        try:
            with _tracer.child_span(
                trace, "sharedmem.lock_wait", n_shards=len(ordered)
            ):
                for idx in ordered:
                    shard = self.shards[idx]
                    if not shard.lock.acquire_write():
                        raise RuntimeError(f"write lock timeout on shard {idx}")
                    acquired.append(shard)
            for shard in acquired:
                shard.refresh()
            yield ordered
        finally:
            for shard in reversed(acquired):
                shard.lock.release_write()

    # ------------------------------------------------------------- writes
    def _put_keyframe_locked(self, shard: _Shard, kf: KeyFrame) -> int:
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        write_keyframe_record(
            shard.reserve(KIND_KEYFRAME, kf.keyframe_id, size), kf
        )
        return size

    def _put_mappoint_locked(self, shard: _Shard, point: MapPoint) -> int:
        size = mappoint_record_size(len(point.observations))
        write_mappoint_record(
            shard.reserve(KIND_MAPPOINT, point.point_id, size), point
        )
        return size

    def _put(self, kind: int, entity_id: int, idx: int, put_locked,
             entity) -> int:
        while True:
            shard = self.shards[idx]
            with shard.lock.write():
                shard.refresh()
                # Another attachment may have created it elsewhere first.
                owner = self._home[kind].get(entity_id, idx)
                if owner == idx:
                    put_locked(shard, entity)
                    return idx
            idx = owner

    def put_keyframe(self, kf: KeyFrame) -> int:
        """Insert or update a keyframe record; returns its shard."""
        return self._put(KIND_KEYFRAME, kf.keyframe_id,
                         self.shard_of_keyframe(kf),
                         self._put_keyframe_locked, kf)

    def put_mappoint(self, point: MapPoint) -> int:
        return self._put(KIND_MAPPOINT, point.point_id,
                         self.shard_of_mappoint(point),
                         self._put_mappoint_locked, point)

    def _remove(self, kind: int, entity_id: int) -> None:
        shard = self._locate(kind, entity_id)
        if shard is None:
            return
        with shard.lock.write():
            shard.refresh()
            shard.remove(kind, entity_id)

    def remove_keyframe(self, keyframe_id: int) -> None:
        self._remove(KIND_KEYFRAME, keyframe_id)

    def remove_mappoint(self, point_id: int) -> None:
        self._remove(KIND_MAPPOINT, point_id)

    # -------------------------------------------------------------- reads
    def _get(self, kind: int, entity_id: int, read_record):
        shard = self._locate(kind, entity_id)
        if shard is None:
            return None
        with shard.lock.read():
            shard.refresh()
            view = shard.lookup(kind, entity_id)
            if view is None:
                return None
            shard.reads += 1
            return read_record(view)

    def get_keyframe(self, keyframe_id: int) -> Optional[KeyFrame]:
        return self._get(KIND_KEYFRAME, keyframe_id, read_keyframe_record)

    def get_mappoint(self, point_id: int) -> Optional[MapPoint]:
        return self._get(KIND_MAPPOINT, point_id, read_mappoint_record)

    def keyframe_ids(self) -> List[int]:
        self._sync()
        return sorted(self._kf_shard)

    def mappoint_ids(self) -> List[int]:
        self._sync()
        return sorted(self._mp_shard)

    def iter_keyframes(self) -> Iterator[KeyFrame]:
        for kf_id in self.keyframe_ids():
            kf = self.get_keyframe(kf_id)
            if kf is not None:
                yield kf

    # ---------------------------------------------------------- bulk sync
    def publish_map(self, keyframes, mappoints, trace=None) -> int:
        """Write one client's map-update batch; returns bytes written.

        This is the SLAM-Share 'map update' operation — contrast with
        the baseline, which must serialize the same entities, ship them
        and rebuild them.  Entities are grouped by destination shard;
        all involved shards are write-locked together (ascending order)
        so the batch lands atomically with respect to other multi-shard
        writers — this is the same locking discipline an Alg.-2 merge
        uses.  ``trace`` joins the publish (and its nested lock wait)
        to a frame's lifecycle trace.
        """
        observe = _metrics.enabled
        t0 = time.perf_counter_ns() if observe else 0
        keyframes = list(keyframes)
        mappoints = list(mappoints)
        by_shard: Dict[int, tuple] = {}
        for kf in keyframes:
            by_shard.setdefault(self.shard_of_keyframe(kf), ([], []))[0].append(kf)
        for point in mappoints:
            by_shard.setdefault(self.shard_of_mappoint(point), ([], []))[1].append(point)
        if not by_shard:
            return 0
        total = 0
        with _tracer.child_span(trace, "sharedmem.publish") as span:
            with self.write_transaction(list(by_shard)) as ordered:
                for idx in ordered:
                    shard = self.shards[idx]
                    kfs, points = by_shard[idx]
                    for kf in kfs:
                        total += self._put_keyframe_locked(shard, kf)
                    for point in points:
                        total += self._put_mappoint_locked(shard, point)
            span.set(bytes=total, n_keyframes=len(keyframes),
                     n_mappoints=len(mappoints), n_shards=len(by_shard))
        if observe:
            _publishes_total.inc()
            _publish_bytes.inc(total)
            _publish_hist.record((time.perf_counter_ns() - t0) / 1e6)
            _shards_per_write.record(len(by_shard))
            if len(by_shard) > 1:
                _multi_shard_writes.inc()
        return total

    # --------------------------------------------------------- compaction
    def compact(self, shard_indices: Optional[Sequence[int]] = None,
                trace=None) -> int:
        """Compact shards under the ordered write transaction.

        Returns the bytes reclaimed across all compacted shards and
        bumps the ``sharedmem.compactions`` /
        ``sharedmem.reclaimed_bytes`` counters.
        """
        indices = (list(range(self.n_shards)) if shard_indices is None
                   else list(shard_indices))
        reclaimed = 0
        with self.write_transaction(indices, trace=trace) as ordered:
            for idx in ordered:
                reclaimed += self.shards[idx].compact()
        if _metrics.enabled:
            _compactions_total.inc()
            _reclaimed_bytes.inc(reclaimed)
        return reclaimed

    def maybe_compact(self, utilization: float = 0.6, trace=None) -> int:
        """Compact every shard whose memory crossed ``utilization``.

        The occupancy probe is lock-free (a racy hint is fine — the
        compaction itself runs under the write transaction); returns 0
        when no shard is due.
        """
        due = [
            shard.index
            for shard in self.shards
            if shard.arena_stats().utilization >= utilization
        ]
        if not due:
            return 0
        return self.compact(due, trace=trace)

    # ------------------------------------------------------------- stats
    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-shard occupancy and lock-wait totals (for load reports)."""
        rows = []
        for shard in self.shards:
            with shard.lock.read():
                shard.refresh()
                arena = shard.arena_stats()
                rows.append({
                    "shard": shard.index,
                    "n_keyframes": len(shard.records[KIND_KEYFRAME]),
                    "n_mappoints": len(shard.records[KIND_MAPPOINT]),
                    # live payload only: the same on every backend,
                    # unlike ``allocated`` (an append-only log keeps
                    # superseded versions until compaction)
                    "record_bytes": sum(
                        size for index in shard.records.values()
                        for _, size in index.values()),
                    "capacity": arena.capacity,
                    "allocated": arena.allocated,
                    "n_blocks": arena.n_blocks,
                    "peak_allocated": arena.peak_allocated,
                    "writes": shard.writes,
                    "reads": shard.reads,
                    "read_wait_ns": shard.lock.read_wait_ns,
                    "write_wait_ns": shard.lock.write_wait_ns,
                })
        return rows

    def stats(self) -> StoreStats:
        """The whole store's totals: :meth:`shard_stats` summed."""
        rows = self.shard_stats()

        def total(key: str) -> int:
            return sum(row[key] for row in rows)

        return StoreStats(
            n_keyframes=total("n_keyframes"),
            n_mappoints=total("n_mappoints"),
            arena=ArenaStats(
                capacity=total("capacity"),
                allocated=total("allocated"),
                n_blocks=total("n_blocks"),
                peak_allocated=total("peak_allocated"),
            ),
            writes=total("writes"),
            reads=total("reads"),
        )


class SharedMapStore(ShardedMapStore):
    """The unsharded store: one shard, optionally over a caller's
    buffer (e.g. a :class:`~repro.sharedmem.SharedMemoryRegion`'s)."""

    def __init__(self, buffer=None, capacity: int = DEFAULT_CAPACITY) -> None:
        home = _new_home()
        if buffer is None:
            buffer = bytearray(capacity)
        self._adopt([_ArenaShard(0, buffer, home)], home, region_size=8.0)
