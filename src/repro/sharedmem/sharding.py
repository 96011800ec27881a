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
this module's one store body, over one shard format: the record logs
of :mod:`repro.sharedmem.arena`.  ``ShardedMapStore(...)`` lays them out
in an anonymous mapping of its own, with thread-tier locks;
:class:`~repro.sharedmem.shm_store.ShmShardedMapStore` lays out the same
bytes in a named segment that other processes attach.
"""

from __future__ import annotations

import math
import mmap
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..obs import get_metrics, get_tracer
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from .arena import (
    ArenaStats,
    SharedMapPack,
    ShmMapLayout,
    _align8,
    _compactions_total,
    _LogShard,
    _reclaimed_bytes,
)
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


class ShardedMapStore:
    """Region-sharded store of the global map's records.

    put/get/remove, ``publish_map``, ``stats``, shard introspection and
    the ordered multi-shard write transaction used by merges.  Built
    directly, the store lays its arena out in an anonymous mapping of
    ``capacity`` bytes split into ``n_shards`` slabs, with
    ``threading`` locks; only the pages records land on become resident.
    """

    def __init__(
        self,
        n_shards: int = 8,
        capacity: int = DEFAULT_CAPACITY,
        region_size: float = 8.0,
    ) -> None:
        _check_shape(n_shards, region_size)
        layout = ShmMapLayout(
            n_shards=n_shards, region_size=region_size,
            shard_slab_bytes=_align8(max(capacity // n_shards, 1024)),
        )
        memory = mmap.mmap(-1, layout.total_bytes)
        layout.format(memory)
        self._open(memory, memoryview(memory), layout, RWLock(),
                   [RWLock() for _ in range(n_shards)])

    def _open(self, memory, buf: memoryview, layout: ShmMapLayout,
              pack_lock: RWLock, shard_locks: Sequence[RWLock]) -> None:
        """Take ``buf`` (the bytes of ``memory``, formatted as ``layout``)
        as this store's arena, binding each lock to its lock word.
        ``memory`` (an ``mmap`` or a :class:`SharedMemoryRegion`) is what
        :meth:`close` unmaps."""
        if len(shard_locks) != layout.n_shards:
            raise ValueError("one lock per shard required")
        self._memory = memory
        self.layout = layout
        self.n_shards = layout.n_shards
        self.region_size = layout.region_size
        self.pack = SharedMapPack(buf, layout, pack_lock)
        # Sticky routing: entity id -> shard index, maintained by the
        # shards as they index records.  Mutated only while holding the
        # target shard's lock; lookups are plain dict reads (atomic
        # under the GIL) — process-local metadata beside the shared
        # payload bytes.
        self._home = {KIND_KEYFRAME: {}, KIND_MAPPOINT: {}}
        self._kf_shard = self._home[KIND_KEYFRAME]
        self._mp_shard = self._home[KIND_MAPPOINT]
        self.shards = [_LogShard(i, buf, layout, lock, self._home)
                       for i, lock in enumerate(shard_locks)]

    def close(self) -> None:
        """Detach: drop the numpy and lock views, then the mapping.

        Closing one attachment of a named segment leaves the others
        live; a view still held elsewhere keeps the mapping until it is
        collected.
        """
        self.pack.lock.unbind()
        self.pack.release()
        for shard in self.shards:
            shard.lock.unbind()
            shard.buf = None
        try:
            self._memory.close()
        except BufferError:
            pass

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

    def _locate(self, kind: int, entity_id: int) -> Optional[_LogShard]:
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
        acquired: List[_LogShard] = []
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
    def _put_keyframe_locked(self, shard: _LogShard, kf: KeyFrame) -> int:
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        write_keyframe_record(
            shard.reserve(KIND_KEYFRAME, kf.keyframe_id, size), kf
        )
        return size

    def _put_mappoint_locked(self, shard: _LogShard, point: MapPoint) -> int:
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
        ``sharedmem.reclaimed_bytes`` counters, as a log that fills up
        does when it compacts itself.
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
                    # live payload only, unlike ``allocated`` (the
                    # log keeps superseded versions until compaction)
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
