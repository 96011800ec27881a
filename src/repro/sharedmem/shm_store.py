"""True shared-memory map tier: one segment, N attached processes.

This module backs the map store with a real
``multiprocessing.shared_memory`` segment so separate OS processes —
not threads under the GIL — read and write the global map zero-copy,
the deployment the paper actually describes (§4.3.2: the orchestrator
allocates the region, each per-client server process "searches and
attaches the shared memory buffer to its own virtual address space").

The segment holds the same arena layout as every store
(:mod:`repro.sharedmem.arena`: header, map pack, one record log per
spatial shard), so :class:`ShmShardedMapStore` is the
:class:`~repro.sharedmem.sharding.ShardedMapStore` body over a named
segment instead of an anonymous mapping.  Each shard and the pack are
guarded by a :class:`~repro.sharedmem.rwlock.ProcessRWLock` whose lock
word sits in the corresponding header.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .arena import ShmMapLayout
from .rwlock import ProcessRWLock
from .sharding import ShardedMapStore, _check_shape
from .shm_backend import SharedMemoryRegion


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
                 shard_locks: Sequence[ProcessRWLock]) -> None:
        self.region = region
        self._open(region, region.buffer, layout, pack_lock, shard_locks)

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
        layout.format(region.buffer)   # segments arrive zero-filled
        pack_lock = ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
        shard_locks = [
            ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
            for _ in range(n_shards)
        ]
        return cls(region, layout, pack_lock, shard_locks)

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
                   [lk.clone() for lk in handle.shard_locks])

    def handle(self) -> ShmStoreHandle:
        return ShmStoreHandle(
            segment_name=self.region.name,
            layout=self.layout,
            pack_lock=self.pack.lock,
            shard_locks=[s.lock for s in self.shards],
        )

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
