"""Cross-process shared-memory tier: region lifetime, ProcessRWLock,
packed map, and the shm-backed sharded store driven from real processes.

The process-spawning tests are kept small (a few entities, short loops)
and skip gracefully where OS shared memory or multiprocessing
primitives are unavailable (some sandboxes mount no /dev/shm).
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.geometry import SE3
from repro.sharedmem import (
    ProcessRWLock,
    SharedMemoryRegion,
    ShmMapLayout,
    ShmShardedMapStore,
)
from repro.sharedmem.records import KIND_MAPPOINT
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from tests.test_sharedmem import LockSemantics


def _shm_available() -> bool:
    try:
        region = SharedMemoryRegion(size=64)
    except (OSError, PermissionError):
        return False
    region.close()
    region.unlink()
    return True


def _mp_ctx():
    """A context whose primitives work here, or None to skip."""
    for method in ("fork", "spawn"):
        try:
            ctx = mp.get_context(method)
            # Semaphores are the part most often missing in sandboxes.
            ctx.Condition()
            return ctx
        except (ValueError, OSError, ImportError):
            continue
    return None


shm_required = pytest.mark.skipif(
    not _shm_available(), reason="OS shared memory unavailable"
)


def make_keyframe(kf_id: int, center, n_features: int = 8) -> KeyFrame:
    rng = np.random.default_rng(kf_id)
    center = np.asarray(center, dtype=np.float64)
    point_ids = np.arange(kf_id * 100, kf_id * 100 + n_features,
                          dtype=np.int64)
    return KeyFrame(
        keyframe_id=kf_id,
        timestamp=float(kf_id),
        pose_cw=SE3(np.eye(3), -center),
        uv=rng.uniform(0, 640, (n_features, 2)),
        descriptors=rng.integers(0, 256, (n_features, 32), dtype=np.uint8),
        depths=rng.uniform(1, 10, n_features),
        point_ids=point_ids,
        bow_vector={int(w): float(rng.random())
                    for w in rng.integers(0, 512, 4)},
    )


def make_mappoint(point_id: int, position) -> MapPoint:
    rng = np.random.default_rng(point_id)
    return MapPoint(
        point_id=point_id,
        position=np.asarray(position, dtype=np.float64),
        descriptor=rng.integers(0, 256, 32, dtype=np.uint8),
        observations={0: 0},
    )


# ---------------------------------------------------------------- lifetime
@shm_required
class TestRegionLifetime:
    def test_close_and_unlink_are_idempotent(self):
        region = SharedMemoryRegion(size=256)
        assert region.owner
        region.close()
        region.close()          # second close: no-op, no raise
        assert region.closed
        region.unlink()
        region.unlink()         # second unlink: no-op, no raise

    def test_attacher_never_unlinks(self):
        owner = SharedMemoryRegion(size=256)
        owner.buffer[:4] = b"abcd"
        attached = SharedMemoryRegion(name=owner.name, create=False)
        assert not attached.owner
        assert bytes(attached.buffer[:4]) == b"abcd"
        attached.close()
        attached.unlink()       # no-op: segment must survive
        again = SharedMemoryRegion(name=owner.name, create=False)
        assert bytes(again.buffer[:4]) == b"abcd"
        again.close()
        owner.close()
        owner.unlink()

    def test_buffer_unusable_after_close(self):
        region = SharedMemoryRegion(size=64)
        region.close()
        with pytest.raises(ValueError):
            _ = region.buffer
        region.unlink()

    def test_context_manager_owner_cleans_up(self):
        with SharedMemoryRegion(size=128) as region:
            name = region.name
            region.buffer[0] = 7
        with pytest.raises(FileNotFoundError):
            SharedMemoryRegion(name=name, create=False)

    def test_arena_over_shm_buffer(self):
        with ShmShardedMapStore.create(n_shards=1, pack_capacity=16,
                                       shard_slab_bytes=4096) as store:
            shard = store.shards[0]
            with shard.lock.write():
                view = shard.reserve(KIND_MAPPOINT, 1, 100)
                view[:] = bytes(range(100))
            offset = shard.records[KIND_MAPPOINT][1][0]
            # The payload is in the segment itself: a plain second
            # attachment of the region sees the same bytes in place.
            region = SharedMemoryRegion(name=store.region.name, create=False)
            assert bytes(region.buffer[offset : offset + 100]) == bytes(range(100))
            # Release every exported view before the region unmaps.
            view.release()
            region.close()


# ------------------------------------------------------------- process lock
class TestProcessRWLockLocal(LockSemantics):
    make_lock = ProcessRWLock


# ---------------------------------------------------- cross-process helpers
def _hold_write(handle, hold_s, acquired, release):
    store = handle.attach()
    try:
        with store.pack.lock.write():
            acquired.set()
            release.wait(timeout=hold_s)
    finally:
        store.close()


def _pack_writer(handle, n_rounds, rows):
    store = handle.attach()
    try:
        for k in range(1, n_rounds + 1):
            store.pack.set_positions(
                np.arange(rows), np.full((rows, 3), float(k))
            )
    finally:
        store.close()


def _torn_read_probe(handle, rows, stop, failures):
    store = handle.attach()
    try:
        while not stop.is_set():
            with store.pack.read() as (pos, _desc, _ids, _version):
                block = pos[:rows].copy()
            if not (block == block[0, 0]).all():
                failures.put(block[:2].tolist())
                return
    finally:
        store.close()


def _publish_worker(handle, worker_id, n_keyframes):
    store = handle.attach()
    try:
        for i in range(n_keyframes):
            kf_id = worker_id * 1000 + i
            kf = make_keyframe(kf_id, center=(worker_id * 11.0, i * 9.0, 0.0))
            points = [
                make_mappoint(int(pid), (worker_id * 11.0, i * 9.0, j * 0.1))
                for j, pid in enumerate(kf.point_ids)
            ]
            store.publish_map([kf], points)
        # An ordered multi-shard transaction from each process: rewrite
        # this worker's first keyframe while holding a 3-shard span.
        first = make_keyframe(worker_id * 1000,
                              center=(worker_id * 11.0, 0.0, 0.0))
        target = store.shard_of_keyframe(first)
        span = sorted({(target + k) % store.n_shards for k in range(3)})
        with store.write_transaction(span):
            store._put_keyframe_locked(store.shards[target], first)
    finally:
        store.close()


@shm_required
class TestCrossProcess:
    @pytest.fixture()
    def ctx(self):
        ctx = _mp_ctx()
        if ctx is None:
            pytest.skip("no usable multiprocessing context")
        return ctx

    def _run(self, procs, timeout=60.0):
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=timeout)
            if p.is_alive():
                p.terminate()
                raise AssertionError("worker process hung")
            assert p.exitcode == 0

    def test_write_lock_excludes_other_process(self, ctx):
        store = ShmShardedMapStore.create(
            n_shards=2, pack_capacity=64, shard_slab_bytes=16 * 1024,
            ctx=ctx, lock_timeout_s=20.0,
        )
        try:
            acquired, release = ctx.Event(), ctx.Event()
            p = ctx.Process(target=_hold_write,
                            args=(store.handle(), 15.0, acquired, release))
            p.start()
            assert acquired.wait(timeout=20.0)
            # The child holds the pack write lock: reads must block.
            assert not store.pack.lock.acquire_read(timeout=0.2)
            release.set()
            assert store.pack.lock.acquire_read(timeout=20.0)
            store.pack.lock.release_read()
            p.join(timeout=20.0)
            assert p.exitcode == 0
        finally:
            store.close()
            store.unlink()

    def test_no_torn_reads_under_process_writer(self, ctx):
        rows = 64
        store = ShmShardedMapStore.create(
            n_shards=2, pack_capacity=rows, shard_slab_bytes=16 * 1024,
            ctx=ctx, lock_timeout_s=20.0,
        )
        try:
            store.pack.append(
                np.zeros((rows, 3)),
                np.zeros((rows, 32), dtype=np.uint8),
                np.arange(rows, dtype=np.int64),
            )
            stop, failures = ctx.Event(), ctx.Queue()
            writer = ctx.Process(target=_pack_writer,
                                 args=(store.handle(), 60, rows))
            reader = ctx.Process(target=_torn_read_probe,
                                 args=(store.handle(), rows, stop, failures))
            reader.start()
            writer.start()
            writer.join(timeout=60.0)
            stop.set()
            reader.join(timeout=60.0)
            assert writer.exitcode == 0
            assert reader.exitcode == 0
            assert failures.empty(), f"torn read: {failures.get()}"
            # The final state is the last writer round, everywhere.
            pos, _, _, version = store.pack.snapshot()
            assert (pos == 60.0).all()
            assert version >= 61  # initial append + 60 rounds
        finally:
            store.close()
            store.unlink()

    def test_two_processes_publish_and_transact(self, ctx):
        store = ShmShardedMapStore.create(
            n_shards=4, pack_capacity=64, shard_slab_bytes=64 * 1024,
            ctx=ctx, lock_timeout_s=30.0,
        )
        n_kf = 4
        try:
            procs = [
                ctx.Process(target=_publish_worker,
                            args=(store.handle(), w, n_kf))
                for w in range(2)
            ]
            self._run(procs)
            # Everything both processes wrote is visible here.
            kf_ids = set(store.keyframe_ids())
            expected = {w * 1000 + i for w in range(2) for i in range(n_kf)}
            assert kf_ids == expected
            stats = store.stats()
            assert stats.n_keyframes == 2 * n_kf
            assert stats.n_mappoints == 2 * n_kf * 8
            for w in range(2):
                kf = store.get_keyframe(w * 1000)
                assert kf is not None
                np.testing.assert_allclose(kf.camera_center(),
                                           (w * 11.0, 0.0, 0.0))
            for pid in (0, 1001 * 100):
                # worker 0 kf 0 points start at 0; worker 1 kf 1 at 100100
                assert store.get_mappoint(pid) is not None
        finally:
            store.close()
            store.unlink()


# ------------------------------------------------------- same-process store
@shm_required
class TestShmStoreSingleProcess:
    def test_attach_sees_owner_writes(self):
        store = ShmShardedMapStore.create(
            n_shards=2, pack_capacity=32, shard_slab_bytes=32 * 1024,
        )
        try:
            kf = make_keyframe(5, center=(1.0, 2.0, 3.0))
            store.put_keyframe(kf)
            other = ShmShardedMapStore.attach(store.handle())
            got = other.get_keyframe(5)
            assert got is not None
            np.testing.assert_allclose(got.camera_center(), (1.0, 2.0, 3.0))
            np.testing.assert_array_equal(got.descriptors, kf.descriptors)
            # Sticky routing agrees across attachments.
            assert other.shard_of_keyframe(kf) == store.shard_of_keyframe(kf)
            other.close()       # closing an attachment leaves the owner live
            assert store.get_keyframe(5) is not None
        finally:
            store.close()
            store.unlink()

    def test_remove_tombstones_propagate(self):
        store = ShmShardedMapStore.create(
            n_shards=2, pack_capacity=32, shard_slab_bytes=32 * 1024,
        )
        try:
            other = ShmShardedMapStore.attach(store.handle())
            store.put_mappoint(make_mappoint(77, (0.5, 0.5, 0.5)))
            assert other.get_mappoint(77) is not None
            store.remove_mappoint(77)
            assert other.get_mappoint(77) is None
            assert store.stats().n_mappoints == 0
            other.close()
        finally:
            store.close()
            store.unlink()

    def test_store_fold_metrics(self):
        store = ShmShardedMapStore.create(
            n_shards=2, pack_capacity=32, shard_slab_bytes=32 * 1024,
        )
        try:
            worker = ShmShardedMapStore.attach(store.handle())
            worker.put_keyframe(make_keyframe(1, center=(0, 0, 0)))
            snap = worker.metrics_snapshot()
            assert sum(s["write_acquisitions"] for s in snap["shards"]) == 1
            before = sum(s.lock.write_acquisitions for s in store.shards)
            store.fold_metrics(snap)
            after = sum(s.lock.write_acquisitions for s in store.shards)
            assert after == before + 1
            worker.close()
        finally:
            store.close()
            store.unlink()

    def test_layout_header_roundtrip(self):
        layout = ShmMapLayout(n_shards=4, pack_capacity=128,
                              shard_slab_bytes=32 * 1024, region_size=5.0)
        with SharedMemoryRegion(size=layout.total_bytes) as region:
            layout.write_global_header(region.buffer)
            parsed = ShmMapLayout.from_global_header(region.buffer)
            assert parsed == layout


# ------------------------------------------------------------- orchestrator
@shm_required
class TestServingOrchestrator:
    @pytest.fixture()
    def cfg(self):
        from repro.core.orchestrator import ServingWorkloadConfig

        ctx = _mp_ctx()
        if ctx is None:
            pytest.skip("no usable multiprocessing context")
        return ServingWorkloadConfig(
            n_points=300, n_frames=8, features_per_frame=48,
            reloc_candidates=60, pack_capacity=2048,
            shard_slab_bytes=256 * 1024, publish_every=3, merge_every=6,
            start_method=ctx.get_start_method(),
        )

    def test_thread_and_process_modes_agree(self, cfg):
        from repro.core.orchestrator import ServingOrchestrator

        reports = {
            mode: ServingOrchestrator(2, cfg, mode=mode).run()
            for mode in ("thread", "process")
        }
        for mode, rep in reports.items():
            assert rep.frames == 2 * cfg.n_frames, mode
            assert rep.matches > 0, mode
            assert len(rep.per_worker) == 2, mode
        # Identical deterministic workload => identical work and map.
        t, p = reports["thread"], reports["process"]
        assert t.matches == p.matches
        assert t.publishes == p.publishes
        assert t.store == p.store
