"""Tests for the shard record log, RW lock, records and map store."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharedmem import (
    ArenaError,
    RWLock,
    ShardedMapStore,
    SharedMemoryRegion,
    ShmShardedMapStore,
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from repro.sharedmem.arena import HEADER_BYTES
from repro.sharedmem.records import KIND_MAPPOINT, RECORD_FRAME
from tests.test_net_serialization_transport import make_map


def _log_shard(capacity=1024):
    """The one shard of a store whose record log holds ``capacity``
    bytes (at least 960: the store's smallest slab is 1 KiB)."""
    store = ShardedMapStore(n_shards=1, capacity=HEADER_BYTES + capacity)
    return store.shards[0]


def _reserve(shard, entity_id, size):
    with shard.lock.write():
        shard.reserve(KIND_MAPPOINT, entity_id, size)
    return shard.records[KIND_MAPPOINT][entity_id][0]


def _remove(shard, entity_id):
    with shard.lock.write():
        shard.remove(KIND_MAPPOINT, entity_id)


def _compact(shard):
    with shard.lock.write():
        return shard.compact()


def _frame(size):
    """Log bytes one record of ``size`` payload bytes takes."""
    return RECORD_FRAME.size + (size + 7) // 8 * 8


class TestArena:
    """The shard record log, the only allocator a store has."""

    def test_alloc_returns_disjoint_ranges(self):
        shard = _log_shard()
        a = _reserve(shard, 1, 100)
        b = _reserve(shard, 2, 100)
        assert a != b
        assert abs(a - b) >= 100

    def test_alignment(self):
        shard = _log_shard()
        a = _reserve(shard, 1, 3)
        b = _reserve(shard, 2, 3)
        assert a % 8 == 0 and b % 8 == 0

    def test_exhaustion_raises(self):
        # Live records plus the new one outgrow the log: compaction has
        # nothing to win, so the append fails and leaves the log as it was.
        shard = _log_shard(capacity=2 * _frame(480) + _frame(8))
        _reserve(shard, 1, 480)
        _reserve(shard, 2, 480)
        before = shard.arena_stats()
        with pytest.raises(ArenaError):
            _reserve(shard, 3, 480)
        assert shard.arena_stats() == before
        assert sorted(shard.records[KIND_MAPPOINT]) == [1, 2]

    def test_free_allows_reuse(self):
        # A removed record's bytes come back once the full log compacts.
        shard = _log_shard(capacity=_frame(960) + RECORD_FRAME.size)
        a = _reserve(shard, 1, 960)
        _remove(shard, 1)
        assert _reserve(shard, 2, 960) == a

    def test_coalescing(self):
        shard = _log_shard()
        _reserve(shard, 1, 32)
        _reserve(shard, 2, 32)
        _reserve(shard, 3, 32)
        _remove(shard, 1)
        _remove(shard, 2)
        # Both dead records and their tombstones close into one run.
        assert _compact(shard) == 2 * _frame(32) + 2 * RECORD_FRAME.size
        assert shard.arena_stats().allocated == _frame(32)
        assert shard.records[KIND_MAPPOINT][3][0] == (
            shard.log_offset + RECORD_FRAME.size)

    def test_double_free_raises(self):
        # Removing what is not indexed appends no second tombstone.
        shard = _log_shard()
        _reserve(shard, 1, 16)
        _remove(shard, 1)
        before = shard.arena_stats()
        _remove(shard, 1)
        assert shard.arena_stats() == before
        with shard.lock.read():
            assert shard.lookup(KIND_MAPPOINT, 1) is None

    def test_view_roundtrip(self):
        shard = _log_shard()
        with shard.lock.write():
            view = shard.reserve(KIND_MAPPOINT, 1, 16)
            view[:4] = b"abcd"
        with shard.lock.read():
            assert bytes(shard.lookup(KIND_MAPPOINT, 1)[:4]) == b"abcd"

    def test_view_out_of_range(self):
        # A record larger than the whole log never fits, even when empty.
        shard = _log_shard()
        with pytest.raises(ArenaError):
            _reserve(shard, 1, 1024)
        assert shard.arena_stats().allocated == 0

    def test_stats(self):
        shard = _log_shard()
        _reserve(shard, 1, 100)
        stats = shard.arena_stats()
        assert stats.allocated == RECORD_FRAME.size + 104  # aligned
        assert stats.n_blocks == 1
        assert 0 < stats.utilization < 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ShardedMapStore(n_shards=0)
        with pytest.raises(ValueError):
            ShardedMapStore(region_size=0.0)

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_alloc_free_all_restores_capacity(self, sizes):
        shard = _log_shard(capacity=8192)
        for entity_id, size in enumerate(sizes):
            _reserve(shard, entity_id, size)
        for entity_id in range(len(sizes)):
            _remove(shard, entity_id)
        _compact(shard)
        assert shard.arena_stats().allocated == 0
        # The whole log is one free run again.
        assert _reserve(shard, 0, 8192 - RECORD_FRAME.size) == (
            shard.log_offset + RECORD_FRAME.size)


class LockSemantics:
    """The write-preferring RW-lock contract, once.

    Subclasses pick the condition kind through ``make_lock``:
    ``TestRWLock`` here (``threading.Condition``) and
    ``TestProcessRWLockLocal`` in ``test_shm_multiproc.py``
    (``multiprocessing.Condition``) run this same body.
    """

    make_lock = None

    def _await_queued_writer(self, lock):
        """Spin until a writer is queued behind the caller's read hold:
        write preference then refuses even a non-blocking read."""
        deadline = time.monotonic() + 2.0
        while lock.acquire_read(timeout=0):
            lock.release_read()
            assert time.monotonic() < deadline, "writer never queued"
            time.sleep(0.005)

    def test_concurrent_readers(self):
        lock = self.make_lock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        assert lock.active_readers == 2
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = self.make_lock()
        with lock.write():
            assert not lock.acquire_read(timeout=0.05)

    def test_reader_blocks_writer(self):
        lock = self.make_lock()
        with lock.read():
            assert not lock.acquire_write(timeout=0.05)

    def test_read_write_semantics(self):
        lock = self.make_lock()
        assert lock.acquire_read()
        assert lock.active_readers == 1
        assert not lock.acquire_write(timeout=0.05)
        lock.release_read()
        assert lock.acquire_write()
        assert lock.writer_active
        assert not lock.acquire_read(timeout=0.05)
        lock.release_write()

    def test_writer_preference(self):
        lock = self.make_lock()
        results = []
        lock.acquire_read()

        def writer():
            with lock.write():
                results.append("w")

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        # Writer is waiting: new readers must block behind it.
        assert not lock.acquire_read(timeout=0.05)
        lock.release_read()
        t.join(timeout=1)
        assert results == ["w"]

    def test_writer_preference_blocks_new_readers(self):
        lock = self.make_lock()
        assert lock.acquire_read()
        state = {"acquired": False}

        def writer():
            assert lock.acquire_write(timeout=5.0)
            state["acquired"] = True
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        self._await_queued_writer(lock)
        # A new reader must now be refused (write preference).
        assert not lock.acquire_read(timeout=0.05)
        lock.release_read()
        t.join(timeout=5.0)
        assert state["acquired"]

    def test_timed_out_writer_wakes_gated_readers(self):
        """Reader A holds; a writer queues and gives up; reader B, which
        queued behind that writer, must get in as soon as it does."""
        lock = self.make_lock()
        assert lock.acquire_read()                      # reader A
        outcome = {}

        def writer():
            outcome["writer"] = lock.acquire_write(timeout=0.2)

        def reader_b():
            t0 = time.monotonic()
            outcome["reader"] = lock.acquire_read(timeout=5.0)
            outcome["reader_s"] = time.monotonic() - t0

        tw = threading.Thread(target=writer)
        tw.start()
        self._await_queued_writer(lock)
        tb = threading.Thread(target=reader_b)
        tb.start()
        tw.join(timeout=5.0)
        tb.join(timeout=10.0)
        assert not tw.is_alive() and not tb.is_alive()
        assert outcome["writer"] is False
        assert outcome["reader"] is True
        # Woken by the writer's timeout, not by its own 5 s deadline.
        assert outcome["reader_s"] < 2.0
        assert lock.active_readers == 2
        lock.release_read()
        lock.release_read()

    def test_release_without_acquire_raises(self):
        lock = self.make_lock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_threaded_counter_consistency(self):
        lock = self.make_lock()
        counter = {"v": 0}

        def writer():
            for _ in range(100):
                with lock.write():
                    v = counter["v"]
                    counter["v"] = v + 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert counter["v"] == 400
        assert lock.write_acquisitions == 400

    def test_bind_uses_buffer_state(self):
        buf = bytearray(64)
        a = self.make_lock().bind(buf, offset=16)
        b = a.clone().bind(buf, offset=16)
        with a.read():
            # b sees a's reader through the shared lock word.
            assert b.active_readers == 1
        assert b.active_readers == 0

    def test_clone_shares_state_but_not_metrics(self):
        lock = self.make_lock()
        buf = bytearray(32)
        lock.bind(buf)
        twin = lock.clone().bind(buf)
        with lock.read():
            pass
        assert lock.read_acquisitions == 1
        assert twin.read_acquisitions == 0
        twin.unbind()            # must not disturb the original's view
        with lock.write():
            assert lock.writer_active

    def test_metrics_fold(self):
        lock = self.make_lock()
        with lock.read():
            pass
        snap = lock.metrics_snapshot()
        other = self.make_lock()
        other.fold_metrics(snap)
        other.fold_metrics(snap)
        assert other.read_acquisitions == 2
        assert other.read_wait_ns == 2 * snap["read_wait_ns"]


class TestRWLock(LockSemantics):
    make_lock = RWLock


class TestRecords:
    def _kf(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=8, seed=3)
        return next(iter(slam_map.keyframes.values()))

    def _mp(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=8, seed=4)
        return next(iter(slam_map.mappoints.values()))

    def test_keyframe_roundtrip(self):
        kf = self._kf()
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        buf = memoryview(bytearray(size))
        written = write_keyframe_record(buf, kf)
        assert written <= size
        restored = read_keyframe_record(buf)
        assert restored.keyframe_id == kf.keyframe_id
        assert np.allclose(restored.uv, kf.uv, atol=1e-4)
        assert np.array_equal(restored.descriptors, kf.descriptors)
        assert np.array_equal(restored.point_ids, kf.point_ids)
        assert restored.pose_cw.almost_equal(kf.pose_cw, 1e-9, 1e-9)
        assert restored.bow_vector == kf.bow_vector

    def test_mappoint_roundtrip(self):
        point = self._mp()
        size = mappoint_record_size(len(point.observations))
        buf = memoryview(bytearray(size))
        write_mappoint_record(buf, point)
        restored = read_mappoint_record(buf)
        assert restored.point_id == point.point_id
        assert np.allclose(restored.position, point.position)
        assert restored.observations == point.observations

    def test_record_size_formula_is_exact_enough(self):
        kf = self._kf()
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        buf = memoryview(bytearray(size))
        assert write_keyframe_record(buf, kf) == size


class TestSharedMapStore:
    def _store(self):
        return ShardedMapStore(n_shards=1, capacity=4 * 1024 * 1024)

    def test_put_get_keyframe(self):
        store = self._store()
        slam_map = make_map(seed=5)
        kf = next(iter(slam_map.keyframes.values()))
        store.put_keyframe(kf)
        restored = store.get_keyframe(kf.keyframe_id)
        assert restored is not None
        assert np.array_equal(restored.descriptors, kf.descriptors)

    def test_get_missing_returns_none(self):
        store = self._store()
        assert store.get_keyframe(42) is None
        assert store.get_mappoint(42) is None

    def test_update_in_place(self):
        store = self._store()
        slam_map = make_map(seed=6)
        point = next(iter(slam_map.mappoints.values()))
        store.put_mappoint(point)
        point.position = np.array([9.0, 9.0, 9.0])
        store.put_mappoint(point)
        assert np.allclose(store.get_mappoint(point.point_id).position, 9.0)
        assert len(store.mappoint_ids()) == 1

    def test_publish_map_counts(self):
        store = self._store()
        slam_map = make_map(n_keyframes=4, seed=7)
        written = store.publish_map(
            slam_map.keyframes.values(), slam_map.mappoints.values()
        )
        assert written > 0
        stats = store.stats()
        assert stats.n_keyframes == 4
        assert stats.n_mappoints == slam_map.n_mappoints

    def test_remove(self):
        store = self._store()
        slam_map = make_map(seed=8)
        kf = next(iter(slam_map.keyframes.values()))
        store.put_keyframe(kf)
        store.remove_keyframe(kf.keyframe_id)
        assert store.get_keyframe(kf.keyframe_id) is None
        # The dead record and its tombstone wait for compaction.
        store.compact()
        assert store.stats().arena.allocated == 0

    def test_iter_keyframes_sorted(self):
        store = self._store()
        slam_map = make_map(n_keyframes=5, seed=9)
        store.publish_map(slam_map.keyframes.values(), [])
        ids = [kf.keyframe_id for kf in store.iter_keyframes()]
        assert ids == sorted(ids)


class TestSharedMemoryRegion:
    def test_create_write_attach_read(self):
        with SharedMemoryRegion(size=4096) as region:
            region.buffer[:5] = b"hello"
            # Attach a second handle by name (same process, same semantics).
            other = SharedMemoryRegion(name=region.name, create=False)
            assert bytes(other.buffer[:5]) == b"hello"
            other.close()

    def test_store_over_real_shared_memory(self):
        with ShmShardedMapStore.create(n_shards=1, pack_capacity=16,
                                       shard_slab_bytes=1024 * 1024) as store:
            slam_map = make_map(seed=10)
            kf = next(iter(slam_map.keyframes.values()))
            store.put_keyframe(kf)
            assert store.get_keyframe(kf.keyframe_id) is not None
            # The record is in the named segment: another attachment
            # reads it from there.
            other = ShmShardedMapStore.attach(store.handle())
            assert np.array_equal(
                other.get_keyframe(kf.keyframe_id).descriptors, kf.descriptors)
            other.close()

    def test_invalid_create_args(self):
        with pytest.raises(ValueError):
            SharedMemoryRegion(size=0, create=True)
        with pytest.raises(ValueError):
            SharedMemoryRegion(create=False)
