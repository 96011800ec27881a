"""Scale-out serving layer: sharded store and admission.

Covers spatial sharding with per-shard RW locks and ordered multi-shard
write transactions (deadlock-freedom under real threads and under
SimClock-driven interleavings), and admission control / load shedding
in the server and session.
"""

import threading

import numpy as np
import pytest

from repro.core import ClientScenario, ServingConfig, SlamShareConfig, SlamShareSession
from repro.core.server import SlamShareServer
from repro.datasets import euroc_dataset
from repro.net.simclock import SimClock
from repro.sharedmem import ShardedMapStore, spatial_shard
from tests.test_net_serialization_transport import make_map


def _sharded(n_shards=8, capacity=8 * 1024 * 1024, region=8.0):
    return ShardedMapStore(n_shards=n_shards, capacity=capacity,
                           region_size=region)


class TestSpatialSharding:
    def test_deterministic_assignment(self):
        pos = (12.3, -4.5, 6.7)
        assert spatial_shard(pos, 8.0, 16) == spatial_shard(pos, 8.0, 16)
        assert 0 <= spatial_shard(pos, 8.0, 16) < 16

    def test_same_region_same_shard(self):
        # Two positions in the same grid cell land together.
        assert (spatial_shard((1.0, 1.0, 1.0), 8.0, 16)
                == spatial_shard((2.0, 3.0, 4.0), 8.0, 16))

    def test_regions_spread_across_shards(self):
        rng = np.random.default_rng(3)
        shards = {
            spatial_shard(rng.uniform(-100, 100, 3), 8.0, 16)
            for _ in range(200)
        }
        assert len(shards) > 8  # spatial hash actually spreads load

    def test_put_get_roundtrip(self):
        store = _sharded()
        slam_map = make_map(n_keyframes=4, seed=5)
        kf = next(iter(slam_map.keyframes.values()))
        point = next(iter(slam_map.mappoints.values()))
        store.put_keyframe(kf)
        store.put_mappoint(point)
        restored = store.get_keyframe(kf.keyframe_id)
        assert restored is not None
        assert np.array_equal(restored.descriptors, kf.descriptors)
        assert np.allclose(store.get_mappoint(point.point_id).position,
                           point.position)

    def test_get_missing_returns_none(self):
        store = _sharded()
        assert store.get_keyframe(404) is None
        assert store.get_mappoint(404) is None

    def test_sticky_routing_survives_position_change(self):
        store = _sharded(region=1.0)
        slam_map = make_map(seed=6)
        point = next(iter(slam_map.mappoints.values()))
        store.put_mappoint(point)
        original_shard = store._mp_shard[point.point_id]
        # Bundle adjustment moves the point far across cell boundaries.
        point.position = point.position + 500.0
        store.put_mappoint(point)
        assert store._mp_shard[point.point_id] == original_shard
        assert np.allclose(store.get_mappoint(point.point_id).position,
                           point.position)
        assert len(store.mappoint_ids()) == 1

    def test_update_never_unroutes_a_live_entity(self):
        """Routing is read without a lock, so an in-place update must not
        leave a window in which the entity looks absent."""
        store = _sharded()
        kf = next(iter(make_map(seed=12).keyframes.values()))
        shard = store.shards[store.put_keyframe(kf)]
        routed = []
        append = shard._append

        def probing_append(kind, entity_id, size):
            routed.append(kf.keyframe_id in store._kf_shard)
            return append(kind, entity_id, size)

        shard._append = probing_append
        store.put_keyframe(kf)
        assert routed == [True]

    def test_remove_reclaims_space(self):
        store = _sharded()
        slam_map = make_map(seed=7)
        kf = next(iter(slam_map.keyframes.values()))
        store.put_keyframe(kf)
        store.remove_keyframe(kf.keyframe_id)
        assert store.get_keyframe(kf.keyframe_id) is None
        # The dead record and its tombstone wait for compaction.
        store.compact()
        assert store.stats().arena.allocated == 0

    def test_publish_map_spans_shards(self):
        store = _sharded(region=1.0)  # tiny regions force multi-shard batches
        slam_map = make_map(n_keyframes=6, seed=8)
        written = store.publish_map(slam_map.keyframes.values(),
                                    slam_map.mappoints.values())
        assert written > 0
        stats = store.stats()
        assert stats.n_keyframes == 6
        assert stats.n_mappoints == slam_map.n_mappoints
        occupied = [row for row in store.shard_stats() if row["writes"]]
        assert len(occupied) > 1

    def test_iter_keyframes_sorted(self):
        store = _sharded()
        slam_map = make_map(n_keyframes=5, seed=9)
        store.publish_map(slam_map.keyframes.values(), [])
        ids = [kf.keyframe_id for kf in store.iter_keyframes()]
        assert ids == sorted(ids)

    def test_stats_aggregate_matches_unsharded_semantics(self):
        store = _sharded()
        slam_map = make_map(n_keyframes=3, seed=10)
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        stats = store.stats()
        assert stats.writes == 3 + slam_map.n_mappoints
        assert stats.arena.allocated > 0
        assert stats.arena.capacity > stats.arena.allocated


class TestOrderedShardLocking:
    def test_write_transaction_acquires_in_ascending_order(self):
        store = _sharded(n_shards=6)
        order = []
        for shard in store.shards:
            original = shard.lock.acquire_write

            def recording(idx=shard.index, fn=original, **kw):
                order.append(idx)
                return fn(**kw)

            shard.lock.acquire_write = recording
        with store.write_transaction([4, 1, 3, 1]):
            pass
        assert order == [1, 3, 4]

    def test_write_transaction_releases_on_error(self):
        store = _sharded(n_shards=4)
        with pytest.raises(RuntimeError):
            with store.write_transaction([0, 2]):
                raise RuntimeError("merge failed mid-weld")
        for shard in store.shards:
            assert not shard.lock.writer_active

    def test_no_deadlock_under_interleaved_threaded_merges_and_reads(self):
        """Overlapping multi-shard writers + readers all terminate."""
        store = _sharded(n_shards=4, region=1.0)
        slam_map = make_map(n_keyframes=8, n_points_per_kf=6, seed=11)
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        kf_ids = store.keyframe_ids()
        errors = []
        done = []

        def merger(seed):
            # Each merger repeatedly takes overlapping multi-shard write
            # transactions in *submission* (unsorted) order — the store
            # must still serialize them deadlock-free.
            rng = np.random.default_rng(seed)
            try:
                for _ in range(60):
                    shards = list(rng.choice(4, size=3, replace=False))
                    with store.write_transaction(shards):
                        pass
                done.append(seed)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(120):
                    store.get_keyframe(int(rng.choice(kf_ids)))
                done.append(seed)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = ([threading.Thread(target=merger, args=(s,))
                    for s in range(4)]
                   + [threading.Thread(target=reader, args=(100 + s,))
                      for s in range(4)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(done) == 8, "a worker deadlocked (join timed out)"
        for t in threads:
            assert not t.is_alive()

    def test_simclock_interleaved_merge_and_read_schedule(self):
        """SimClock-driven schedule interleaving publishes, multi-shard
        merge transactions and reads completes with a consistent map."""
        store = _sharded(n_shards=4, region=1.0)
        slam_map = make_map(n_keyframes=6, n_points_per_kf=4, seed=12)
        kfs = list(slam_map.keyframes.values())
        clock = SimClock()
        seen = []

        def publish(i):
            store.publish_map([kfs[i]], [])

        def merge_all():
            shards = list(range(4))
            with store.write_transaction(shards):
                pass  # merge holds every involved shard atomically

        def read(i):
            kf = store.get_keyframe(kfs[i].keyframe_id)
            seen.append(kf is not None)

        # Deliberately interleaved: publish, read-before/after, merges
        # back-to-back with publishes at identical timestamps.
        for i in range(6):
            clock.schedule_at(0.010 * i, lambda i=i: publish(i))
            clock.schedule_at(0.010 * i, lambda i=i: read(i))
            clock.schedule_at(0.010 * i + 0.005, merge_all)
            clock.schedule_at(0.010 * i + 0.006, lambda i=i: read(i))
        clock.run()
        # Reads scheduled at the same instant as their publish run after
        # it (FIFO among equal timestamps), so every read must hit.
        assert seen == [True] * 12
        assert store.stats().n_keyframes == 6

    def test_concurrent_publish_read_consistency(self):
        """Readers never see torn records while publishers update them."""
        store = _sharded(n_shards=4)
        slam_map = make_map(n_keyframes=2, n_points_per_kf=6, seed=13)
        kf = next(iter(slam_map.keyframes.values()))
        store.put_keyframe(kf)
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                store.put_keyframe(kf)

        def reader():
            while not stop.is_set():
                restored = store.get_keyframe(kf.keyframe_id)
                if restored is None or not np.array_equal(
                        restored.descriptors, kf.descriptors):
                    errors.append("torn read")
                    return

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        stop.wait(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not errors


class TestAdmissionControl:
    def _server(self, **serving_kw):
        from repro.vision import PinholeCamera
        config = SlamShareConfig(
            serving=ServingConfig(**serving_kw), render_video_frames=False
        )
        camera = PinholeCamera(fx=450.0, fy=450.0, cx=376.0, cy=240.0,
                               width=752, height=480)
        return SlamShareServer(camera, config)

    def test_bounded_queue_sheds_overload(self):
        server = self._server(queue_depth=2)
        server.add_client(0, np.array([0.0, 0.0, -9.81]))
        assert server.try_admit(0) == "ok"
        assert server.try_admit(0) == "ok"
        assert server.try_admit(0) == "overload"
        assert server.frames_shed_overload == 1
        server.release_frame(0)
        assert server.try_admit(0) == "ok"

    def test_stale_frames_shed(self):
        server = self._server(stale_ms=100.0)
        server.add_client(0, np.array([0.0, 0.0, -9.81]))
        assert server.try_admit(0, age_s=0.05) == "ok"
        assert server.try_admit(0, age_s=0.25) == "stale"
        assert server.frames_shed_stale == 1

    def test_load_reflects_in_flight_fraction(self):
        server = self._server(queue_depth=4)
        server.add_client(0, np.array([0.0, 0.0, -9.81]))
        assert server.load() == 0.0
        server.try_admit(0)
        server.try_admit(0)
        assert server.load() == pytest.approx(0.5)
        server.release_frame(0)
        assert server.load() == pytest.approx(0.25)

    def test_admission_disabled_never_sheds(self):
        server = self._server(admission=False, queue_depth=1)
        server.add_client(0, np.array([0.0, 0.0, -9.81]))
        for _ in range(5):
            assert server.try_admit(0) == "ok"
        assert server.frames_shed == 0

    def test_server_builds_sharded_store_from_config(self):
        server = self._server(map_shards=4)
        assert isinstance(server.store, ShardedMapStore)
        assert server.store.n_shards == 4
        unsharded = self._server(map_shards=1)
        assert isinstance(unsharded.store, ShardedMapStore)
        assert unsharded.store.n_shards == 1

    def test_unknown_store_backend_rejected(self):
        with pytest.raises(ValueError, match="'local', 'shm'"):
            self._server(store_backend="Shm")

    def test_unsharded_server_compacts_after_evictions(self):
        """``map_shards=1`` takes the same evict -> tombstone -> compact
        path as any other shard count."""
        server = self._server(map_shards=1, store_compact_utilization=1e-9)
        server.add_client(0, np.array([0.0, 0.0, -9.81]))
        process = server.processes[0]
        slam_map = make_map(n_keyframes=4, n_points_per_kf=8, seed=11)
        for point in slam_map.mappoints.values():
            process.system.map.add_mappoint(point)
        for kf in slam_map.keyframes.values():
            process.system.map.add_keyframe(kf)
        server.store.publish_map(slam_map.keyframes.values(),
                                 slam_map.mappoints.values())
        evicted = process.system.map.evict_keyframes(2)
        assert evicted
        server._reconcile_evictions(process)
        survivors = sorted(process.system.map.keyframes)
        assert server.store.keyframe_ids() == survivors
        # The holes the evicted records left are already closed.
        assert server.store.compact() == 0


class TestSessionScaleOut:
    def _scenarios(self, duration=2.5):
        return [
            ClientScenario(0, euroc_dataset("MH04", duration=duration,
                                            rate=10.0), n_frames=20),
        ]

    def test_session_runs_with_sharded_store(self):
        config = SlamShareConfig(render_video_frames=False)
        session = SlamShareSession(self._scenarios(), config=config)
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.frames_processed > 0
        assert len(session.scheduler.records) > 0
        assert isinstance(session.server.store, ShardedMapStore)
        # Every admitted frame's slot was released.
        assert session.server.in_flight(0) == 0

    def test_session_sheds_stale_frames_and_bridges_gaps(self):
        # stale_ms=0 sheds every delivered frame: degenerate by design,
        # proving shed frames are counted and never tracked.
        config = SlamShareConfig(
            render_video_frames=False,
            serving=ServingConfig(stale_ms=-1.0),
        )
        session = SlamShareSession(self._scenarios(), config=config)
        result = session.run()
        outcome = result.outcomes[0]
        assert outcome.frames_processed == 0
        assert outcome.frames_shed > 0
        assert session.server.frames_shed == outcome.frames_shed

    def test_new_session_scheduler_starts_empty(self):
        session = SlamShareSession(
            self._scenarios(),
            config=SlamShareConfig(render_video_frames=False),
        )
        # Each session builds its own scheduler, so its record starts
        # clean.
        assert session.scheduler.records == []
