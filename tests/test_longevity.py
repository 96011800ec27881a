"""Tests for long-lived maps: eviction, compaction, snapshot/restore."""

import json
import os
import threading
import time
import zlib
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
from repro.datasets import make_dataset
from repro.geometry import SE3, so3
from repro.obs import get_metrics
from repro.sharedmem import (
    ShardedMapStore,
    ShmShardedMapStore,
    SnapshotError,
    keyframe_record_size,
    load_snapshot,
    mappoint_record_size,
    restore_into_store,
    restore_map,
    save_snapshot,
)
from repro.sharedmem.arena import HEADER_BYTES
from repro.sharedmem.records import RECORD_FRAME
from repro.slam import (
    CLIENT_ID_STRIDE,
    IdAllocator,
    KeyframeDatabase,
    SlamMap,
    default_vocabulary,
)
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from repro.slam.pose_graph import PoseGraphEdge, optimize_pose_graph
from repro.vision.brief import DESCRIPTOR_BYTES
from tests.test_net_serialization_transport import make_map
from tests.test_shm_multiproc import _shm_available


def _share_points(slam_map, a_id, b_id, n):
    """Make keyframe b observe the first n points of keyframe a."""
    kf_a, kf_b = slam_map.keyframes[a_id], slam_map.keyframes[b_id]
    for i in range(n):
        pid = int(kf_a.point_ids[i])
        old = int(kf_b.point_ids[i])
        if old >= 0:
            slam_map.mappoints[old].remove_observation(b_id)
        kf_b.point_ids[i] = pid
        slam_map.mappoints[pid].add_observation(b_id, i)
    slam_map.rebuild_covisibility()


# ----------------------------------------------------- packed swap-remove
class TestPackedSwapRemove:
    def test_remove_keeps_rows_aligned(self):
        slam_map = make_map(n_keyframes=4, n_points_per_kf=8)
        slam_map.packed_positions()  # force a clean packed build
        pids = sorted(slam_map.mappoints)
        doomed = pids[1::3]
        for pid in doomed:
            slam_map.remove_mappoint(pid)
        positions = slam_map.packed_positions()
        assert positions.shape == (slam_map.n_mappoints, 3)
        rows = slam_map.lookup_point_rows(sorted(slam_map.mappoints))
        assert (rows >= 0).all()
        for pid, row in zip(sorted(slam_map.mappoints), rows):
            assert np.array_equal(
                positions[row], slam_map.mappoints[pid].position
            )

    def test_remove_matches_full_rebuild(self):
        a = make_map(n_keyframes=3, n_points_per_kf=10, seed=3)
        b = make_map(n_keyframes=3, n_points_per_kf=10, seed=3)
        a.packed_positions()  # a removes incrementally, b rebuilds
        doomed = sorted(a.mappoints)[::4]
        for pid in doomed:
            a.remove_mappoint(pid)
            b.remove_mappoint(pid)
        b.touch()
        ids = sorted(a.mappoints)
        pos_a, _ = a.gather_point_arrays(ids)
        pos_b, _ = b.gather_point_arrays(ids)
        assert np.array_equal(pos_a, pos_b)


# --------------------------------------------------- replace_mappoint fix
class TestReplaceMappointDedup:
    def test_duplicate_observation_slot_cleared(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=6)
        kf = next(iter(slam_map.keyframes.values()))
        old_id, new_id = int(kf.point_ids[0]), int(kf.point_ids[1])
        n_obs_before = slam_map.mappoints[new_id].n_observations
        slam_map.replace_mappoint(old_id, new_id)
        # The keyframe already observed the replacement: the losing slot
        # must clear rather than alias two features to one point.
        assert int(kf.point_ids[0]) == -1
        assert int(kf.point_ids[1]) == new_id
        assert slam_map.mappoints[new_id].n_observations == n_obs_before
        assert old_id not in slam_map.mappoints

    def test_distinct_observers_relabel(self):
        slam_map = make_map(n_keyframes=2, n_points_per_kf=4)
        kfs = sorted(slam_map.keyframes)
        kf_a = slam_map.keyframes[kfs[0]]
        old_id = int(kf_a.point_ids[0])
        # The replacement lives in the other keyframe only.
        new_id = int(slam_map.keyframes[kfs[1]].point_ids[0])
        slam_map.replace_mappoint(old_id, new_id)
        assert int(kf_a.point_ids[0]) == new_id
        assert kfs[0] in slam_map.mappoints[new_id].observations


# --------------------------------------------------- point_positions fix
class TestPointPositions:
    def test_returns_surviving_ids(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=5)
        pids = sorted(slam_map.mappoints)
        slam_map.remove_mappoint(pids[2])
        positions, surviving = slam_map.point_positions(pids)
        assert surviving == [p for p in pids if p != pids[2]]
        assert positions.shape == (len(surviving), 3)
        for row, pid in enumerate(surviving):
            assert np.array_equal(
                positions[row], slam_map.mappoints[pid].position
            )

    def test_strict_raises_on_missing(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=3)
        pids = sorted(slam_map.mappoints)
        slam_map.remove_mappoint(pids[0])
        with pytest.raises(KeyError):
            slam_map.point_positions(pids, strict=True)

    def test_empty_request(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=2)
        positions, surviving = slam_map.point_positions([])
        assert positions.shape == (0, 3)
        assert surviving == []


# ------------------------------------------------------------- eviction
class TestEviction:
    def test_budget_enforced_and_protected_survive(self):
        slam_map = make_map(n_keyframes=6, n_points_per_kf=5)
        kfs = sorted(slam_map.keyframes)
        slam_map.touch_keyframe(kfs[0])
        evicted = slam_map.evict_keyframes(3, protect=[kfs[2]])
        assert slam_map.n_keyframes == 3
        assert kfs[2] in slam_map.keyframes
        # The newest keyframe per client (here: the touched one last?)
        # -- the most recently *used* keyframe is the tracking reference.
        assert kfs[0] in slam_map.keyframes
        assert set(evicted).isdisjoint(slam_map.keyframes)

    def test_least_covisible_goes_first(self):
        slam_map = make_map(n_keyframes=4, n_points_per_kf=6)
        kfs = sorted(slam_map.keyframes)
        # kfs[0] <-> kfs[1] strongly covisible; kfs[2] isolated.
        _share_points(slam_map, kfs[0], kfs[1], 4)
        for k in kfs:
            slam_map.touch_keyframe(k)
        slam_map.touch_keyframe(kfs[2])  # recently used but isolated
        evicted = slam_map.evict_keyframes(3)
        assert evicted and evicted[0] not in (kfs[0], kfs[1])

    def test_orphan_points_leave_with_keyframe(self):
        slam_map = make_map(n_keyframes=3, n_points_per_kf=5)
        kfs = sorted(slam_map.keyframes)
        victim = kfs[0]
        orphan_pids = [int(p) for p in
                       slam_map.keyframes[victim].observed_point_ids()]
        slam_map.touch_keyframe(kfs[1])
        slam_map.touch_keyframe(kfs[2])
        slam_map.evict_keyframes(2)
        assert victim not in slam_map.keyframes
        for pid in orphan_pids:
            assert pid not in slam_map.mappoints
        # Pose-graph invariant: every surviving point has an observer.
        for point in slam_map.mappoints.values():
            assert point.n_observations > 0
            assert all(k in slam_map.keyframes for k in point.observations)

    def test_drain_evictions_hands_off_and_clears(self):
        slam_map = make_map(n_keyframes=4, n_points_per_kf=4)
        slam_map.enforce_budgets(max_keyframes=2, max_mappoints=6)
        kfs, pts = slam_map.drain_evictions()
        assert kfs and pts
        assert slam_map.drain_evictions() == ([], [])

    def test_pose_graph_runs_after_eviction(self):
        slam_map = make_map(n_keyframes=5, n_points_per_kf=5)
        kfs = sorted(slam_map.keyframes)
        slam_map.evict_keyframes(3)
        survivors = sorted(slam_map.keyframes)
        edges = [
            PoseGraphEdge(
                a, b,
                slam_map.keyframes[a].pose_cw
                * slam_map.keyframes[b].pose_cw.inverse(),
                weight=10.0,
            )
            for a, b in zip(survivors, survivors[1:])
        ]
        # Evicted keyframes must be filtered from the edge set by the
        # caller; the optimizer then runs cleanly on the survivors.
        assert all(
            a in slam_map.keyframes and b in slam_map.keyframes
            for a, b in ((e.kf_a, e.kf_b) for e in edges)
        )
        optimize_pose_graph(slam_map, edges, fixed={survivors[0]})
        assert sorted(slam_map.keyframes) == survivors
        assert kfs[0] not in slam_map.keyframes or len(kfs) == len(survivors)

    def test_covisibility_holds_no_evicted_nodes(self):
        slam_map = make_map(n_keyframes=5, n_points_per_kf=6)
        kfs = sorted(slam_map.keyframes)
        _share_points(slam_map, kfs[0], kfs[1], 3)
        _share_points(slam_map, kfs[2], kfs[3], 3)
        evicted = slam_map.evict_keyframes(2)
        for kf_id in evicted:
            assert kf_id not in slam_map.covisibility
            assert all(kf_id not in neighbours
                       for neighbours in slam_map.covisibility.values())


# ----------------------------------------------- store compaction (local)
class TestLocalStoreCompaction:
    def _populated(self):
        slam_map = make_map(n_keyframes=4, n_points_per_kf=8)
        store = ShardedMapStore(n_shards=2, capacity=4 * 1024 * 1024)
        store.publish_map(
            list(slam_map.keyframes.values()),
            list(slam_map.mappoints.values()),
        )
        return slam_map, store

    def test_compact_preserves_live_records(self):
        slam_map, store = self._populated()
        doomed = sorted(slam_map.mappoints)[::2]
        for pid in doomed:
            store.remove_mappoint(pid)
        before = {pid: store.get_mappoint(pid).position.copy()
                  for pid in store.mappoint_ids()}
        store.compact()
        assert sorted(store.mappoint_ids()) == sorted(before)
        for pid, position in before.items():
            assert np.array_equal(store.get_mappoint(pid).position, position)

    def test_maybe_compact_respects_threshold(self):
        _, store = self._populated()
        # Utilization is far below 1.0: nothing should compact.
        assert store.maybe_compact(utilization=1.0) == 0


# ------------------------------------------------------- simulated day
def _mapper(client_id):
    """One churning mapper: its id spaces and the points it still sees."""
    return SimpleNamespace(
        client_id=client_id, kf_ids=IdAllocator(client_id),
        pt_ids=IdAllocator(client_id), recent=[], last_kf=-1, n_kfs=0)


def _map_keyframe(mapper, slam_map, t, rng, new_points=12, reobserve=24):
    """Insert one keyframe seeing 12 fresh + up to 24 recent points."""
    base = np.array([0.3 * mapper.n_kfs, 0.1 * mapper.client_id, 0.0])
    created = []
    for _ in range(new_points):
        point = MapPoint(
            point_id=mapper.pt_ids.allocate(),
            position=base + rng.normal(scale=1.5, size=3) + [0, 0, 6.0],
            descriptor=rng.integers(0, 256, DESCRIPTOR_BYTES, dtype=np.uint8),
        )
        slam_map.add_mappoint(point)
        created.append(point)
    mapper.recent = [pid for pid in mapper.recent
                     if pid in slam_map.mappoints][-reobserve:]
    mapper.recent += [p.point_id for p in created]
    n = len(mapper.recent)
    kf = KeyFrame(
        keyframe_id=mapper.kf_ids.allocate(),
        timestamp=t,
        pose_cw=SE3(so3.exp(np.array([0.0, 0.01 * mapper.n_kfs, 0.0])), base),
        uv=rng.uniform(0, 320, size=(n, 2)),
        descriptors=rng.integers(0, 256, (n, DESCRIPTOR_BYTES), dtype=np.uint8),
        depths=rng.uniform(1, 10, size=n),
        point_ids=np.asarray(mapper.recent, dtype=np.int64),
        client_id=mapper.client_id,
    )
    for i, pid in enumerate(mapper.recent):
        slam_map.mappoints[pid].add_observation(kf.keyframe_id, i)
    slam_map.add_keyframe(kf)
    mapper.last_kf = kf.keyframe_id
    mapper.n_kfs += 1
    return kf, created


DAY_MAX_KFS, DAY_MAX_PTS = 40, 1200


def _simulated_day():
    """240 keyframe-ops by 3 mappers, one replaced every 60 ops, against
    40-keyframe / 1200-point budgets: evictions tombstone a store sized
    so steady state sits above the compaction trigger."""
    rng = np.random.default_rng(0)
    slam_map = SlamMap()
    store = ShardedMapStore(n_shards=4, capacity=1024 * 1024)
    mappers = [_mapper(i) for i in range(3)]
    day = SimpleNamespace(slam_map=slam_map, store_bytes=[], op_ms=[],
                          first_bind=None)
    for op in range(240):
        if op and op % 60 == 0:
            mappers.pop(0)
            mappers.append(_mapper(3 + op // 60))
        start = time.perf_counter()
        kf, created = _map_keyframe(mappers[op % 3], slam_map, float(op), rng)
        store.publish_map([kf], created)
        slam_map.enforce_budgets(
            max_keyframes=DAY_MAX_KFS, max_mappoints=DAY_MAX_PTS,
            protect_keyframes=[m.last_kf for m in mappers if m.last_kf >= 0],
            protect_points=set(kf.observed_point_ids()),
        )
        gone_kfs, gone_pts = slam_map.drain_evictions()
        for kf_id in gone_kfs:
            store.remove_keyframe(kf_id)
        for pid in gone_pts:
            store.remove_mappoint(pid)
        store.maybe_compact(0.12)
        day.op_ms.append((time.perf_counter() - start) * 1e3)
        day.store_bytes.append(store.stats().arena.allocated)
        if day.first_bind is None and (gone_kfs or gone_pts):
            day.first_bind = op
    return day


def _op_p95_drift(op_ms):
    """Last-window over first-window p95 of the per-op wall time."""
    window = len(op_ms) // 6
    return np.percentile(op_ms[-window:], 95) / np.percentile(op_ms[:window], 95)


class TestSimulatedDay:
    def test_budgets_keep_store_bytes_and_op_latency_bounded(self):
        day = _simulated_day()
        assert day.first_bind is not None, "budgets never bound"
        assert day.slam_map.n_keyframes <= DAY_MAX_KFS
        assert day.slam_map.n_mappoints <= DAY_MAX_PTS
        steady = day.store_bytes[day.first_bind:]
        assert max(steady) <= 2.0 * np.median(steady)
        assert any(b < a for a, b in zip(steady, steady[1:])), \
            "store bytes only ever grew"
        # 40-op windows of sub-millisecond work: the ratio sits near 2.2
        # (the first window runs before the budgets bind) and scheduler
        # jitter alone pushed one day in ~40 past 5, so only a slowdown
        # that shows three days running — an unbounded map — fails.
        days = chain([day], (_simulated_day() for _ in range(2)))
        assert any(_op_p95_drift(d.op_ms) <= 5.0 for d in days)


# ------------------------------------------- shm compaction + torn reads
class TestShmCompaction:
    def _probe_point(self, pid):
        return MapPoint(
            point_id=pid,
            position=np.array([pid, 2.0 * pid, 3.0 * pid]),
            descriptor=np.full(DESCRIPTOR_BYTES, pid % 251, dtype=np.uint8),
        )

    def _valid(self, point):
        pid = point.point_id
        return (
            np.array_equal(point.position, [pid, 2.0 * pid, 3.0 * pid])
            and bool(np.all(point.descriptor == pid % 251))
        )

    def test_compaction_reclaims_with_concurrent_readers(self):
        store = ShmShardedMapStore.create(
            n_shards=2, pack_capacity=512,
            shard_slab_bytes=512 * 1024, lock_timeout_s=30.0,
        )
        torn, reads = [0], [0]
        stop = threading.Event()
        live = [self._probe_point(i) for i in range(64)]
        try:
            store.publish_map([], live)
            live_ids = [p.point_id for p in live]

            def reader():
                rng = np.random.default_rng(1)
                while not stop.is_set():
                    pid = int(rng.choice(live_ids))
                    point = store.get_mappoint(pid)
                    if point is None:
                        continue
                    reads[0] += 1
                    if not self._valid(point):
                        torn[0] += 1

            threads = [threading.Thread(target=reader, daemon=True)
                       for _ in range(2)]
            for t in threads:
                t.start()
            reclaimed = 0
            next_pid = len(live)
            for _ in range(4):
                fresh = [self._probe_point(next_pid + i) for i in range(64)]
                next_pid += 64
                store.publish_map([], fresh)
                for pid in live_ids[: len(live_ids) // 2]:
                    store.remove_mappoint(pid)
                live_ids = (live_ids[len(live_ids) // 2:]
                            + [p.point_id for p in fresh])
                reclaimed += store.compact()
                time.sleep(0.005)   # let readers race the fresh epoch
            deadline = time.perf_counter() + 5.0
            while reads[0] == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            assert reclaimed > 0
            assert reads[0] > 0
            assert torn[0] == 0
            assert sorted(store.mappoint_ids()) == sorted(live_ids)
            for pid in live_ids:
                assert self._valid(store.get_mappoint(pid))
        finally:
            stop.set()
            store.close()
            store.unlink()

    def test_second_attachment_rescans_after_compaction(self):
        store = ShmShardedMapStore.create(
            n_shards=1, pack_capacity=256,
            shard_slab_bytes=256 * 1024, lock_timeout_s=30.0,
        )
        try:
            other = ShmShardedMapStore.attach(store.handle())
            points = [self._probe_point(i) for i in range(10)]
            store.publish_map([], points)
            assert len(other.mappoint_ids()) == 10  # warm other's index
            for pid in range(5):
                store.remove_mappoint(pid)
            assert store.compact() > 0
            # The epoch bump forces the second attachment to rescan the
            # rewritten log rather than trust stale offsets.
            survivors = sorted(other.mappoint_ids())
            assert survivors == list(range(5, 10))
            for pid in survivors:
                assert self._valid(other.get_mappoint(pid))
            other.close()
        finally:
            store.close()
            store.unlink()


# --------------------------------------------------- log-full compaction
def _log_bytes(keyframes, points):
    """Log bytes one copy of these records takes: frames, 8-aligned."""
    sizes = [keyframe_record_size(len(kf), len(kf.bow_vector))
             for kf in keyframes]
    sizes += [mappoint_record_size(len(p.observations)) for p in points]
    return sum(RECORD_FRAME.size + (size + 7) // 8 * 8 for size in sizes)


class TestLogFullCompaction:
    """A shard log full of superseded versions compacts itself rather
    than refuse a record its live set leaves room for."""

    @pytest.mark.parametrize("backend", ["local", "shm"])
    def test_republishing_one_map_wraps_the_log(self, backend):
        if backend == "shm" and not _shm_available():
            pytest.skip("OS shared memory unavailable")
        slam_map = make_map(n_keyframes=4, n_points_per_kf=8)
        keyframes = list(slam_map.keyframes.values())
        points = list(slam_map.mappoints.values())
        one_copy = _log_bytes(keyframes, points)
        slab = HEADER_BYTES + 5 * one_copy // 2
        store = (ShardedMapStore(n_shards=1, capacity=slab)
                 if backend == "local" else
                 ShmShardedMapStore.create(n_shards=1, pack_capacity=16,
                                           shard_slab_bytes=slab))
        metrics = get_metrics()
        was_enabled = metrics.enabled
        metrics.reset()
        metrics.configure(enabled=True)
        try:
            for _ in range(12):   # 12 copies through a log of 2.5
                store.publish_map(keyframes, points)
            compactions = metrics.snapshot()["counters"]["sharedmem.compactions"]
            stats = store.stats()
            assert stats.n_keyframes == len(keyframes)
            assert stats.n_mappoints == len(points)
            assert stats.arena.allocated <= stats.arena.capacity
            for kf in keyframes:
                got = store.get_keyframe(kf.keyframe_id)
                assert np.array_equal(got.descriptors, kf.descriptors)
                assert np.array_equal(got.point_ids, kf.point_ids)
            for point in points:
                got = store.get_mappoint(point.point_id)
                assert np.array_equal(got.position, point.position)
                assert got.observations == point.observations
        finally:
            metrics.reset()
            metrics.enabled = was_enabled
            store.close()
            if backend == "shm":
                store.unlink()
        assert compactions >= 3


# ------------------------------------------------------ snapshot/restore
class TestSnapshotRoundTrip:
    def _store_with_map(self):
        slam_map = make_map(n_keyframes=4, n_points_per_kf=6)
        store = ShardedMapStore(n_shards=3, capacity=4 * 1024 * 1024)
        store.publish_map(
            list(slam_map.keyframes.values()),
            list(slam_map.mappoints.values()),
        )
        return slam_map, store

    def test_roundtrip_restores_entities(self, tmp_path):
        slam_map, store = self._store_with_map()
        path = str(tmp_path / "map.snap")
        info = save_snapshot(store, path)
        assert info.n_keyframes == slam_map.n_keyframes
        assert info.n_mappoints == slam_map.n_mappoints
        snap = load_snapshot(path)
        fresh_store = ShardedMapStore(n_shards=3, capacity=4 * 1024 * 1024)
        restore_into_store(snap, fresh_store)
        assert sorted(fresh_store.keyframe_ids()) == sorted(slam_map.keyframes)
        fresh_map = SlamMap()
        database = KeyframeDatabase(default_vocabulary())
        restore_map(snap.keyframes, snap.mappoints, fresh_map, database)
        assert sorted(fresh_map.keyframes) == sorted(slam_map.keyframes)
        assert sorted(fresh_map.mappoints) == sorted(slam_map.mappoints)
        for kf_id, kf in slam_map.keyframes.items():
            restored = fresh_map.keyframes[kf_id]
            assert np.allclose(restored.pose_cw.matrix(), kf.pose_cw.matrix())
            assert restored.bow_vector == pytest.approx(kf.bow_vector)
        for point in slam_map.mappoints.values():
            observed = fresh_map.mappoints[point.point_id]
            assert np.array_equal(observed.position, point.position)
            assert observed.observations == point.observations

    def test_filter_keeps_private_entities_out(self, tmp_path):
        slam_map, store = self._store_with_map()
        keep_kfs = sorted(slam_map.keyframes)[:2]
        keep_pts = sorted(slam_map.mappoints)[:5]
        path = str(tmp_path / "filtered.snap")
        save_snapshot(store, path, keyframe_ids=keep_kfs,
                      mappoint_ids=keep_pts)
        snap = load_snapshot(path)
        assert sorted(kf.keyframe_id for kf in snap.keyframes) == keep_kfs
        assert sorted(p.point_id for p in snap.mappoints) == keep_pts

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(str(tmp_path / "nope"))

    def test_corrupt_shard_rejected(self, tmp_path):
        _, store = self._store_with_map()
        path = str(tmp_path / "corrupt.snap")
        save_snapshot(store, path)
        shard_file = next(
            f for f in sorted(os.listdir(path))
            if f.startswith("shard-") and os.path.getsize(
                os.path.join(path, f))
        )
        with open(os.path.join(path, shard_file), "r+b") as fh:
            fh.seek(20)
            fh.write(b"\xff\xff")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_wrong_version_rejected(self, tmp_path):
        _, store = self._store_with_map()
        path = str(tmp_path / "versioned.snap")
        save_snapshot(store, path)
        manifest_path = os.path.join(path, "MANIFEST.json")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["version"] = 99
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_version_1_snapshot_refused(self, tmp_path):
        # v1 wrote uv / depths as <f4; reading one as <f8 would misplace
        # every later field, so the manifest version alone refuses it.
        _, store = self._store_with_map()
        path = str(tmp_path / "v1.snap")
        save_snapshot(store, path)
        manifest_path = os.path.join(path, "MANIFEST.json")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["version"] = 1
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SnapshotError, match="version 1"):
            load_snapshot(path)

    def test_frame_size_past_the_end_refused(self, tmp_path):
        # The shard's CRC matches (it is recomputed over the damage), so
        # only the frame walk can catch a size that runs off the file.
        _, store = self._store_with_map()
        path = str(tmp_path / "oversized.snap")
        save_snapshot(store, path)
        manifest_path = os.path.join(path, "MANIFEST.json")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        meta = next(m for m in manifest["shards"] if m["bytes"])
        shard_path = os.path.join(path, meta["file"])
        with open(shard_path, "rb") as fh:
            data = bytearray(fh.read())
        kind, flags, entity_id, _ = RECORD_FRAME.unpack_from(data, 0)
        RECORD_FRAME.pack_into(data, 0, kind, flags, entity_id, len(data))
        with open(shard_path, "wb") as fh:
            fh.write(data)
        meta["crc32"] = zlib.crc32(bytes(data))
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SnapshotError, match="claims"):
            load_snapshot(path)

    def test_save_is_atomic_replace(self, tmp_path):
        slam_map, store = self._store_with_map()
        path = str(tmp_path / "atomic.snap")
        save_snapshot(store, path)
        first = load_snapshot(path).info
        # Second save lands over the first without leaving tmp debris.
        save_snapshot(store, path)
        assert not os.path.exists(path + ".tmp")
        assert load_snapshot(path).info.n_keyframes == first.n_keyframes


def _snapshot_one_client(tmp_path) -> str:
    """Run client 0 over 8 s of MH04 and snapshot the map it built."""
    snap_path = str(tmp_path / "session.snap")
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    config.serving.snapshot_path = snap_path
    scenario = ClientScenario(
        client_id=0,
        dataset=make_dataset("MH04", duration=8.0, rate=10.0),
        start_time=0.0, oracle_seed=7, imu_seed=8,
    )
    SlamShareSession([scenario], config, ate_sample_interval=1.0).run()
    return snap_path


def _restored_session(snap_path, client_id, oracle_seed=21):
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    config.serving.restore_path = snap_path
    scenario = ClientScenario(
        client_id=client_id,
        dataset=make_dataset("MH04", duration=6.0, rate=10.0),
        start_time=0.0, oracle_seed=oracle_seed, imu_seed=oracle_seed + 1,
    )
    return SlamShareSession([scenario], config, ate_sample_interval=1.0)


class TestMultiSessionRelocalization:
    def test_restored_client_relocalizes(self, tmp_path):
        snap_path = _snapshot_one_client(tmp_path)
        info = load_snapshot(snap_path).info
        assert info.n_keyframes > 0

        session = _restored_session(snap_path, client_id=4)
        # The restored map preloads before the client joins...
        assert session.server.global_map.n_keyframes == info.n_keyframes
        result = session.run()
        # ...so the fresh client goes through place recognition and
        # merges instead of starting the map.
        merges = [m for m in result.merges if m.client_id == 4]
        assert merges, "fresh client did not relocalize into restored map"
        assert result.client_ate(4).rmse < 0.15

    def test_rejoining_client_id_mints_past_its_restored_ids(
        self, tmp_path, monkeypatch
    ):
        """Client 0 minted the snapshot's entities; joining a restored
        session as client 0 again must allocate above every one of them."""
        snap_path = _snapshot_one_client(tmp_path)
        snap = load_snapshot(snap_path)
        restored_kfs = [kf.keyframe_id for kf in snap.keyframes
                        if IdAllocator.owner_of(kf.keyframe_id) == 0]
        restored_pts = [p.point_id for p in snap.mappoints
                        if IdAllocator.owner_of(p.point_id) == 0]
        assert restored_kfs and restored_pts

        minted = {}
        allocate = IdAllocator.allocate

        def recording(allocator):
            value = allocate(allocator)
            minted.setdefault(id(allocator), []).append(value)
            return value

        monkeypatch.setattr(IdAllocator, "allocate", recording)
        session = _restored_session(snap_path, client_id=0)
        result = session.run()
        assert result.outcomes[0].frames_processed > 0

        mapper = session.server.processes[0].system.mapper
        new_kfs = minted[id(mapper.kf_allocator)]
        new_pts = minted[id(mapper.point_allocator)]
        assert min(new_kfs) > max(restored_kfs)
        assert min(new_pts) > max(restored_pts)
        assert all(IdAllocator.owner_of(i) == 0 for i in new_kfs + new_pts)
        with pytest.raises(ValueError):
            mapper.kf_allocator.reserve_until(CLIENT_ID_STRIDE + 1)
