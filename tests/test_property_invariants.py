"""Cross-module property-based tests (hypothesis).

These pin down the invariants the system's correctness rests on, with
randomized inputs: group laws, round-trips, conservation through the
shared-memory and serialization paths, and geometric consistency of the
merge machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.geometry import SE3, Sim3, so3, umeyama
from repro.obs import get_metrics
from repro.sharedmem import (
    ShardedMapStore,
    ShmShardedMapStore,
    deserialize_map,
    keyframe_record_size,
    mappoint_record_size,
    serialize_map,
)
from repro.sharedmem.arena import HEADER_BYTES
from repro.sharedmem.records import RECORD_FRAME
from repro.slam import SlamMap
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from tests.test_net_serialization_transport import make_map
from tests.test_shm_multiproc import _shm_available, make_keyframe, make_mappoint

seeds = st.integers(min_value=0, max_value=10_000)
small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
vec3 = st.lists(small, min_size=3, max_size=3).map(np.array)


class TestGroupLaws:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_se3_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (
            SE3(so3.random_rotation(rng), rng.normal(size=3)) for _ in range(3)
        )
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.almost_equal(rhs, 1e-9, 1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_sim3_associativity(self, seed):
        rng = np.random.default_rng(seed)
        sims = [
            Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.5, 2.0)))
            for _ in range(3)
        ]
        p = rng.normal(size=3)
        lhs = ((sims[0] * sims[1]) * sims[2]).apply(p)
        rhs = (sims[0] * (sims[1] * sims[2])).apply(p)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_sim3_transform_pose_projection_invariance(self, seed):
        """The defining property of the merge pose correction: a world
        point and its transform land on the same image ray."""
        rng = np.random.default_rng(seed)
        s = Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.3, 3.0)))
        pose = SE3(so3.random_rotation(rng), rng.normal(size=3))
        point = rng.normal(size=3) * 3.0
        before = pose.apply(point)
        after = s.transform_pose(pose).apply(s.apply(point))
        if np.linalg.norm(before) < 1e-6:
            return
        cos = np.dot(before, after) / (
            np.linalg.norm(before) * np.linalg.norm(after)
        )
        assert cos > 1.0 - 1e-9


# Any float64 bit pattern for the per-feature arrays (NaN payloads, -0.0,
# subnormals, infinities); finite geometry, since the store routes an
# entity by the grid cell of its position or camera centre.
any_f64 = st.floats(width=64)
geometry = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
scalar = st.floats(allow_nan=False)
u32 = st.integers(0, 2**32 - 1)
u63 = st.integers(0, 2**63 - 1)


@st.composite
def slam_maps(draw):
    """A map whose every record field takes arbitrary values; observations
    agree with the keyframes' point ids, so covisibility is well defined."""
    point_ids = draw(st.lists(u63, max_size=10, unique=True))
    kf_ids = draw(st.lists(u63, max_size=4, unique=True))
    slam_map = SlamMap(map_id=draw(st.integers(-2**63, 2**63 - 1)))
    points = [
        MapPoint(
            point_id=pid,
            position=np.array(draw(st.tuples(geometry, geometry, geometry))),
            descriptor=draw(arrays(np.uint8, 32)),
            client_id=draw(u63),
            times_visible=draw(u32),
            times_found=draw(u32),
        )
        for pid in point_ids
    ]
    for point in points:
        slam_map.add_mappoint(point)
    for kf_id in kf_ids:
        n = draw(st.integers(0, 6))
        ids = draw(st.lists(st.sampled_from([-1] + point_ids), min_size=n,
                            max_size=n))
        kf = KeyFrame(
            keyframe_id=kf_id,
            timestamp=draw(scalar),
            pose_cw=SE3(draw(arrays(np.float64, (3, 3), elements=geometry)),
                        draw(arrays(np.float64, 3, elements=geometry))),
            uv=draw(arrays(np.float64, (n, 2), elements=any_f64)),
            descriptors=draw(arrays(np.uint8, (n, 32))),
            depths=draw(arrays(np.float64, n, elements=any_f64)),
            point_ids=np.array(ids, dtype=np.int64),
            client_id=draw(u63),
            bow_vector=draw(st.dictionaries(u32, scalar, max_size=5)),
        )
        for idx, pid in enumerate(ids):
            if pid >= 0:
                slam_map.mappoints[pid].add_observation(kf_id, idx)
        slam_map.add_keyframe(kf)
    return slam_map


def _bits(value):
    """Bytes of a float or array, so NaN payloads and -0.0 compare."""
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


def assert_same_keyframe(got, want):
    assert (got.keyframe_id, got.client_id) == (want.keyframe_id, want.client_id)
    assert _bits(got.timestamp) == _bits(want.timestamp)
    for name in ("uv", "descriptors", "depths", "point_ids"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert _bits(got.pose_cw.rotation) == _bits(want.pose_cw.rotation)
    assert _bits(got.pose_cw.translation) == _bits(want.pose_cw.translation)
    assert ([(w, _bits(x)) for w, x in got.bow_vector.items()]
            == [(w, _bits(x)) for w, x in want.bow_vector.items()])


def assert_same_mappoint(got, want):
    assert (got.point_id, got.client_id) == (want.point_id, want.client_id)
    assert _bits(got.position) == _bits(want.position)
    assert _bits(got.descriptor) == _bits(want.descriptor)
    assert list(got.observations.items()) == list(want.observations.items())
    assert ((got.times_visible, got.times_found)
            == (want.times_visible, want.times_found))


def _edges(slam_map):
    return {(a, b, w) for a, row in slam_map.covisibility.items()
            for b, w in row.items()}


class TestBitExactRoundTrips:
    """The map's one byte format gives back exactly what was written,
    on the wire and through the store."""

    @given(slam_maps())
    @settings(max_examples=60, deadline=None)
    def test_serialize_deserialize(self, original):
        restored = deserialize_map(serialize_map(original))
        assert restored.map_id == original.map_id
        assert sorted(restored.keyframes) == sorted(original.keyframes)
        assert sorted(restored.mappoints) == sorted(original.mappoints)
        for kf_id, kf in original.keyframes.items():
            assert_same_keyframe(restored.keyframes[kf_id], kf)
        for pid, point in original.mappoints.items():
            assert_same_mappoint(restored.mappoints[pid], point)
        assert _edges(restored) == _edges(original)

    @given(slam_maps())
    @settings(max_examples=60, deadline=None)
    def test_publish_get(self, original):
        store = ShardedMapStore(n_shards=3, capacity=3 * 1024 * 1024)
        store.publish_map(original.keyframes.values(),
                          original.mappoints.values())
        for kf_id, kf in original.keyframes.items():
            assert_same_keyframe(store.get_keyframe(kf_id), kf)
        for pid, point in original.mappoints.items():
            assert_same_mappoint(store.get_mappoint(pid), point)


class TestRoundTrips:
    @given(seeds, st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_map_serialization_preserves_everything(self, seed, n_kf):
        original = make_map(n_keyframes=n_kf, n_points_per_kf=8, seed=seed)
        restored = deserialize_map(serialize_map(original))
        assert restored.n_keyframes == original.n_keyframes
        assert restored.n_mappoints == original.n_mappoints
        for kf_id, kf in original.keyframes.items():
            rkf = restored.keyframes[kf_id]
            assert np.array_equal(rkf.point_ids, kf.point_ids)
            assert rkf.timestamp == kf.timestamp

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_shared_store_roundtrip_random_maps(self, seed):
        slam_map = make_map(n_keyframes=3, n_points_per_kf=10, seed=seed)
        store = ShardedMapStore(n_shards=1, capacity=8 * 1024 * 1024)
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        for kf_id, kf in slam_map.keyframes.items():
            restored = store.get_keyframe(kf_id)
            assert restored is not None
            assert np.array_equal(restored.descriptors, kf.descriptors)
        for pid, point in slam_map.mappoints.items():
            restored = store.get_mappoint(pid)
            assert np.allclose(restored.position, point.position)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_store_update_conserves_entity_count(self, seed):
        slam_map = make_map(n_keyframes=2, n_points_per_kf=6, seed=seed)
        store = ShardedMapStore(n_shards=1, capacity=8 * 1024 * 1024)
        # Publishing twice (an update) must not duplicate entities.
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        stats = store.stats()
        assert stats.n_keyframes == slam_map.n_keyframes
        assert stats.n_mappoints == slam_map.n_mappoints


# Positions span several 8 m regions, so the sharded backends route
# entities to different shards and an update can cross a cell boundary.
coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, width=32)
position = st.tuples(coord, coord, coord)
point_id = st.integers(min_value=0, max_value=15)
keyframe_id = st.integers(min_value=0, max_value=5)

# A one-shard slab that holds the model's largest live set (6 keyframes,
# 16 points) plus one more keyframe version, so an update always fits
# once the log is compacted; about ten keyframe updates overflow it.
TINY_SLAB = HEADER_BYTES + 7 * (
    RECORD_FRAME.size + keyframe_record_size(8, 4)) + 16 * (
    RECORD_FRAME.size + (mappoint_record_size(1) + 7) // 8 * 8)

STORE_BACKENDS = {
    "local-1": lambda: ShardedMapStore(n_shards=1, capacity=1024 * 1024),
    "local-8": lambda: ShardedMapStore(n_shards=8, capacity=1024 * 1024),
    "local-tiny": lambda: ShardedMapStore(n_shards=1, capacity=TINY_SLAB),
    "shm-4": lambda: ShmShardedMapStore.create(
        n_shards=4, pack_capacity=16, shard_slab_bytes=256 * 1024),
    "shm-tiny": lambda: ShmShardedMapStore.create(
        n_shards=1, pack_capacity=16, shard_slab_bytes=TINY_SLAB),
}


class StoreContract(RuleBasedStateMachine):
    """Any map store against a dict model.

    The shm backend is also read through a second attachment of the
    segment, so every check covers records another attachment wrote,
    removed or compacted.
    """

    def __init__(self, backend):
        super().__init__()
        self.store = STORE_BACKENDS[backend]()
        self.views = [self.store]
        if isinstance(self.store, ShmShardedMapStore):
            self.views.append(ShmShardedMapStore.attach(self.store.handle()))
        self.points = {}       # point id -> (position, shard)
        self.keyframes = {}    # keyframe id -> (camera center, shard)

    def teardown(self):
        for view in reversed(self.views):
            view.close()
        if isinstance(self.store, ShmShardedMapStore):
            self.store.unlink()

    def _placed(self, model, entity_id, where, shard):
        # Sticky routing: a live entity never changes shard on update.
        if entity_id in model:
            assert shard == model[entity_id][1]
        model[entity_id] = (where, shard)

    @rule(pid=point_id, pos=position)
    def put_mappoint(self, pid, pos):
        shard = self.store.put_mappoint(make_mappoint(pid, pos))
        self._placed(self.points, pid, pos, shard)

    @rule(kid=keyframe_id, center=position)
    def put_keyframe(self, kid, center):
        shard = self.store.put_keyframe(make_keyframe(kid, center))
        self._placed(self.keyframes, kid, center, shard)

    @rule(pid=point_id)
    def remove_mappoint(self, pid):
        self.store.remove_mappoint(pid)
        self.points.pop(pid, None)

    @rule(kid=keyframe_id)
    def remove_keyframe(self, kid):
        self.store.remove_keyframe(kid)
        self.keyframes.pop(kid, None)

    @rule(kfs=st.dictionaries(keyframe_id, position, max_size=3),
          pts=st.dictionaries(point_id, position, max_size=6))
    def publish_map(self, kfs, pts):
        keyframes = [make_keyframe(k, c) for k, c in kfs.items()]
        points = [make_mappoint(p, pos) for p, pos in pts.items()]
        written = self.store.publish_map(keyframes, points)
        assert written == (
            sum(keyframe_record_size(len(kf), len(kf.bow_vector))
                for kf in keyframes)
            + sum(mappoint_record_size(len(p.observations)) for p in points)
        )
        for kf in keyframes:
            self._placed(self.keyframes, kf.keyframe_id,
                         kfs[kf.keyframe_id], self.store.shard_of_keyframe(kf))
        for p in points:
            self._placed(self.points, p.point_id, pts[p.point_id],
                         self.store.shard_of_mappoint(p))

    @rule()
    def compact(self):
        assert self.store.compact() >= 0
        # Nothing left to win straight after a full pass.
        assert self.store.compact() == 0

    @rule(utilization=st.sampled_from([0.0, 0.5, 1.5]))
    def maybe_compact(self, utilization):
        reclaimed = self.store.maybe_compact(utilization)
        assert reclaimed >= 0
        if utilization > 1.0:
            assert reclaimed == 0

    @invariant()
    def every_view_matches_the_model(self):
        for view in self.views:
            assert view.keyframe_ids() == sorted(self.keyframes)
            assert view.mappoint_ids() == sorted(self.points)
            assert [kf.keyframe_id for kf in view.iter_keyframes()] == sorted(
                self.keyframes)
            for kid in range(6):
                got = view.get_keyframe(kid)
                if kid not in self.keyframes:
                    assert got is None
                    continue
                center, shard = self.keyframes[kid]
                want = make_keyframe(kid, center)
                assert np.allclose(got.camera_center(), center)
                assert np.array_equal(got.descriptors, want.descriptors)
                assert np.array_equal(got.point_ids, want.point_ids)
                assert view.shard_of_keyframe(want) == shard
            for pid in range(16):
                got = view.get_mappoint(pid)
                if pid not in self.points:
                    assert got is None
                    continue
                pos, shard = self.points[pid]
                want = make_mappoint(pid, pos)
                assert np.array_equal(got.position, want.position)
                assert np.array_equal(got.descriptor, want.descriptor)
                assert got.observations == want.observations
                assert view.shard_of_mappoint(want) == shard
            stats = view.stats()
            assert stats.n_keyframes == len(self.keyframes)
            assert stats.n_mappoints == len(self.points)
            assert 0 <= stats.arena.allocated <= stats.arena.capacity
            rows = view.shard_stats()
            assert sum(r["n_mappoints"] for r in rows) == len(self.points)
            assert sum(r["allocated"] for r in rows) == stats.arena.allocated


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_store_contract(backend):
    if backend.startswith("shm") and not _shm_available():
        pytest.skip("OS shared memory unavailable")
    run_state_machine_as_test(
        lambda: StoreContract(backend),
        settings=settings(max_examples=40, stateful_step_count=30,
                          deadline=None),
    )


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_store_metrics_mean_the_same_on_every_backend(backend):
    """One publish, one read, one compaction move the same
    ``sharedmem.*`` instruments whatever the shards are built on."""
    if backend.startswith("shm") and not _shm_available():
        pytest.skip("OS shared memory unavailable")
    metrics = get_metrics()
    was_enabled = metrics.enabled
    metrics.reset()
    metrics.configure(enabled=True)
    machine = StoreContract(backend)
    try:
        store = machine.store
        points = [make_mappoint(i, (9.0 * i, 0.0, 0.0)) for i in range(8)]
        n_hit = len({store.shard_of_mappoint(p) for p in points})
        written = store.publish_map([make_keyframe(0, (0.0, 0.0, 0.0))], points)
        assert store.get_mappoint(3) is not None
        store.compact()
        snap = metrics.snapshot()
    finally:
        machine.teardown()
        metrics.reset()
        metrics.enabled = was_enabled
    counters, hists = snap["counters"], snap["histograms"]
    assert counters["sharedmem.publishes"] == 1
    assert counters["sharedmem.publish_bytes"] == written
    assert counters["sharedmem.multi_shard_writes"] == (n_hit > 1)
    assert counters["sharedmem.compactions"] == 1
    assert hists["sharedmem.publish_ms"]["count"] == 1
    assert hists["sharedmem.shards_per_write"]["count"] == 1
    assert hists["sharedmem.shards_per_write"]["max"] == n_hit
    assert hists["sharedmem.lock_wait_write_us"]["count"] >= n_hit
    assert hists["sharedmem.lock_wait_read_us"]["count"] >= 1


class TestAlignmentProperties:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_umeyama_is_exact_inverse(self, seed):
        """Aligning B->A then A->B composes to identity."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(15, 3)) * 2.0
        s = Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.5, 2.0)))
        moved = s.apply(pts)
        forward = umeyama(pts, moved)
        backward = umeyama(moved, pts)
        roundtrip = backward.apply(forward.apply(pts))
        assert np.allclose(roundtrip, pts, atol=1e-8)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_ate_invariant_under_rigid_motion_of_estimate(self, seed):
        """Aligned ATE must not depend on the estimate's frame."""
        from repro.geometry import Trajectory
        from repro.metrics import absolute_trajectory_error

        rng = np.random.default_rng(seed)
        n = 30
        times = np.arange(n) * 0.1
        gt_pos = np.cumsum(rng.normal(size=(n, 3)) * 0.1, axis=0)
        est_pos = gt_pos + rng.normal(scale=0.02, size=(n, 3))
        gt = Trajectory.from_arrays(times, gt_pos)
        est = Trajectory.from_arrays(times, est_pos)
        moved = est.transformed(
            SE3(so3.random_rotation(rng), rng.normal(size=3) * 5)
        )
        a = absolute_trajectory_error(est, gt).rmse
        b = absolute_trajectory_error(moved, gt).rmse
        assert a == pytest.approx(b, rel=1e-6)


class TestSimulationDeterminism:
    def test_sessions_are_reproducible(self):
        """Same scenario, same seeds -> bitwise-identical results."""
        from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
        from repro.datasets import euroc_dataset

        def run():
            ds = euroc_dataset("MH04", duration=5.0, rate=10.0)
            session = SlamShareSession(
                [ClientScenario(0, ds)],
                SlamShareConfig(camera_fps=10.0, render_video_frames=False),
            )
            result = session.run()
            return result.server.client_trajectory(0).positions

        assert np.array_equal(run(), run())

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_links_deterministic_per_seed(self, seed):
        from repro.net import Link, SimClock

        def deliveries():
            clock = SimClock()
            link = Link(clock, bandwidth_bps=1e6, loss_rate=0.3, seed=seed)
            arrived = []
            for i in range(50):
                link.send(1000, lambda i=i: arrived.append(i))
            clock.run()
            return arrived

        assert deliveries() == deliveries()
