"""Tests for map serialization and framed transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import POSE_BYTES
from repro.geometry import SE3, so3
from repro.net import SimClock, connect
from repro.net.link import DuplexLink, Link
from repro.sharedmem import deserialize_map, map_payload_size, serialize_map
from repro.slam import IdAllocator, SlamMap
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from repro.vision.brief import DESCRIPTOR_BYTES


def make_map(n_keyframes=3, n_points_per_kf=10, client_id=0, seed=0):
    rng = np.random.default_rng(seed)
    slam_map = SlamMap(map_id=client_id)
    kf_alloc = IdAllocator(client_id)
    pt_alloc = IdAllocator(client_id)
    for k in range(n_keyframes):
        n = n_points_per_kf
        point_ids = np.full(n, -1, dtype=np.int64)
        descriptors = rng.integers(0, 256, size=(n, DESCRIPTOR_BYTES), dtype=np.uint8)
        for i in range(n):
            point = MapPoint(
                point_id=pt_alloc.allocate(),
                position=rng.normal(size=3),
                descriptor=descriptors[i],
                client_id=client_id,
            )
            slam_map.add_mappoint(point)
            point_ids[i] = point.point_id
        kf = KeyFrame(
            keyframe_id=kf_alloc.allocate(),
            timestamp=float(k),
            pose_cw=SE3(so3.random_rotation(rng), rng.normal(size=3)),
            uv=rng.uniform(0, 320, size=(n, 2)),
            descriptors=descriptors,
            depths=rng.uniform(1, 10, size=n),
            point_ids=point_ids,
            client_id=client_id,
            bow_vector={int(w): float(rng.random()) for w in rng.integers(0, 512, 5)},
        )
        for i in range(n):
            slam_map.mappoints[int(point_ids[i])].add_observation(kf.keyframe_id, i)
        slam_map.add_keyframe(kf)
    return slam_map


class TestMapSerialization:
    def test_roundtrip_counts(self):
        original = make_map()
        restored = deserialize_map(serialize_map(original))
        assert restored.n_keyframes == original.n_keyframes
        assert restored.n_mappoints == original.n_mappoints
        assert restored.map_id == original.map_id

    def test_roundtrip_keyframe_contents(self):
        original = make_map()
        restored = deserialize_map(serialize_map(original))
        for kf_id, kf in original.keyframes.items():
            rkf = restored.keyframes[kf_id]
            assert np.allclose(rkf.uv, kf.uv)
            assert np.array_equal(rkf.descriptors, kf.descriptors)
            assert np.allclose(rkf.depths, kf.depths)
            assert np.array_equal(rkf.point_ids, kf.point_ids)
            assert rkf.pose_cw.almost_equal(kf.pose_cw, 1e-12, 1e-12)
            assert rkf.bow_vector == kf.bow_vector

    def test_roundtrip_mappoint_contents(self):
        original = make_map()
        restored = deserialize_map(serialize_map(original))
        for pid, point in original.mappoints.items():
            rpoint = restored.mappoints[pid]
            assert np.allclose(rpoint.position, point.position)
            assert np.array_equal(rpoint.descriptor, point.descriptor)
            assert rpoint.observations == point.observations

    def test_roundtrip_is_a_copy(self):
        original = make_map()
        restored = deserialize_map(serialize_map(original))
        pid = next(iter(original.mappoints))
        restored.mappoints[pid].position += 100.0
        assert not np.allclose(
            restored.mappoints[pid].position, original.mappoints[pid].position
        )

    def test_covisibility_rebuilt(self):
        original = make_map()
        restored = deserialize_map(serialize_map(original))
        assert set(restored.covisibility) == set(original.covisibility)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_map(b"NOPE" + b"\x00" * 100)

    def test_truncated_rejected(self):
        payload = serialize_map(make_map())
        with pytest.raises(ValueError):
            deserialize_map(payload[: len(payload) // 2])

    def test_every_prefix_rejected_with_value_error(self):
        # A cut inside a fixed-width field (a count, an id, a float) must
        # read as truncation too, not leak a ``struct.error``.
        payload = serialize_map(make_map())
        for n in range(0, len(payload), 3):
            with pytest.raises(ValueError):
                deserialize_map(payload[:n])

    def test_corrupt_bytes_raise_value_error_or_load(self):
        payload = serialize_map(make_map())
        rng = np.random.default_rng(31)
        loaded = 0
        for _ in range(400):
            corrupt = bytearray(payload)
            corrupt[int(rng.integers(len(corrupt)))] = int(rng.integers(256))
            try:
                restored = deserialize_map(bytes(corrupt))
            except ValueError:
                continue
            assert isinstance(restored, SlamMap)
            loaded += 1
        assert loaded > 0

    def test_size_grows_with_map(self):
        small = map_payload_size(make_map(n_keyframes=2))
        large = map_payload_size(make_map(n_keyframes=8))
        assert large > small * 2

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_property_roundtrip_any_seed(self, seed):
        original = make_map(seed=seed)
        restored = deserialize_map(serialize_map(original))
        assert restored.n_mappoints == original.n_mappoints


class TestPoseSerialization:
    def test_wire_size_is_tiny(self):
        # The paper's point: pose updates are a small 4x4 matrix.
        assert POSE_BYTES == np.eye(4).nbytes == 128


class TestTransport:
    def test_message_delivery_and_handler(self):
        clock = SimClock()
        link = DuplexLink.create(clock, delay_s=0.01)
        client, server = connect("c", "s", clock, link)
        got = []
        server.on("frame", lambda m: got.append(m))
        client.send("frame", 5000, payload="hello")
        clock.run()
        assert len(got) == 1
        assert got[0].payload == "hello"
        assert got[0].latency == pytest.approx(0.01)

    def test_bidirectional(self):
        clock = SimClock()
        link = DuplexLink.create(clock, delay_s=0.005)
        client, server = connect("c", "s", clock, link)
        replies = []
        server.on("frame", lambda m: server.send("pose", 128))
        client.on("pose", lambda m: replies.append(clock.now))
        client.send("frame", 1000)
        clock.run()
        assert replies == [pytest.approx(0.01)]

    def test_unconnected_endpoint_raises(self):
        from repro.net.transport import Endpoint

        with pytest.raises(RuntimeError):
            Endpoint("lonely", SimClock()).send("x", 1)

    def test_timed_transfer_matches_analytic(self):
        clock = SimClock()
        up = Link(clock, bandwidth_bps=8e6, delay_s=0.05)
        down = Link(clock, bandwidth_bps=8e6, delay_s=0.05)
        client, _ = connect("c", "s", clock, DuplexLink(up, down))
        n = 1_000_000
        message = client.send("transfer", n, reliable=True)
        clock.run()
        measured = message.acked_at - message.sent_at
        # payload tx + prop + ack tx + prop
        expected = (n + 40) * 8 / 8e6 + 0.05 + 64 * 8 / 8e6 + 0.05
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_bytes_accounting(self):
        clock = SimClock()
        link = DuplexLink.create(clock)
        client, _ = connect("c", "s", clock, link)
        client.send("frame", 1000)
        clock.run()
        assert client.bytes_sent == 1040
