"""The session's input side against its one-item-at-a-time references.

``FeatureOracle.observe``, ``perturb_descriptor``, ``synthesize_imu``
and ``Trajectory.sample`` batch what the bodies in ``tests/oracles.py``
did per feature or per sample; ``observe`` returns the columns that
``Frame.from_observations`` once assembled from one object per feature.
Their generator calls are the seeded contract, so each case asserts the
same bytes, the same dtypes and the same generator state afterwards.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.datasets import euroc_dataset
from repro.geometry import SE3, Trajectory, TrajectoryPoint, quaternion
from repro.imu import synthesize_imu
from repro.vision.brief import (
    DESCRIPTOR_BITS,
    flip_packed_bits,
    perturb_descriptor,
    random_descriptor,
)
from repro.vision import FeatureSet
from tests.oracles import (
    assert_same_batch,
    frame_from_observations_reference,
    observe_reference,
    perturb_descriptor_reference,
    sample_reference,
    synthesize_imu_reference,
)


@functools.lru_cache(maxsize=None)
def _dataset():
    return euroc_dataset("MH04", duration=3.0, rate=10.0)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def observe_batch_reference(oracle, positions, landmark_ids, pose):
    return frame_from_observations_reference(
        observe_reference(oracle, positions, landmark_ids, pose))


def _oracles(stereo, **kwargs):
    ds = _dataset()
    return (ds.make_oracle(stereo=stereo, seed=5, **kwargs),
            ds.make_oracle(stereo=stereo, seed=5, **kwargs))


class TestObserveMatchesReference:
    @pytest.mark.parametrize("stereo", [False, True], ids=["mono", "stereo"])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"descriptor_flip_bits": 0},
        {"descriptor_flip_bits": 300},
        {"dropout": 0.0},
        {"max_features": 40},
        {"pixel_sigma": 5.0},
    ], ids=["default", "flip0", "flip300", "no-dropout", "subsample", "sigma5"])
    def test_frames_byte_equal_and_same_generator_state(self, stereo, kwargs):
        ds = _dataset()
        live, ref = _oracles(stereo, **kwargs)
        n_observed = 0
        for index in range(0, ds.n_frames, 3):
            pose = ds.pose_cw(index)
            got = live.observe(ds.world.positions, ds.world.ids, pose)
            want = observe_batch_reference(ref, ds.world.positions, ds.world.ids, pose)
            assert_same_batch(got, want)
            assert live._rng.bit_generator.state == ref._rng.bit_generator.state
            n_observed += len(got)
        assert n_observed > 100

    def test_wide_pixel_noise_takes_the_out_of_image_exit(self):
        # At sigma 5 px some features land outside the image; they stop
        # after their uv draw, which the reference comparison above
        # covers only if the exit is actually taken.
        ds = _dataset()
        oracle, _ = _oracles(False, pixel_sigma=5.0, dropout=0.0, max_features=10_000)
        pose = ds.pose_cw(0)
        _, _, valid = ds.camera.project_world(ds.world.positions, pose)
        observed = oracle.observe(ds.world.positions, ds.world.ids, pose)
        assert 0 < len(observed) < int(valid.sum())

    def test_subsample_keeps_the_budget(self):
        ds = _dataset()
        oracle, _ = _oracles(False, max_features=40)
        observed = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(0))
        assert 30 < len(observed) <= 40
        assert (np.diff(observed.landmark_ids) > 0).all()

    @pytest.mark.parametrize("stereo", [False, True], ids=["mono", "stereo"])
    def test_empty_field_and_nothing_visible_draw_nothing(self, stereo):
        live, ref = _oracles(stereo)
        before = live._rng.bit_generator.state
        empty = np.zeros((0, 3))
        assert_same_batch(live.observe(empty, np.zeros(0, dtype=np.int64), SE3()),
                          FeatureSet())
        behind = np.array([[0.0, 0.0, -2.0], [0.5, 0.1, -3.0]])
        assert_same_batch(live.observe(behind, np.array([1, 2]), SE3()), FeatureSet())
        assert observe_reference(ref, behind, np.array([1, 2]), SE3()) == []
        assert live._rng.bit_generator.state == before == ref._rng.bit_generator.state


class TestDescriptorFlips:
    @pytest.mark.parametrize("flip_bits", [-1, 0, 1, 8, 255, 256, 300])
    def test_perturb_matches_unpacked_round_trip(self, flip_bits):
        rng_live, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            d = random_descriptor(np.random.default_rng(9))
            got = perturb_descriptor(d, rng_live, flip_bits)
            want = perturb_descriptor_reference(d, rng_ref, flip_bits)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got is not d
        assert rng_live.bit_generator.state == rng_ref.bit_generator.state

    def test_rows_flip_in_unpackbits_order_with_shared_bytes(self):
        rng = np.random.default_rng(12)
        rows = np.stack([random_descriptor(rng) for _ in range(3)])
        # Bits 0..7 share row 0's first byte; 256 + 255 is row 1's last bit.
        bits = np.array([0, 1, 2, 7, 3, 256 + 255, 2 * DESCRIPTOR_BITS + 100])
        expected = np.unpackbits(rows, axis=1).reshape(-1)
        expected[bits] ^= 1
        flipped = rows.copy()
        flip_packed_bits(flipped, bits)
        assert flipped.tobytes() == np.packbits(expected.reshape(3, -1), axis=1).tobytes()


def _knot_trajectory(n=40, rate=20.0, seed=3, max_angle=0.5):
    rng = np.random.default_rng(seed)
    times = np.arange(n) / rate
    positions = np.cumsum(rng.normal(scale=0.05, size=(n, 3)), axis=0)
    orientations = np.stack([
        quaternion.from_axis_angle(rng.uniform(-max_angle, max_angle, size=3))
        for _ in range(n)
    ])
    return Trajectory.from_arrays(times, positions, orientations)


def assert_same_point(a: TrajectoryPoint, b: TrajectoryPoint):
    assert _bits(a.timestamp) == _bits(b.timestamp)
    assert a.position.tobytes() == b.position.tobytes()
    assert a.orientation.tobytes() == b.orientation.tobytes()


class TestTrajectorySample:
    @pytest.mark.parametrize("max_angle", [0.5, 1e-5])
    def test_knots_ends_and_between_match_searchsorted(self, max_angle):
        # With near-parallel knots slerp takes its linear branch, where
        # ``a + 1 * (b - a)`` need not round to ``b``: a query on a knot
        # then tells which segment the lookup chose.
        traj = _knot_trajectory(max_angle=max_angle)
        knots = traj.timestamps.tolist()
        queries = knots + [knots[0] - 1.0, knots[-1] + 1.0]
        queries += [(a + b) / 2 for a, b in zip(knots, knots[1:])]
        queries += list(np.linspace(knots[0], knots[-1], 97))
        for t in queries:
            assert_same_point(traj.sample(t), sample_reference(traj, t))
        assert traj.sample(knots[0]) is traj[0]
        assert traj.sample(knots[-1]) is traj[len(traj) - 1]

    def test_a_trajectory_grown_by_append(self):
        full = _knot_trajectory(n=25)
        grown = Trajectory()
        for k, point in enumerate(full):
            grown.append(point)
            assert grown.timestamps.tobytes() == full.timestamps[: k + 1].tobytes()
            for t in np.linspace(full[0].timestamp - 0.1, point.timestamp + 0.1, 11):
                assert_same_point(grown.sample(float(t)), sample_reference(grown, float(t)))
        with pytest.raises(ValueError):
            grown.append(full[3])
        with pytest.raises(ValueError):
            Trajectory().sample(0.0)


class TestSynthesizeImuMatchesReference:
    @pytest.mark.parametrize("with_noise", [True, False], ids=["noisy", "clean"])
    @pytest.mark.parametrize("rate_hz", [100.0, 200.0])
    def test_samples_byte_equal_and_same_generator_state(
        self, monkeypatch, with_noise, rate_hz
    ):
        made = []
        default_rng = np.random.default_rng

        def recording_rng(seed=None):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        traj = _dataset().ground_truth
        got = synthesize_imu(traj, rate_hz=rate_hz, seed=17, with_noise=with_noise)
        want = synthesize_imu_reference(traj, rate_hz=rate_hz, seed=17,
                                        with_noise=with_noise)
        assert len(got) == len(want) > 100
        for a, b in zip(got, want):
            assert type(a.timestamp) is type(b.timestamp) is float
            assert a.timestamp == b.timestamp
            assert a.gyro.dtype == b.gyro.dtype and a.gyro.shape == b.gyro.shape
            assert a.gyro.tobytes() == b.gyro.tobytes()
            assert a.accel.tobytes() == b.accel.tobytes()
        assert len(made) == 2
        assert made[0].bit_generator.state == made[1].bit_generator.state


class TestFrameFromObservations:
    """``observe``'s batch against the columns built from one object per feature."""

    @pytest.mark.parametrize("stereo", [False, True], ids=["mono", "stereo"])
    def test_arrays_byte_equal_with_the_same_dtypes(self, stereo):
        ds = _dataset()
        live, ref = _oracles(stereo)
        for index in (0, 5):
            pose = ds.pose_cw(index)
            got = live.observe(ds.world.positions, ds.world.ids, pose)
            want = observe_batch_reference(ref, ds.world.positions, ds.world.ids, pose)
            assert len(got) > 50 and (got.landmark_ids >= 0).all()
            assert_same_batch(got, want)
            assert live._rng.bit_generator.state == ref._rng.bit_generator.state
        assert_same_batch(frame_from_observations_reference([]), FeatureSet())
