"""The session's input side: the feature oracle's seeded contract, and
``synthesize_imu`` / ``Trajectory.sample`` against their one-item-at-a-time
references.

``FeatureOracle.observe`` draws a fixed number of whole-array blocks per
frame, whatever its feature count; its cases check what each block
models (noise statistics, exact flip counts, dropout rate, budget) and
that a seeded rerun repeats the frames and the generator state.
``synthesize_imu`` and ``Trajectory.sample`` batch what the bodies in
``tests/oracles.py`` did per sample, so those cases assert the same
bytes, the same dtypes and the same generator state afterwards.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.datasets import euroc_dataset, kitti_dataset
from repro.geometry import SE3, Trajectory, TrajectoryPoint, quaternion, so3
from repro.imu import synthesize_imu
from repro.vision import FeatureOracle, FeatureSet, PinholeCamera
from repro.vision.brief import (
    DESCRIPTOR_BITS,
    flip_packed_bits,
    perturb_descriptor,
    random_bit_subsets,
    random_descriptor,
)
from tests.oracles import assert_same_batch, sample_reference, synthesize_imu_reference


@functools.lru_cache(maxsize=None)
def _dataset():
    return euroc_dataset("MH04", duration=3.0, rate=10.0)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _distance_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.unpackbits(a ^ b, axis=-1).sum(axis=-1)


def _field(n=20_000, seed=10):
    """A camera and ``n`` landmarks well inside its view from the origin."""
    camera = PinholeCamera.ideal(320, 240)
    rng = np.random.default_rng(seed)
    z = rng.uniform(3.0, 10.0, n)
    positions = np.column_stack([rng.uniform(-0.5, 0.5, n) * z,
                                 rng.uniform(-0.4, 0.4, n) * z, z])
    return camera, positions, np.arange(n)


class _CountingGenerator:
    """Forwards to a generator and counts the calls made through it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestObserveContract:
    def test_wide_pixel_noise_takes_the_out_of_image_exit(self):
        ds = _dataset()
        oracle = ds.make_oracle(seed=5, pixel_sigma=5.0, dropout=0.0, max_features=10_000)
        pose = ds.pose_cw(0)
        _, _, valid = ds.camera.project_world(ds.world.positions, pose)
        observed = oracle.observe(ds.world.positions, ds.world.ids, pose)
        assert 0 < len(observed) < int(valid.sum())
        assert ((observed.uv >= 0) & (observed.uv < [ds.camera.width, ds.camera.height])).all()

    def test_subsample_keeps_the_budget(self):
        ds = _dataset()
        oracle = ds.make_oracle(seed=5, max_features=40)
        observed = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(0))
        assert 30 < len(observed) <= 40
        assert (np.diff(observed.landmark_ids) > 0).all()

    def test_empty_field_and_nothing_visible_draw_nothing(self):
        oracle = _dataset().make_oracle(seed=5)
        before = oracle._rng.bit_generator.state
        empty = np.zeros((0, 3))
        assert_same_batch(oracle.observe(empty, np.zeros(0, dtype=np.int64), SE3()),
                          FeatureSet())
        behind = np.array([[0.0, 0.0, -2.0], [0.5, 0.1, -3.0]])
        assert_same_batch(oracle.observe(behind, np.array([1, 2]), SE3()), FeatureSet())
        assert oracle._rng.bit_generator.state == before

    @pytest.mark.parametrize("flip_bits", [0, 8, 300])
    def test_kept_descriptors_are_exactly_k_bits_from_their_bank_rows(self, flip_bits):
        ds = _dataset()
        oracle = ds.make_oracle(seed=5, descriptor_flip_bits=flip_bits)
        n_observed = 0
        for index in range(0, ds.n_frames, 3):
            got = oracle.observe(ds.world.positions, ds.world.ids, ds.pose_cw(index))
            rows = oracle.bank.rows(got.landmark_ids)
            assert (_distance_bits(got.descriptors, rows) == min(flip_bits, 256)).all()
            n_observed += len(got)
        assert n_observed > 100

    def test_pixel_and_depth_noise_statistics(self):
        camera, positions, ids = _field()
        oracle = FeatureOracle(camera, pixel_sigma=0.4, depth_sigma_rel=0.01,
                               dropout=0.0, max_features=len(ids), seed=3)
        got = oracle.observe(positions, ids, SE3())
        uv, depth, _ = camera.project_world(positions[got.landmark_ids], SE3())
        assert len(got) == len(ids)   # nothing is near enough the border to leave
        du = got.uv - uv
        rel = got.depths / depth - 1.0
        n = len(got)
        # Means within 4 standard errors, std-devs within 4 % (≈ 5.6 of
        # theirs at n = 20 000).
        assert np.abs(du.mean(axis=0)).max() < 4 * 0.4 / np.sqrt(n)
        assert np.allclose(du.std(axis=0), 0.4, rtol=0.04)
        assert abs(rel.mean()) < 4 * 0.01 / np.sqrt(n)
        assert rel.std() == pytest.approx(0.01, rel=0.04)
        # The axes and the two noises are drawn independently.
        assert abs(np.corrcoef(du[:, 0], du[:, 1])[0, 1]) < 4 / np.sqrt(n)
        assert abs(np.corrcoef(du[:, 0], rel)[0, 1]) < 4 / np.sqrt(n)

    def test_dropout_rate(self):
        camera, positions, ids = _field()
        oracle = FeatureOracle(camera, pixel_sigma=0.0, dropout=0.2,
                               max_features=len(ids), seed=4)
        kept = len(oracle.observe(positions, ids, SE3()))
        expected = 0.8 * len(ids)
        assert abs(kept - expected) < 4 * np.sqrt(len(ids) * 0.2 * 0.8)

    def test_feature_budget_is_met_exactly_and_uniformly(self):
        camera, positions, ids = _field(n=2_000)
        oracle = FeatureOracle(camera, pixel_sigma=0.0, dropout=0.0, max_features=300, seed=5)
        chosen = np.concatenate([oracle.observe(positions, ids, SE3()).landmark_ids
                                 for _ in range(20)])
        assert len(chosen) == 20 * 300
        # Every landmark is picked with probability 0.15 a frame: none is
        # favoured by depth, and the first and second halves draw alike.
        counts = np.bincount(chosen, minlength=len(ids))
        assert abs(counts[:1000].sum() - counts[1000:].sum()) < 4 * np.sqrt(len(chosen) / 4)

    def test_seeded_rerun_gives_equal_frames_and_generator_state(self):
        ds = _dataset()
        first, second = ds.make_oracle(seed=5), ds.make_oracle(seed=5)
        for index in range(0, ds.n_frames, 4):
            pose = ds.pose_cw(index)
            assert_same_batch(first.observe(ds.world.positions, ds.world.ids, pose),
                              second.observe(ds.world.positions, ds.world.ids, pose))
            assert first._rng.bit_generator.state == second._rng.bit_generator.state

    @pytest.mark.parametrize("flip_bits", [0, 8])
    def test_draws_per_frame_do_not_depend_on_the_feature_count(self, flip_bits):
        camera, positions, ids = _field(n=2_000)
        oracle = FeatureOracle(camera, descriptor_flip_bits=flip_bits, max_features=300)
        oracle._rng = counting = _CountingGenerator(oracle._rng)
        for n in (50, 250, 2_000):
            counting.calls.clear()
            assert len(oracle.observe(positions[:n], ids[:n], SE3())) > 0.8 * min(n, 300)
            budget = ["choice"] if n > 300 else []
            assert counting.calls == (["random"] + budget + ["normal"]
                                      + ["integers"] * flip_bits + ["normal"])


class TestWorldAppearance:
    def test_the_machine_hall_keeps_its_rows_and_other_worlds_get_their_own(self):
        ids = np.arange(0, 1440, 37)
        hall = [euroc_dataset(n, duration=1.0).descriptor_bank().rows(ids)
                for n in ("MH04", "MH05")]
        for i, row in zip(ids.tolist(), hall[0]):
            assert row.tobytes() == random_descriptor(np.random.default_rng(0xD5C + i)).tobytes()
        assert hall[0].tobytes() == hall[1].tobytes()
        others = [euroc_dataset("V202", duration=1.0).descriptor_bank().rows(ids)]
        others += [kitti_dataset(n, duration=1.0).descriptor_bank().rows(ids)
                   for n in ("KITTI-00", "KITTI-05")]
        banks = [hall[0]] + others
        for a in range(len(banks)):
            for b in range(a + 1, len(banks)):
                # Unrelated descriptors sit about 128 bits apart.
                assert _distance_bits(banks[a], banks[b]).min() > 80

    def test_bank_rows_are_a_copy_and_negative_ids_are_refused(self):
        bank = _dataset().descriptor_bank()
        rows = bank.rows([3, 1, 3])
        assert rows[0].tobytes() == rows[2].tobytes()
        rows[0] ^= 0xFF
        assert bank.rows([3])[0].tobytes() == rows[2].tobytes()
        with pytest.raises(ValueError):
            bank.rows([-1])


class TestDescriptorFlips:
    @pytest.mark.parametrize("flip_bits", [-1, 0, 1, 8, 255, 256, 300])
    def test_perturb_matches_unpacked_round_trip(self, flip_bits):
        rng_live, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            d = random_descriptor(np.random.default_rng(9))
            got = perturb_descriptor(d, rng_live, flip_bits)
            bits = np.unpackbits(d)
            bits[random_bit_subsets(rng_ref, 1, flip_bits)[0]] ^= 1
            want = np.packbits(bits)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert _distance_bits(got, d) == max(0, min(flip_bits, 256))
            assert got is not d
        assert rng_live.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("k", [1, 8, 100, 256])
    def test_subsets_are_distinct_and_uniform(self, k):
        n_rows = 4_000
        subsets = random_bit_subsets(np.random.default_rng(k), n_rows, k)
        assert subsets.shape == (n_rows, k)
        assert subsets.min() >= 0 and subsets.max() < DESCRIPTOR_BITS
        ordered = np.sort(subsets, axis=1)
        assert (np.diff(ordered, axis=1) > 0).all()
        # Each bit is in a row's subset with probability k / 256.
        counts = np.bincount(subsets.ravel(), minlength=DESCRIPTOR_BITS)
        p = k / DESCRIPTOR_BITS
        assert np.abs(counts - n_rows * p).max() <= 5 * np.sqrt(n_rows * p * (1 - p)) + 1e-9

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
        quaternion.from_matrix(so3.exp(rng.uniform(-max_angle, max_angle, size=3)))
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
