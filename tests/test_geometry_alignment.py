"""Tests for Umeyama/Horn alignment and trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    SE3,
    Sim3,
    Trajectory,
    TrajectoryPoint,
    quaternion,
    ransac_umeyama,
    so3,
    umeyama,
)


def _random_points(rng, n=30):
    return rng.normal(scale=2.0, size=(n, 3))


def _rmse(source, target, transform):
    residual = target - transform.apply(source)
    return float(np.sqrt((residual ** 2).sum(axis=1).mean()))


def _same_sim3(got, want, tol=1e-12):
    return (np.abs(got.scale * got.rotation - want.scale * want.rotation).max() <= tol
            and np.abs(got.translation - want.translation).max() <= tol)


class TestUmeyama:
    def test_recovers_known_similarity(self):
        rng = np.random.default_rng(0)
        src = _random_points(rng)
        truth = Sim3(so3.random_rotation(rng), rng.normal(size=3), 1.9)
        est = umeyama(src, truth.apply(src))
        assert est.almost_equal(truth, tol=1e-8)

    def test_recovers_rigid_when_scale_disabled(self):
        rng = np.random.default_rng(1)
        src = _random_points(rng)
        truth = SE3(so3.random_rotation(rng), rng.normal(size=3))
        est = umeyama(src, truth.apply(src), with_scale=False)
        assert est.scale == 1.0
        assert SE3(est.rotation, est.translation).almost_equal(
            truth, rot_tol=1e-8, trans_tol=1e-8)

    def test_scale_fixed_to_one_without_scale(self):
        rng = np.random.default_rng(2)
        src = _random_points(rng)
        target = 3.0 * src  # pure scaling
        est = umeyama(src, target, with_scale=False)
        assert est.scale == 1.0

    def test_noise_robustness(self):
        rng = np.random.default_rng(3)
        src = _random_points(rng, n=200)
        truth = Sim3(so3.random_rotation(rng), rng.normal(size=3), 1.2)
        tgt = truth.apply(src) + rng.normal(scale=0.01, size=src.shape)
        est = umeyama(src, tgt)
        assert _rmse(src, tgt, est) < 0.05
        assert abs(est.scale - truth.scale) < 0.01

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            umeyama(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            umeyama(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_rejects_degenerate_source(self):
        src = np.zeros((5, 3))
        with pytest.raises(ValueError):
            umeyama(src, src + 1.0)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_similarity_recovered(self, seed):
        rng = np.random.default_rng(seed)
        src = _random_points(rng, n=10)
        # Guard against degenerate draws (collinear sets are measure-zero).
        truth = Sim3(so3.random_rotation(rng), rng.normal(size=3), float(rng.uniform(0.5, 2.0)))
        est = umeyama(src, truth.apply(src))
        assert _rmse(src, truth.apply(src), est) < 1e-8


class TestRansacUmeyama:
    def test_rejects_outliers(self):
        rng = np.random.default_rng(4)
        src = _random_points(rng, n=60)
        truth = Sim3(so3.random_rotation(rng), rng.normal(size=3), 1.5)
        tgt = truth.apply(src)
        # Corrupt 30% of correspondences badly.
        outliers = rng.choice(60, size=18, replace=False)
        tgt[outliers] += rng.normal(scale=10.0, size=(18, 3))
        est, mask = ransac_umeyama(src, tgt, rng, inlier_threshold=0.1)
        assert est is not None
        assert mask.sum() >= 40
        assert abs(est.scale - truth.scale) < 0.05

    def test_returns_none_on_garbage(self):
        rng = np.random.default_rng(5)
        src = _random_points(rng, n=20)
        tgt = rng.normal(scale=50.0, size=(20, 3))
        est, mask = ransac_umeyama(src, tgt, rng, inlier_threshold=0.01, min_inliers=10)
        assert est is None and mask is None

    def test_too_few_points(self):
        rng = np.random.default_rng(6)
        est, mask = ransac_umeyama(np.zeros((2, 3)), np.zeros((2, 3)), rng)
        assert est is None


def _ransac_umeyama_sequential(
    source, target, rng, with_scale=True, iterations=100,
    inlier_threshold=0.25, min_inliers=6,
):
    """One-hypothesis-at-a-time RANSAC: the oracle for the batched kernel.

    This is the loop ``ransac_umeyama`` ran before it was batched, kept
    verbatim so the two can be held to the same draws and the same answer.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    n = source.shape[0]
    if n < 3:
        return None, None
    best_transform, best_mask, best_count = None, None, 0
    for _ in range(iterations):
        idx = rng.choice(n, size=3, replace=False)
        try:
            candidate = umeyama(source[idx], target[idx], with_scale=with_scale)
        except (ValueError, np.linalg.LinAlgError):
            continue
        residual = np.linalg.norm(target - candidate.apply(source), axis=1)
        mask = residual < inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask, best_transform = count, mask, candidate
    if best_transform is None or best_count < max(min_inliers, 3):
        return None, None
    refined = umeyama(source[best_mask], target[best_mask], with_scale=with_scale)
    residual = np.linalg.norm(target - refined.apply(source), axis=1)
    final_mask = residual < inlier_threshold
    if final_mask.sum() < max(min_inliers, 3):
        return None, None
    return refined, final_mask


def _fuzz_case(kind, seed):
    """``(source, target, kwargs)`` for one seeded case of a named shape."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 80))
    src = _random_points(rng, n)
    truth = Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.5, 2.0)))
    tgt = truth.apply(src) + rng.normal(scale=0.02, size=(n, 3))
    kwargs = {}
    if kind == "minimal":            # n == 3: every draw is the whole set
        src, tgt, kwargs = src[:3], tgt[:3], {"min_inliers": 3}
    elif kind == "duplicated":       # samples of one repeated point
        src[: n // 2] = src[0]
    elif kind == "collinear":        # rank-1 covariance, rotation ambiguous
        src = np.outer(np.linspace(0.0, 1.0, n), rng.normal(size=3))
        tgt = truth.apply(src)
    elif kind == "identical":        # zero variance in every sample
        src[:] = src[0]
    elif kind == "rigid":
        tgt = SE3(truth.rotation, truth.translation).apply(src)
        kwargs = {"with_scale": False}
    elif kind == "outliers":
        k = n // 3
        tgt[:k] += rng.normal(scale=10.0, size=(k, 3))
    elif kind == "garbage":
        tgt = rng.normal(scale=50.0, size=(n, 3))
        kwargs = {"inlier_threshold": 0.01}
    elif kind == "non_finite":       # SVD of a NaN covariance raises
        src[0] = np.nan
    else:
        assert kind == "clean"
    return src, tgt, kwargs


class TestRansacBatchedMatchesSequential:
    """The batched kernel is the sequential loop, draw for draw."""

    @pytest.mark.parametrize("kind", [
        "clean", "minimal", "duplicated", "collinear", "identical", "rigid",
        "outliers", "garbage", "non_finite",
    ])
    def test_same_result_and_rng_state(self, kind):
        found = 0
        for seed in range(40):
            src, tgt, kwargs = _fuzz_case(kind, seed)
            rng_seq = np.random.default_rng(1000 + seed)
            rng_bat = np.random.default_rng(1000 + seed)
            with np.errstate(all="ignore"):
                want, want_mask = _ransac_umeyama_sequential(
                    src, tgt, rng_seq, **kwargs)
            got, got_mask = ransac_umeyama(src, tgt, rng_bat, **kwargs)
            assert rng_bat.bit_generator.state == rng_seq.bit_generator.state
            assert (got is None) == (want is None), (kind, seed)
            if want is None:
                assert got_mask is None
                continue
            found += 1
            assert np.array_equal(got_mask, want_mask), (kind, seed)
            assert _same_sim3(got, want)
        if kind in ("clean", "minimal", "rigid", "outliers"):
            assert found >= 30   # the comparison is not vacuous
        if kind in ("identical", "garbage"):
            assert found == 0

    def test_first_best_hypothesis_wins_ties(self):
        # Noise-free data: many hypotheses reach the full inlier count, so
        # selection is decided purely by the first-maximum rule.
        rng = np.random.default_rng(8)
        src = _random_points(rng, n=25)
        tgt = Sim3(so3.random_rotation(rng), rng.normal(size=3), 1.2).apply(src)
        want, want_mask = _ransac_umeyama_sequential(
            src, tgt, np.random.default_rng(3))
        got, got_mask = ransac_umeyama(src, tgt, np.random.default_rng(3))
        assert want_mask.all() and np.array_equal(got_mask, want_mask)
        assert _same_sim3(got, want)


class TestTrajectory:
    def _make(self, n=10, dt=0.1):
        times = np.arange(n) * dt
        pos = np.column_stack([times, np.zeros(n), np.zeros(n)])  # 1 m/s along x
        return Trajectory.from_arrays(times, pos)

    def test_round_trip_arrays(self):
        traj = self._make()
        assert len(traj) == 10
        assert np.allclose(traj.positions[:, 0], traj.timestamps)

    def test_monotonic_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(
                [
                    TrajectoryPoint(1.0, np.zeros(3), quaternion.identity()),
                    TrajectoryPoint(0.5, np.zeros(3), quaternion.identity()),
                ]
            )

    def test_sample_interpolates_linearly(self):
        traj = self._make()
        p = traj.sample(0.05)
        assert p.position[0] == pytest.approx(0.05)

    def test_sample_clamps_at_ends(self):
        traj = self._make()
        assert traj.sample(-1.0).timestamp == 0.0
        assert traj.sample(99.0).timestamp == pytest.approx(0.9)

    def test_slice_time(self):
        traj = self._make()
        sub = traj.slice_time(0.25, 0.65)
        assert len(sub) == 4  # samples at 0.3, 0.4, 0.5, 0.6

    def test_resample(self):
        traj = self._make()
        re = traj.resample([0.05, 0.15, 0.25])
        assert len(re) == 3
        assert np.allclose(re.positions[:, 0], [0.05, 0.15, 0.25])

    def test_velocities_constant_speed(self):
        traj = self._make()
        vel = traj.velocities()
        assert np.allclose(vel[1:, 0], 1.0)

    def test_pose_conventions(self):
        p = TrajectoryPoint(
            0.0, np.array([1.0, 2.0, 3.0]), quaternion.identity()
        )
        # Body origin expressed in world == position.
        assert np.allclose(p.pose_wb().apply(np.zeros(3)), [1.0, 2.0, 3.0])
        assert np.allclose(p.pose_bw().apply(np.array([1.0, 2.0, 3.0])), np.zeros(3))
