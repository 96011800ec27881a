"""Tests for SE(3)/Sim(3) transforms and quaternions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SE3, Sim3, quaternion, so3
from repro.geometry.se3 import random_se3
from tests import oracles

small_floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
twist6 = st.lists(small_floats, min_size=6, max_size=6).map(np.array)


class TestSE3:
    def test_identity_apply(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(SE3.identity().apply(p), p)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(0)
        t = random_se3(rng)
        assert (t * t.inverse()).almost_equal(SE3.identity())
        assert (t.inverse() * t).almost_equal(SE3.identity())

    @given(twist6)
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, xi):
        theta = np.linalg.norm(xi[3:])
        if theta >= np.pi - 1e-2:
            xi = xi.copy()
            xi[3:] = xi[3:] / theta * (np.pi - 0.2)
        t = SE3.exp(xi)
        assert np.allclose(t.log(), xi, atol=1e-6)

    def test_apply_batch_matches_single(self):
        rng = np.random.default_rng(2)
        t = random_se3(rng)
        pts = rng.normal(size=(5, 3))
        batch = t.apply(pts)
        for i in range(5):
            assert np.allclose(batch[i], t.apply(pts[i]))

    def test_camera_center(self):
        rng = np.random.default_rng(3)
        t = random_se3(rng)
        # The camera center maps to the origin of the camera frame.
        assert np.allclose(t.apply(t.camera_center()), np.zeros(3), atol=1e-10)

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(4)
        a, b = random_se3(rng), random_se3(rng)
        points = rng.normal(size=(4, 3))
        assert np.allclose((a * b).apply(points), a.apply(b.apply(points)))

    def test_distance_translation_only(self):
        a = SE3.identity()
        b = SE3(np.eye(3), np.array([3.0, 4.0, 0.0]))
        rot_err, trans_err = a.distance(b)
        assert rot_err < 1e-12
        assert trans_err == pytest.approx(5.0)

    def test_perturb_small_twist(self):
        rng = np.random.default_rng(6)
        t = random_se3(rng)
        perturbed = t.perturb(np.full(6, 1e-9))
        assert perturbed.almost_equal(t, rot_tol=1e-7, trans_tol=1e-7)

    @given(xi=twist6, log_theta=st.floats(min_value=-14.0, max_value=0.5),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_exp_shares_so3_exp_to_the_bit(self, xi, log_theta, seed):
        # exp computes the Rodrigues terms once for the rotation and V;
        # the rotation is still so3.exp's, and perturb still composes
        # what the two-pass exponential gave, first-order twists
        # (theta < 1e-10) included.
        omega = xi[3:]
        if np.linalg.norm(omega) > 0:
            xi = np.concatenate([xi[:3], omega / np.linalg.norm(omega) * 10.0 ** log_theta])
        assert SE3.exp(xi).rotation.tobytes() == so3.exp(xi[3:]).tobytes()
        pose = random_se3(np.random.default_rng(seed))
        got, want = pose.perturb(xi), oracles.perturb_reference(pose, xi)
        assert got.rotation.tobytes() == want.rotation.tobytes()
        assert got.translation.tobytes() == want.translation.tobytes()


class TestSim3:
    def test_identity(self):
        p = np.array([1.0, -2.0, 0.5])
        assert np.allclose(Sim3.identity().apply(p), p)

    def test_scale_application(self):
        s = Sim3(np.eye(3), np.zeros(3), 2.0)
        assert np.allclose(s.apply(np.array([1.0, 1.0, 1.0])), [2.0, 2.0, 2.0])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            Sim3(np.eye(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            Sim3(np.eye(3), np.zeros(3), -1.0)

    def test_transform_pose_moves_camera_center_like_a_point(self):
        rng = np.random.default_rng(9)
        s = Sim3(so3.random_rotation(rng), rng.normal(size=3), 1.8)
        pose = random_se3(rng)
        new_pose = s.transform_pose(pose)
        assert np.allclose(new_pose.camera_center(), s.apply(pose.camera_center()), atol=1e-9)

    def test_transform_pose_preserves_projection_direction(self):
        # A world point and its transform must land on the same camera ray.
        rng = np.random.default_rng(10)
        s = Sim3(so3.random_rotation(rng), rng.normal(size=3), 2.5)
        pose = random_se3(rng)
        point = rng.normal(size=3) + np.array([0.0, 0.0, 5.0])
        before = pose.apply(point)
        after = s.transform_pose(pose).apply(s.apply(point))
        assert np.allclose(after / np.linalg.norm(after), before / np.linalg.norm(before), atol=1e-9)


class TestQuaternion:
    def test_identity_rotation(self):
        assert np.allclose(quaternion.to_matrix(quaternion.identity()), np.eye(3))

    def test_multiply_matches_matrix_product(self):
        rng = np.random.default_rng(12)
        qa = quaternion.from_matrix(so3.random_rotation(rng))
        qb = quaternion.from_matrix(so3.random_rotation(rng))
        lhs = quaternion.to_matrix(quaternion.multiply(qa, qb))
        rhs = quaternion.to_matrix(qa) @ quaternion.to_matrix(qb)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_conjugate_is_inverse(self):
        rng = np.random.default_rng(13)
        q = quaternion.from_matrix(so3.random_rotation(rng))
        prod = quaternion.multiply(q, quaternion.conjugate(q))
        assert np.allclose(quaternion.normalize(prod), quaternion.identity(), atol=1e-10)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            r = so3.random_rotation(rng)
            assert np.allclose(quaternion.to_matrix(quaternion.from_matrix(r)), r, atol=1e-9)

    def test_axis_angle_roundtrip(self):
        w = np.array([0.3, -0.2, 0.9])
        q = quaternion.from_matrix(so3.exp(w))
        assert np.allclose(quaternion.to_axis_angle(q), w, atol=1e-9)

    def test_slerp_endpoints_and_midpoint(self):
        qa = quaternion.identity()
        qb = quaternion.from_matrix(so3.exp(np.array([0.0, 0.0, np.pi / 2])))
        assert np.allclose(quaternion.slerp(qa, qb, 0.0), qa)
        assert np.allclose(quaternion.slerp(qa, qb, 1.0), qb, atol=1e-10)
        mid = quaternion.slerp(qa, qb, 0.5)
        angle = np.linalg.norm(quaternion.to_axis_angle(mid))
        assert angle == pytest.approx(np.pi / 4, abs=1e-9)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            quaternion.normalize(np.zeros(4))
