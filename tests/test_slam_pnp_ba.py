"""Tests for PnP pose solving and bundle adjustment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SE3, so3
from repro.slam import pnp, solve_pnp, solve_pnp_ransac
from repro.slam.bundle_adjustment import (
    global_bundle_adjustment,
    local_bundle_adjustment,
)
from repro.vision import PinholeCamera
from tests import oracles


def _scene(n=80, seed=0, pose_scale=0.3):
    rng = np.random.default_rng(seed)
    cam = PinholeCamera.ideal(320, 240)
    true_pose = SE3(so3.exp(rng.normal(scale=0.2, size=3)),
                    rng.normal(scale=pose_scale, size=3))
    pts_cam = np.column_stack(
        [rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n), rng.uniform(2, 15, n)]
    )
    pts_w = true_pose.inverse().apply(pts_cam)
    uv, valid = cam.project(pts_cam)
    return cam, true_pose, pts_w[valid], uv[valid], pts_cam[valid, 2]


class TestSolvePnP:
    def test_converges_from_far_prior(self):
        cam, truth, pts_w, uv, _ = _scene()
        rng = np.random.default_rng(1)
        prior = truth.perturb(rng.normal(scale=0.2, size=6))
        result = solve_pnp(pts_w, uv, cam, prior)
        rot_err, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 1e-6 and rot_err < 1e-8
        assert result.n_inliers == len(uv)

    def test_noisy_pixels(self):
        cam, truth, pts_w, uv, _ = _scene(n=150, seed=2)
        rng = np.random.default_rng(3)
        noisy_uv = uv + rng.normal(scale=0.5, size=uv.shape)
        result = solve_pnp(pts_w, noisy_uv, cam, truth.perturb(np.full(6, 0.05)))
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 0.02

    def test_too_few_points(self):
        cam, truth, pts_w, uv, _ = _scene()
        result = solve_pnp(pts_w[:3], uv[:3], cam, truth)
        assert not result.converged
        assert result.n_inliers == 0

    def test_huber_downweights_outliers(self):
        cam, truth, pts_w, uv, _ = _scene(n=120, seed=4)
        rng = np.random.default_rng(5)
        corrupted = uv.copy()
        bad = rng.choice(len(uv), size=len(uv) // 5, replace=False)
        corrupted[bad] += rng.normal(scale=40.0, size=(len(bad), 2))
        result = solve_pnp(pts_w, corrupted, cam, truth.perturb(np.full(6, 0.02)))
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 0.02
        assert result.n_inliers <= len(uv) - len(bad) + 5

    def test_depth_residual_pins_forward_translation(self):
        # Only central, distant points: reprojection alone barely
        # constrains z; the depth term must.
        rng = np.random.default_rng(6)
        cam = PinholeCamera.ideal(320, 240)
        truth = SE3.identity()
        pts_cam = np.column_stack(
            [rng.uniform(-0.4, 0.4, 60), rng.uniform(-0.3, 0.3, 60),
             rng.uniform(9, 11, 60)]
        )
        uv, valid = cam.project(pts_cam)
        pts_w = pts_cam[valid]
        prior = SE3(np.eye(3), np.array([0.0, 0.0, 0.3]))  # 30 cm forward error
        no_depth = solve_pnp(pts_w, uv[valid], cam, prior)
        with_depth = solve_pnp(pts_w, uv[valid], cam, prior, depths=pts_w[:, 2])
        _, err_no = no_depth.pose_cw.distance(truth)
        _, err_yes = with_depth.pose_cw.distance(truth)
        assert err_yes < err_no
        assert err_yes < 0.05

    def test_lm_descends_robust_cost(self):
        # Regression for the GN-stall bug: from a moderately wrong prior
        # the solver must land at the same optimum as from the truth.
        cam, truth, pts_w, uv, _ = _scene(n=200, seed=7)
        rng = np.random.default_rng(8)
        noisy_uv = uv + rng.normal(scale=0.5, size=uv.shape)
        from_truth = solve_pnp(pts_w, noisy_uv, cam, truth)
        from_prior = solve_pnp(
            pts_w, noisy_uv, cam, truth.perturb(rng.normal(scale=0.1, size=6))
        )
        rot_gap, trans_gap = from_truth.pose_cw.distance(from_prior.pose_cw)
        assert trans_gap < 5e-3 and rot_gap < 5e-4

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_property_clean_data_exact(self, seed):
        cam, truth, pts_w, uv, _ = _scene(n=60, seed=seed)
        if len(uv) < 10:
            return
        result = solve_pnp(pts_w, uv, cam, truth.perturb(np.full(6, 0.03)))
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 1e-4


class TestSolvePnPRansac:
    def test_survives_heavy_contamination(self):
        cam, truth, pts_w, uv, _ = _scene(n=150, seed=9)
        rng = np.random.default_rng(10)
        corrupted = uv.copy()
        bad = rng.choice(len(uv), size=int(len(uv) * 0.4), replace=False)
        corrupted[bad] = rng.uniform(0, 300, size=(len(bad), 2))
        result = solve_pnp_ransac(
            pts_w, corrupted, cam, truth.perturb(np.full(6, 0.05)), rng
        )
        assert result is not None
        _, trans_err = result.pose_cw.distance(truth)
        assert trans_err < 0.05

    def test_returns_none_on_garbage(self):
        cam, truth, pts_w, uv, _ = _scene(n=40, seed=11)
        rng = np.random.default_rng(12)
        garbage = rng.uniform(0, 300, size=uv.shape)
        assert solve_pnp_ransac(pts_w, garbage, cam, truth, rng,
                                min_inliers=15) is None

    def test_too_few_points_none(self):
        cam, truth, pts_w, uv, _ = _scene()
        rng = np.random.default_rng(13)
        assert solve_pnp_ransac(pts_w[:4], uv[:4], cam, truth, rng) is None


def _pnp_case(name):
    """(points_w, uv, camera, prior, kwargs) for one seeded PnP problem."""
    cam, truth, pts_w, uv, z = _scene(n=150, seed=2)
    rng = np.random.default_rng(3)
    uv = uv + rng.normal(scale=0.5, size=uv.shape)
    prior = truth.perturb(rng.normal(scale=0.05, size=6))
    kwargs = {}
    if name == "depths":
        depths = z.copy()
        depths[::3] = 0.0
        depths[1::7] = -1.0
        kwargs["depths"] = depths
    elif name == "depths_all_missing":
        kwargs["depths"] = np.zeros(len(z))
    elif name == "outliers_30":
        bad = rng.choice(len(uv), size=int(0.3 * len(uv)), replace=False)
        uv[bad] += rng.normal(scale=40.0, size=(len(bad), 2))
        kwargs["depths"] = z
    elif name == "behind_camera":
        # A fifth of the points pushed behind the camera along its axis.
        behind = np.arange(0, len(z), 5)
        pts_cam = truth.apply(pts_w)
        pts_cam[behind, 2] = -pts_cam[behind, 2]
        pts_w = truth.inverse().apply(pts_cam)
        kwargs["depths"] = z
    elif name == "four_points":
        pts_w, uv = pts_w[:4], uv[:4]
    elif name == "three_points":
        pts_w, uv = pts_w[:3], uv[:3]
    elif name == "max_iterations_5":
        # Far enough out that five iterations end the solve unconverged.
        prior = truth.perturb(rng.normal(scale=0.5, size=6))
        kwargs["max_iterations"] = 5
    elif name == "identical_points":
        pts_w = np.repeat(pts_w[:1], 10, axis=0)
        uv = np.repeat(uv[:1], 10, axis=0)
    else:
        assert name == "plain"
    return pts_w, uv, cam, prior, kwargs


PNP_CASES = ("plain", "depths", "depths_all_missing", "outliers_30",
             "behind_camera", "four_points", "three_points",
             "max_iterations_5", "identical_points")


def _assert_same_result(live, ref):
    assert live.pose_cw.rotation.tobytes() == ref.pose_cw.rotation.tobytes()
    assert live.pose_cw.translation.tobytes() == ref.pose_cw.translation.tobytes()
    assert live.inliers.dtype == ref.inliers.dtype
    assert live.inliers.tobytes() == ref.inliers.tobytes()
    assert live.iterations == ref.iterations
    assert live.converged == ref.converged
    assert (np.float64(live.mean_error_px).tobytes()
            == np.float64(ref.mean_error_px).tobytes())


class TestSolvePnPMatchesReference:
    """Linearising only the kept steps changes no bit of any result."""

    @pytest.mark.parametrize("name", PNP_CASES)
    def test_byte_equal_result(self, name):
        pts_w, uv, cam, prior, kwargs = _pnp_case(name)
        _assert_same_result(
            solve_pnp(pts_w, uv, cam, prior, **kwargs),
            oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs),
        )

    def test_byte_equal_through_singular_solves(self, monkeypatch):
        # Damping keeps the normal equations positive definite for any
        # finite input (identical points included), so the LinAlgError
        # branch is reached by a solve that refuses every other call.
        solve = np.linalg.solve

        def flaky(calls):
            def flaky_solve(a, b):
                calls.append(None)
                if len(calls) % 2:
                    raise np.linalg.LinAlgError("Singular matrix")
                return solve(a, b)
            return flaky_solve

        pts_w, uv, cam, prior, kwargs = _pnp_case("identical_points")
        live_calls, ref_calls = [], []
        monkeypatch.setattr(np.linalg, "solve", flaky(live_calls))
        live = solve_pnp(pts_w, uv, cam, prior, **kwargs)
        monkeypatch.setattr(np.linalg, "solve", flaky(ref_calls))
        ref = oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs)
        _assert_same_result(live, ref)
        assert len(live_calls) == len(ref_calls) > 2

    @pytest.mark.parametrize("seed", [10, 12])
    def test_ransac_same_rng_same_result(self, monkeypatch, seed):
        cam, truth, pts_w, uv, _ = _scene(n=150, seed=9)
        rng = np.random.default_rng(seed)
        bad = rng.choice(len(uv), size=int(len(uv) * 0.4), replace=False)
        uv[bad] = rng.uniform(0, 300, size=(len(bad), 2))
        prior = truth.perturb(np.full(6, 0.05))
        live = solve_pnp_ransac(pts_w, uv, cam, prior,
                                np.random.default_rng(seed))
        monkeypatch.setattr(pnp, "solve_pnp", oracles.solve_pnp_reference)
        monkeypatch.setattr(pnp, "_classify", oracles._classify_reference)
        ref = solve_pnp_ransac(pts_w, uv, cam, prior,
                               np.random.default_rng(seed))
        assert live is not None and ref is not None
        _assert_same_result(live, ref)

    def test_ba_reference_resects_through_the_live_solver(self):
        assert oracles.solve_pnp is pnp.solve_pnp
        assert oracles.solve_pnp is not oracles.solve_pnp_reference


class TestLinearisationCount:
    """A rejected damping trial projects; only a kept pose is linearised."""

    def test_jacobians_built_only_for_kept_poses(self, monkeypatch):
        counts = {"jacobian": 0, "project": 0, "reference": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(pnp, "_jacobian", counting("jacobian", pnp._jacobian))
        monkeypatch.setattr(pnp, "_project", counting("project", pnp._project))
        monkeypatch.setattr(oracles, "_project_with_jacobian",
                            counting("reference", oracles._project_with_jacobian))
        pts_w, uv, cam, prior, kwargs = _pnp_case("depths")
        ref = oracles.solve_pnp_reference(pts_w, uv, cam, prior, **kwargs)

        bases = []  # the pose each damping trial steps from
        perturb = SE3.perturb

        def recording_perturb(self, xi):
            bases.append(self)
            return perturb(self, xi)

        monkeypatch.setattr(SE3, "perturb", recording_perturb)
        live = solve_pnp(pts_w, uv, cam, prior, **kwargs)
        _assert_same_result(live, ref)
        # The solve ends on a fully rejected ladder: its result is the
        # pose the last trials stepped from.
        assert live.pose_cw is bases[-1]
        accepted = len({id(b) for b in bases}) - 1
        assert accepted >= 1
        assert counts["jacobian"] == 1 + accepted
        # One projection per cost evaluation plus the final inlier
        # classification, exactly as many as the reference made ...
        assert counts["project"] == counts["reference"]
        # ... each of which built a Jacobian there.
        assert counts["reference"] >= counts["jacobian"] + 8


class TestBundleAdjustment:
    def _slam_scene(self, seed=0, pose_noise=0.02, point_noise=0.05):
        """Three keyframes viewing a shared cloud, with injected noise."""
        from repro.slam import IdAllocator, SlamMap
        from repro.slam.keyframe import KeyFrame
        from repro.slam.mappoint import MapPoint
        from repro.vision.brief import DESCRIPTOR_BYTES

        rng = np.random.default_rng(seed)
        cam = PinholeCamera.ideal(320, 240)
        world = np.column_stack(
            [rng.uniform(-3, 3, 120), rng.uniform(-2, 2, 120), rng.uniform(4, 12, 120)]
        )
        slam_map = SlamMap()
        kf_alloc, pt_alloc = IdAllocator(0), IdAllocator(0)
        true_poses = [
            SE3(so3.exp(np.array([0, 0.05 * k, 0])), np.array([0.3 * k, 0, 0]))
            for k in range(3)
        ]
        point_ids = []
        for i in range(120):
            point = MapPoint(
                point_id=pt_alloc.allocate(),
                position=world[i] + rng.normal(scale=point_noise, size=3),
                descriptor=rng.integers(0, 256, DESCRIPTOR_BYTES, dtype=np.uint8),
            )
            slam_map.add_mappoint(point)
            point_ids.append(point.point_id)
        for k, pose in enumerate(true_poses):
            uv, depth, valid = cam.project_world(world, pose)
            idx = np.nonzero(valid)[0]
            kf = KeyFrame(
                keyframe_id=kf_alloc.allocate(),
                timestamp=float(k),
                pose_cw=pose.perturb(rng.normal(scale=pose_noise, size=6))
                if k > 0 else pose,
                uv=uv[idx],
                descriptors=np.zeros((len(idx), DESCRIPTOR_BYTES), dtype=np.uint8),
                depths=depth[idx],
                point_ids=np.array([point_ids[i] for i in idx], dtype=np.int64),
            )
            for feat_i, world_i in enumerate(idx):
                slam_map.mappoints[point_ids[world_i]].add_observation(
                    kf.keyframe_id, feat_i
                )
            slam_map.add_keyframe(kf)
        return slam_map, cam, world, true_poses

    def test_reduces_reprojection_error(self):
        slam_map, cam, _, _ = self._slam_scene()
        stats = local_bundle_adjustment(
            slam_map, cam, list(slam_map.keyframes), fixed_keyframe_ids={0}
        )
        assert stats.final_error_px < stats.initial_error_px

    def test_improves_point_positions(self):
        slam_map, cam, world, _ = self._slam_scene(seed=1)
        before = np.mean(
            [
                np.linalg.norm(slam_map.mappoints[pid].position - world[i])
                for i, pid in enumerate(sorted(slam_map.mappoints))
            ]
        )
        local_bundle_adjustment(
            slam_map, cam, list(slam_map.keyframes), fixed_keyframe_ids={0}
        )
        after = np.mean(
            [
                np.linalg.norm(slam_map.mappoints[pid].position - world[i])
                for i, pid in enumerate(sorted(slam_map.mappoints))
            ]
        )
        assert after < before

    def test_fixed_keyframes_unchanged(self):
        slam_map, cam, _, true_poses = self._slam_scene(seed=2)
        anchor_pose = slam_map.keyframes[0].pose_cw
        local_bundle_adjustment(
            slam_map, cam, list(slam_map.keyframes), fixed_keyframe_ids={0}
        )
        assert slam_map.keyframes[0].pose_cw.almost_equal(anchor_pose, 1e-12, 1e-12)

    def test_empty_window(self):
        slam_map, cam, _, _ = self._slam_scene(seed=3)
        stats = local_bundle_adjustment(slam_map, cam, [])
        assert stats.n_keyframes == 0

    def test_global_ba_runs(self):
        slam_map, cam, _, _ = self._slam_scene(seed=4)
        stats = global_bundle_adjustment(slam_map, cam)
        assert stats.n_keyframes == 3
        assert np.isfinite(stats.final_error_px)
