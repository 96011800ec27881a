"""Equivalence suite: batched back-end kernels vs their scalar references.

The bundle-adjustment and pose-graph kernels are only allowed to differ
from the scalar loops in ``tests/oracles.py`` (``"scalar"`` below) by
floating-point noise (<= 1e-9); these tests pin that on randomized
maps, including the awkward cases — fixed keyframes,
``min_observations`` filtering, culled map points and keyframes,
non-finite measured depths and empty edge lists.
"""

import copy

import numpy as np
import pytest

from repro.geometry import SE3, se3_batch, so3
from repro.slam import IdAllocator, SlamMap
from repro.slam.bundle_adjustment import (
    global_bundle_adjustment,
    local_bundle_adjustment,
)
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from repro.slam.pose_graph import (
    PoseGraphEdge,
    build_essential_graph,
    optimize_pose_graph,
)
from repro.vision import PinholeCamera
from repro.vision.brief import DESCRIPTOR_BYTES
from tests import oracles

TOL = 1e-9
POSE_GRAPH = {
    "scalar": oracles.optimize_pose_graph,
    "vectorized": optimize_pose_graph,
}


# --------------------------------------------------------------- geometry
class TestBatchedGeometry:
    def _omegas(self):
        rng = np.random.default_rng(7)
        regular = rng.normal(scale=1.2, size=(40, 3))
        tiny = rng.normal(size=(5, 3)) * 1e-13
        axes = rng.normal(size=(5, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        near_pi = axes * (np.pi - 1e-8)
        at_pi = axes[:2] * np.pi
        return np.vstack([regular, tiny, near_pi, at_pi, np.zeros((1, 3))])

    def test_exp_batch_matches_scalar(self):
        omegas = self._omegas()
        batched = so3.exp_batch(omegas)
        for row, omega in zip(batched, omegas):
            np.testing.assert_allclose(row, so3.exp(omega), atol=1e-12, rtol=0)

    def test_log_batch_matches_scalar(self):
        rotations = so3.exp_batch(self._omegas())
        batched = so3.log_batch(rotations)
        for row, rotation in zip(batched, rotations):
            np.testing.assert_allclose(row, so3.log(rotation), atol=1e-9, rtol=0)

    def test_se3_exp_log_match_scalar(self):
        rng = np.random.default_rng(11)
        xi = np.vstack([
            rng.normal(scale=0.8, size=(30, 6)),
            rng.normal(size=(4, 6)) * 1e-13,
        ])
        rot, trans = se3_batch.exp(xi)
        twists = se3_batch.log(rot, trans)
        for i in range(len(xi)):
            scalar = SE3.exp(xi[i])
            np.testing.assert_allclose(rot[i], scalar.rotation, atol=1e-12, rtol=0)
            np.testing.assert_allclose(
                trans[i], scalar.translation, atol=1e-12, rtol=0
            )
            np.testing.assert_allclose(twists[i], scalar.log(), atol=1e-9, rtol=0)

    def test_compose_inverse_apply_match_scalar(self):
        rng = np.random.default_rng(13)
        poses_a = [SE3.exp(rng.normal(scale=0.5, size=6)) for _ in range(12)]
        poses_b = [SE3.exp(rng.normal(scale=0.5, size=6)) for _ in range(12)]
        points = rng.normal(scale=3.0, size=(12, 3))
        ra, ta = se3_batch.pack(poses_a)
        rb, tb = se3_batch.pack(poses_b)
        rc, tc = se3_batch.compose(ra, ta, rb, tb)
        ri, ti = se3_batch.inverse(ra, ta)
        moved = se3_batch.apply(ra, ta, points)
        for i, (a, b) in enumerate(zip(poses_a, poses_b)):
            composed = a * b
            np.testing.assert_allclose(rc[i], composed.rotation, atol=1e-12)
            np.testing.assert_allclose(tc[i], composed.translation, atol=1e-12)
            inv = a.inverse()
            np.testing.assert_allclose(ri[i], inv.rotation, atol=1e-12)
            np.testing.assert_allclose(ti[i], inv.translation, atol=1e-12)
            np.testing.assert_allclose(moved[i], a.apply(points[i]), atol=1e-12)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(17)
        poses = [SE3.exp(rng.normal(size=6)) for _ in range(5)]
        rot, trans = se3_batch.pack(poses)
        restored = se3_batch.unpack(rot, trans)
        for orig, back in zip(poses, restored):
            assert orig.almost_equal(back, 1e-12, 1e-12)
        empty_r, empty_t = se3_batch.pack([])
        assert empty_r.shape == (0, 3, 3) and empty_t.shape == (0, 3)


# ------------------------------------------------------------- scene setup
def _noisy_scene(
    n_kfs=5,
    n_points=150,
    seed=0,
    pose_noise=0.02,
    point_noise=0.05,
    bad_depth_fraction=0.0,
):
    """Keyframes viewing a shared noisy cloud; BA has real work to do."""
    rng = np.random.default_rng(seed)
    cam = PinholeCamera.ideal(320, 240)
    world = np.column_stack(
        [
            rng.uniform(-3, 3, n_points),
            rng.uniform(-2, 2, n_points),
            rng.uniform(4, 12, n_points),
        ]
    )
    slam_map = SlamMap()
    kf_alloc, pt_alloc = IdAllocator(0), IdAllocator(0)
    pids = []
    for i in range(n_points):
        point = MapPoint(
            point_id=pt_alloc.allocate(),
            position=world[i] + rng.normal(scale=point_noise, size=3),
            descriptor=rng.integers(0, 256, DESCRIPTOR_BYTES, dtype=np.uint8),
        )
        slam_map.add_mappoint(point)
        pids.append(point.point_id)
    for k in range(n_kfs):
        pose = SE3(so3.exp(np.array([0, 0.04 * k, 0])), np.array([0.25 * k, 0, 0]))
        uv, depth, valid = cam.project_world(world, pose)
        idx = np.nonzero(valid)[0]
        depths = depth[idx].copy()
        if bad_depth_fraction:
            bad = rng.random(len(idx)) < bad_depth_fraction
            depths[bad] = rng.choice(
                np.array([np.nan, np.inf, -1.0]), size=int(bad.sum())
            )
        kf = KeyFrame(
            keyframe_id=kf_alloc.allocate(),
            timestamp=float(k),
            pose_cw=pose.perturb(rng.normal(scale=pose_noise, size=6))
            if k > 0 else pose,
            uv=uv[idx],
            descriptors=np.zeros((len(idx), DESCRIPTOR_BYTES), dtype=np.uint8),
            depths=depths,
            point_ids=np.array([pids[i] for i in idx], dtype=np.int64),
        )
        for feat_i, world_i in enumerate(idx):
            slam_map.mappoints[pids[world_i]].add_observation(
                kf.keyframe_id, feat_i
            )
        slam_map.add_keyframe(kf)
    return slam_map, cam


def _assert_maps_equal(map_a, map_b, tol=TOL):
    assert set(map_a.mappoints) == set(map_b.mappoints)
    for pid in map_a.mappoints:
        np.testing.assert_allclose(
            map_a.mappoints[pid].position,
            map_b.mappoints[pid].position,
            atol=tol, rtol=0, err_msg=f"point {pid}",
        )
    assert set(map_a.keyframes) == set(map_b.keyframes)
    for kf_id in map_a.keyframes:
        pa = map_a.keyframes[kf_id].pose_cw
        pb = map_b.keyframes[kf_id].pose_cw
        np.testing.assert_allclose(
            pa.rotation, pb.rotation, atol=tol, rtol=0, err_msg=f"kf {kf_id} R"
        )
        np.testing.assert_allclose(
            pa.translation, pb.translation, atol=tol, rtol=0,
            err_msg=f"kf {kf_id} t",
        )


def _run_ba_both(slam_map, cam, window=None, **kwargs):
    map_s, map_v = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
    window = list(slam_map.keyframes) if window is None else window
    stats_s = oracles.local_bundle_adjustment(map_s, cam, window, **kwargs)
    stats_v = local_bundle_adjustment(map_v, cam, window, **kwargs)
    return map_s, map_v, stats_s, stats_v


# -------------------------------------------------------- BA equivalence
class TestBundleAdjustmentEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_maps(self, seed):
        slam_map, cam = _noisy_scene(seed=seed)
        map_s, map_v, stats_s, stats_v = _run_ba_both(
            slam_map, cam, fixed_keyframe_ids={0}, iterations=2
        )
        assert stats_v.final_error_px < stats_v.initial_error_px
        assert stats_s.n_points == stats_v.n_points
        assert abs(stats_s.initial_error_px - stats_v.initial_error_px) < TOL
        assert abs(stats_s.final_error_px - stats_v.final_error_px) < TOL
        _assert_maps_equal(map_s, map_v)

    def test_min_observations_filtering(self):
        slam_map, cam = _noisy_scene(seed=3)
        map_s, map_v, _, _ = _run_ba_both(
            slam_map, cam, fixed_keyframe_ids={0}, min_observations=4
        )
        _assert_maps_equal(map_s, map_v)

    def test_culled_points_and_keyframes(self):
        slam_map, cam = _noisy_scene(seed=4)
        # Stale references: some features point at ids that were culled
        # from the map (simulated by pointing at never-allocated ids).
        for kf in slam_map.keyframes.values():
            kf.point_ids[::7] = 10_000 + np.arange(len(kf.point_ids[::7]))
        # And the BA window names a keyframe that no longer exists.
        window = list(slam_map.keyframes) + [999]
        map_s, map_v, stats_s, stats_v = _run_ba_both(
            slam_map, cam, window=window, fixed_keyframe_ids={0}
        )
        assert stats_s.n_keyframes == stats_v.n_keyframes
        _assert_maps_equal(map_s, map_v)

    def test_non_finite_depths_guarded(self):
        slam_map, cam = _noisy_scene(seed=5, bad_depth_fraction=0.3)
        map_s, map_v, _, _ = _run_ba_both(slam_map, cam, fixed_keyframe_ids={0})
        _assert_maps_equal(map_s, map_v)
        for position in (p.position for p in map_v.mappoints.values()):
            assert np.isfinite(position).all()

    def test_partial_window(self):
        slam_map, cam = _noisy_scene(seed=6)
        window = sorted(slam_map.keyframes)[:3]
        map_s, map_v, _, _ = _run_ba_both(
            slam_map, cam, window=window, fixed_keyframe_ids={window[0]}
        )
        _assert_maps_equal(map_s, map_v)

    def test_global_ba(self):
        slam_map, cam = _noisy_scene(seed=7, n_kfs=4)
        map_s, map_v = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
        window = sorted(slam_map.keyframes)
        oracles.local_bundle_adjustment(
            map_s, cam, window, fixed_keyframe_ids={window[0]}
        )
        global_bundle_adjustment(map_v, cam)
        _assert_maps_equal(map_s, map_v)


# ------------------------------------------------- pose-graph equivalence
def _drifted_chain(n=14, seed=0):
    """Edges built from clean poses, then drift injected -> real residual."""
    from tests.test_net_serialization_transport import make_map

    slam_map = make_map(n_keyframes=n, n_points_per_kf=8, seed=seed)
    ordered = sorted(slam_map.keyframes)
    for k, kf_id in enumerate(ordered):
        slam_map.keyframes[kf_id].pose_cw = SE3(
            so3.exp(np.array([0.0, 0.02 * k, 0.0])),
            np.array([0.5 * k, 0.0, 0.0]),
        )
    edges = build_essential_graph(slam_map)
    loop = PoseGraphEdge(
        kf_a=ordered[-1], kf_b=ordered[0],
        relative=slam_map.keyframes[ordered[-1]].pose_cw
        * slam_map.keyframes[ordered[0]].pose_cw.inverse(),
        weight=150.0, is_loop_edge=True,
    )
    rng = np.random.default_rng(seed + 100)
    for k, kf_id in enumerate(ordered[1:], start=1):
        kf = slam_map.keyframes[kf_id]
        kf.pose_cw = kf.pose_cw.perturb(rng.normal(scale=0.02 * k, size=6))
    return slam_map, edges + [loop], ordered


class TestPoseGraphEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_graphs(self, seed):
        slam_map, edges, ordered = _drifted_chain(seed=seed)
        map_s, map_v = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
        stats_s = oracles.optimize_pose_graph(
            map_s, edges, fixed={ordered[0]}
        )
        stats_v = optimize_pose_graph(map_v, edges, fixed={ordered[0]})
        assert stats_v.final_residual < stats_v.initial_residual
        assert abs(stats_s.initial_residual - stats_v.initial_residual) < 1e-6
        assert abs(stats_s.final_residual - stats_v.final_residual) < 1e-6
        assert stats_s.n_edges == stats_v.n_edges
        _assert_maps_equal(map_s, map_v)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_edge_to_culled_keyframe_skipped(self, backend):
        # Regression: a loop edge naming a culled keyframe used to crash
        # the residual pass with a KeyError.
        slam_map, edges, ordered = _drifted_chain(n=6)
        ghost = PoseGraphEdge(
            kf_a=ordered[-1], kf_b=999_999, relative=SE3.identity(), weight=50.0
        )
        stats = POSE_GRAPH[backend](
            slam_map, edges + [ghost], fixed={ordered[0]}
        )
        assert stats.n_edges == len(edges)  # ghost edge not counted

    def test_total_residual_skips_missing(self):
        slam_map, edges, ordered = _drifted_chain(n=5)
        poses = {k: kf.pose_cw for k, kf in slam_map.keyframes.items()}
        ghost = PoseGraphEdge(
            kf_a=123_456, kf_b=ordered[0], relative=SE3.identity()
        )
        assert oracles._total_residual(poses, edges + [ghost]) == pytest.approx(
            oracles._total_residual(poses, edges)
        )

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_empty_edges_noop(self, backend):
        slam_map, _, ordered = _drifted_chain(n=4)
        before = {k: kf.pose_cw for k, kf in slam_map.keyframes.items()}
        stats = POSE_GRAPH[backend](slam_map, [])
        assert stats.n_edges == 0
        assert stats.initial_residual == 0.0 == stats.final_residual
        for kf_id, pose in before.items():
            assert slam_map.keyframes[kf_id].pose_cw.almost_equal(
                pose, 1e-12, 1e-12
            )

    def test_fixed_poses_untouched_vectorized(self):
        slam_map, edges, ordered = _drifted_chain(n=8)
        anchor = ordered[0]
        before = slam_map.keyframes[anchor].pose_cw
        optimize_pose_graph(slam_map, edges, fixed={anchor})
        assert slam_map.keyframes[anchor].pose_cw.almost_equal(
            before, 1e-12, 1e-12
        )
