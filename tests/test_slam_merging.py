"""Tests for place recognition and multi-client map merging (Alg. 2)."""

import numpy as np
import pytest

from repro.datasets import euroc_dataset
from repro.metrics import absolute_trajectory_error
from repro.slam import (
    MapMerger,
    MergerConfig,
    SlamConfig,
    SlamMap,
    SlamSystem,
    default_vocabulary,
    detect_common_region,
)
from repro.vision import DescriptorBank
from tests.test_slam_system import run_system

VOCAB = default_vocabulary()


def build_two_clients(duration=12.0, mono_scale_b=1.0, duration_b=None):
    """Two clients exploring the same hall on overlapping paths (client B
    flies ``duration_b`` seconds, ``duration`` unless given)."""
    ds_a = euroc_dataset("MH04", duration=duration, rate=10.0)
    ds_b = euroc_dataset("MH05", duration=duration if duration_b is None else duration_b,
                         rate=10.0)
    cfg_a = SlamConfig()
    cfg_b = SlamConfig(mono_scale=mono_scale_b)
    from repro.imu import GRAVITY_W, ImuBuffer, preintegrate, synthesize_imu

    systems = []
    for client_id, (ds, cfg, seeds) in enumerate(
        [(ds_a, cfg_a, (7, 11)), (ds_b, cfg_b, (9, 13))]
    ):
        system = SlamSystem(
            ds.camera, cfg, client_id=client_id, vocabulary=VOCAB,
            gravity=ds.pose_cw(0).rotation @ GRAVITY_W,
        )
        oracle = ds.make_oracle(seed=seeds[0])
        imu = ImuBuffer(synthesize_imu(ds.ground_truth, rate_hz=200.0,
                                       seed=seeds[1]))
        prev = None
        for ts, obs in ds.frames(oracle):
            delta = preintegrate(imu, prev, ts) if prev is not None else None
            system.process_frame(ts, obs, imu_delta=delta)
            prev = ts
        systems.append(system)
    return (ds_a, systems[0]), (ds_b, systems[1])


# Build once: merging tests share this fixture-ish module state.
(_DS_A, _SYS_A_TEMPLATE), (_DS_B, _SYS_B_TEMPLATE) = build_two_clients()


def fresh_pair():
    """Re-run is expensive; rebuild the pair per mutation-heavy test."""
    return build_two_clients()


class TestDetectCommonRegion:
    def test_finds_overlap_between_clients(self):
        sys_a, sys_b = _SYS_A_TEMPLATE, _SYS_B_TEMPLATE
        hits = 0
        for kf in list(sys_b.map.keyframes.values())[:10]:
            region = detect_common_region(kf, sys_a.map, sys_a.database)
            if region.candidates:
                hits += 1
        assert hits >= 5

    def test_excludes_own_client(self):
        sys_a = _SYS_A_TEMPLATE
        kf = next(iter(sys_a.map.keyframes.values()))
        own = {k.keyframe_id for k in sys_a.map.keyframes_of_client(0)}
        region = detect_common_region(
            kf, sys_a.map, sys_a.database, exclude=own
        )
        assert not region.candidates

    def test_best_is_highest_score(self):
        sys_a, sys_b = _SYS_A_TEMPLATE, _SYS_B_TEMPLATE
        kf = next(iter(sys_b.map.keyframes.values()))
        region = detect_common_region(kf, sys_a.map, sys_a.database)
        if region.candidates:
            scores = [c.score for c in region.candidates]
            assert scores == sorted(scores, reverse=True)


class TestMapMerging:
    @pytest.fixture(scope="class")
    def merged(self):
        """One fresh pair, merged once with the default (check-all) policy.

        The tests below only read the merged map and the result, so they
        share it instead of each rebuilding and re-merging the pair.
        """
        (ds_a, sys_a), (ds_b, sys_b) = fresh_pair()
        n_before = sys_a.map.n_mappoints + sys_b.map.n_mappoints
        merger = MapMerger(sys_a.map, sys_a.database, ds_a.camera)
        result = merger.merge_maps(sys_b.map, client_id=1)
        return ds_a, sys_a, ds_b, result, n_before

    def test_merge_two_stereo_maps(self, merged):
        _, sys_a, ds_b, result, _ = merged
        assert result.success
        assert result.transform.scale == pytest.approx(1.0, abs=0.02)
        # Client B's keyframes landed in the global map, correctly placed.
        traj_b = sys_a.map.keyframe_trajectory(client_id=1)
        ate = absolute_trajectory_error(traj_b, ds_b.ground_truth)
        assert ate.rmse < 0.10

    def test_merge_recovers_mono_scale(self):
        (ds_a, sys_a), (ds_b, sys_b) = build_two_clients(mono_scale_b=0.75)
        merger = MapMerger(sys_a.map, sys_a.database, ds_a.camera)
        result = merger.merge_maps(sys_b.map, client_id=1)
        assert result.success
        # Sim3 alignment must rescale B's 0.75x map into A's metric frame.
        assert result.transform.scale == pytest.approx(1.0 / 0.75, rel=0.05)

    def test_merged_maps_share_one_frame(self, merged):
        ds_a, sys_a, ds_b, _, _ = merged
        # One alignment maps the *combined* keyframe trajectory to the
        # combined ground truth: the frames are truly shared.
        traj_a = sys_a.map.keyframe_trajectory(client_id=0)
        traj_b = sys_a.map.keyframe_trajectory(client_id=1)
        from repro.geometry import umeyama

        est = np.vstack([traj_a.positions, traj_b.positions])
        gt = np.vstack(
            [
                ds_a.ground_truth.resample(traj_a.timestamps).positions,
                ds_b.ground_truth.resample(traj_b.timestamps).positions,
            ]
        )
        transform = umeyama(est, gt)
        residual = np.linalg.norm(gt - transform.apply(est), axis=1)
        assert np.sqrt((residual ** 2).mean()) < 0.10

    def test_merge_fuses_duplicate_points(self, merged):
        _, sys_a, _, result, n_before = merged
        assert result.n_fused_points > 0
        assert sys_a.map.n_mappoints == n_before - result.n_fused_points

    def test_merge_fails_for_disjoint_maps(self, monkeypatch):
        # A V202 (small Vicon room) map shares no landmarks and no
        # appearance with MH04: place recognition may still propose
        # pairs, but no descriptor matches, so none reaches Sim3 RANSAC.
        from repro.datasets import euroc_dataset as make
        from repro.slam import merging

        ds_v = make("V202", duration=6.0, rate=10.0)
        sys_v, _ = run_system(ds_v, client_id=1)
        # A failed attempt is read-only, so the shared template will do.
        sys_a = _SYS_A_TEMPLATE
        merger = MapMerger(sys_a.map, sys_a.database, _DS_A.camera)
        hypotheses = []
        ransac = merging.ransac_umeyama

        def counting(*args, **kwargs):
            hypotheses.append(args)
            return ransac(*args, **kwargs)

        monkeypatch.setattr(merging, "ransac_umeyama", counting)
        result = merger.merge_maps(sys_v.map, client_id=1)
        assert not result.success
        assert result.n_keyframes_checked > 0
        assert hypotheses == []

    def test_newest_only_trigger_checks_fewer(self, merged):
        # Ablation A2: vanilla ORB-SLAM3 merge policy checks only the
        # newest keyframe; SLAM-Share checks all of them (paper §4.3.1),
        # which is the default the shared merge ran with.
        assert MergerConfig().check_all_keyframes
        assert merged[3].success
        (ds_a2, sys_a2), (ds_b2, sys_b2) = fresh_pair()
        newest_only = MapMerger(
            sys_a2.map, sys_a2.database, ds_a2.camera,
            MergerConfig(check_all_keyframes=False),
        )
        result2 = newest_only.merge_maps(sys_b2.map, client_id=1)
        assert result2.n_keyframes_checked <= 1

    def test_ba_runs_after_merge(self, merged):
        result = merged[3]
        assert result.success
        assert result.ba_stats is not None
        assert result.ba_stats.n_keyframes >= 2


class _CountingMerger(MapMerger):
    """Records every keyframe pair that reaches descriptor matching."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pairs = []

    def _correspondences(self, client_kf, global_kf, client_map):
        self.pairs.append((client_kf.keyframe_id, global_kf.keyframe_id))
        return super()._correspondences(client_kf, global_kf, client_map)


def _prefix_map(slam_map, n_keyframes):
    """The map as it was when it held its first ``n_keyframes`` keyframes."""
    prefix = SlamMap(map_id=slam_map.map_id)
    for point in slam_map.mappoints.values():
        prefix.add_mappoint(point)
    kfs = sorted(slam_map.keyframes.values(), key=lambda kf: kf.timestamp)
    for kf in kfs[:n_keyframes]:
        prefix.add_keyframe(kf)
    return prefix


def _global_state(slam_map, database):
    return (slam_map.version, slam_map.n_keyframes, slam_map.n_mappoints,
            len(database))


class TestRejectedPairMemo:
    """Failed attempts cost BoW queries plus the pairs not seen before."""

    @pytest.fixture(scope="class")
    def disjoint(self):
        """A V202 (small Vicon room) map that shares no landmarks with MH04
        but, on purpose, the machine hall's appearance: its descriptors
        match the hall's id for id, so every pair it is offered carries
        enough correspondences to reach Sim3 RANSAC and fails on
        geometry, which is the failure the memo has to remember."""
        ds_v = euroc_dataset("V202", duration=6.0, rate=10.0)
        sys_v, _ = run_system(ds_v, client_id=1, descriptor_bank=DescriptorBank())
        assert sys_v.map.n_keyframes >= 4
        return sys_v

    def _attempt(self, client_map, rejected):
        sys_a = _SYS_A_TEMPLATE
        merger = _CountingMerger(sys_a.map, sys_a.database, _DS_A.camera)
        before = _global_state(sys_a.map, sys_a.database)
        result = merger.merge_maps(client_map, client_id=1, rejected=rejected)
        assert not result.success
        # A failed search is read-only: the shared template stays usable.
        assert _global_state(sys_a.map, sys_a.database) == before
        assert result.n_pairs_tried == len(merger.pairs)
        return result, merger.pairs

    def test_next_attempt_evaluates_only_unseen_pairs(self, disjoint):
        n = disjoint.map.n_keyframes
        rejected = {}
        seen = set()
        for k in (n - 2, n - 1, n):
            client_map = _prefix_map(disjoint.map, k)
            unmemoised, all_pairs = self._attempt(client_map, None)
            result, pairs = self._attempt(client_map, rejected)
            assert not seen.intersection(pairs)
            assert set(pairs) == set(all_pairs) - seen
            assert result.n_pairs_skipped == len(seen.intersection(all_pairs))
            # The memo never hides a keyframe from the sim-time merge cost.
            assert result.n_keyframes_checked == k
            assert result.n_keyframes_checked == unmemoised.n_keyframes_checked
            seen.update(pairs)
        assert seen == set(rejected) and seen
        # Nothing new: the attempt is BoW queries only.
        result, pairs = self._attempt(disjoint.map, rejected)
        assert pairs == [] and result.n_pairs_skipped == len(all_pairs)

    @pytest.mark.parametrize("side", [0, 1])
    def test_pair_retried_once_a_keyframe_gains_associations(
        self, disjoint, side
    ):
        _, pairs = self._attempt(disjoint.map, None)
        pair = pairs[0]
        kf = (disjoint.map, _SYS_A_TEMPLATE.map)[side].keyframes[pair[side]]
        slot = int(np.flatnonzero(kf.point_ids >= 0)[0])
        point_id = kf.point_ids[slot]
        rejected = {}
        kf.point_ids[slot] = -1
        try:
            self._attempt(disjoint.map, rejected)
        finally:
            kf.point_ids[slot] = point_id     # the keyframe gains one back
        assert rejected[pair][side] == kf.n_tracked_points - 1
        _, retried = self._attempt(disjoint.map, rejected)
        # Every pair that keyframe is part of is worth another look, no other.
        assert pair in retried
        assert all(p[side] == pair[side] for p in retried)
        assert rejected[pair][side] == kf.n_tracked_points
        # Losing associations is no reason to retry.
        kf.point_ids[slot] = -1
        try:
            _, retried = self._attempt(disjoint.map, rejected)
        finally:
            kf.point_ids[slot] = point_id
        assert retried == []

    def test_late_overlap_still_merges(self):
        # The global map starts as the Vicon room only; client B (hall)
        # fails against it and memoises those pairs.  Once another client
        # has extended the global map into the hall, B's next attempt
        # repeats none of that and welds onto the new keyframes.
        (ds_a, sys_a), (_, sys_b) = fresh_pair()
        room, _ = run_system(
            euroc_dataset("V202", duration=6.0, rate=10.0), client_id=2
        )
        global_map, database = room.map, room.database
        rejected = {}
        rigid = MergerConfig(with_scale=False)   # stereo maps are metric
        first = _CountingMerger(global_map, database, ds_a.camera, rigid)
        assert not first.merge_maps(sys_b.map, 1, rejected).success
        assert first.pairs and set(first.pairs) == set(rejected)
        second = _CountingMerger(global_map, database, ds_a.camera, rigid)
        second.ingest_client_map(sys_a.map)
        result = second.merge_maps(sys_b.map, 1, rejected)
        assert result.success
        assert result.anchor_keyframe_id in sys_a.map.keyframes
        assert not set(second.pairs) & set(first.pairs)
        # The welded pair is not left behind as rejected.
        assert (result.merge_keyframe_id, result.anchor_keyframe_id) not in rejected
