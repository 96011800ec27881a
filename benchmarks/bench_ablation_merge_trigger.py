"""Ablation A2: merge trigger policy — all keyframes vs newest-only.

Paper §4.3.1: vanilla ORB-SLAM3 only checks the *newest* active keyframe
for merge opportunities, so a late-joining client with an existing map
must wait until it happens to revisit overlap.  SLAM-Share iterates over
every keyframe in the joining map (Alg. 2 line 6-7), merging immediately
upon joining.  We measure the success rate and the work done.

The scenario makes the premise checkable: client A maps the first
``A_SECONDS`` of MH04 and client B flies ``B_SECONDS`` of MH05, so B's
first keyframes look where A looked while its newest keyframe looks at
walls A never saw.  The bench asserts that from ground-truth visibility
(dataset poses projected onto the world's landmarks) before it compares
the policies.
"""

import numpy as np

from repro.slam import MapMerger, MergerConfig
from tests.test_slam_merging import build_two_clients

A_SECONDS = 6.0
B_SECONDS = 14.0


def _clients_with_limited_recent_overlap():
    """Client B's *latest* keyframe is in fresh territory; the overlap
    with the global map sits in B's earlier keyframes."""
    return build_two_clients(duration=A_SECONDS, duration_b=B_SECONDS)


def _landmarks_seen(ds, timestamps):
    """Ground-truth ids of the landmarks in view at each timestamp."""
    seen = set()
    times = ds.ground_truth.timestamps
    for ts in timestamps:
        index = int(np.argmin(np.abs(times - ts)))
        _, _, valid = ds.camera.project_world(ds.world.positions, ds.pose_cw(index))
        seen.update(ds.world.ids[valid].tolist())
    return seen


def _landmarks_shared_with_newest(ds_a, sys_a, ds_b, sys_b):
    """Landmarks that both A's keyframes and B's newest keyframe see."""
    seen_by_a = _landmarks_seen(ds_a, [kf.timestamp for kf in sys_a.map.keyframes.values()])
    newest = max(sys_b.map.keyframes.values(), key=lambda kf: kf.timestamp)
    return seen_by_a & _landmarks_seen(ds_b, [newest.timestamp])


def test_ablation_merge_trigger_policy(benchmark):
    def run_both():
        outcomes = {}
        for check_all in (True, False):
            (ds_a, sys_a), (ds_b, sys_b) = _clients_with_limited_recent_overlap()
            shared = _landmarks_shared_with_newest(ds_a, sys_a, ds_b, sys_b)
            merger = MapMerger(
                sys_a.map, sys_a.database, ds_a.camera,
                MergerConfig(check_all_keyframes=check_all),
            )
            result = merger.merge_maps(sys_b.map, client_id=1)
            outcomes[check_all] = (result, shared)
        return outcomes

    outcomes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    all_kf, _ = outcomes[True]
    newest, shared = outcomes[False]

    print("\nAblation A2 — merge trigger policy")
    print(f"  landmarks B's newest keyframe shares with A's keyframes: {len(shared)}")
    print(f"  SLAM-Share (all keyframes): success={all_kf.success}, "
          f"checked={all_kf.n_keyframes_checked}, "
          f"correspondences={all_kf.n_correspondences}")
    print(f"  vanilla (newest only)     : success={newest.success}, "
          f"checked={newest.n_keyframes_checked}")

    # The premise, from ground truth: B's newest keyframe sees nothing
    # that A's keyframes see.
    assert shared == set()
    # SLAM-Share merges the joining map through its earlier keyframes.
    assert all_kf.success
    # The newest-only policy inspects one keyframe, which shares no
    # landmark with the global map: a merge there would be a false one.
    assert newest.n_keyframes_checked <= 1
    assert not newest.success


def test_ablation_all_keyframes_finds_early_overlap(benchmark):
    """With all-keyframe checking, the merge anchor can be any keyframe —
    including old ones the newest-only policy would never revisit."""
    (ds_a, sys_a), (ds_b, sys_b) = _clients_with_limited_recent_overlap()
    merger = MapMerger(sys_a.map, sys_a.database, ds_a.camera,
                       MergerConfig(check_all_keyframes=True))
    result = benchmark.pedantic(
        lambda: merger.merge_maps(sys_b.map, client_id=1),
        rounds=1, iterations=1,
    )
    assert result.success
    kf_ids = sorted(
        kf.keyframe_id for kf in sys_a.map.keyframes_of_client(1)
    )
    rank = kf_ids.index(result.merge_keyframe_id)
    print(f"\nmerge anchored on client B's keyframe #{rank} "
          f"of {len(kf_ids)} (checked {result.n_keyframes_checked})")
    assert result.n_keyframes_checked >= 1
