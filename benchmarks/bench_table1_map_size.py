"""Table 1: map size versus keyframe count (EuRoC MH04).

Paper: 10 KFs / 825 points / 2.74 MB growing to 210 KFs / 8415 points /
38.81 MB — roughly linear growth of serialized map size with keyframes.
We regenerate the table from our MH04-like run and check the shape:
monotone growth, roughly constant MB-per-keyframe slope.
"""

import pytest

from repro.datasets import euroc_dataset
from repro.sharedmem import map_payload_size, serialize_map
from repro.slam import SlamMap
from tests.test_slam_system import run_system

KF_STEPS = (10, 20, 30, 40, 50)


def _prefix_map(full_map: SlamMap, n_keyframes: int) -> SlamMap:
    """The map as it looked after its first ``n_keyframes`` keyframes."""
    prefix = SlamMap(map_id=full_map.map_id)
    kf_ids = sorted(full_map.keyframes)[:n_keyframes]
    kept = set()
    for kf_id in kf_ids:
        kf = full_map.keyframes[kf_id]
        for pid in kf.observed_point_ids():
            pid = int(pid)
            if pid not in kept and pid in full_map.mappoints:
                prefix.add_mappoint(full_map.mappoints[pid])
                kept.add(pid)
        prefix.add_keyframe(kf)
    return prefix


@pytest.fixture(scope="module")
def mh04_map():
    ds = euroc_dataset("MH04", duration=45.0, rate=10.0)
    system, _lost = run_system(ds)
    return system.map


def test_table1_map_size_vs_keyframes(mh04_map, benchmark):
    rows = []

    def build_table():
        rows.clear()
        for n_kf in KF_STEPS:
            if n_kf > mh04_map.n_keyframes:
                break
            prefix = _prefix_map(mh04_map, n_kf)
            rows.append(
                (n_kf, prefix.n_mappoints, map_payload_size(prefix) / 1e6)
            )
        full = map_payload_size(mh04_map) / 1e6
        rows.append((mh04_map.n_keyframes, mh04_map.n_mappoints, full))
        return rows

    benchmark.pedantic(build_table, rounds=1, iterations=1)

    print("\nTable 1 — EuRoC MH04 map size (reproduced)")
    print(f"{'Keyframes':>10} {'Mappoints':>10} {'Map size (MB)':>14}")
    for n_kf, n_pts, mb in rows:
        print(f"{n_kf:>10} {n_pts:>10} {mb:>14.2f}")

    sizes = [mb for _, _, mb in rows]
    counts = [k for k, _, _ in rows]
    # Shape checks: monotone growth, near-linear slope (paper: ~0.2 MB/KF).
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    slopes = [
        (sizes[i + 1] - sizes[i]) / (counts[i + 1] - counts[i])
        for i in range(len(sizes) - 1)
    ]
    assert max(slopes) < 4 * min(slopes)


def test_table1_serialization_cost_scales(mh04_map, benchmark):
    """Serializing the full map is what the baseline pays per sync."""
    payload = benchmark(serialize_map, mh04_map)
    assert len(payload) > 100_000
