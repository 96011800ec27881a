"""Ablation A1: shared-memory map store vs serialize/transfer/deserialize.

The mechanism behind Table 4's 30x gap, isolated and measured in wall-
clock time on identical map updates of growing size: SLAM-Share's path
(append packed records to the store's shard log, read them back in
place) against the baseline's path (frame the same records into one
buffer, ship it, walk it and rebuild the object graph).
"""

import time

import pytest

from repro.sharedmem import ShardedMapStore, deserialize_map, serialize_map
from tests.test_net_serialization_transport import make_map

SIZES = (2, 8, 24)
# Dozens of copies of the largest update: a benchmark that republishes
# one update round after round fills the log and compacts it on the way.
CAPACITY = 8 * 1024 * 1024


@pytest.mark.parametrize("n_keyframes", SIZES)
def test_ablation_sharedmem_publish(n_keyframes, benchmark):
    update = make_map(n_keyframes=n_keyframes, n_points_per_kf=40,
                      seed=n_keyframes)
    store = ShardedMapStore(n_shards=1, capacity=CAPACITY)

    def publish():
        store.publish_map(update.keyframes.values(), update.mappoints.values())

    benchmark(publish)


@pytest.mark.parametrize("n_keyframes", SIZES)
def test_ablation_serialize_roundtrip(n_keyframes, benchmark):
    update = make_map(n_keyframes=n_keyframes, n_points_per_kf=40,
                      seed=n_keyframes)

    def roundtrip():
        return deserialize_map(serialize_map(update))

    benchmark(roundtrip)


def test_ablation_sharedmem_wins_at_every_size(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\nAblation A1 — map-update handoff cost (wall-clock)")
    print(f"{'KFs':>5} {'shared-mem (ms)':>17} {'serialize (ms)':>16} "
          f"{'ratio':>7}")
    for n_kf in SIZES:
        update = make_map(n_keyframes=n_kf, n_points_per_kf=40, seed=n_kf)
        store = ShardedMapStore(n_shards=1, capacity=CAPACITY)
        t0 = time.perf_counter()
        store.publish_map(update.keyframes.values(), update.mappoints.values())
        shm = time.perf_counter() - t0
        t0 = time.perf_counter()
        deserialize_map(serialize_map(update))
        ser = time.perf_counter() - t0
        print(f"{n_kf:>5} {shm * 1e3:>17.2f} {ser * 1e3:>16.2f} "
              f"{ser / shm:>7.1f}x")
        assert shm < ser

    # And reading back from the store is cheap (zero-copy views).
    update = make_map(n_keyframes=8, n_points_per_kf=40, seed=8)
    store = ShardedMapStore(n_shards=1, capacity=CAPACITY)
    store.publish_map(update.keyframes.values(), update.mappoints.values())
    t0 = time.perf_counter()
    kfs = list(store.iter_keyframes())
    read_s = time.perf_counter() - t0
    print(f"  read-back of {len(kfs)} keyframes: {read_s * 1e3:.2f} ms")
    assert len(kfs) == 8
