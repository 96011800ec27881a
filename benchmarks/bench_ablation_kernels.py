"""Ablation A4: real wall-clock speedup of the data-parallel kernels.

The cost models assume FAST and search-local-points parallelize well.
This bench demonstrates it on real arrays: our scalar reference loops
(the sequential CPU formulation) versus the vectorized whole-array
formulation (how the CUDA kernels are organized).  The numpy speedup is
a *lower bound* on GPU gains.
"""

import time

import numpy as np
import pytest

from repro.vision import render_frame
from repro.datasets import euroc_dataset
from repro.vision.fast import detect_fast_vectorized
from repro.vision.matching import search_by_projection_vectorized
from tests.oracles import detect_fast_scalar, search_by_projection_scalar


@pytest.fixture(scope="module")
def frame():
    ds = euroc_dataset("MH04", duration=1.0, rate=10.0)
    return render_frame(
        ds.world.positions, ds.world.ids, ds.camera, ds.pose_cw(0),
        rng=np.random.default_rng(0),
    ).pixels


def test_ablation_fast_scalar(frame, benchmark):
    benchmark.pedantic(
        lambda: detect_fast_scalar(frame[:120, :160], 20), rounds=2, iterations=1
    )


def test_ablation_fast_vectorized(frame, benchmark):
    benchmark.pedantic(
        lambda: detect_fast_vectorized(frame[:120, :160], 20),
        rounds=5, iterations=1,
    )


def _search_inputs():
    rng = np.random.default_rng(1)
    proj = rng.uniform(0, 320, (300, 2))
    uv = rng.uniform(0, 320, (250, 2))
    pd = rng.integers(0, 256, (300, 32), dtype=np.uint8)
    fd = rng.integers(0, 256, (250, 32), dtype=np.uint8)
    return proj, pd, uv, fd


def test_ablation_search_scalar(benchmark):
    args = _search_inputs()
    benchmark.pedantic(
        lambda: search_by_projection_scalar(*args, radius=30.0),
        rounds=2, iterations=1,
    )


def test_ablation_search_vectorized(benchmark):
    args = _search_inputs()
    benchmark.pedantic(
        lambda: search_by_projection_vectorized(*args, radius=30.0),
        rounds=5, iterations=1,
    )


def _best_of(fn, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_ablation_kernel_speedups_summary(frame, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    patch, args = frame[:120, :160], _search_inputs()
    timings = {
        "fast_corner_detection": (
            _best_of(lambda: detect_fast_scalar(patch, 20)),
            _best_of(lambda: detect_fast_vectorized(patch, 20)),
        ),
        "search_local_points": (
            _best_of(lambda: search_by_projection_scalar(*args, radius=30.0)),
            _best_of(lambda: search_by_projection_vectorized(*args, radius=30.0)),
        ),
    }
    print("\nAblation A4 — scalar vs data-parallel kernels (wall-clock)")
    for name, (scalar_s, vectorized_s) in timings.items():
        print(f"  {name:<24} {scalar_s * 1e3:8.2f} ms -> "
              f"{vectorized_s * 1e3:8.2f} ms  ({scalar_s / vectorized_s:5.1f}x)")
    fast, search = timings.values()
    assert fast[0] > 3.0 * fast[1]
    assert search[0] > 1.5 * search[1]
