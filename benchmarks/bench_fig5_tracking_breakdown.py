"""Fig. 5: CPU tracking-latency breakdown across datasets.

Paper: on the CPU, ORB extraction is >50% of tracking time and search-
local-points ~30%, with totals >34 ms — too slow for 30 FPS.  We replay
real tracked workloads from four traces (mono and stereo) through the
calibrated CPU cost model and print the per-stage breakdown.
"""

import numpy as np
import pytest

from repro.datasets import make_dataset
from repro.gpu import TrackingLatencyModel
from tests.test_slam_system import run_system

TRACES = ("KITTI-00", "KITTI-05", "MH04", "V202")


def _mean_workloads(name, duration=6.0):
    ds = make_dataset(name, duration=duration, rate=10.0)
    system, _ = run_system(ds)
    # Re-run a handful of frames to collect workloads.
    oracle = ds.make_oracle(seed=31)
    workloads = []
    from repro.imu import ImuBuffer, preintegrate, synthesize_imu

    imu = ImuBuffer(synthesize_imu(ds.ground_truth, rate_hz=200.0, seed=33))
    prev = None
    for ts, obs in ds.frames(oracle, limit=30):
        delta = preintegrate(imu, prev, ts) if prev is not None else None
        result = system.process_frame(ts + 1000.0, obs, imu_delta=delta)
        workloads.append(result.tracking.workload)
        prev = ts
    return workloads


@pytest.mark.parametrize("trace", TRACES)
def test_fig5_cpu_breakdown(trace, benchmark):
    workloads = _mean_workloads(trace)
    model = TrackingLatencyModel()

    def evaluate():
        return [
            model.breakdown(w, stereo=False, device="cpu") for w in workloads
        ]

    breakdowns = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    mean = {
        key: float(np.mean([b.as_dict()[key] for b in breakdowns]))
        for key in ("orb_extraction", "orb_matching", "pose_prediction",
                    "search_local_points", "pnp", "total")
    }
    print(f"\nFig. 5 — {trace} CPU tracking breakdown (simulated ms)")
    for key, value in mean.items():
        share = 100.0 * value / mean["total"] if key != "total" else 100.0
        print(f"  {key:<20} {value:>7.2f} ms  ({share:>4.1f}%)")

    # The paper's shape: extraction dominates (>50%), search ~30%,
    # total over the 33 ms real-time budget.
    assert mean["orb_extraction"] / mean["total"] > 0.45
    assert 0.10 < mean["search_local_points"] / mean["total"] < 0.45
    assert mean["total"] > 33.0
