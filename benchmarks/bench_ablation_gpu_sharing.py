"""Ablation A3: GSlice-style spatial GPU sharing vs temporal sharing.

Paper §4.2.1: SLAM-Share uses spatio-temporal GPU sharing so several
clients' kernels run concurrently on SM partitions rather than FIFO-
queueing behind each other.  We replay synchronized multi-client kernel
arrivals through both schedulers and compare latency distributions, and
check end-to-end tracking latency still meets 30 FPS with 4 clients.
"""

import numpy as np
import pytest

from repro.gpu import GpuScheduler, TrackingLatencyModel
from repro.net import SimClock
from repro.slam.tracking import TrackingWorkload

FRAME_PERIOD = 1 / 30.0
KERNEL_S = 0.006           # a victim client's per-frame GPU work at 100%
BURST_KERNEL_S = 0.020     # the aggressor's oversized kernels
N_CLIENTS = 4
N_FRAMES = 60


def _replay(mode: str) -> GpuScheduler:
    """Client 0 bursts oversized kernels; clients 1-3 run normal frames.

    This is the scenario GSlice targets: under temporal sharing the
    burst head-of-line-blocks everyone; under spatial sharing each
    client's SM partition isolates the victims.
    """
    clock = SimClock()
    scheduler = GpuScheduler(clock, mode=mode, n_clients=N_CLIENTS)
    for frame in range(N_FRAMES):
        clock.schedule(
            frame * FRAME_PERIOD,
            lambda: scheduler.submit(0, BURST_KERNEL_S),
        )
        for client in range(1, N_CLIENTS):
            clock.schedule(
                frame * FRAME_PERIOD + client * 1e-4,
                lambda c=client: scheduler.submit(c, KERNEL_S),
            )
    clock.run()
    return scheduler


def test_ablation_spatial_vs_temporal_sharing(benchmark):
    spatial, temporal = benchmark.pedantic(
        lambda: (_replay("spatial"), _replay("temporal")),
        rounds=1, iterations=1,
    )
    print("\nAblation A3 — victim-client kernel latency under a bursty peer")
    results = {}
    for name, sched in (("spatial (GSlice)", spatial), ("temporal", temporal)):
        victims = [r for r in sched.records if r.client_id != 0]
        lat = [r.latency * 1e3 for r in victims]
        queue = [r.queue_delay * 1e3 for r in victims]
        results[name] = np.percentile(lat, 99)
        print(f"  {name:<18} mean {np.mean(lat):6.2f} ms  "
              f"p99 {np.percentile(lat, 99):6.2f} ms  "
              f"queue {np.mean(queue):5.2f} ms")
    # Spatial sharing isolates the victims from the burst.
    assert results["spatial (GSlice)"] < results["temporal"]
    assert all(r.queue_delay == 0 for r in spatial.records)


def test_ablation_sharing_keeps_tracking_realtime(benchmark):
    """With 4 clients on SM partitions, per-frame tracking must still fit
    in the 33 ms budget (the paper's 'tens of users' scaling argument
    at session scale)."""
    model = TrackingLatencyModel()
    workload = TrackingWorkload(
        image_pixels=752 * 480, n_features=300, n_local_points=600,
        candidate_pairs=100_000, pnp_iterations=6, n_matches=250,
    )

    def sweep():
        return {
            n: model.breakdown(
                workload, stereo=True, device="gpu", gpu_share=1.0 / n
            ).total
            for n in (1, 2, 4)
        }

    totals = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation A3b — tracking latency vs concurrent clients (stereo)")
    for n, total in totals.items():
        print(f"  {n} client(s): {total:6.2f} ms per frame")
    # Below GPU saturation, concurrency is free — that is the whole
    # point of spatial sharing (and of the paper's tens-of-users claim).
    assert totals[4] == pytest.approx(totals[1], rel=0.01)
    assert totals[4] < 33.0
