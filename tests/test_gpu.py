"""Tests for GPU latency models, the sharing scheduler and real kernels."""

import time

import numpy as np
import pytest

from repro.gpu import GpuCostModel, GpuScheduler, TrackingLatencyModel
from repro.net import SimClock
from repro.slam.tracking import TrackingWorkload
from repro.vision.fast import detect_fast_vectorized
from repro.vision.matching import search_by_projection_vectorized
from tests import oracles


def _workload(stereo_pixels=False):
    # Values measured from our tracker on EuRoC/KITTI-like runs.
    return TrackingWorkload(
        image_pixels=752 * 480,
        n_features=300,
        n_local_points=600,
        candidate_pairs=100_000,
        pnp_iterations=6,
        n_matches=250,
    )


class TestTrackingLatencyModel:
    def test_cpu_breakdown_matches_fig5_shape(self):
        """Fig. 5: extraction >50%, search ~30%, total >34 ms on CPU."""
        model = TrackingLatencyModel()
        b = model.breakdown(_workload(), stereo=False, device="cpu")
        assert b.total > 34.0
        assert b.orb_extraction / b.total > 0.50
        assert 0.15 < b.search_local_points / b.total < 0.45

    def test_gpu_reduction_matches_fig8(self):
        """Fig. 8: ~40% reduction mono, >50% stereo; <33 ms total."""
        model = TrackingLatencyModel()
        w = _workload()
        cpu_mono = model.breakdown(w, stereo=False, device="cpu").total
        gpu_mono = model.breakdown(w, stereo=False, device="gpu").total
        cpu_stereo = model.breakdown(w, stereo=True, device="cpu").total
        gpu_stereo = model.breakdown(w, stereo=True, device="gpu").total
        assert 1 - gpu_mono / cpu_mono > 0.35
        assert 1 - gpu_stereo / cpu_stereo > 0.50
        assert gpu_mono < 33.0 and gpu_stereo < 33.0

    def test_stereo_doubles_extraction(self):
        model = TrackingLatencyModel()
        w = _workload()
        mono = model.breakdown(w, stereo=False, device="cpu")
        stereo = model.breakdown(w, stereo=True, device="cpu")
        assert stereo.orb_extraction == pytest.approx(2 * mono.orb_extraction)

    def test_gpu_share_slows_kernels_only_past_saturation(self):
        model = TrackingLatencyModel()
        w = _workload()
        full = model.breakdown(w, device="gpu", gpu_share=1.0)
        quarter = model.breakdown(w, device="gpu", gpu_share=0.25)
        eighth = model.breakdown(w, device="gpu", gpu_share=1.0 / 8)
        # Up to the saturation point (4 clients) per-stream rate holds.
        assert quarter.orb_extraction == pytest.approx(full.orb_extraction)
        # Beyond it, kernels slow down.
        assert eighth.orb_extraction > full.orb_extraction
        # Non-kernel stages unaffected.
        assert eighth.orb_matching == full.orb_matching

    def test_invalid_args(self):
        model = TrackingLatencyModel()
        with pytest.raises(ValueError):
            model.breakdown(_workload(), device="tpu")
        with pytest.raises(ValueError):
            model.breakdown(_workload(), device="gpu", gpu_share=0.0)

    def test_breakdown_dict(self):
        b = TrackingLatencyModel().breakdown(_workload(), device="cpu")
        d = b.as_dict()
        assert d["total"] == pytest.approx(b.total)
        assert set(d) == {
            "orb_extraction", "orb_matching", "pose_prediction",
            "search_local_points", "pnp", "total",
        }


class TestGpuScheduler:
    def test_spatial_sharing_starts_immediately(self):
        clock = SimClock()
        sched = GpuScheduler(clock, mode="spatial", n_clients=2)
        r1 = sched.submit(0, 0.010)
        r2 = sched.submit(1, 0.010)
        assert r1.started_at == r2.started_at == 0.0
        # Below saturation both run at full per-stream rate, concurrently.
        assert r1.finished_at == pytest.approx(0.010)
        # Past saturation, rates degrade by the cost model's one formula.
        crowded = GpuScheduler(clock, mode="spatial", n_clients=8)
        r3 = crowded.submit(0, 0.010)
        assert r3.finished_at - r3.started_at == pytest.approx(0.020)
        assert GpuCostModel().sharing_slowdown(1.0 / 8) == 2.0

    def test_temporal_sharing_queues(self):
        clock = SimClock()
        sched = GpuScheduler(clock, mode="temporal", n_clients=2)
        r1 = sched.submit(0, 0.010)
        r2 = sched.submit(1, 0.010)
        assert r1.finished_at == pytest.approx(0.010)
        assert r2.started_at == pytest.approx(0.010)
        assert r2.queue_delay == pytest.approx(0.010)

    def test_spatial_beats_temporal_tail_under_contention(self):
        """The GSlice ablation: spatial sharing bounds tail latency when
        several clients submit at once."""

        def run(mode):
            clock = SimClock()
            sched = GpuScheduler(clock, mode=mode, n_clients=4)
            for t in range(30):
                clock.schedule(
                    t * 0.001,
                    lambda s=sched: [s.submit(c, 0.005) for c in range(4)],
                )
            clock.run()
            return np.percentile([r.latency for r in sched.records], 99)

        assert run("spatial") < run("temporal")

    def test_callback_scheduled(self):
        clock = SimClock()
        sched = GpuScheduler(clock, mode="temporal")
        done = []
        sched.submit(0, 0.004, on_done=lambda: done.append(clock.now))
        clock.run()
        assert done == [pytest.approx(0.004)]

    def test_invalid_args(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            GpuScheduler(clock, mode="quantum")
        with pytest.raises(ValueError):
            GpuScheduler(clock, n_clients=0)

    def test_mean_latency_per_client(self):
        clock = SimClock()
        sched = GpuScheduler(clock, mode="temporal")
        sched.submit(0, 0.010)
        sched.submit(1, 0.010)

        def mean_latency(cid):
            return np.mean([r.latency for r in sched.records
                            if r.client_id == cid])

        assert mean_latency(0) < mean_latency(1)

    def test_temporal_fifo_finishes_back_to_back(self):
        clock = SimClock()
        sched = GpuScheduler(clock, mode="temporal")
        r1 = sched.submit(0, 0.010)
        r2 = sched.submit(1, 0.010)
        assert r1.finished_at == pytest.approx(0.010)
        assert r2.finished_at == pytest.approx(0.020)


class TestMeasuredKernelRecords:
    """The measured-time seam: a stage's host wall time replaces the model."""

    def test_submit_uses_measured_duration_and_flags_record(self):
        clock = SimClock()
        sched = GpuScheduler(clock, mode="temporal")
        modeled = sched.submit(0, 0.010)
        assert not modeled.measured
        assert modeled.latency == pytest.approx(0.010)
        measured = sched.submit(0, 0.010, measured_s=0.004)
        assert measured.measured
        # measured wall time replaces the model as the kernel duration
        assert measured.finished_at - measured.started_at == pytest.approx(
            0.004
        )


def _best_of_3(fn) -> float:
    """One un-repeated sample is scheduler noise on a shared host."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestRealKernels:
    def test_vectorized_fast_is_faster(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(96, 128), dtype=np.uint8)
        sequential = _best_of_3(lambda: oracles.detect_fast_scalar(image, 20))
        parallel = _best_of_3(lambda: detect_fast_vectorized(image, 20))
        assert sequential > 3.0 * parallel

    def test_vectorized_search_is_faster(self):
        rng = np.random.default_rng(3)
        proj_uv = rng.uniform(0, 320, size=(200, 2))
        frame_uv = rng.uniform(0, 320, size=(150, 2))
        point_desc = rng.integers(0, 256, size=(200, 32), dtype=np.uint8)
        frame_desc = rng.integers(0, 256, size=(150, 32), dtype=np.uint8)
        args = (proj_uv, point_desc, frame_uv, frame_desc)
        sequential = _best_of_3(
            lambda: oracles.search_by_projection_scalar(*args, radius=30.0))
        parallel = _best_of_3(
            lambda: search_by_projection_vectorized(*args, radius=30.0))
        # Machine-dependent; the point is a clear win for the
        # data-parallel formulation, not a specific factor.
        assert sequential > 1.2 * parallel
