"""Array-module dispatch layer + gpu-tier equivalence tests.

Everything here runs without a GPU: the dispatch machinery is exercised
with the fake device module (numpy wearing an ``is_device=True``
costume, see ``tests/fake_xp.py``), which routes the kernels
through the exact device code paths — staged uploads, counted
transfers, measured kernel timings — while computing on numpy, so
"gpu" results must be *bit-exact* against "vectorized".  Real-device
cases (cupy) are additionally exercised when the host has one
(``skipif`` otherwise).
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.gpu import (
    ArrayModule,
    host_array_module,
    probe_array_module,
    resolve_backend,
    use_array_module,
)
from repro.gpu import array as gpu_array
from repro.geometry import SE3, se3_batch, so3
from repro.slam.bundle_adjustment import local_bundle_adjustment
from repro.slam.pose_graph import optimize_pose_graph
from repro.slam.tracking import Tracker, TrackerConfig
from repro.vision.brief import (
    DESCRIPTOR_BYTES,
    hamming_distance_matrix,
    hamming_distance_pairs,
    stage_descriptors,
)
from repro.vision.matching import match_descriptors
from tests.fake_xp import FakeDeviceArray, make_fake_array_module
from tests.test_backend_vectorized import _drifted_chain, _noisy_scene

HAS_REAL_DEVICE = gpu_array._detected_device() is not None


def _rand_descriptors(rng, n):
    return rng.integers(0, 256, size=(n, DESCRIPTOR_BYTES), dtype=np.uint8)


# ---------------------------------------------------------------- registry
def _ba(backend):
    slam_map, cam = _noisy_scene(n_kfs=2, n_points=20)
    local_bundle_adjustment(slam_map, cam, list(slam_map.keyframes),
                            backend=backend)


def _pose_graph(backend):
    slam_map, edges, _ = _drifted_chain(n=3)
    optimize_pose_graph(slam_map, edges, backend=backend)


def _tracker(backend):
    slam_map, cam, _ = _tracking_fixture()
    Tracker(slam_map, cam, backend=backend)


def _slam_system(backend):
    from repro.slam import SlamConfig, SlamSystem
    from repro.vision import PinholeCamera

    SlamSystem(PinholeCamera.ideal(320, 240), SlamConfig(backend=backend))


class TestRegistry:
    @pytest.mark.parametrize("name", ["scalar", "tpu"])
    @pytest.mark.parametrize(
        "entry_point", [_ba, _pose_graph, _tracker, _slam_system]
    )
    def test_entry_points_reject_retired_and_unknown_names(
            self, entry_point, name):
        with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
            entry_point(name)

    def test_validate_rejects_unknown(self):
        for name in ("tpu", "scalar"):
            with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
                resolve_backend(name)

    def test_host_tiers_resolve_to_themselves(self):
        assert resolve_backend("vectorized") is host_array_module()
        # An injected device does not make the numpy name a device tier.
        assert resolve_backend(
            "vectorized", array_module=make_fake_array_module()
        ) is host_array_module()

    def test_gpu_resolves_to_injected_device_module(self):
        am = make_fake_array_module()
        assert resolve_backend("gpu", array_module=am) is am

    def test_gpu_without_device_falls_back_to_vectorized(self):
        host = ArrayModule("numpy-2", np, is_device=False)
        assert resolve_backend("gpu", array_module=host) is host_array_module()


# ------------------------------------------------------------- ArrayModule
class TestArrayModuleBasics:
    def test_host_module_is_passthrough(self):
        am = host_array_module()
        a = np.arange(6.0).reshape(2, 3)
        assert am.to_device(a) is a          # already contiguous float64
        assert am.to_host(a) is a or np.shares_memory(am.to_host(a), a)
        assert am.transfers.to_device == 0
        assert am.transfers.to_host == 0

    def test_to_device_normalizes_dtype_and_contiguity(self):
        am = make_fake_array_module()
        a = np.asarray(np.arange(12, dtype=np.int32).reshape(4, 3), order="F")
        dev = am.to_device(a[:, :2], dtype=np.float64)
        back = am.to_host(dev)
        assert back.dtype == np.float64
        assert back.flags.c_contiguous
        np.testing.assert_array_equal(back, a[:, :2].astype(np.float64))

    def test_transfers_are_counted_with_bytes(self):
        am = make_fake_array_module()
        a = np.zeros((8, 4))
        dev = am.to_device(a)
        am.to_host(dev)
        assert am.transfers.to_device == 1
        assert am.transfers.to_host == 1
        assert am.transfers.bytes_to_device == a.nbytes
        assert am.transfers.bytes_to_host == a.nbytes

    def test_fake_array_refuses_implicit_host_conversion(self):
        am = make_fake_array_module()
        dev = am.to_device(np.zeros(3))
        with pytest.raises(TypeError, match="to_host"):
            np.asarray(dev)

    def test_kernel_context_records_timing_on_device_only(self):
        fake = make_fake_array_module()
        with fake.kernel("k1"):
            pass
        assert [t.name for t in fake.kernel_timings] == ["k1"]
        assert fake.kernel_timings[0].wall_s >= 0.0
        host = ArrayModule("numpy-2", np, is_device=False)
        with host.kernel("k2"):
            pass
        assert host.kernel_timings == []

    def test_popcount_matches_reference(self):
        am = make_fake_array_module()
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=(5, 8), dtype=np.uint8)
        pc = am.to_host(am.popcount(am.to_device(a)))
        ref = np.unpackbits(a, axis=1).reshape(5, 8, 8).sum(axis=2)
        np.testing.assert_array_equal(pc.astype(np.int64), ref)


# ------------------------------------------------------- probe + detection
class TestProbeAndDetection:
    def test_probe_accepts_fake_module(self):
        assert probe_array_module(make_fake_array_module())

    def test_probe_rejects_broken_module(self):
        broken = make_fake_array_module(fail_ops={"einsum"})
        assert not probe_array_module(broken)

    def test_auto_detection_never_returns_none(self):
        am = resolve_backend("gpu")
        assert am is not None

    @pytest.fixture
    def fresh_detection(self, monkeypatch):
        """Forget the process's detection and count builder calls."""
        monkeypatch.setattr(gpu_array, "_DETECTED", [])
        calls = []

        def install(module):
            def build():
                calls.append(module.name)
                return module
            monkeypatch.setattr(gpu_array, "_build_cupy_module", build)

        return install, calls

    def test_registered_builder_goes_through_probe(self, fresh_detection):
        install, calls = fresh_detection
        install(make_fake_array_module("cupy-bad", fail_ops={"bincount"}))
        assert gpu_array._detected_device() is None
        assert resolve_backend("gpu") is host_array_module()
        # detection result is cached: no rebuild on a second lookup
        resolve_backend("gpu")
        assert calls == ["cupy-bad"]

        gpu_array._DETECTED.clear()
        install(make_fake_array_module("cupy-good"))
        am = resolve_backend("gpu")
        assert am.name == "cupy-good"
        assert resolve_backend("gpu") is am
        assert calls == ["cupy-bad", "cupy-good"]

    def test_detected_module_starts_with_clean_counters(self, fresh_detection):
        # The probe's own transfers are not the caller's traffic.
        install, _ = fresh_detection
        install(make_fake_array_module("cupy-clean"))
        am = resolve_backend("gpu")
        assert am.name == "cupy-clean"
        assert am.transfers.to_device == 0
        assert am.transfers.to_host == 0
        assert am.kernel_timings == []

    def test_override_short_circuits_detection(self):
        fake = make_fake_array_module("override")
        with use_array_module(fake):
            assert resolve_backend("gpu") is fake
        assert resolve_backend("gpu") is not fake


# --------------------------------------------------- Hamming + matching
class TestMatchingEquivalence:
    def test_hamming_matrix_gpu_exact(self):
        rng = np.random.default_rng(1)
        a, b = _rand_descriptors(rng, 40), _rand_descriptors(rng, 55)
        ref = hamming_distance_matrix(a, b)
        am = make_fake_array_module()
        got = hamming_distance_matrix(a, b, am=am)
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype

    def test_hamming_pairs_gpu_exact(self):
        rng = np.random.default_rng(2)
        a, b = _rand_descriptors(rng, 30), _rand_descriptors(rng, 30)
        idx_a = rng.integers(0, 30, size=100)
        idx_b = rng.integers(0, 30, size=100)
        ref = hamming_distance_pairs(a, b, idx_a, idx_b)
        am = make_fake_array_module()
        got = hamming_distance_pairs(a, b, idx_a, idx_b, am=am)
        np.testing.assert_array_equal(got, ref)

    def test_match_descriptors_gpu_exact(self):
        rng = np.random.default_rng(3)
        q, t = _rand_descriptors(rng, 60), _rand_descriptors(rng, 80)
        ref = match_descriptors(q, t)
        am = make_fake_array_module()
        got = match_descriptors(q, t, am=am)
        assert [(m.query_idx, m.train_idx, m.distance) for m in ref] == \
               [(m.query_idx, m.train_idx, m.distance) for m in got]

    def test_match_descriptors_gpu_one_row_train_and_empty_query(self):
        rng = np.random.default_rng(9)
        q, t = _rand_descriptors(rng, 12), _rand_descriptors(rng, 1)
        am = make_fake_array_module()
        ref = match_descriptors(q, t)
        got = match_descriptors(q, t, am=am)
        assert [(m.query_idx, m.train_idx, m.distance) for m in ref] == \
               [(m.query_idx, m.train_idx, m.distance) for m in got]
        empty = np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8)
        assert match_descriptors(empty, t, am=am) == []

    def test_hamming_matrix_device_uses_uint64_words_when_supported(self):
        am = make_fake_array_module()
        rng = np.random.default_rng(4)
        a, b = _rand_descriptors(rng, 10), _rand_descriptors(rng, 12)
        a_dev = stage_descriptors(am, a)
        dist = hamming_distance_matrix(a, b, am=am)
        np.testing.assert_array_equal(dist, hamming_distance_matrix(a, b))
        if am.hamming_dtype == np.uint64:
            assert a_dev.shape == (10, DESCRIPTOR_BYTES // 8)


# ------------------------------------------------------- geometry kernels
class TestGeometryEquivalence:
    def test_se3_exp_log_roundtrip_on_device(self):
        rng = np.random.default_rng(5)
        xi = rng.normal(scale=0.4, size=(64, 6))
        # include near-pi rotations to hit the device fallback branch
        xi[0, :3] = np.array([np.pi - 1e-9, 0.0, 0.0])
        am = make_fake_array_module()
        rot_ref, trans_ref = se3_batch.exp(xi)
        rot_d, trans_d = se3_batch.exp(am.to_device(xi), am=am)
        np.testing.assert_allclose(am.to_host(rot_d), rot_ref, atol=1e-12)
        np.testing.assert_allclose(am.to_host(trans_d), trans_ref, atol=1e-12)
        back_ref = se3_batch.log(rot_ref, trans_ref)
        back_d = se3_batch.log(rot_d, trans_d, am=am)
        np.testing.assert_allclose(am.to_host(back_d), back_ref, atol=1e-9)

    def test_so3_exp_log_batch_on_device(self):
        rng = np.random.default_rng(6)
        omega = rng.normal(scale=0.5, size=(32, 3))
        am = make_fake_array_module()
        rot_ref = so3.exp_batch(omega)
        rot_d = so3.exp_batch(am.to_device(omega), am=am)
        np.testing.assert_allclose(am.to_host(rot_d), rot_ref, atol=1e-12)
        np.testing.assert_allclose(
            am.to_host(so3.log_batch(rot_d, am=am)),
            so3.log_batch(rot_ref), atol=1e-12,
        )


# ----------------------------------------------------- BA and pose graph
def _ba_scene():
    return _noisy_scene(n_kfs=6, n_points=150, seed=0)


def _pg_scene():
    return _drifted_chain(n=24, seed=0)


class TestSolverEquivalence:
    def test_local_ba_gpu_bit_exact_vs_vectorized(self):
        slam_map, cam = _ba_scene()
        window = sorted(slam_map.keyframes)
        fixed = {window[0]}
        map_v = copy.deepcopy(slam_map)
        map_g = copy.deepcopy(slam_map)
        local_bundle_adjustment(
            map_v, cam, window, fixed_keyframe_ids=fixed, backend="vectorized"
        )
        am = make_fake_array_module()
        with use_array_module(am):
            local_bundle_adjustment(
                map_g, cam, window, fixed_keyframe_ids=fixed, backend="gpu"
            )
        for pid in map_v.mappoints:
            np.testing.assert_array_equal(
                map_v.mappoints[pid].position, map_g.mappoints[pid].position
            )
        assert any(t.name == "ba_refine" for t in am.kernel_timings)

    def test_local_ba_stages_once_per_refine_call(self):
        # Each outer BA round re-resections keyframes, so refine must
        # restage; but within one refine call the 3 Gauss-Newton
        # iterations share a single batched staging.  Upload counts are
        # therefore linear in the outer `iterations` knob with a small
        # per-call constant (one batch of input arrays, two downloads).
        slam_map, cam = _ba_scene()
        window = sorted(slam_map.keyframes)
        fixed = {window[0]}
        counts = []
        for outer in (1, 3):
            am = make_fake_array_module()
            with use_array_module(am):
                local_bundle_adjustment(
                    copy.deepcopy(slam_map), cam, window,
                    fixed_keyframe_ids=fixed, backend="gpu",
                    iterations=outer,
                )
            counts.append(am.transfers.snapshot())
        one, three = counts
        assert three.to_device == 3 * one.to_device
        assert three.to_host == 3 * one.to_host
        # per-call constants: one batched staging, a couple of downloads
        assert one.to_device <= 12
        assert one.to_host <= 3

    def test_pose_graph_gpu_bit_exact_vs_vectorized(self):
        slam_map, edges, ordered = _pg_scene()
        fixed = {ordered[0]}
        map_v = copy.deepcopy(slam_map)
        map_g = copy.deepcopy(slam_map)
        res_v = optimize_pose_graph(
            map_v, edges, fixed=fixed, backend="vectorized"
        )
        am = make_fake_array_module()
        with use_array_module(am):
            res_g = optimize_pose_graph(
                map_g, edges, fixed=fixed, backend="gpu"
            )
        for kf_id in map_v.keyframes:
            pa, pb = map_v.keyframes[kf_id].pose_cw, map_g.keyframes[kf_id].pose_cw
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)
        assert res_v.final_residual == pytest.approx(
            res_g.final_residual, abs=1e-12
        )
        assert any(t.name == "pg_sweeps" for t in am.kernel_timings)

    def test_gpu_fallback_matches_vectorized_exactly(self):
        # no device module anywhere -> "gpu" runs the literal vectorized
        # path, so results are byte-identical, not merely close.
        slam_map, cam = _ba_scene()
        window = sorted(slam_map.keyframes)
        fixed = {window[0]}
        map_v, map_g = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
        local_bundle_adjustment(
            map_v, cam, window, fixed_keyframe_ids=fixed, backend="vectorized"
        )
        with use_array_module(host_array_module()):
            local_bundle_adjustment(
                map_g, cam, window, fixed_keyframe_ids=fixed, backend="gpu"
            )
        for pid in map_v.mappoints:
            np.testing.assert_array_equal(
                map_v.mappoints[pid].position, map_g.mappoints[pid].position
            )


# ------------------------------------------------------------- tracking
def _tracking_fixture():
    """A tiny map + two frames the tracker can follow."""
    from repro.slam.frame import Frame
    from repro.slam.keyframe import KeyFrame
    from repro.slam.map import SlamMap
    from repro.slam.mappoint import MapPoint
    from repro.vision import FeatureSet, PinholeCamera

    rng = np.random.default_rng(7)
    cam = PinholeCamera.ideal(320, 240)
    n = 80
    world = np.column_stack([
        rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
        rng.uniform(4, 9, n),
    ])
    descs = _rand_descriptors(rng, n)
    slam_map = SlamMap()
    pose0 = SE3.identity()
    uv, depth, valid = cam.project_world(world, pose0)
    idx = np.nonzero(valid)[0]
    kf = KeyFrame(
        keyframe_id=0, timestamp=0.0, pose_cw=pose0,
        uv=uv[idx], descriptors=descs[idx], depths=depth[idx],
        point_ids=np.arange(len(idx), dtype=np.int64),
    )
    for row, i in enumerate(idx):
        point = MapPoint(point_id=row, position=world[i],
                         descriptor=descs[i])
        point.add_observation(0, row)
        slam_map.add_mappoint(point)
    slam_map.add_keyframe(kf)

    def make_frame(pose):
        uv_f, depth_f, valid_f = cam.project_world(world, pose)
        j = np.nonzero(valid_f)[0]
        return Frame(frame_id=1, timestamp=1.0,
                     features=FeatureSet(uv_f[j], descs[j], depth_f[j], j))

    return slam_map, cam, make_frame


class TestTrackerGpuTier:
    def test_tracked_poses_identical_and_timing_measured(self):
        slam_map, cam, make_frame = _tracking_fixture()
        pose = SE3.exp(np.array([0.0, 0.0, 0.0, 0.05, 0.0, 0.01]))

        def run(backend, am=None):
            tracker = Tracker(copy.deepcopy(slam_map), cam,
                              TrackerConfig(min_matches=8),
                              backend=backend, array_module=am)
            tracker.reference_keyframe_id = 0
            tracker.force_pose(SE3.identity())
            return tracker.track(make_frame(pose), pose_prior=pose)

        res_v = run("vectorized")
        am = make_fake_array_module()
        res_g = run("gpu", am=am)
        assert res_v.success and res_g.success
        assert res_v.n_matches == res_g.n_matches
        np.testing.assert_array_equal(
            res_v.frame.pose_cw.rotation, res_g.frame.pose_cw.rotation
        )
        np.testing.assert_array_equal(
            res_v.frame.pose_cw.translation, res_g.frame.pose_cw.translation
        )
        # host path: modeled; device path: measured + drained
        assert res_v.workload.measured_kernel_ms is None
        assert res_g.workload.measured_kernel_ms is not None
        assert res_g.workload.measured_kernel_ms >= 0.0
        assert am.kernel_timings == []   # drained into the workload

    def test_frame_descriptors_uploaded_once_per_track(self):
        slam_map, cam, make_frame = _tracking_fixture()
        am = make_fake_array_module()
        tracker = Tracker(copy.deepcopy(slam_map), cam,
                          TrackerConfig(min_matches=8),
                          backend="gpu", array_module=am)
        tracker.reference_keyframe_id = 0
        tracker.force_pose(SE3.identity())
        pose = SE3.exp(np.array([0.0, 0.0, 0.0, 0.05, 0.0, 0.01]))

        tracker.track(make_frame(pose), pose_prior=pose)
        first = am.transfers.snapshot()
        # local-map pack staged once, frame descriptors staged once;
        # everything else the searches move is small index vectors.
        tracker.track(make_frame(pose), pose_prior=pose)
        second = am.transfers.snapshot()
        # the pack is cached on (ref kf, map version): frame 2 pays only
        # its own frame-descriptor upload (+ per-search small vectors),
        # never a second local-map upload.
        delta = second.to_device - first.to_device
        assert delta < first.to_device
        assert second.bytes_to_device - first.bytes_to_device < \
            first.bytes_to_device


# ------------------------------------------------- scheduler measured time
class TestMeasuredKernelRecords:
    def test_submit_uses_measured_duration_and_flags_record(self):
        from repro.gpu.scheduler import GpuScheduler
        from repro.net.simclock import SimClock

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


# ---------------------------------------------------------- real hardware
@pytest.mark.skipif(not HAS_REAL_DEVICE, reason="no GPU array module")
class TestRealDeviceEquivalence:
    def test_hamming_matrix_real_device(self):
        am = resolve_backend("gpu")
        assert am.is_device
        rng = np.random.default_rng(8)
        a, b = _rand_descriptors(rng, 64), _rand_descriptors(rng, 64)
        np.testing.assert_array_equal(
            hamming_distance_matrix(a, b, am=am), hamming_distance_matrix(a, b)
        )

    def test_local_ba_real_device(self):
        slam_map, cam = _ba_scene()
        window = sorted(slam_map.keyframes)
        fixed = {window[0]}
        map_v, map_g = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
        local_bundle_adjustment(
            map_v, cam, window, fixed_keyframe_ids=fixed, backend="vectorized"
        )
        local_bundle_adjustment(
            map_g, cam, window, fixed_keyframe_ids=fixed, backend="gpu"
        )
        for pid in map_v.mappoints:
            np.testing.assert_allclose(
                map_v.mappoints[pid].position, map_g.mappoints[pid].position,
                atol=1e-6,
            )


# --------------------------------------------------------------- one body
class TestOneBody:
    def test_device_predicate_is_read_only_in_dispatch(self):
        # Kernels are written once against an ArrayModule; a host/device
        # fork outside the dispatch layer is a second body.
        src = Path(repro.__file__).parent
        forks = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if path.relative_to(src) != Path("gpu", "array.py")
            and any(name in path.read_text(encoding="utf-8")
                    for name in ("is_device", "_xp_of"))
        ]
        assert forks == []


# ----------------------------------------------------------- fake module
class TestFakeModuleSelf:
    """The shim itself has contracts other tests rely on."""

    def test_wrapped_ops_return_fake_arrays(self):
        am = make_fake_array_module()
        xp = am.xp
        out = xp.sqrt(am.to_device(np.array([4.0, 9.0])))
        assert isinstance(out, FakeDeviceArray)
        np.testing.assert_array_equal(am.to_host(out), [2.0, 3.0])

    def test_transfers_copy_not_alias(self):
        am = make_fake_array_module()
        a = np.zeros(3)
        dev = am.to_device(a)
        a[0] = 7.0
        assert am.to_host(dev)[0] == 0.0
