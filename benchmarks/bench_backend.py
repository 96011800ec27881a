"""Wall-clock perf harness for the mapping back-end.

Times local bundle adjustment and pose-graph optimization with a
selected kernel tier (``--backend vectorized`` by default, or ``gpu``)
against the scalar reference loops, plus the batched SE(3) log as a
geometry microbenchmark, and writes a JSON baseline
(``BENCH_PR5.json`` / ``BENCH_PR10.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py                # full run
    PYTHONPATH=src python benchmarks/bench_backend.py --smoke        # CI-sized
    PYTHONPATH=src python benchmarks/bench_backend.py --smoke \
        --check BENCH_PR5.json                                       # regression gate
    PYTHONPATH=src python benchmarks/bench_backend.py --smoke \
        --backend gpu --check BENCH_PR10.json                        # gpu tier

The regression gate compares *speedups* (fast tier vs scalar, measured
in the same process) rather than absolute milliseconds, so it is stable
across machines: it fails when any op's measured speedup drops below
half of the committed baseline's.  Full (non-smoke) runs additionally
enforce the absolute acceptance floors: >= 5x on local BA (30 keyframes
/ 2000 points) and >= 3x on the pose graph (200 keyframes).

``--backend gpu`` routes the fast tier through the array-module
dispatch layer (:mod:`repro.backend`).  Equivalence against scalar is
asserted on every run regardless of hardware (without a device, "gpu"
*is* the vectorized path); the speedup gate and floors are only armed
when a real device module is present, since the fallback's speedups
are vectorized's.  With a device (real or ``--fake-device``), every op
also records per-kernel transfer accounting (upload/download counts
and bytes, staging-cache hits, measured kernel wall time).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.backend import resolve_backend, use_array_module
from repro.geometry import SE3, se3_batch, so3
from repro.slam import IdAllocator, SlamMap
from repro.slam.bundle_adjustment import local_bundle_adjustment
from repro.slam.keyframe import KeyFrame
from repro.slam.mappoint import MapPoint
from repro.slam.pose_graph import PoseGraphEdge, optimize_pose_graph
from repro.vision import PinholeCamera
from repro.vision.brief import DESCRIPTOR_BYTES

# Absolute speedup floors from the PR's acceptance criteria, enforced
# on full-sized runs only (smoke sizes are too small to hit them).
FLOORS = {"local_ba": 5.0, "pose_graph": 3.0}


# ----------------------------------------------------------- scene builders
def build_ba_scene(n_kfs: int, n_points: int, seed: int = 0):
    """A camera translating along a point corridor; every point is seen
    by several keyframes, so the intersection step has real work."""
    rng = np.random.default_rng(seed)
    cam = PinholeCamera.ideal(320, 240)
    length = 0.25 * n_kfs
    world = np.column_stack(
        [
            rng.uniform(-3, 3 + length, n_points),
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
            position=world[i] + rng.normal(scale=0.05, size=3),
            descriptor=rng.integers(0, 256, DESCRIPTOR_BYTES, dtype=np.uint8),
        )
        slam_map.add_mappoint(point)
        pids.append(point.point_id)
    for k in range(n_kfs):
        pose = SE3(
            so3.exp(np.array([0.0, 0.02 * k, 0.0])),
            np.array([0.25 * k, 0.0, 0.0]),
        )
        uv, depth, valid = cam.project_world(world, pose)
        idx = np.nonzero(valid)[0]
        kf = KeyFrame(
            keyframe_id=kf_alloc.allocate(),
            timestamp=float(k),
            pose_cw=pose.perturb(rng.normal(scale=0.02, size=6))
            if k > 0 else pose,
            uv=uv[idx],
            descriptors=np.zeros((len(idx), DESCRIPTOR_BYTES), dtype=np.uint8),
            depths=depth[idx],
            point_ids=np.array([pids[i] for i in idx], dtype=np.int64),
        )
        for feat_i, world_i in enumerate(idx):
            slam_map.mappoints[pids[world_i]].add_observation(
                kf.keyframe_id, feat_i
            )
        slam_map.add_keyframe(kf)
    return slam_map, cam


def build_pose_graph_scene(n_kfs: int, points_per_kf: int = 8, seed: int = 0):
    """A drifted keyframe chain with loop edges carrying the correction."""
    rng = np.random.default_rng(seed)
    slam_map = SlamMap()
    kf_alloc, pt_alloc = IdAllocator(0), IdAllocator(0)
    clean_poses = []
    for k in range(n_kfs):
        pose = SE3(
            so3.exp(np.array([0.0, 0.01 * k, 0.0])),
            np.array([0.5 * k, 0.0, 0.0]),
        )
        clean_poses.append(pose)
        point_ids = np.full(points_per_kf, -1, dtype=np.int64)
        for i in range(points_per_kf):
            point = MapPoint(
                point_id=pt_alloc.allocate(),
                position=rng.normal(size=3) + np.array([0.5 * k, 0.0, 6.0]),
                descriptor=rng.integers(
                    0, 256, DESCRIPTOR_BYTES, dtype=np.uint8
                ),
            )
            slam_map.add_mappoint(point)
            point_ids[i] = point.point_id
        kf = KeyFrame(
            keyframe_id=kf_alloc.allocate(),
            timestamp=float(k),
            pose_cw=pose,
            uv=rng.uniform(0, 320, size=(points_per_kf, 2)),
            descriptors=np.zeros(
                (points_per_kf, DESCRIPTOR_BYTES), dtype=np.uint8
            ),
            depths=rng.uniform(1, 10, size=points_per_kf),
            point_ids=point_ids,
        )
        for i in range(points_per_kf):
            slam_map.mappoints[int(point_ids[i])].add_observation(
                kf.keyframe_id, i
            )
        slam_map.add_keyframe(kf)
    ordered = sorted(slam_map.keyframes)
    edges = [
        PoseGraphEdge(
            a, b, clean_poses[i] * clean_poses[i + 1].inverse(),
            weight=20.0,
        )
        for i, (a, b) in enumerate(zip(ordered, ordered[1:]))
    ]
    stride = max(n_kfs // 4, 2)
    for i in range(stride, n_kfs, stride):
        edges.append(
            PoseGraphEdge(
                ordered[i], ordered[0],
                clean_poses[i] * clean_poses[0].inverse(),
                weight=120.0, is_loop_edge=True,
            )
        )
    # Inject drift so the sweeps have a real correction to distribute.
    for k, kf_id in enumerate(ordered[1:], start=1):
        kf = slam_map.keyframes[kf_id]
        kf.pose_cw = kf.pose_cw.perturb(rng.normal(scale=0.003 * k, size=6))
    return slam_map, edges, ordered


# ----------------------------------------------------------------- timing
def _stats(samples: List[float]) -> Dict[str, float]:
    arr = np.asarray(samples)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p95_ms": round(float(np.percentile(arr, 95)), 4),
    }


def _time_pooled(template, fn: Callable, repeats: int) -> List[float]:
    """Time ``fn(map_copy)`` on fresh deep copies so the (mutating) call
    always starts from the same state and copy cost stays untimed."""
    pool = [copy.deepcopy(template) for _ in range(repeats + 1)]
    fn(pool[0])  # warmup
    samples = []
    for arg in pool[1:]:
        start = time.perf_counter()
        fn(arg)
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def _transfer_dict(am) -> Dict[str, object]:
    t = am.transfers
    kernels = {}
    for timing in am.kernel_timings:
        entry = kernels.setdefault(
            timing.name, {"calls": 0, "wall_ms": 0.0}
        )
        entry["calls"] += 1
        entry["wall_ms"] = round(entry["wall_ms"] + timing.wall_s * 1e3, 4)
    return {
        "to_device": t.to_device,
        "to_host": t.to_host,
        "bytes_to_device": t.bytes_to_device,
        "bytes_to_host": t.bytes_to_host,
        "staging_hits": t.staging_hits,
        "transfer_wall_ms": round(t.transfer_wall_s * 1e3, 4),
        "kernels": kernels,
    }


def _op_entry(name: str, template, naive: Callable, fast: Callable,
              repeats: int, detail: str, fast_label: str = "vectorized",
              am=None) -> Dict[str, object]:
    naive_stats = _stats(_time_pooled(template, naive, repeats))
    if am is not None:
        am.reset_counters()
    fast_stats = _stats(_time_pooled(template, fast, repeats))
    speedup = naive_stats["p50_ms"] / max(fast_stats["p50_ms"], 1e-9)
    print(f"  {name:<22} scalar p50 {naive_stats['p50_ms']:>10.3f} ms   "
          f"{fast_label} p50 {fast_stats['p50_ms']:>9.3f} ms   "
          f"{speedup:>7.1f}x")
    entry = {
        "detail": detail,
        "naive": naive_stats,
        "fast": fast_stats,
        "speedup": round(speedup, 2),
    }
    if am is not None:
        entry["transfers"] = _transfer_dict(am)
    return entry


def _assert_ba_equivalent(slam_map, cam, window, fixed,
                          fast_backend: str = "vectorized",
                          tol: float = 1e-9) -> None:
    map_s, map_v = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
    local_bundle_adjustment(
        map_s, cam, window, fixed_keyframe_ids=fixed, backend="scalar"
    )
    local_bundle_adjustment(
        map_v, cam, window, fixed_keyframe_ids=fixed, backend=fast_backend
    )
    for pid in map_s.mappoints:
        diff = np.abs(
            map_s.mappoints[pid].position - map_v.mappoints[pid].position
        ).max()
        assert diff < tol, f"BA backends diverged on point {pid}: {diff}"


def _assert_pg_equivalent(slam_map, edges, fixed,
                          fast_backend: str = "vectorized",
                          tol: float = 1e-9) -> None:
    map_s, map_v = copy.deepcopy(slam_map), copy.deepcopy(slam_map)
    optimize_pose_graph(map_s, edges, fixed=fixed, backend="scalar")
    optimize_pose_graph(map_v, edges, fixed=fixed, backend=fast_backend)
    for kf_id in map_s.keyframes:
        pa = map_s.keyframes[kf_id].pose_cw
        pb = map_v.keyframes[kf_id].pose_cw
        diff = max(
            np.abs(pa.rotation - pb.rotation).max(),
            np.abs(pa.translation - pb.translation).max(),
        )
        assert diff < tol, f"pose-graph backends diverged on kf {kf_id}: {diff}"


def bench_backend(smoke: bool, backend: str = "vectorized",
                  am=None) -> Dict[str, Dict[str, object]]:
    """Benchmark ``backend``'s kernels against the scalar reference.

    ``am`` is the active device array module when the gpu tier actually
    runs on a device (None otherwise); it only adds transfer accounting
    to the report — the kernels find it through the registry.
    """
    repeats = 3 if smoke else 5
    # Device rounding differs from fused-multiply-add'd host numpy, so
    # the gpu tier gets the float tolerance from the acceptance criteria
    # (<= 1e-6); without a device the fallback stays bit-exact.
    tol = 1e-6 if (backend == "gpu" and am is not None) else 1e-9
    ops: Dict[str, Dict[str, object]] = {}
    print(f"back-end benchmarks (wall-clock), fast tier = {backend!r}:")

    # --- local bundle adjustment -------------------------------------
    n_kfs, n_points = (8, 300) if smoke else (30, 2000)
    slam_map, cam = build_ba_scene(n_kfs, n_points)
    window = sorted(slam_map.keyframes)
    fixed = {window[0]}
    _assert_ba_equivalent(slam_map, cam, window, fixed, backend, tol)
    ops["local_ba"] = _op_entry(
        "local_ba",
        slam_map,
        lambda m: local_bundle_adjustment(
            m, cam, window, fixed_keyframe_ids=fixed, backend="scalar"
        ),
        lambda m: local_bundle_adjustment(
            m, cam, window, fixed_keyframe_ids=fixed, backend=backend
        ),
        repeats,
        f"{n_kfs} keyframes / {n_points} points, scatter-add intersection "
        "vs per-point loops",
        fast_label=backend,
        am=am,
    )

    # --- pose-graph optimization -------------------------------------
    n_pg = 30 if smoke else 200
    pg_map, edges, ordered = build_pose_graph_scene(n_pg)
    pg_fixed = {ordered[0]}
    _assert_pg_equivalent(pg_map, edges, pg_fixed, backend, tol)

    def run_pg(pg_backend):
        def run(m):
            return optimize_pose_graph(
                m, edges, fixed=pg_fixed, backend=pg_backend
            )
        return run

    ops["pose_graph"] = _op_entry(
        "pose_graph",
        pg_map,
        run_pg("scalar"),
        run_pg(backend),
        repeats,
        f"{n_pg} keyframes, {len(edges)} edges, batched sweeps vs "
        "per-node loops",
        fast_label=backend,
        am=am,
    )

    # --- batched SE(3) log (geometry microbenchmark) ------------------
    n_poses = 500 if smoke else 5000
    rng = np.random.default_rng(5)
    poses = [SE3.exp(rng.normal(scale=0.4, size=6)) for _ in range(n_poses)]
    rot, trans = se3_batch.pack(poses)
    scalar_rows = np.array([p.log() for p in poses])
    if am is not None:
        rot_d, trans_d = am.to_device(rot), am.to_device(trans)
        batched = am.to_host(se3_batch.log(rot_d, trans_d, am=am))

        def fast_log(_unused):
            return se3_batch.log(rot_d, trans_d, am=am)
    else:
        batched = se3_batch.log(rot, trans)

        def fast_log(_unused):
            return se3_batch.log(rot, trans)
    assert np.abs(batched - scalar_rows).max() < tol
    ops["se3_log"] = _op_entry(
        "se3_log",
        None,
        lambda _unused: [p.log() for p in poses],
        fast_log,
        repeats,
        f"{n_poses} poses, batched log vs per-object log",
        fast_label=backend,
        am=am,
    )
    return ops


def check_regression(report: Dict, baseline_path: str) -> int:
    """Fail (non-zero) if any op's speedup halved vs the baseline.

    Speedups shrink with problem size, so smoke runs compare against the
    baseline's ``smoke_ops`` section, full runs against ``ops``.  Full
    runs additionally enforce the absolute ``FLOORS``.

    When the report's speedup gate is disarmed (gpu tier without a real
    device: the fallback's speedups are just vectorized's and CI has no
    GPU), only the equivalence booleans gate — they were asserted
    during the run, so reaching here means they held.
    """
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if not report.get("speedup_gate_armed", True):
        missing = [op for op, ok in report.get("equivalence", {}).items()
                   if not ok]
        if missing:
            print(f"EQUIVALENCE FAILURES: {missing}")
            return 1
        print(f"equivalence check [{report['backend']}]: ok "
              f"(speedup gate disarmed: no device)")
        return 0
    section = "smoke_ops" if report["mode"] == "smoke" else "ops"
    baseline_ops = baseline.get(section) or baseline.get("ops", {})
    failures = []
    for op, entry in baseline_ops.items():
        base_speedup = entry.get("speedup")
        if base_speedup is None:
            continue
        current = report["ops"].get(op, {}).get("speedup")
        if current is None:
            failures.append(f"{op}: missing from current run")
            continue
        if current < base_speedup / 2.0:
            failures.append(
                f"{op}: speedup {current:.1f}x < half of baseline "
                f"{base_speedup:.1f}x"
            )
    if report["mode"] == "full":
        for op, floor in FLOORS.items():
            current = report["ops"].get(op, {}).get("speedup", 0.0)
            if current < floor:
                failures.append(
                    f"{op}: speedup {current:.1f}x below acceptance "
                    f"floor {floor:.0f}x"
                )
    if failures:
        print("PERF REGRESSION:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"regression check vs {baseline_path} [{section}]: ok "
          f"({len(baseline_ops)} ops)")
    return 0


def _resolve_bench_module(backend: str, fake_device: bool):
    """(array module or None, device label or None) for the gpu tier."""
    if backend != "gpu":
        return None, None
    override = None
    if fake_device:
        from repro.backend.fake_xp import make_fake_array_module

        override = make_fake_array_module()
    plan = resolve_backend("gpu", array_module=override)
    if plan.on_device:
        return plan.array_module, plan.array_module.device_label
    return None, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes / few repeats (CI)")
    parser.add_argument("--backend", default="vectorized",
                        choices=("vectorized", "gpu"),
                        help="fast tier to benchmark against scalar")
    parser.add_argument("--fake-device", action="store_true",
                        help="run the gpu tier through the fake device "
                             "module (exercises the device code paths and "
                             "transfer accounting without hardware)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (e.g. BENCH_PR5.json)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare speedups against a committed baseline; "
                             "exit non-zero on a >2x regression")
    args = parser.parse_args(argv)

    am, device = _resolve_bench_module(args.backend, args.fake_device)
    # Without a device the gpu tier falls back to the vectorized
    # kernels: speedups would just measure vectorized against itself,
    # so the regression gate only arms when a device is present (and
    # never on the fake module, whose wrapping adds pure overhead).
    gate_armed = args.backend != "gpu" or (am is not None
                                           and not args.fake_device)

    def run(smoke: bool):
        if am is not None:
            with use_array_module(am):
                return bench_backend(smoke, backend=args.backend, am=am)
        return bench_backend(smoke, backend=args.backend, am=None)

    ops = run(args.smoke)
    report = {
        "schema": 2,
        "mode": "smoke" if args.smoke else "full",
        "backend": args.backend,
        "device": device,
        "speedup_gate_armed": gate_armed,
        "generated_by": "benchmarks/bench_backend.py",
        "ops": ops,
        # the per-op asserts raise on divergence, so reaching this dict
        # means every op matched scalar within tolerance
        "equivalence": {op: True for op in ops},
    }
    if not args.smoke and args.out:
        # Also record smoke-sized speedups so CI smoke runs have a
        # like-for-like section to regression-check against.
        print("smoke-sized reference pass (for CI --check):")
        report["smoke_ops"] = run(True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        return check_regression(report, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
