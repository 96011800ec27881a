"""Orchestrator: the real OS-shared-memory, multi-process deployment path.

Paper §4.3.2 implementation details: an *orchestrator* process (separate
from the per-client SLAM processes) allocates the shared-memory region;
each client process then "searches and attaches the shared memory buffer
to its own virtual address space" and writes its keyframes/map points
directly into it.

:class:`ServingOrchestrator` is that serving mode.  The orchestrator
builds a :class:`~repro.sharedmem.ShmShardedMapStore` (one segment:
packed map matrices + sharded record logs + lock words), seeds the
global map, then spawns N worker processes that attach the segment and
run **actual tracking** — projection search through a
:class:`~repro.vision.matching.FrameGrid` and Hamming matching against
the shared descriptor matrix — concurrently, publishing keyframes back
through the cross-process shard locks.  Because the workers are
processes, not threads, the PR-2/PR-5 vectorized kernels run in true
parallel, GIL-free.  A ``thread`` mode runs the identical workload on N
threads of one process: the honest single-process baseline that
``--procs`` benchmarks compare against.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..sharedmem import ShmShardedMapStore
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from ..vision.camera import PinholeCamera
from ..vision.matching import (
    FrameGrid,
    match_descriptors,
    search_by_projection_vectorized,
)
from ..geometry import SE3


@dataclass
class ServingWorkloadConfig:
    """Deterministic multi-worker tracking workload (picklable).

    Every worker tracks ``n_frames`` synthetic frames against the
    shared map: it projects the packed ``(n, 3)`` positions through a
    per-frame camera pose, fabricates the frame's observed features
    (projected pixels + noise, shared descriptors with a few bit
    flips), then runs the vectorized projection search and a
    brute-force Hamming relocalization pass — the same kernels the
    in-process server uses, now over OS shared memory.  Every
    ``publish_every`` frames the worker publishes a keyframe (+ its
    new map points) through its region shard's write lock; every
    ``merge_every`` frames it takes an ordered multi-shard write
    transaction spanning ``merge_span`` shards, the Alg.-2 merge
    locking pattern.
    """

    n_points: int = 4000
    n_frames: int = 150
    features_per_frame: int = 160
    reloc_candidates: int = 200
    max_visible: int = 600
    world_extent: float = 30.0
    publish_every: int = 10
    merge_every: int = 60
    merge_span: int = 3
    points_per_keyframe: int = 8
    search_radius: float = 6.0
    # --- store geometry
    n_shards: int = 8
    pack_capacity: int = 65536
    shard_slab_bytes: int = 4 * 1024 * 1024
    region_size: float = 8.0
    # --- camera
    image_width: int = 640
    image_height: int = 480
    fov_deg: float = 75.0
    # --- determinism / liveness
    seed: int = 7
    lock_timeout_s: float = 30.0
    startup_timeout_s: float = 120.0
    join_timeout_s: float = 300.0
    start_method: str = "spawn"


def _look_at_pose(eye: np.ndarray, target: np.ndarray) -> SE3:
    """World->camera SE(3) for a camera at ``eye`` looking at ``target``."""
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(forward @ up)) > 0.98:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(up, forward)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    r_wc = np.column_stack([right, down, forward])
    return SE3(r_wc.T, -r_wc.T @ eye)


def _worker_pose(worker_id: int, frame: int,
                 cfg: ServingWorkloadConfig) -> SE3:
    """Deterministic orbit: each worker circles the map at its own phase."""
    radius = 1.7 * cfg.world_extent
    angle = (2.0 * np.pi * (worker_id * 0.37 + frame * 0.01)) % (2 * np.pi)
    height = 0.35 * cfg.world_extent * np.sin(frame * 0.05 + worker_id)
    eye = np.array([radius * np.cos(angle), radius * np.sin(angle), height])
    return _look_at_pose(eye, np.zeros(3))


def build_world(cfg: ServingWorkloadConfig):
    """The shared map's points: positions, descriptors, ids (seeded)."""
    rng = np.random.default_rng(cfg.seed)
    positions = rng.uniform(-cfg.world_extent, cfg.world_extent,
                            (cfg.n_points, 3))
    descriptors = rng.integers(0, 256, (cfg.n_points, 32), dtype=np.uint8)
    point_ids = np.arange(cfg.n_points, dtype=np.int64)
    return positions, descriptors, point_ids


def _make_worker_keyframe(worker_id: int, frame: int, pose: SE3,
                          frame_uv: np.ndarray, frame_desc: np.ndarray,
                          cfg: ServingWorkloadConfig) -> KeyFrame:
    n = len(frame_uv)
    return KeyFrame(
        keyframe_id=1_000_000 * (worker_id + 1) + frame,
        timestamp=float(frame),
        pose_cw=pose,
        uv=frame_uv,
        descriptors=frame_desc,
        depths=np.full(n, 5.0),
        point_ids=np.full(n, -1, dtype=np.int64),
        client_id=worker_id,
        bow_vector={(worker_id * 64 + frame) % 512: 1.0},
    )


def run_tracking_worker(store: ShmShardedMapStore, worker_id: int,
                        cfg: ServingWorkloadConfig) -> Dict[str, object]:
    """One worker's serving loop against an attached store.

    Returns summary counters plus this process's lock-wait snapshot so
    the orchestrator can fold it (metrics recorded in a worker process
    would otherwise die with it).
    """
    camera = PinholeCamera.ideal(cfg.image_width, cfg.image_height,
                                 cfg.fov_deg)
    rng = np.random.default_rng(cfg.seed * 7919 + worker_id)
    kernel_ns = 0
    matches_total = 0
    reloc_matches = 0
    publishes = 0
    merges = 0
    next_point_id = 10_000_000 * (worker_id + 1)
    loop_start = time.perf_counter()
    last_kf = None
    for i in range(cfg.n_frames):
        pose = _worker_pose(worker_id, i, cfg)
        t0 = time.perf_counter_ns()
        with store.pack.read() as (positions, descriptors, _ids, _version):
            uv, depth, valid = camera.project_world(positions, pose)
            vis = np.nonzero(valid & (depth > 0.1))[0]
            if len(vis) > cfg.max_visible:
                vis = vis[: cfg.max_visible]
            proj_uv = uv[vis]
            point_desc = descriptors[vis]
            n_obs = min(cfg.features_per_frame, len(vis))
            if n_obs == 0:
                continue
            sel = rng.choice(len(vis), size=n_obs, replace=False)
            frame_uv = proj_uv[sel] + rng.normal(0.0, 1.0, (n_obs, 2))
            flips = np.where(
                rng.random((n_obs, 32)) < 0.02,
                rng.integers(1, 256, (n_obs, 32), dtype=np.uint8),
                0,
            ).astype(np.uint8)
            frame_desc = point_desc[sel] ^ flips
            grid = FrameGrid(frame_uv)
            proj_matches = search_by_projection_vectorized(
                proj_uv, point_desc, frame_uv, frame_desc,
                radius=cfg.search_radius, grid=grid,
            )
            cand = point_desc[: cfg.reloc_candidates]
            bf_matches = match_descriptors(frame_desc, cand)
        kernel_ns += time.perf_counter_ns() - t0
        matches_total += len(proj_matches)
        reloc_matches += len(bf_matches)
        if cfg.publish_every and i % cfg.publish_every == cfg.publish_every - 1:
            kf = _make_worker_keyframe(worker_id, i, pose, frame_uv,
                                       frame_desc, cfg)
            new_points = []
            center = pose.camera_center()
            for k in range(cfg.points_per_keyframe):
                new_points.append(MapPoint(
                    point_id=next_point_id,
                    position=center + rng.normal(0.0, 2.0, 3),
                    descriptor=frame_desc[k % n_obs],
                    client_id=worker_id,
                    observations={kf.keyframe_id: k % n_obs},
                ))
                next_point_id += 1
            store.publish_map([kf], new_points)
            publishes += 1
            last_kf = kf
        if (cfg.merge_every and last_kf is not None
                and i % cfg.merge_every == cfg.merge_every - 1):
            # Alg.-2 merge locking pattern: rewrite the last keyframe
            # under an ordered multi-shard transaction spanning the
            # weld region.
            home = store.shard_of_keyframe(last_kf)
            span = sorted({(home + k) % store.n_shards
                           for k in range(cfg.merge_span)})
            with store.write_transaction(span):
                store._put_keyframe_locked(store.shards[home], last_kf)
            merges += 1
    loop_wall = time.perf_counter() - loop_start
    return {
        "worker_id": worker_id,
        "frames": cfg.n_frames,
        "matches": matches_total,
        "reloc_matches": reloc_matches,
        "publishes": publishes,
        "merges": merges,
        "kernel_ms": round(kernel_ns / 1e6, 3),
        "loop_wall_s": round(loop_wall, 4),
        "lock_metrics": store.metrics_snapshot(),
    }


def serving_worker_main(handle, worker_id: int, cfg: ServingWorkloadConfig,
                        barrier, results) -> None:
    """Entry point of one serving worker *process*: attach, sync, track."""
    store = ShmShardedMapStore.attach(handle)
    try:
        barrier.wait(timeout=cfg.startup_timeout_s)
        result = run_tracking_worker(store, worker_id, cfg)
        results.put(result)
    finally:
        store.close()


def _serving_worker_thread(handle, worker_id: int,
                           cfg: ServingWorkloadConfig, barrier,
                           results: list) -> None:
    """Thread-mode twin: attaches its own store view of the same segment
    (so index caches stay per-worker) but shares the process — the GIL
    baseline."""
    store = ShmShardedMapStore.attach(handle)
    try:
        barrier.wait(timeout=cfg.startup_timeout_s)
        results.append(run_tracking_worker(store, worker_id, cfg))
    finally:
        store.close()


@dataclass
class ServingReport:
    """Aggregate outcome of one multi-worker serving run."""

    mode: str
    n_workers: int
    frames: int
    wall_s: float
    throughput_fps: float
    matches: int
    reloc_matches: int
    publishes: int
    merges: int
    per_worker: List[Dict[str, object]] = field(default_factory=list)
    store: Dict[str, object] = field(default_factory=dict)
    lock_wait_ms: Dict[str, float] = field(default_factory=dict)


class ServingOrchestrator:
    """Spawns N serving workers over one shared-memory arena.

    ``mode="process"`` is the paper's deployment: real OS processes
    attach the named segment and track in parallel, no GIL.
    ``mode="thread"`` runs the identical per-worker loop on threads of
    this process — the baseline that quantifies what the GIL costs.
    """

    def __init__(self, n_workers: int = 2,
                 config: Optional[ServingWorkloadConfig] = None,
                 mode: str = "process") -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_workers = n_workers
        self.config = config or ServingWorkloadConfig()
        self.mode = mode

    def _build_store(self, ctx) -> ShmShardedMapStore:
        cfg = self.config
        store = ShmShardedMapStore.create(
            n_shards=cfg.n_shards,
            pack_capacity=cfg.pack_capacity,
            shard_slab_bytes=cfg.shard_slab_bytes,
            region_size=cfg.region_size,
            ctx=ctx,
            lock_timeout_s=cfg.lock_timeout_s,
        )
        positions, descriptors, point_ids = build_world(cfg)
        store.pack.append(positions, descriptors, point_ids)
        return store

    def run(self) -> ServingReport:
        cfg = self.config
        ctx = mp.get_context(cfg.start_method)
        store = self._build_store(ctx)
        try:
            if self.mode == "process":
                results, wall = self._run_processes(ctx, store)
            else:
                results, wall = self._run_threads(store)
            results.sort(key=lambda r: r["worker_id"])
            # Fold worker-local lock metrics so shard_stats() reports
            # totals across every worker, not just the orchestrator's
            # own acquisitions (workers attach through cloned locks in
            # both modes, so their accounting is always separate).
            for r in results:
                store.fold_metrics(r.pop("lock_metrics"))
            stats = store.stats()
            shard_rows = store.shard_stats()
            frames = sum(r["frames"] for r in results)
            report = ServingReport(
                mode=self.mode,
                n_workers=self.n_workers,
                frames=frames,
                wall_s=wall,
                throughput_fps=frames / wall if wall > 0 else 0.0,
                matches=sum(r["matches"] for r in results),
                reloc_matches=sum(r["reloc_matches"] for r in results),
                publishes=sum(r["publishes"] for r in results),
                merges=sum(r["merges"] for r in results),
                per_worker=results,
                store={
                    "n_keyframes": stats.n_keyframes,
                    "n_mappoints": stats.n_mappoints,
                    "bytes_allocated": stats.arena.allocated,
                    "pack_points": store.pack.count,
                    "pack_version": store.pack.version,
                },
                lock_wait_ms={
                    "read": round(sum(r["read_wait_ns"]
                                      for r in shard_rows) / 1e6, 3),
                    "write": round(sum(r["write_wait_ns"]
                                       for r in shard_rows) / 1e6, 3),
                    "pack_read": round(
                        store.pack.lock.read_wait_ns / 1e6, 3),
                    "pack_write": round(
                        store.pack.lock.write_wait_ns / 1e6, 3),
                },
            )
            return report
        finally:
            store.close()
            store.unlink()

    # ------------------------------------------------------------ process
    def _run_processes(self, ctx, store: ShmShardedMapStore):
        cfg = self.config
        handle = store.handle()
        barrier = ctx.Barrier(self.n_workers + 1)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=serving_worker_main,
                args=(handle, w, cfg, barrier, queue),
                daemon=True,
            )
            for w in range(self.n_workers)
        ]
        for p in procs:
            p.start()
        try:
            barrier.wait(timeout=cfg.startup_timeout_s)
            t0 = time.perf_counter()
            results = []
            for _ in range(self.n_workers):
                results.append(queue.get(timeout=cfg.join_timeout_s))
            wall = time.perf_counter() - t0
        except Exception:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            raise
        for p in procs:
            p.join(timeout=30.0)
            if p.is_alive():
                p.terminate()
                raise RuntimeError("serving worker failed to exit")
            if p.exitcode != 0:
                raise RuntimeError(
                    f"serving worker exited with {p.exitcode}"
                )
        return results, wall

    # ------------------------------------------------------------- thread
    def _run_threads(self, store: ShmShardedMapStore):
        cfg = self.config
        handle = store.handle()
        barrier = threading.Barrier(self.n_workers + 1)
        results: List[Dict[str, object]] = []
        threads = [
            threading.Thread(
                target=_serving_worker_thread,
                args=(handle, w, cfg, barrier, results),
                daemon=True,
            )
            for w in range(self.n_workers)
        ]
        for t in threads:
            t.start()
        barrier.wait(timeout=cfg.startup_timeout_s)
        t0 = time.perf_counter()
        deadline = time.monotonic() + cfg.join_timeout_s
        for t in threads:
            t.join(timeout=max(0.1, deadline - time.monotonic()))
            if t.is_alive():
                raise RuntimeError("serving worker thread hung")
        wall = time.perf_counter() - t0
        if len(results) != self.n_workers:
            raise RuntimeError(
                f"only {len(results)}/{self.n_workers} workers reported"
            )
        return results, wall
