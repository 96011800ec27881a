"""The SLAM-Share edge server (paper Fig. 3).

One process per client runs tracking + local mapping with the GPU; the
global map lives in the shared-memory store that every process attaches.
A merger (Process M) aligns each newly joining client's submap into the
global map — Alg. 2 over shared memory — after which that client's
process tracks directly in the global map.

All heavy computation happens here; clients receive only poses (tiny
4x4 matrices) and, once, the merge transform that rebases their frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..geometry import SE3, Sim3
from ..gpu.device import StageBreakdown, TrackingLatencyModel
from ..imu import ImuDelta
from ..obs import get_logger, get_metrics, get_tracer, kv
from ..obs.trace import TraceContext
from ..sharedmem import ShardedMapStore, ShmShardedMapStore, restore_map
from ..slam import (
    IdAllocator,
    KeyframeDatabase,
    MapMerger,
    MergeResult,
    SlamMap,
    SlamSystem,
    Vocabulary,
    default_vocabulary,
)
from ..slam.merging import RejectedPairs
from ..vision import FeatureSet, PinholeCamera
from .config import MergeCostModel, SlamShareConfig

STORE_BACKENDS = ("local", "shm")   # ServingConfig.store_backend values
# Deadline of a cross-process shard-lock wait on the "shm" store.
SHM_LOCK_TIMEOUT_S = 30.0
# Try aligning an unmerged client's map once it has contributed at
# least this many keyframes.
MERGE_MIN_KEYFRAMES = 4

_log = get_logger("core.server")
_tracer = get_tracer()
_metrics = get_metrics()
_frames_total = _metrics.counter("server.frames", "frames tracked by the server")
_frames_lost = _metrics.counter("server.frames_lost", "frames that failed tracking")
_keyframes_total = _metrics.counter("server.keyframes", "keyframes inserted")
_merges_total = _metrics.counter("server.merges", "successful map merges")
_merge_attempts = _metrics.counter("server.merge_attempts", "merge attempts")
_tracking_hist = _metrics.histogram(
    "server.tracking_ms", "per-frame simulated tracking latency", unit="ms"
)
_wall_hist = _metrics.histogram(
    "server.wall_ms", "per-frame wall-clock processing time", unit="ms"
)
_merge_hist = _metrics.histogram(
    "server.merge_ms", "simulated merge latency (Table 4 map_merging)", unit="ms"
)
_parks_total = _metrics.counter(
    "server.clients_parked", "client processes parked on disconnect"
)
_rejoins_total = _metrics.counter(
    "server.clients_rejoined", "parked client processes resumed on rejoin"
)
_load_gauge = _metrics.gauge(
    "server.load", "in-flight frames / admission capacity (0..1)"
)
_shed_total = _metrics.counter(
    "server.frames_shed", "frames shed by admission control"
)
_shed_stale = _metrics.counter(
    "server.frames_shed_stale", "frames shed because they arrived stale"
)
_shed_overload = _metrics.counter(
    "server.frames_shed_overload", "frames shed because the client queue was full"
)
_evicted_keyframes = _metrics.counter(
    "server.keyframes_evicted", "keyframes evicted by the map budgets"
)
_evicted_points = _metrics.counter(
    "server.mappoints_evicted", "map points evicted by the map budgets"
)


@dataclass
class ServerFrameResult:
    """Everything the server produced for one uploaded frame."""

    client_id: int
    pose_cw: Optional[SE3]
    tracking_success: bool
    n_matches: int
    latency: StageBreakdown
    keyframe_inserted: bool = False
    merge: Optional[MergeResult] = None
    merge_ms: float = 0.0
    store_bytes_written: int = 0


class _ClientProcess:
    """Server-side state for one client (Process A/B... in Fig. 3)."""

    def __init__(self, client_id: int, system: SlamSystem) -> None:
        self.client_id = client_id
        self.system = system
        self.merged = client_id == 0  # the first client *is* the global map
        self.merge_transform: Optional[Sim3] = Sim3.identity() if self.merged else None
        self.parked = False           # client is disconnected; state retained
        # Keyframe pairs earlier merge attempts already failed to weld.
        self.rejected_pairs: RejectedPairs = {}


class SlamShareServer:
    """Edge server hosting per-client SLAM processes over a shared map."""

    def __init__(
        self,
        camera: PinholeCamera,
        config: Optional[SlamShareConfig] = None,
        vocabulary: Optional[Vocabulary] = None,
        store: Optional[ShardedMapStore] = None,
    ) -> None:
        self.camera = camera
        self.config = config or SlamShareConfig()
        self.vocabulary = vocabulary or default_vocabulary()
        self.global_map = SlamMap(map_id=0)
        self.global_database = KeyframeDatabase(self.vocabulary)
        serving = self.config.serving
        if serving.store_backend not in STORE_BACKENDS:
            raise ValueError(
                f"unknown store_backend {serving.store_backend!r}; "
                f"expected one of {STORE_BACKENDS}"
            )
        n_shards = max(1, serving.map_shards)  # one shard = unsharded
        self._owns_store = store is None and serving.store_backend == "shm"
        if store is not None:
            self.store = store
        elif serving.store_backend == "shm":
            # Real OS shared memory: one named segment workers can attach.
            self.store = ShmShardedMapStore.create(
                n_shards=n_shards, lock_timeout_s=SHM_LOCK_TIMEOUT_S,
            )
        else:
            self.store = ShardedMapStore(n_shards=n_shards)
        self.latency_model = TrackingLatencyModel()
        self.merge_cost = MergeCostModel()
        self.processes: Dict[int, _ClientProcess] = {}
        self.merge_history: List[MergeResult] = []
        # Admission control: per-client count of frames admitted but not
        # yet completed (tracking + GPU dispatch still outstanding).
        self._in_flight: Dict[int, int] = {}
        self.frames_shed = 0
        self.frames_shed_stale = 0
        self.frames_shed_overload = 0

    # --------------------------------------------------------------- admin
    def shutdown(self) -> None:
        """Release the map store if this server owns an OS shm segment.

        The default in-process backends have no OS resources, so this is
        a no-op for them; for ``store_backend="shm"`` it detaches and
        destroys the named segment.  Idempotent.
        """
        if self._owns_store:
            self._owns_store = False
            self.store.close()
            self.store.unlink()

    # ----------------------------------------------------------- snapshots
    def save_snapshot(self, path: str):
        """Persist the global map's store records to ``path``.

        Only entities the global map actually holds are written:
        records published by not-yet-merged clients live in private
        coordinate frames and must not contaminate the durable map.
        """
        from ..sharedmem.snapshot import save_snapshot

        info = save_snapshot(
            self.store, path,
            keyframe_ids=self.global_map.keyframes,
            mappoint_ids=self.global_map.mappoints,
        )
        _log.info(
            "snapshot saved: %s",
            kv(path=path, keyframes=info.n_keyframes,
               mappoints=info.n_mappoints, bytes=info.bytes_written),
        )
        return info

    def load_snapshot(self, snapshot):
        """Preload the global map from a snapshot (path or loaded object).

        Must run before any client joins: the restored map becomes the
        global map, so the first fresh client goes through the ordinary
        merge / place-recognition path instead of seeding a new world —
        that is multi-session relocalization.
        """
        from ..sharedmem.snapshot import (
            LoadedSnapshot, load_snapshot, restore_into_store,
        )

        if self.processes or self.global_map.n_keyframes:
            raise RuntimeError("load_snapshot requires an empty server")
        snap = (snapshot if isinstance(snapshot, LoadedSnapshot)
                else load_snapshot(snapshot))
        restore_into_store(snap, self.store)
        restore_map(snap.keyframes, snap.mappoints, self.global_map,
                    self.global_database)
        _log.info(
            "snapshot restored: %s",
            kv(keyframes=self.global_map.n_keyframes,
               mappoints=self.global_map.n_mappoints),
        )
        return snap

    def add_client(self, client_id: int, gravity_map: np.ndarray) -> None:
        """Register a client; allocates its server-side SLAM process."""
        if client_id in self.processes:
            raise ValueError(f"client {client_id} already registered")
        # A restored global map counts: the first client of a fresh
        # session must relocalize into it via merging, not become it.
        first = not self.processes and self.global_map.n_keyframes == 0
        if first:
            system = SlamSystem(
                self.camera,
                self.config.slam,
                client_id=client_id,
                slam_map=self.global_map,
                database=self.global_database,
                vocabulary=self.vocabulary,
                gravity=gravity_map,
            )
        else:
            system = SlamSystem(
                self.camera,
                self.config.slam,
                client_id=client_id,
                vocabulary=self.vocabulary,
                gravity=gravity_map,
            )
        # Ids this client minted in a previous session (now restored
        # into the global map) must never be re-allocated.
        next_kf = max(
            (kid for kid in self.global_map.keyframes
             if IdAllocator.owner_of(kid) == client_id),
            default=None,
        )
        if next_kf is not None:
            system.mapper.kf_allocator.reserve_until(next_kf + 1)
        next_pt = max(
            (pid for pid in self.global_map.mappoints
             if IdAllocator.owner_of(pid) == client_id),
            default=None,
        )
        if next_pt is not None:
            system.mapper.point_allocator.reserve_until(next_pt + 1)
        process = _ClientProcess(client_id, system)
        process.merged = first
        process.merge_transform = Sim3.identity() if first else None
        self.processes[client_id] = process

    def park_client(self, client_id: int) -> None:
        """Suspend a disconnected client's process, retaining its state.

        The per-client SLAM process (its map view, trajectory, merge
        status) stays resident so a rejoin resumes where it left off —
        frames arriving while parked are rejected.
        """
        process = self.processes[client_id]
        if process.parked:
            return
        process.parked = True
        _parks_total.inc()
        _log.info("client parked: %s", kv(client=client_id))

    def unpark_client(self, client_id: int) -> None:
        """Resume a rejoining client's parked process.

        The next uploaded frame carries the IMU delta accumulated over
        the offline window; tracking reacquires from that prior or falls
        back to BoW relocalization against the (possibly global) map.
        """
        process = self.processes[client_id]
        if not process.parked:
            return
        process.parked = False
        _rejoins_total.inc()
        _log.info("client rejoined: %s", kv(client=client_id))

    def is_parked(self, client_id: int) -> bool:
        return self.processes[client_id].parked

    @property
    def n_clients(self) -> int:
        return len(self.processes)

    def gpu_share(self) -> float:
        """GSlice-style spatial share each client's kernels receive."""
        return 1.0 / max(1, self.n_clients)

    # ---------------------------------------------------------- admission
    def load(self) -> float:
        """In-flight frames over total admission capacity, in [0, 1]."""
        serving = self.config.serving
        capacity = max(1, self.n_clients * serving.queue_depth)
        return min(1.0, sum(self._in_flight.values()) / capacity)

    def try_admit(self, client_id: int, age_s: float = 0.0) -> str:
        """Admission decision for one arriving frame.

        Returns ``"ok"`` (a slot was taken — the caller must pair it
        with :meth:`release_frame`), ``"stale"`` (the frame spent longer
        than ``stale_ms`` in flight and tracking it would only add lag;
        the client's IMU bridging recovers the gap), or ``"overload"``
        (the client's bounded queue is full — graceful degradation
        sheds the frame instead of growing an unbounded backlog).
        """
        serving = self.config.serving
        if not serving.admission:
            self._in_flight[client_id] = self._in_flight.get(client_id, 0) + 1
            return "ok"
        if serving.stale_ms is not None and age_s * 1e3 > serving.stale_ms:
            self.frames_shed += 1
            self.frames_shed_stale += 1
            _shed_total.inc()
            _shed_stale.inc()
            return "stale"
        if self._in_flight.get(client_id, 0) >= serving.queue_depth:
            self.frames_shed += 1
            self.frames_shed_overload += 1
            _shed_total.inc()
            _shed_overload.inc()
            return "overload"
        self._in_flight[client_id] = self._in_flight.get(client_id, 0) + 1
        _load_gauge.set(self.load())
        return "ok"

    def release_frame(self, client_id: int) -> None:
        """Return an admission slot once a frame's pipeline completes."""
        count = self._in_flight.get(client_id, 0)
        self._in_flight[client_id] = max(0, count - 1)
        _load_gauge.set(self.load())

    # --------------------------------------------------------------- frame
    def process_frame(
        self,
        client_id: int,
        timestamp: float,
        observations: FeatureSet,
        imu_delta: Optional[ImuDelta] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServerFrameResult:
        """Track one uploaded frame for a client (steps 3-7 of Fig. 3).

        ``trace_ctx`` re-anchors the frame's lifecycle trace on the
        server side: the ``server.frame`` span (and everything nested
        under it — tracking, the GPU stage breakdown, publishes, merge
        rounds) joins that frame's causal tree.
        """
        process = self.processes[client_id]
        if process.parked:
            raise RuntimeError(
                f"client {client_id} is parked (disconnected); "
                "frames must not reach its process"
            )
        wall_start = time.perf_counter()
        with _tracer.child_span(
            trace_ctx, "server.frame", client_id=client_id, t=timestamp,
        ):
            with _tracer.span("server.tracking", client_id=client_id) as tracking_span:
                result = process.system.process_frame(
                    timestamp, observations, imu_delta=imu_delta
                )
                latency = self.latency_model.breakdown(
                    result.tracking.workload,
                    stereo=True,
                    device="gpu",
                    gpu_share=self.gpu_share(),
                )
                tracking_span.set(
                    success=result.tracking.success,
                    n_matches=result.tracking.n_matches,
                    sim_ms=latency.total,
                )
            _frames_total.inc()
            if not result.tracking.success:
                _frames_lost.inc()
            _tracking_hist.record(
                latency.total,
                trace_id=trace_ctx.trace_id if trace_ctx else None,
            )
            if _tracer.enabled:
                # Lay the per-stage GPU breakdown out sequentially on the
                # sim timeline (the Fig. 5/8 stage vocabulary).  Sim time
                # 0.0 is a valid anchor — only fall back to the dataset
                # timestamp when no clock is bound at all.
                sim_now = _tracer.sim_now()
                base = timestamp if sim_now is None else sim_now
                offset_ms = 0.0
                tid = f"client-{client_id}"
                _tracer.sim_event(
                    "tracking", latency.total, start_s=base, tid=tid,
                    client_id=client_id,
                )
                for stage, stage_ms in latency.as_dict().items():
                    if stage == "total":
                        continue
                    _tracer.sim_event(
                        stage, stage_ms, start_s=base + offset_ms * 1e-3,
                        tid=tid, client_id=client_id,
                    )
                    offset_ms += stage_ms
            store_bytes = 0
            merge_result = None
            merge_ms = 0.0
            if result.keyframe is not None:
                _keyframes_total.inc()
                # Zero-copy publication into the shared global map region.
                new_points = [
                    process.system.map.mappoints[int(pid)]
                    for pid in result.keyframe.observed_point_ids()
                    if int(pid) in process.system.map.mappoints
                ]
                store_bytes = self.store.publish_map(
                    [result.keyframe], new_points
                )
                if (
                    not process.merged
                    and process.system.map.n_keyframes
                    >= MERGE_MIN_KEYFRAMES
                ):
                    merge_result, merge_ms = self._try_merge(process)
                self._reconcile_evictions(process)
        # Real (wall-clock) cost of the hot path, alongside the
        # simulated latency model (the ``server.wall_ms`` histogram).
        _wall_hist.record(
            (time.perf_counter() - wall_start) * 1e3,
            trace_id=trace_ctx.trace_id if trace_ctx else None,
        )
        pose = result.pose_cw
        return ServerFrameResult(
            client_id=client_id,
            pose_cw=pose,
            tracking_success=result.tracking.success,
            n_matches=result.tracking.n_matches,
            latency=latency,
            keyframe_inserted=result.keyframe is not None,
            merge=merge_result,
            merge_ms=merge_ms,
            store_bytes_written=store_bytes,
        )

    # ------------------------------------------------------------ eviction
    def _reconcile_evictions(self, process: _ClientProcess) -> None:
        """Mirror map evictions into the shared store, then maybe compact.

        Budget enforcement runs inside the mapper (on the client's map,
        which *is* the global map once merged); the store learns about
        it here via tombstones.  When tombstones have accumulated past
        the configured utilization, the store compacts its shard logs /
        arenas so long-lived sessions reclaim the dead bytes instead of
        growing monotonically.
        """
        evicted_kfs, evicted_pts = process.system.map.drain_evictions()
        if not evicted_kfs and not evicted_pts:
            return
        for kf_id in evicted_kfs:
            self.store.remove_keyframe(kf_id)
            # Evicted keyframes must also leave the global BoW index, or
            # place recognition could hand out a keyframe the map no
            # longer holds (the mapper already cleared its own database).
            self.global_database.remove(kf_id)
        for pid in evicted_pts:
            self.store.remove_mappoint(pid)
        _evicted_keyframes.inc(len(evicted_kfs))
        _evicted_points.inc(len(evicted_pts))
        threshold = self.config.serving.store_compact_utilization
        if threshold is not None:
            self.store.maybe_compact(threshold)

    # --------------------------------------------------------------- merge
    def _try_merge(self, process: _ClientProcess):
        """Process M: align a client's submap into the global map."""
        if self.global_map.n_keyframes == 0:
            return None, 0.0
        _merge_attempts.inc()
        with _tracer.span(
            "merge_attempt", client_id=process.client_id
        ) as attempt_span:
            merger = MapMerger(
                self.global_map,
                self.global_database,
                self.camera,
                self.config.merger,
            )
            merge = merger.merge_maps(
                process.system.map, process.client_id, process.rejected_pairs
            )
            attempt_span.set(n_pairs_tried=merge.n_pairs_tried,
                             n_pairs_skipped=merge.n_pairs_skipped)
            if not merge.success:
                # A failed search leaves the global map, its BoW index and
                # its version (every merged tracker's local-map cache key)
                # untouched; the next keyframe retries.
                attempt_span.set(success=False,
                                 checked=merge.n_keyframes_checked)
                return None, 0.0
            process.merged = True
            process.merge_transform = merge.transform
            process.system.retarget_to(
                self.global_map, self.global_database, merge.transform
            )
            # Alg. 2 rewrote the welded entities' poses/positions across
            # several spatial regions; republish them into the store as
            # one batch so the sharded store takes its ordered
            # multi-shard write lock (single write lock when unsharded).
            merged_kfs = self.global_map.keyframes_of_client(
                process.client_id
            )
            merged_points = list({
                int(pid): self.global_map.mappoints[int(pid)]
                for kf in merged_kfs
                for pid in kf.observed_point_ids()
                if int(pid) in self.global_map.mappoints
            }.values())
            self.store.publish_map(merged_kfs, merged_points)
            self.merge_history.append(merge)
            merge_ms = self.merge_cost.slam_share_merge_ms(
                merge.n_keyframes_checked, merge.n_fused_points
            )
            attempt_span.set(success=True, sim_ms=merge_ms,
                             n_fused=merge.n_fused_points)
            # The merge round's simulated budget, named after the paper's
            # Table-4 component so traces line up with the latency table.
            _tracer.sim_event(
                "map_merging", merge_ms,
                tid=f"client-{process.client_id}",
                client_id=process.client_id,
                n_fused=merge.n_fused_points,
                n_keyframes_checked=merge.n_keyframes_checked,
            )
        _merges_total.inc()
        _merge_hist.record(merge_ms)
        _log.info(
            "map merge: %s",
            kv(client=process.client_id, merge_ms=merge_ms,
               fused=merge.n_fused_points,
               checked=merge.n_keyframes_checked),
        )
        return merge, merge_ms

    # ------------------------------------------------------------- queries
    def client_trajectory(self, client_id: int):
        return self.processes[client_id].system.estimated_trajectory()
