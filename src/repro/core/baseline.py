"""The multi-user Edge-SLAM-style baseline (paper §5.1, Fig. 4b).

Each client runs the *full* SLAM pipeline locally — tracking and
mapping on the device, CPU only, with a reduced feature budget and
frame drops whenever the (modeled) device tracking latency exceeds the
camera budget.  Every ``hold_down_frames`` frames the client serializes
its new map entities, ships them to the merge server, the server merges
them into the global map and returns a partial global map (~6
keyframes) that the client loads as its global-frame correction.  Both
maps travel as reliable (ARQ) messages on the client's endpoint pair,
as Edge-SLAM's ride TCP: a lost copy is resent, not lost with the round.

The client's *global-frame* pose is its local pose pushed through the
last correction it received — which is stale by up to a hold-down
period plus the transfer latency.  This staleness is what the paper's
short-term-ATE comparisons (Fig. 12b/c) punish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional


from ..datasets.registry import SyntheticDataset
from ..geometry import SE3, Sim3, Trajectory, TrajectoryPoint, quaternion
from ..gpu.device import CpuCostModel, TrackingLatencyModel
from ..imu import GRAVITY_W, ImuBuffer, preintegrate
from ..metrics.ate import absolute_trajectory_error
from ..metrics.cpu import CpuAccountant
from ..metrics.latency import LatencyBreakdown
from ..net import Endpoint, SimClock, connect
from ..sharedmem import deserialize_map, map_payload_size, serialize_map
from ..slam import (
    KeyframeDatabase,
    MapMerger,
    SlamMap,
    SlamSystem,
    Vocabulary,
    default_vocabulary,
)
from .config import (
    BaselineConfig,
    MergeCostModel,
    SlamShareConfig,
    mobile_cpu_model,
)
from .session import client_inputs

PARTIAL_MAP_KEYFRAMES = 6      # global-map slice returned to a client
CLIENT_FEATURE_BUDGET = 150    # the device's weaker extractor


@dataclass
class SyncRound:
    """One hold-down/upload/merge/download cycle."""

    started_at: float
    map_bytes: int = 0
    serialization_ms: float = 0.0
    transfer1_ms: float = 0.0
    deserialization_ms: float = 0.0
    merge_ms: float = 0.0
    processing_ms: float = 0.0
    transfer2_ms: float = 0.0
    load_ms: float = 0.0
    completed_at: Optional[float] = None
    missed: bool = False

    def breakdown(self, hold_down_ms: float) -> LatencyBreakdown:
        row = LatencyBreakdown("baseline")
        row.set("hold_down", hold_down_ms)
        row.set("serialization", self.serialization_ms)
        row.set("data_transfer_1", self.transfer1_ms)
        row.set("deserialization", self.deserialization_ms)
        row.set("map_merging", self.merge_ms)
        row.set("data_processing", self.processing_ms)
        row.set("data_transfer_2", self.transfer2_ms)
        row.set("load_map", self.load_ms)
        return row


@dataclass
class BaselineClientState:
    client_id: int
    dataset: SyntheticDataset
    system: SlamSystem
    imu: ImuBuffer
    oracle: object
    cpu: CpuAccountant
    device_ep: Endpoint
    server_ep: Endpoint
    start_time: float
    correction: Sim3 = field(default_factory=Sim3.identity)
    correction_fresh_at: float = -1.0
    merged: bool = False
    busy_until: float = 0.0
    frames_dropped: int = 0
    frames_processed: int = 0
    prev_ts: Optional[float] = None
    synced_keyframe_ids: set = field(default_factory=set)
    global_display: List[TrajectoryPoint] = field(default_factory=list)
    rounds: List[SyncRound] = field(default_factory=list)
    pending_round: Optional[SyncRound] = None
    frames_since_sync: int = 0

    def record_global_pose(self, timestamp: float, pose_cw: SE3) -> None:
        """Local pose pushed through the last (stale) global correction."""
        global_cw = self.correction.transform_pose(pose_cw)
        pose_wc = global_cw.inverse()
        if self.global_display and timestamp <= self.global_display[-1].timestamp:
            return
        self.global_display.append(
            TrajectoryPoint(
                timestamp,
                pose_wc.translation,
                quaternion.from_matrix(pose_wc.rotation),
            )
        )


@dataclass
class BaselineResult:
    clients: Dict[int, BaselineClientState]
    global_map: SlamMap
    duration: float

    def client_ate(self, client_id: int, use_global: bool = True):
        state = self.clients[client_id]
        trajectory = (
            Trajectory(list(state.global_display))
            if use_global
            else state.system.estimated_trajectory()
        )
        return absolute_trajectory_error(trajectory, state.dataset.ground_truth)

class BaselineSession:
    """Runs the multi-user baseline over the simulated network."""

    def __init__(
        self,
        scenarios,  # Sequence[ClientScenario] (reused from session.py)
        config: Optional[SlamShareConfig] = None,
        baseline: Optional[BaselineConfig] = None,
        vocabulary: Optional[Vocabulary] = None,
        client_cpu: Optional[CpuCostModel] = None,
    ) -> None:
        self.scenarios = list(scenarios)
        self.config = config or SlamShareConfig()
        self.baseline = baseline or BaselineConfig()
        self.vocabulary = vocabulary or default_vocabulary()
        self.clock = SimClock()
        self.client_latency = TrackingLatencyModel(
            cpu=client_cpu or mobile_cpu_model()
        )
        self.merge_cost = MergeCostModel()
        self.global_map = SlamMap(map_id=0)
        self.global_db = KeyframeDatabase(self.vocabulary)
        self.states: Dict[int, BaselineClientState] = {}

    def _setup_client(self, scenario) -> list:
        """Build one client's state; returns its camera-frame schedule."""
        dataset = scenario.dataset
        gravity_map = dataset.pose_cw(0).rotation @ GRAVITY_W
        slam_cfg = self.config.slam
        # Weaker client frontend: smaller feature budget.
        system = SlamSystem(
            dataset.camera,
            slam_cfg,
            client_id=scenario.client_id,
            vocabulary=self.vocabulary,
            gravity=gravity_map,
        )
        oracle, imu, frames = client_inputs(
            scenario, self.config,
            max_features=CLIENT_FEATURE_BUDGET,
        )
        link = self.config.shaping.build(self.clock, seed=80 + scenario.client_id)
        device_ep, server_ep = connect(
            f"device-{scenario.client_id}", "merge-server", self.clock, link
        )
        state = BaselineClientState(
            client_id=scenario.client_id,
            dataset=dataset,
            system=system,
            imu=imu,
            oracle=oracle,
            cpu=CpuAccountant(),
            device_ep=device_ep,
            server_ep=server_ep,
            start_time=scenario.start_time,
        )
        # Client 0 defines the global frame.
        if scenario.client_id == min(s.client_id for s in self.scenarios):
            state.merged = True
        self.states[scenario.client_id] = state
        return frames

    # ---------------------------------------------------------------- run
    def run(self) -> BaselineResult:
        events = []
        for scenario in self.scenarios:
            events += self._setup_client(scenario)
        events.sort()
        end_time = events[-1][0] if events else 0.0
        for session_time, client_id, frame_idx, dataset_ts in events:
            self.clock.schedule_at(
                session_time,
                partial(self._process_frame, self.states[client_id],
                        frame_idx, dataset_ts),
            )
        self.clock.run()
        for state in self.states.values():
            state.cpu.close_window(max(end_time, 1e-6))
        return BaselineResult(self.states, self.global_map, end_time)

    # ----------------------------------------------------------- per frame
    def _process_frame(self, state: BaselineClientState, frame_idx: int,
                       dataset_ts: float) -> None:
        now = self.clock.now
        # Compute-pressure frame dropping: the device is still busy with
        # an earlier frame (the paper's 15-FPS-at-turns effect).
        if now < state.busy_until:
            state.frames_dropped += 1
            return
        delta = None
        if state.prev_ts is not None:
            delta = preintegrate(state.imu, state.prev_ts, dataset_ts)
        state.prev_ts = dataset_ts
        observations = state.oracle.observe(
            state.dataset.world.positions,
            state.dataset.world.ids,
            state.dataset.pose_cw(frame_idx),
        )
        result = state.system.process_frame(
            dataset_ts, observations, imu_delta=delta
        )
        state.frames_processed += 1
        latency = self.client_latency.breakdown(
            result.tracking.workload, stereo=True, device="cpu"
        )
        state.busy_until = now + latency.total / 1e3
        state.cpu.add_full_slam_frame(
            result.tracking.workload.image_pixels,
            result.tracking.workload.n_features,
        )
        if result.keyframe is not None:
            state.cpu.add_keyframe_work()
        if result.pose_cw is not None:
            state.record_global_pose(dataset_ts, result.pose_cw)
        state.frames_since_sync += 1
        if (
            state.frames_since_sync >= self.baseline.hold_down_frames
            and state.pending_round is None
        ):
            state.frames_since_sync = 0
            self._start_sync_round(state)

    # ---------------------------------------------------------- sync round
    def _start_sync_round(self, state: BaselineClientState) -> None:
        sync = SyncRound(started_at=self.clock.now)
        state.pending_round = sync
        # Serialize only entities created since the last round.
        fresh = SlamMap(map_id=state.client_id)
        for kf in state.system.map.keyframes.values():
            if kf.keyframe_id in state.synced_keyframe_ids:
                continue
            for pid in kf.observed_point_ids():
                point = state.system.map.mappoints.get(int(pid))
                if point is not None and point.point_id not in fresh.mappoints:
                    fresh.add_mappoint(point)
            fresh.add_keyframe(kf)
            state.synced_keyframe_ids.add(kf.keyframe_id)
        if fresh.n_keyframes == 0:
            state.pending_round = None
            return
        payload = serialize_map(fresh)
        sync.map_bytes = len(payload)
        # Component models calibrated against Table 4 (per MB where
        # size-dependent).
        mb = len(payload) / 1e6
        sync.serialization_ms = 40.0 * mb + 4.0
        sync.deserialization_ms = 200.0 * mb + 20.0
        state.cpu.add_serialization(len(payload))

        def on_uploaded(message) -> None:
            sync.transfer1_ms = message.latency * 1e3
            merge_compute_s = self._server_merge(state, payload, sync)
            self.clock.schedule(
                sync.deserialization_ms / 1e3 + merge_compute_s,
                lambda: self._send_partial_map(state, sync),
            )

        state.device_ep.send(
            "map", len(payload), reliable=True, on_delivered=on_uploaded,
            on_dropped=partial(self._abandon_round, state),
        )

    def _server_merge(self, state: BaselineClientState, payload: bytes,
                      sync: SyncRound) -> float:
        # The serialization round trip yields true copies: the server's
        # merge can transform its entities without touching the client's
        # live local map (unlike SLAM-Share, where they are one object
        # in shared memory — the whole point of the contrast).
        shipped = deserialize_map(payload)
        merger = MapMerger(
            self.global_map, self.global_db, state.dataset.camera,
            self.config.merger,
        )
        if state.merged:
            # Already aligned: apply the established client->global
            # transform to the update, then ingest it.
            shipped.apply_transform_to_client(state.correction, state.client_id)
            merger.ingest_client_map(shipped)
            sync.merge_ms = self.merge_cost.baseline_merge_ms(
                shipped.n_keyframes, 0, self.global_map.n_keyframes
            )
        else:
            merge = merger.merge_maps(shipped, state.client_id)
            if merge.success:
                state.merged = True
                state.correction = merge.transform
                sync.merge_ms = self.merge_cost.baseline_merge_ms(
                    merge.n_keyframes_checked,
                    merge.n_fused_points,
                    self.global_map.n_keyframes,
                )
            else:
                sync.merge_ms = self.merge_cost.baseline_merge_ms(
                    shipped.n_keyframes, 0, max(self.global_map.n_keyframes, 1)
                )
        sync.processing_ms = 18.0 + 1.5 * shipped.n_keyframes
        return (sync.merge_ms + sync.processing_ms) / 1e3

    def _send_partial_map(self, state: BaselineClientState,
                          sync: SyncRound) -> None:
        # ~6 keyframes of the global map head back to the client.
        partial_map = SlamMap(map_id=999)
        kfs = sorted(
            self.global_map.keyframes.values(), key=lambda kf: -kf.timestamp
        )[:PARTIAL_MAP_KEYFRAMES]
        for kf in kfs:
            for pid in kf.observed_point_ids():
                point = self.global_map.mappoints.get(int(pid))
                if point is not None and point.point_id not in partial_map.mappoints:
                    partial_map.add_mappoint(point)
        for kf in kfs:
            partial_map.add_keyframe(kf)

        def on_downloaded(message) -> None:
            sync.transfer2_ms = message.latency * 1e3
            sync.load_ms = 15.0 + 0.8 * PARTIAL_MAP_KEYFRAMES
            sync.completed_at = self.clock.now + sync.load_ms / 1e3
            state.correction_fresh_at = sync.completed_at
            sync.missed = (
                sync.completed_at - sync.started_at
            ) > self.baseline.hold_down_frames / self.config.camera_fps
            state.rounds.append(sync)
            state.pending_round = None

        state.server_ep.send(
            "partial_map", map_payload_size(partial_map), reliable=True,
            on_delivered=on_downloaded,
            on_dropped=partial(self._abandon_round, state),
        )

    @staticmethod
    def _abandon_round(state: BaselineClientState, message) -> None:
        # ARQ gave up on a map transfer: the round is lost, and the next
        # hold-down starts a fresh one.
        state.pending_round = None
