"""Multi-user AR session runner (SLAM-Share end-to-end, Fig. 3/4a).

Drives N clients through their datasets on the simulated clock:

1. at each camera period the client advances its IMU pose, encodes the
   frame (real codec on the rendered synthetic frame) and uploads it;
2. the uplink delivers it after (shaped) transmission + propagation;
3. the server process tracks it — the GPU latency model says when the
   pose is ready — and the downlink returns the tiny pose message;
4. the client fuses the delayed pose into its motion model (Alg. 1);
5. keyframes are published into the shared-memory store, unmerged
   clients are aligned into the global map by Process M (Alg. 2).

The result object carries everything the evaluation section needs:
display/server trajectories, merge events, stream stats, CPU samples.

**Frame-lifecycle tracing** (when the tracer is enabled): every
uploaded frame opens a trace at capture whose context rides the uplink
:class:`~repro.net.transport.Message`, re-anchors the server-side spans
(admission, tracking, GPU kernel, shard-lock waits, merges), rides the
pose message back down and is sealed when the client fuses the pose —
or earlier, with an explicit terminal status (``uplink_dropped``,
``superseded``, ``stale``/``overload`` sheds, ``parked``, ``no_pose``,
``pose_dropped``, ``offline``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.registry import SyntheticDataset
from ..geometry import SE3, Sim3, Trajectory, umeyama
from ..gpu.scheduler import GpuScheduler
from ..imu import GRAVITY_W, ImuBuffer, ImuDelta, preintegrate, synthesize_imu
from ..metrics.ate import absolute_trajectory_error, associate
from ..net import DuplexLink, Endpoint, SimClock, connect
from ..obs import get_logger, get_metrics, get_tracer, kv
from ..vision.orb import FeatureSet
from ..vision.render import FeatureOracle, render_frame
from .client import SlamShareClient
from .config import SlamShareConfig
from .holograms import HologramRegistry
from .server import SlamShareServer

#: Wire size of the downlink pose: a 4x4 float64 matrix.
POSE_BYTES = 4 * 4 * 8

_log = get_logger("core.session")
_tracer = get_tracer()
_metrics = get_metrics()
_pose_rtt_hist = _metrics.histogram(
    "session.pose_rtt_ms", "capture-to-pose-display round trip (sim)",
    unit="ms",
)
_frames_uploaded = _metrics.counter(
    "session.frames_uploaded", "camera frames uploaded by clients"
)
_frames_recovered = _metrics.counter(
    "session.frames_recovered",
    "deliveries whose IMU delta bridged intervals lost upstream",
)
_uplink_drops_total = _metrics.counter(
    "session.uplink_drops", "frame uploads lost on client uplinks"
)
_gap_hist = _metrics.histogram(
    "net.gap_ms", "IMU-bridged uplink gap recovered at delivery", unit="ms"
)


@dataclass
class ClientScenario:
    """One participant: which dataset it follows and when it joins.

    ``offline_windows`` lists ``(disconnect_at, rejoin_at)`` session
    times during which the client's radio is off: uploads stop, frames
    and poses in flight are discarded and the server parks its process;
    on rejoin the first upload bridges the window with accumulated IMU.
    """

    client_id: int
    dataset: SyntheticDataset
    start_time: float = 0.0       # session time at which the client joins
    n_frames: Optional[int] = None
    frame_stride: int = 1
    oracle_seed: int = 7
    imu_seed: int = 11
    offline_windows: Sequence[Tuple[float, float]] = ()


def client_inputs(scenario: ClientScenario, config: SlamShareConfig,
                  **oracle_kwargs) -> Tuple[FeatureOracle, ImuBuffer, list]:
    """One participant's feature oracle, IMU buffer and camera schedule.

    The SLAM-Share session and the baseline drive the same devices
    through the same frames; only what becomes of a frame differs.  The
    schedule lists ``(session_time, client_id, frame_index, dataset_ts)``
    for every frame the camera produces.
    """
    dataset = scenario.dataset
    oracle = dataset.make_oracle(seed=scenario.oracle_seed, **oracle_kwargs)
    imu = ImuBuffer(
        synthesize_imu(
            dataset.ground_truth,
            rate_hz=config.imu_rate_hz,
            seed=scenario.imu_seed,
        )
    )
    indices = range(0, dataset.n_frames, scenario.frame_stride)
    if scenario.n_frames is not None:
        indices = list(indices)[: scenario.n_frames]
    timestamps = [dataset.ground_truth[i].timestamp for i in indices]
    frames = [
        (scenario.start_time + (ts - timestamps[0]), scenario.client_id, idx, ts)
        for idx, ts in zip(indices, timestamps)
    ]
    return oracle, imu, frames


def _pooled_rmse(est: np.ndarray, gt: np.ndarray) -> float:
    """RMSE of pooled positions after one similarity alignment to
    ground truth; ``inf`` while there is too little to align."""
    if len(est) < 3:
        return float("inf")
    try:
        transform = umeyama(est, gt, with_scale=True)
    except (ValueError, np.linalg.LinAlgError):
        return float("inf")
    residual = np.linalg.norm(gt - transform.apply(est), axis=1)
    return float(np.sqrt((residual ** 2).mean()))


@dataclass
class _FramePacket:
    """Payload of one uplink ``frame`` message."""

    frame_no: int
    dataset_ts: float
    observations: FeatureSet
    imu_delta: Optional[ImuDelta]
    captured_at: float
    bridged_s: float = 0.0        # lost-interval span this delta recovers


@dataclass
class _PosePacket:
    """Payload of one downlink ``pose`` message."""

    frame_no: int
    pose_cw: SE3
    captured_at: float


@dataclass
class MergeEvent:
    session_time: float
    client_id: int
    merge_ms: float
    n_fused_points: int
    transform: Sim3


@dataclass
class ClientOutcome:
    scenario: ClientScenario
    client: SlamShareClient
    frames_captured: int = 0      # every frame the camera produced
    frames_processed: int = 0
    frames_lost: int = 0
    uplink_drops: int = 0         # frame uploads lost on the wire
    pose_drops: int = 0           # server poses lost on the downlink
    frames_recovered: int = 0     # deliveries that bridged a lost interval
    frames_offline: int = 0       # frames captured while disconnected
    frames_shed: int = 0          # deliveries shed by admission control
    frames_parked: int = 0        # deliveries that landed after a disconnect
    # delivered after a newer frame of this client was tracked
    frames_superseded: int = 0
    disconnects: int = 0
    rejoins: int = 0
    pose_rtts_ms: List[float] = field(default_factory=list)
    tracking_latencies_ms: List[float] = field(default_factory=list)

    def display_trajectory(self) -> Trajectory:
        return self.client.displayed_trajectory()

    #: Where a captured frame can end, exactly one each: tracked,
    #: delivered after a newer frame of this client was tracked, never
    #: uploaded, shed by admission, lost on the uplink, or delivered to
    #: a parked process.
    TERMINAL_COUNTERS = (
        "frames_processed", "frames_superseded", "frames_offline",
        "frames_shed", "uplink_drops", "frames_parked",
    )

    def unaccounted_frames(self) -> int:
        """Captured frames that ended in no counter; 0 on a sound run."""
        return self.frames_captured - sum(
            getattr(self, name) for name in self.TERMINAL_COUNTERS
        )


class FrameAccountingError(RuntimeError):
    """A finished run left frames unaccounted for, traces open or a
    shard lock of the map store held."""


@dataclass
class ClientState:
    """Everything the session holds for one participant."""

    scenario: ClientScenario
    client: SlamShareClient
    oracle: FeatureOracle
    imu: ImuBuffer
    link: DuplexLink
    device_ep: Endpoint
    server_ep: Endpoint
    outcome: ClientOutcome
    prev_ts: Optional[float] = None        # last frame the *client* captured
    imu_anchor_ts: Optional[float] = None  # last frame the *tracker* received
    frame_no: int = 0
    connected: bool = True


@dataclass
class SessionResult:
    config: SlamShareConfig
    server: SlamShareServer
    outcomes: Dict[int, ClientOutcome]
    merges: List[MergeEvent]
    holograms: HologramRegistry
    duration: float
    # Snapshots taken *during* the run (Fig. 10a): unlike the post-hoc
    # series below, these still see unmerged fragments in their private
    # frames, so the pre-merge ATE spikes are visible.
    live_global_ate: List[Tuple[float, float]] = field(default_factory=list)

    def client_ate(self, client_id: int, use_display: bool = False):
        outcome = self.outcomes[client_id]
        estimated = (
            outcome.display_trajectory()
            if use_display
            else self.server.client_trajectory(client_id)
        )
        return absolute_trajectory_error(
            estimated, outcome.scenario.dataset.ground_truth
        )

    def digest(self) -> str:
        """SHA-256 of everything a seeded run determines.

        Trajectories, frame accounting, modeled latencies, merge events,
        the global map's ids and the store's occupancy — nothing derived
        from the wall clock, so equal configs give equal digests across
        reruns and store backends.
        """
        sha = hashlib.sha256()

        def feed(*values) -> None:
            for value in values:
                array = np.asarray(value, dtype=np.float64)
                sha.update(repr(array.shape).encode() + array.tobytes())

        for cid in sorted(self.outcomes):
            outcome = self.outcomes[cid]
            for trajectory in (self.server.client_trajectory(cid),
                               outcome.display_trajectory()):
                feed(trajectory.timestamps, trajectory.positions,
                     trajectory.orientations)
            counters = [getattr(outcome, f.name) for f in fields(outcome)]
            feed([c for c in counters if isinstance(c, int)],
                 outcome.pose_rtts_ms, outcome.tracking_latencies_ms)
        for merge in self.merges:
            transform = merge.transform
            feed(merge.session_time, merge.client_id, merge.n_fused_points,
                 transform.rotation, transform.translation, transform.scale)
        feed(sorted(self.server.global_map.keyframes),
             sorted(self.server.global_map.mappoints),
             [[row["n_keyframes"], row["n_mappoints"], row["record_bytes"],
               row["writes"]] for row in self.server.store.shard_stats()])
        return sha.hexdigest()

    def client_frame(self, client_id: int) -> Sim3:
        """Mapping from a client's current frame to the true world frame.

        Derived by aligning the client's *displayed* trajectory to its
        ground truth — i.e. how this client's coordinates relate to
        reality.  Used by the hologram-consistency experiment.
        """
        result = self.client_ate(client_id, use_display=True)
        return result.transform if result.transform is not None else Sim3.identity()


class SlamShareSession:
    """Builds and runs one multi-client SLAM-Share session.

    Per client the session keeps one :class:`ClientState` record; every
    message delivered on that client's endpoints is dispatched through
    :attr:`MESSAGE_HANDLERS` to a method called as
    ``handler(state, message)``.
    """

    #: ``(endpoint side, message type) -> handler method``: frames go up
    #: to the server, poses come back down to the device.
    MESSAGE_HANDLERS = {
        ("server", "frame"): "_on_frame",
        ("device", "pose"): "_on_pose",
    }

    def __init__(
        self,
        scenarios: Sequence[ClientScenario],
        config: Optional[SlamShareConfig] = None,
        ate_sample_interval: Optional[float] = None,
    ) -> None:
        if not scenarios:
            raise ValueError("need at least one client scenario")
        self.scenarios = list(scenarios)
        self.config = config or SlamShareConfig()
        self.ate_sample_interval = ate_sample_interval
        self.clock = SimClock()
        camera = self.scenarios[0].dataset.camera
        self.server = SlamShareServer(camera, self.config)
        # Multi-session relocalization: preload the global map from a
        # snapshot so every client of this session (including the first)
        # relocalizes into the persisted world via the merge path.
        if self.config.serving.restore_path:
            self.server.load_snapshot(self.config.serving.restore_path)
        # The server's one GPU.  Spatial sharing is already modeled
        # inside the latency model (gpu_share), so the scheduler runs
        # at slowdown 1: it books each frame's kernel on the clock at
        # its modeled duration and fires the pose return.
        self.scheduler = GpuScheduler(self.clock)
        self.holograms = HologramRegistry()
        self.clients: Dict[int, ClientState] = {}
        self.outcomes: Dict[int, ClientOutcome] = {}
        self.merges: List[MergeEvent] = []
        self.live_global_ate: List[Tuple[float, float]] = []

    # -------------------------------------------------------------- setup
    def _setup_client(self, scenario: ClientScenario) -> list:
        """Build one client's record; returns its camera-frame schedule."""
        cid = scenario.client_id
        t0_pose = scenario.dataset.pose_cw(0)
        # The server map frame *is* the client's first camera frame
        # (bootstrap pose = identity), so the client's motion model
        # starts at the origin of that frame; gravity is rotated into it.
        gravity_map = t0_pose.rotation @ GRAVITY_W
        client = SlamShareClient(cid, self.config, SE3.identity(), gravity_map)
        self.server.add_client(cid, gravity_map)
        link = self.config.shaping.build(self.clock, seed=50 + cid)
        # Session traffic flows through the endpoint layer so transport
        # metrics (net.messages_sent / bytes / latency) see it.
        device_ep, server_ep = connect(
            f"device-{cid}", "edge-server", self.clock, link
        )
        oracle, imu, frames = client_inputs(scenario, self.config)
        outcome = self.outcomes[cid] = ClientOutcome(scenario, client)
        state = self.clients[cid] = ClientState(
            scenario=scenario, client=client, oracle=oracle, imu=imu,
            link=link, device_ep=device_ep, server_ep=server_ep,
            outcome=outcome,
        )
        endpoints = {"device": device_ep, "server": server_ep}
        for (side, msg_type), handler in self.MESSAGE_HANDLERS.items():
            endpoints[side].on(msg_type, partial(getattr(self, handler), state))
        return frames

    # ---------------------------------------------------------------- run
    def run(self) -> SessionResult:
        config = self.config
        # Spans recorded during the run carry deterministic sim-time
        # stamps from this session's clock.
        _tracer.bind_clock(self.clock)
        _log.info(
            "session start: %s",
            kv(clients=len(self.scenarios),
               shaping=config.shaping.name,
               fps=config.camera_fps),
        )
        events = []  # (session_time, client_id, frame_index, dataset_ts)
        for scenario in self.scenarios:
            events += self._setup_client(scenario)
        events.sort()
        end_time = events[-1][0] if events else 0.0

        for session_time, client_id, frame_idx, dataset_ts in events:
            # _process_frame is looked up when the frame fires, so a
            # wrapper installed on the instance sees every frame.
            state = self.clients[client_id]
            self.clock.schedule_at(
                session_time,
                lambda s=state, i=frame_idx, t=dataset_ts: self._process_frame(s, i, t),
            )
        for scenario in self.scenarios:
            for disconnect_at, rejoin_at in scenario.offline_windows:
                cid = scenario.client_id
                self.clock.schedule_at(
                    disconnect_at, partial(self.disconnect_client, cid)
                )
                self.clock.schedule_at(
                    rejoin_at, partial(self.rejoin_client, cid)
                )
        if self.ate_sample_interval is not None:
            t = self.ate_sample_interval
            while t < end_time:
                self.clock.schedule_at(t, self._sample_global_ate)
                t += self.ate_sample_interval
        self.clock.run()
        # Frames whose lifecycle never reached a terminal state (e.g. a
        # pose still in flight when the event queue drained) are sealed
        # so the trace has no dangling roots.
        if _tracer.enabled:
            _tracer.close_open_traces(status="unfinished")
        self._check_run_end()
        # Close CPU accounting windows.
        for state in self.clients.values():
            state.client.cpu.close_window(max(end_time, 1e-6))
        _log.info(
            "session done: %s",
            kv(duration_s=end_time, merges=len(self.merges),
               keyframes=self.server.global_map.n_keyframes),
        )
        if config.serving.snapshot_path:
            self.server.save_snapshot(config.serving.snapshot_path)
        return SessionResult(
            config=config,
            server=self.server,
            outcomes=self.outcomes,
            merges=self.merges,
            holograms=self.holograms,
            duration=end_time,
            live_global_ate=self.live_global_ate,
        )

    def _check_run_end(self) -> None:
        """Fail the run if a frame vanished, a trace stayed open or a
        lock of the map store (a shard's or the pack's) is still held."""
        problems = [
            f"client {cid}: {outcome.unaccounted_frames()} of "
            f"{outcome.frames_captured} captured frames unaccounted ("
            + " ".join(f"{name}={getattr(outcome, name)}"
                       for name in outcome.TERMINAL_COUNTERS) + ")"
            for cid, outcome in self.outcomes.items()
            if outcome.unaccounted_frames() != 0
        ]
        if _tracer.open_trace_count():
            problems.append(
                f"{_tracer.open_trace_count()} frame traces still open"
            )
        store = self.server.store
        locks = [(f"shard {idx}", shard.lock)
                 for idx, shard in enumerate(store.shards)]
        locks.append(("pack", store.pack.lock))
        problems.extend(
            f"map store {name}: lock still held "
            f"(readers={lock.active_readers} writer={lock.writer_active})"
            for name, lock in locks
            if lock.active_readers != 0 or lock.writer_active
        )
        if problems:
            raise FrameAccountingError("; ".join(problems))

    def _sample_global_ate(self) -> None:
        """Snapshot the pooled global-map ATE at the current sim time.

        Unmerged clients' fragments are still in their private frames
        here, so joins show up as spikes (Fig. 10a) that collapse once
        the merge lands.
        """
        est_rows = []
        gt_rows = []
        for outcome in self.outcomes.values():
            estimated = self.server.client_trajectory(outcome.scenario.client_id)
            est, gt, _ = associate(
                estimated, outcome.scenario.dataset.ground_truth
            )
            if len(est):
                est_rows.append(est)
                gt_rows.append(gt)
        if not est_rows:
            return
        est = np.vstack(est_rows)
        if len(est) < 3:
            return
        rmse = _pooled_rmse(est, np.vstack(gt_rows))
        self.live_global_ate.append((self.clock.now, rmse))

    # ------------------------------------------------------ frame handling
    def _process_frame(self, state: ClientState, frame_idx: int,
                       dataset_ts: float) -> None:
        """Device side of one camera frame: capture, then upload."""
        scenario = state.scenario
        client = state.client
        dataset = scenario.dataset
        outcome = state.outcome
        # 1) client: IMU advance + video encode.  The client's own motion
        # model always integrates the local inter-frame interval.
        client_delta = None
        if state.prev_ts is not None:
            client_delta = preintegrate(state.imu, state.prev_ts, dataset_ts)
        pixels = None
        if self.config.render_video_frames:
            pixels = render_frame(
                dataset.world.positions,
                dataset.world.ids,
                dataset.camera,
                dataset.pose_cw(frame_idx),
                rng=np.random.default_rng(1000 + frame_idx),
            ).pixels
        upload = client.capture_frame(dataset_ts, client_delta, pixels=pixels)
        prev_ts = state.prev_ts
        state.prev_ts = dataset_ts
        frame_no = state.frame_no
        state.frame_no += 1
        outcome.frames_captured += 1

        if not state.connected:
            # Radio off: the device keeps dead-reckoning on IMU for its
            # display; nothing is uploaded, and the server-bound IMU
            # interval stays anchored at the last delivered frame so the
            # first post-rejoin upload bridges the whole window.
            outcome.frames_offline += 1
            return

        # 2) the server-bound IMU delta spans back to the last *delivered*
        # frame: an interval lost to an uplink drop accumulates into the
        # next upload instead of vanishing (Alg. 1's C_IMU survives loss).
        anchor = state.imu_anchor_ts
        if anchor is None:
            upload_delta = None
            bridged_s = 0.0
        elif prev_ts is not None and anchor < prev_ts - 1e-12:
            upload_delta = preintegrate(state.imu, anchor, dataset_ts)
            bridged_s = prev_ts - anchor
        else:
            upload_delta = client_delta
            bridged_s = 0.0

        # 3) observations travel with the (simulated) video payload,
        # framed through the endpoint layer (best-effort: a stale frame
        # is not worth retransmitting, IMU bridges the gap instead).
        observations = state.oracle.observe(
            dataset.world.positions, dataset.world.ids, dataset.pose_cw(frame_idx)
        )
        packet = _FramePacket(
            frame_no=frame_no,
            dataset_ts=dataset_ts,
            observations=observations,
            imu_delta=upload_delta,
            captured_at=self.clock.now,
            bridged_s=bridged_s,
        )

        # Open the frame's lifecycle trace at capture; the context rides
        # the uplink message and is sealed wherever the frame's life
        # ends (pose fusion, a shed, or a terminal drop).
        ctx = _tracer.open_trace(
            "frame.lifecycle", tid=f"client-{scenario.client_id}",
            client_id=scenario.client_id, frame=frame_no,
        )
        _frames_uploaded.inc()
        state.device_ep.send(
            "frame", upload.video_bytes, payload=packet,
            on_dropped=partial(self._on_uplink_dropped, state), trace=ctx,
        )

    def _on_uplink_dropped(self, state: ClientState, message) -> None:
        state.outcome.uplink_drops += 1
        _uplink_drops_total.inc()
        _tracer.close_trace(message.trace, status="uplink_dropped")

    def _on_frame(self, state: ClientState, message) -> None:
        """Server side of one delivered ``frame`` message."""
        cid = state.scenario.client_id
        outcome = state.outcome
        ctx = message.trace
        packet: _FramePacket = message.payload
        if not state.connected or self.server.is_parked(cid):
            # in-flight frame landed after the disconnect
            outcome.frames_parked += 1
            _tracer.close_trace(ctx, status="parked")
            return
        # A newer frame of this client overtook this one on the uplink
        # (the link got faster while it was in flight) and has already
        # been tracked.  Tracking this one now would step the tracker
        # back in time, so it is skipped; its IMU interval is already
        # inside the newer frame's delta.
        anchor = state.imu_anchor_ts
        if anchor is not None and packet.dataset_ts <= anchor + 1e-12:
            outcome.frames_superseded += 1
            _tracer.close_trace(ctx, status="superseded")
            return
        # Admission control: shed stale or over-queue frames before
        # spending any tracking compute on them.  The IMU anchor is
        # left untouched, so the next admitted frame's delta bridges
        # the shed interval exactly like an uplink drop.
        with _tracer.child_span(
            ctx, "server.admission", client_id=cid
        ) as admission_span:
            admit = self.server.try_admit(
                cid, age_s=self.clock.now - packet.captured_at,
            )
            admission_span.set(decision=admit)
        if admit != "ok":
            outcome.frames_shed += 1
            _tracer.close_trace(ctx, status=admit)
            return
        self._track(state, packet, ctx)

    def _track(self, state: ClientState, packet: _FramePacket, ctx) -> None:
        """Track one admitted frame in the client's server process
        (Fig. 3 steps 3-7), then queue its GPU dispatch."""
        cid = state.scenario.client_id
        client = state.client
        outcome = state.outcome
        if packet.bridged_s > 0:
            # This delivery's delta recovered intervals lost upstream.
            outcome.frames_recovered += 1
            _frames_recovered.inc()
            _gap_hist.record(packet.bridged_s * 1e3)
        # _on_frame skips frames at or before the anchor, so this only
        # ever moves it forward.
        state.imu_anchor_ts = packet.dataset_ts
        result = self.server.process_frame(
            cid, packet.dataset_ts, packet.observations,
            imu_delta=packet.imu_delta, trace_ctx=ctx,
        )
        outcome.frames_processed += 1
        if not result.tracking_success:
            outcome.frames_lost += 1
        outcome.tracking_latencies_ms.append(result.latency.total)
        if result.merge is not None:
            self.merges.append(
                MergeEvent(
                    session_time=self.clock.now,
                    client_id=cid,
                    merge_ms=result.merge_ms,
                    n_fused_points=result.merge.n_fused_points,
                    transform=result.merge.transform,
                )
            )
            client.apply_merge_transform(
                result.merge.transform,
                result.merge.transform.rotation @ client.motion_model.gravity,
            )
        if result.pose_cw is None:
            self.server.release_frame(cid)
            _tracer.close_trace(ctx, status="no_pose")
            return
        pose = _PosePacket(packet.frame_no, result.pose_cw, packet.captured_at)
        self.scheduler.submit(
            cid, result.latency.total / 1e3,
            on_done=partial(self._send_pose, state, pose, ctx), trace=ctx,
        )

    def _send_pose(self, state: ClientState, pose: _PosePacket, ctx) -> None:
        """The frame's GPU kernel finished: free the admission slot and
        return the pose downstream."""
        self.server.release_frame(state.scenario.client_id)
        if not state.connected:
            _tracer.close_trace(ctx, status="offline")
            return
        state.server_ep.send(
            "pose", POSE_BYTES, payload=pose,
            on_dropped=partial(self._on_pose_dropped, state), trace=ctx,
        )

    def _on_pose_dropped(self, state: ClientState, message) -> None:
        state.outcome.pose_drops += 1
        _tracer.close_trace(message.trace, status="pose_dropped")

    def _on_pose(self, state: ClientState, message) -> None:
        """Client side of one delivered ``pose`` message: fuse the
        tracked pose into the client's motion model (Alg. 1)."""
        ctx = message.trace
        if not state.connected:
            # pose became ready while the radio was off
            _tracer.close_trace(ctx, status="offline")
            return
        pose: _PosePacket = message.payload
        state.client.receive_server_pose(pose.frame_no, pose.pose_cw)
        rtt_ms = (self.clock.now - pose.captured_at) * 1e3
        state.outcome.pose_rtts_ms.append(rtt_ms)
        _pose_rtt_hist.record(rtt_ms, trace_id=ctx.trace_id if ctx else None)
        _tracer.close_trace(ctx, status="complete", rtt_ms=rtt_ms)

    # -------------------------------------------------------------- churn
    def _state(self, client_id: int) -> ClientState:
        state = self.clients.get(client_id)
        if state is None:
            raise ValueError(f"unknown client {client_id}")
        return state

    def disconnect_client(self, client_id: int) -> None:
        """Take a client offline mid-session (radio off).

        The server parks the per-client process and the device falls
        back to IMU dead-reckoning until :meth:`rejoin_client`; frames
        and poses still in flight are discarded where they land.
        """
        state = self._state(client_id)
        if not state.connected:
            return
        state.connected = False
        self.server.park_client(client_id)
        state.outcome.disconnects += 1
        _log.info(
            "client disconnect: %s", kv(client=client_id, t=self.clock.now)
        )

    def rejoin_client(self, client_id: int) -> None:
        """Bring a disconnected client back into the session.

        The server unparks its process; the first upload after rejoin
        carries the IMU delta accumulated across the offline window, so
        tracking reacquires from that prior or falls back to BoW
        relocalization against the (possibly global) map.
        """
        state = self._state(client_id)
        if state.connected:
            return
        state.connected = True
        self.server.unpark_client(client_id)
        state.outcome.rejoins += 1
        _log.info(
            "client rejoin: %s", kv(client=client_id, t=self.clock.now)
        )

    # ------------------------------------------------------------- extras
    def close(self) -> None:
        """Release server-owned OS resources (the shm map segment).

        A no-op for the default in-process store backend, so existing
        callers that never close remain correct; sessions configured
        with ``serving.store_backend="shm"`` should call this (or use
        the session as a context manager) once results are consumed.
        """
        self.server.shutdown()

    def __enter__(self) -> "SlamShareSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
