"""Adaptive client<->server offloading of the tracking front-end.

SLAM-share (§4) fixes the tracking/mapping split statically: tracking
always runs on the edge server.  "Orchestrating Joint Offloading and
Scheduling for Low-Latency Edge SLAM" (arXiv:2502.16495) shows that
*where to track* should be a per-client runtime decision: a strong
device on a congested link is better off tracking locally, while a weak
device on a clean link should ship frames to the GPU.  This module is
that decision loop:

* :class:`OffloadConfig` — the policy (``static-server`` /
  ``static-client`` / ``adaptive``), the hysteresis thresholds and the
  cooldown, exposed through ``ServingConfig.offload`` and the CLI.
* :class:`OffloadController` — one per client.  Ingests measured RTT
  samples (frame-lifecycle round trips and link probes), on-device
  tracking latencies, admission outcomes (shed indicators) and
  :class:`~repro.obs.slo.SloEvent` edge transitions, and decides when
  to migrate tracking — with hysteresis (distinct offload/return
  thresholds) and a cooldown so placement never flaps.
* :class:`OffloadManager` — the per-session registry: builds
  controllers, fans SLO events out to them, and records every
  committed :class:`HandoffRecord`.

The session acts on decisions by sending a ``handoff`` message over the
**reliable** ARQ transport carrying the migrated tracking state and the
IMU anchor; placement flips only when that message is delivered, so
frames captured during the migration keep flowing on the old placement
and nothing is dropped (see ``core/session.py``).

Under static policies the controller still runs in *shadow* mode: it
never moves anything, but :meth:`OffloadController.shadow_decision`
reports what the adaptive policy would have done, which the admission
path emits to the tracer so static-vs-adaptive runs produce comparable
per-frame waterfalls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs import get_logger, get_metrics, get_tracer, kv

_log = get_logger("core.offload")
_tracer = get_tracer()
_metrics = get_metrics()
_handoffs_total = _metrics.counter(
    "offload.handoffs", "committed tracking-placement migrations"
)
_handoffs_aborted = _metrics.counter(
    "offload.handoffs_aborted", "handoff messages lost at the ARQ retry cap"
)
_degraded_total = _metrics.counter(
    "offload.frames_degraded",
    "overload-shed frames rescued by on-device tracking",
)
_local_frames_total = _metrics.counter(
    "offload.frames_local", "frames tracked on-device under client placement"
)

#: Tracking placements.
PLACEMENT_SERVER = "server"
PLACEMENT_CLIENT = "client"

_POLICIES = ("static-server", "static-client", "adaptive")


@dataclass
class OffloadConfig:
    """Where-to-track policy and its thresholds.

    ``static-server`` reproduces the paper's fixed split (the default —
    byte-compatible with every pre-offload session); ``static-client``
    pins tracking on the device (Edge-SLAM-style); ``adaptive`` moves it
    per client at runtime.

    Hysteresis: tracking offloads to the device when the windowed RTT
    median exceeds ``rtt_high_ms`` (or load/shed/SLO signals trip) and
    only returns once it has fallen under ``rtt_low_ms`` *and* the
    server looks healthy — the gap between the two thresholds plus
    ``cooldown_s`` between committed migrations is what keeps placement
    from flapping on a noisy link.
    """

    policy: str = "static-server"
    # --- hysteresis thresholds
    rtt_high_ms: float = 80.0        # offload when windowed RTT exceeds this
    rtt_low_ms: float = 45.0         # return only once RTT is back under this
    load_high: float = 0.85          # server.load() that forces offloading
    load_low: float = 0.50          # server.load() required to return
    shed_high: float = 0.25          # shed fraction in window that trips
    # --- damping
    cooldown_s: float = 2.0          # min sim-time between committed moves
    rtt_window: int = 8              # sliding RTT samples (median)
    shed_window: int = 12            # recent admission outcomes considered
    shed_horizon_s: float = 5.0      # admission samples older than this expire
    min_samples: int = 4             # don't act on near-empty windows
    # --- measurement / migration
    probe_interval_s: float = 0.5    # link RTT probe period (adaptive only)
    handoff_state_bytes: int = 24_000  # migrated tracking-state payload

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(
                f"unknown offload policy {self.policy!r}; "
                f"expected one of {_POLICIES}"
            )
        if self.rtt_low_ms >= self.rtt_high_ms:
            raise ValueError("rtt_low_ms must be below rtt_high_ms")
        if self.load_low >= self.load_high:
            raise ValueError("load_low must be below load_high")
        if self.cooldown_s < 0.0:
            raise ValueError("cooldown_s must be non-negative")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")

    @property
    def initial_placement(self) -> str:
        return (PLACEMENT_CLIENT if self.policy == "static-client"
                else PLACEMENT_SERVER)

    @property
    def is_adaptive(self) -> bool:
        return self.policy == "adaptive"


@dataclass(frozen=True)
class PlacementDecision:
    """A controller's verdict: migrate tracking to ``placement``."""

    client_id: int
    placement: str                  # target placement
    reason: str                     # rtt | load | shed | slo | recovered | manual
    t: float


@dataclass
class HandoffRecord:
    """One tracking-state migration, from initiation to commit/abort."""

    client_id: int
    src: str
    dst: str
    reason: str
    initiated_at: float
    committed_at: Optional[float] = None
    aborted: bool = False
    state_bytes: int = 0
    imu_anchor_ts: Optional[float] = None   # anchor carried in the payload

    @property
    def committed(self) -> bool:
        return self.committed_at is not None


class OffloadController:
    """Per-client placement state machine with hysteresis + cooldown.

    All inputs arrive tagged with sim time; the controller holds only
    bounded deques, so ``observe_*`` is O(1) and :meth:`decide` is
    O(window).  It never initiates the migration itself — the session
    owns the handoff message — it only answers "should tracking move,
    and why".
    """

    def __init__(self, client_id: int, config: OffloadConfig,
                 initial: Optional[str] = None) -> None:
        self.client_id = client_id
        self.config = config
        self.placement = initial or config.initial_placement
        self.pending: Optional[str] = None     # handoff in flight
        self._rtts: Deque[Tuple[float, float]] = deque(
            maxlen=max(1, config.rtt_window))
        self._local_ms: Deque[Tuple[float, float]] = deque(
            maxlen=max(1, config.rtt_window))
        self._admissions: Deque[Tuple[float, bool]] = deque(
            maxlen=max(1, config.shed_window))
        self._breached: set = set()            # SLO names currently breached
        self.last_change_t = float("-inf")
        self.changes: List[PlacementDecision] = []

    # ---------------------------------------------------------- observation
    def observe_rtt(self, rtt_ms: float, t: float) -> None:
        """A measured network round trip (frame lifecycle or probe)."""
        self._rtts.append((t, float(rtt_ms)))

    def observe_local_ms(self, ms: float, t: float) -> None:
        """An on-device tracking latency under client placement."""
        self._local_ms.append((t, float(ms)))

    def observe_admission(self, admitted: bool, t: float) -> None:
        """One server admission outcome (``False`` = shed)."""
        self._admissions.append((t, bool(admitted)))

    def on_slo_event(self, event: Any) -> None:
        """Track breach/recover edges from the SLO engine."""
        name = event.status.spec.name
        if event.kind == "breach":
            self._breached.add(name)
        else:
            self._breached.discard(name)

    # ------------------------------------------------------------ windows
    def rtt_median(self) -> Optional[float]:
        if len(self._rtts) < self.config.min_samples:
            return None
        values = sorted(v for (_, v) in self._rtts)
        return values[len(values) // 2]

    def shed_fraction(self, t: Optional[float] = None) -> Optional[float]:
        """Recent shed fraction, or ``None`` on a near-empty window.

        With ``t``, samples older than ``shed_horizon_s`` are ignored:
        once tracking migrates off the server no new admission outcomes
        arrive, so without expiry a burst of sheds would pin the
        fraction high forever and the client could never return.
        """
        samples = list(self._admissions)
        if t is not None:
            horizon = t - self.config.shed_horizon_s
            samples = [(ts, ok) for (ts, ok) in samples if ts >= horizon]
        if len(samples) < self.config.min_samples:
            return None
        sheds = sum(1 for (_, ok) in samples if not ok)
        return sheds / len(samples)

    @property
    def slo_breached(self) -> bool:
        return bool(self._breached)

    def in_cooldown(self, t: float) -> bool:
        return (t - self.last_change_t) < self.config.cooldown_s

    # ------------------------------------------------------------ decision
    def _adaptive_target(self, t: float,
                         server_load: float) -> Optional[PlacementDecision]:
        """What the adaptive policy wants right now (ignoring cooldown)."""
        rtt = self.rtt_median()
        shed = self.shed_fraction(t)
        current = self.pending or self.placement
        if current == PLACEMENT_SERVER:
            if rtt is not None and rtt > self.config.rtt_high_ms:
                return PlacementDecision(self.client_id, PLACEMENT_CLIENT,
                                         "rtt", t)
            if server_load >= self.config.load_high:
                return PlacementDecision(self.client_id, PLACEMENT_CLIENT,
                                         "load", t)
            if shed is not None and shed >= self.config.shed_high:
                return PlacementDecision(self.client_id, PLACEMENT_CLIENT,
                                         "shed", t)
            if self._breached:
                return PlacementDecision(self.client_id, PLACEMENT_CLIENT,
                                         "slo", t)
            return None
        # Tracking on the device: return only once every signal is
        # healthy again (the low side of the hysteresis band).
        if self._breached:
            return None
        if server_load > self.config.load_low:
            return None
        if shed is not None and shed >= self.config.shed_high:
            return None
        if rtt is None or rtt >= self.config.rtt_low_ms:
            return None
        return PlacementDecision(self.client_id, PLACEMENT_SERVER,
                                 "recovered", t)

    def decide(self, t: float,
               server_load: float) -> Optional[PlacementDecision]:
        """Return a migration decision, or ``None`` to stay put.

        Static policies never migrate.  Adaptive decisions are
        suppressed while a handoff is in flight and for ``cooldown_s``
        after the last committed one.
        """
        if not self.config.is_adaptive:
            return None
        if self.pending is not None or self.in_cooldown(t):
            return None
        decision = self._adaptive_target(t, server_load)
        if decision is None or decision.placement == self.placement:
            return None
        return decision

    def shadow_decision(self, t: float, server_load: float) -> str:
        """The placement the adaptive policy *would* pick right now.

        Used under static policies (controller disabled) so traces
        still carry the would-be decision — static-vs-adaptive runs
        then produce comparable per-frame waterfalls.
        """
        decision = self._adaptive_target(t, server_load)
        if decision is not None:
            return decision.placement
        return self.pending or self.placement

    # ---------------------------------------------------------- migration
    def begin(self, target: str) -> None:
        """A handoff message for ``target`` is now in flight."""
        self.pending = target

    def commit(self, decision: PlacementDecision, t: float) -> None:
        """The handoff delivered: tracking now runs at the target."""
        self.placement = decision.placement
        self.pending = None
        self.last_change_t = t
        self.changes.append(decision)

    def abort(self, t: float) -> None:
        """The handoff message hit the ARQ retry cap; stay put.

        The cooldown still arms so a dead link isn't hammered with
        migration attempts.
        """
        self.pending = None
        self.last_change_t = t


class OffloadManager:
    """Session-wide registry of per-client controllers.

    Subscribes to the session's :class:`~repro.obs.slo.SloEngine` (SLO
    edges are fleet-wide signals, fanned out to every controller) and
    keeps the committed/aborted :class:`HandoffRecord` ledger the
    benchmarks and tests read.
    """

    def __init__(self, config: Optional[OffloadConfig] = None) -> None:
        self.config = config or OffloadConfig()
        self.controllers: Dict[int, OffloadController] = {}
        self.handoffs: List[HandoffRecord] = []

    def controller(self, client_id: int) -> OffloadController:
        ctrl = self.controllers.get(client_id)
        if ctrl is None:
            ctrl = OffloadController(client_id, self.config)
            self.controllers[client_id] = ctrl
        return ctrl

    def placement(self, client_id: int) -> str:
        return self.controller(client_id).placement

    def on_slo_event(self, event: Any) -> None:
        for ctrl in self.controllers.values():
            ctrl.on_slo_event(event)

    def attach_slo(self, engine: Any) -> None:
        """Route the engine's breach/recover edges into every controller."""
        engine.subscribe(self.on_slo_event)

    # ------------------------------------------------------------- ledger
    def begin_handoff(self, decision: PlacementDecision,
                      imu_anchor_ts: Optional[float]) -> HandoffRecord:
        ctrl = self.controller(decision.client_id)
        record = HandoffRecord(
            client_id=decision.client_id,
            src=ctrl.placement,
            dst=decision.placement,
            reason=decision.reason,
            initiated_at=decision.t,
            state_bytes=self.config.handoff_state_bytes,
            imu_anchor_ts=imu_anchor_ts,
        )
        ctrl.begin(decision.placement)
        self.handoffs.append(record)
        return record

    def commit_handoff(self, record: HandoffRecord, t: float) -> None:
        ctrl = self.controller(record.client_id)
        ctrl.commit(
            PlacementDecision(record.client_id, record.dst, record.reason, t),
            t,
        )
        record.committed_at = t
        _handoffs_total.inc()
        _tracer.instant(
            "offload.handoff", client_id=record.client_id,
            src=record.src, dst=record.dst, reason=record.reason,
            state_bytes=record.state_bytes,
        )
        _log.info(
            "handoff committed: %s",
            kv(client=record.client_id, src=record.src, dst=record.dst,
               reason=record.reason, t=t),
        )

    def abort_handoff(self, record: HandoffRecord, t: float) -> None:
        self.controller(record.client_id).abort(t)
        record.aborted = True
        _handoffs_aborted.inc()
        _log.warning(
            "handoff aborted (ARQ retry cap): %s",
            kv(client=record.client_id, dst=record.dst, t=t),
        )

    def note_degraded(self) -> None:
        _degraded_total.inc()

    def note_local_frame(self) -> None:
        _local_frames_total.inc()

    # ------------------------------------------------------------ summary
    def committed_handoffs(self) -> List[HandoffRecord]:
        return [h for h in self.handoffs if h.committed]

    def summary(self) -> Dict[str, Any]:
        committed = self.committed_handoffs()
        return {
            "policy": self.config.policy,
            "handoffs": len(committed),
            "handoffs_aborted": sum(1 for h in self.handoffs if h.aborted),
            "placements": {
                cid: ctrl.placement
                for cid, ctrl in sorted(self.controllers.items())
            },
            "reasons": sorted({h.reason for h in committed}),
        }


__all__ = [
    "HandoffRecord",
    "OffloadConfig",
    "OffloadController",
    "OffloadManager",
    "PLACEMENT_CLIENT",
    "PLACEMENT_SERVER",
    "PlacementDecision",
]
