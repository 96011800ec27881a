"""Declarative SLOs over sliding sim-time windows with burn-rate alerts.

An :class:`SloSpec` names an objective ("frame p95 under 100 ms, 99% of
the time"), and the :class:`SloEngine` evaluates registered specs over a
sliding window of observations keyed by *sim* time, so results are
deterministic and independent of host speed.  Three spec kinds cover
the serving pipeline:

``latency``
    observations are durations (ms); the window's ``percentile`` must
    stay at or under ``target``.  Burn rate is the fraction of
    observations over target divided by the error budget
    ``1 - objective`` — burn 1.0 means the budget is being consumed
    exactly as provisioned, >1 means the SLO will be exhausted early.
``ratio``
    observations are 0/1 indicators (e.g. shed=1); the window mean must
    stay at or under ``target``.
``gauge``
    observations are absolute values (e.g. ATE in metres); the latest
    value must stay at or under ``target``.

Subscribers (:meth:`SloEngine.subscribe`) receive :class:`SloEvent`
edge transitions (``breach`` / ``recover``); ``repro.cli session --slo``
logs them as they happen.
The engine never sits on the frame hot path: ``observe`` is an O(1)
append and evaluation is explicit (or rate-limited via
``maybe_evaluate``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["SloEngine", "SloEvent", "SloSpec", "SloStatus", "default_slos"]

_KINDS = ("latency", "ratio", "gauge")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective."""

    name: str
    kind: str                      # latency | ratio | gauge
    target: float                  # threshold in the metric's unit
    description: str = ""
    percentile: float = 0.95       # latency kind only
    objective: float = 0.99        # fraction of observations in budget
    window_s: float = 5.0          # sliding window, sim seconds
    min_count: int = 5             # don't judge near-empty windows
    burn_alert: float = 2.0        # burn rate that flips to breach

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.window_s <= 0.0:
            raise ValueError("window_s must be positive")


@dataclass
class SloStatus:
    """Evaluation snapshot for one spec."""

    spec: SloSpec
    t: float
    value: Optional[float] = None     # percentile / mean / last value
    bad_fraction: float = 0.0
    burn_rate: float = 0.0
    count: int = 0
    breached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "t": self.t,
            "value": self.value,
            "target": self.spec.target,
            "bad_fraction": self.bad_fraction,
            "burn_rate": self.burn_rate,
            "count": self.count,
            "breached": self.breached,
        }


@dataclass(frozen=True)
class SloEvent:
    """Edge transition delivered to subscribers."""

    kind: str                      # "breach" | "recover"
    status: SloStatus
    t: float = field(default=0.0)


class SloEngine:
    """Registers specs, ingests observations, evaluates windows."""

    def __init__(self, clock: Optional[Any] = None) -> None:
        self._clock = clock        # optional SimClock for default timestamps
        self._lock = threading.Lock()
        self._specs: Dict[str, SloSpec] = {}
        self._windows: Dict[str, Deque[Tuple[float, float]]] = {}
        self._breached: Dict[str, bool] = {}
        self._subscribers: List[Callable[[SloEvent], None]] = []
        self._last_eval_t = float("-inf")
        self.events: List[SloEvent] = []

    # ----------------------------------------------------------- registry
    def register(self, spec: SloSpec) -> SloSpec:
        with self._lock:
            self._specs[spec.name] = spec
            self._windows.setdefault(spec.name, deque())
            self._breached.setdefault(spec.name, False)
        return spec

    def specs(self) -> List[SloSpec]:
        with self._lock:
            return list(self._specs.values())

    def subscribe(self, callback: Callable[[SloEvent], None]) -> None:
        with self._lock:
            self._subscribers.append(callback)

    # --------------------------------------------------------- ingestion
    def _now(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        if self._clock is not None:
            return self._clock.now
        return 0.0

    def observe(self, name: str, value: float,
                t: Optional[float] = None) -> None:
        """O(1) append; unknown names are ignored (caller may emit
        metrics the SLO config doesn't track)."""
        with self._lock:
            window = self._windows.get(name)
            if window is None:
                return
            window.append((self._now(t), float(value)))

    # -------------------------------------------------------- evaluation
    def evaluate(self, t: Optional[float] = None) -> List[SloStatus]:
        """Evaluate every spec at sim time ``t``; fire edge events."""
        now = self._now(t)
        fired: List[SloEvent] = []
        statuses: List[SloStatus] = []
        with self._lock:
            self._last_eval_t = now
            for name, spec in self._specs.items():
                window = self._windows[name]
                cutoff = now - spec.window_s
                while window and window[0][0] < cutoff:
                    window.popleft()
                status = self._judge(spec, window, now)
                statuses.append(status)
                was = self._breached[name]
                if status.breached != was:
                    self._breached[name] = status.breached
                    event = SloEvent(
                        kind="breach" if status.breached else "recover",
                        status=status, t=now,
                    )
                    self.events.append(event)
                    fired.append(event)
            subscribers = list(self._subscribers)
        for event in fired:           # outside the lock: callbacks may re-enter
            for callback in subscribers:
                callback(event)
        return statuses

    def maybe_evaluate(self, t: Optional[float] = None,
                       every_s: float = 1.0) -> Optional[List[SloStatus]]:
        """Evaluate only if ``every_s`` sim seconds passed since last."""
        now = self._now(t)
        if now - self._last_eval_t < every_s:
            return None
        return self.evaluate(now)

    @staticmethod
    def _judge(spec: SloSpec, window: Deque[Tuple[float, float]],
               now: float) -> SloStatus:
        status = SloStatus(spec=spec, t=now, count=len(window))
        if len(window) < spec.min_count:
            return status
        values = [v for (_, v) in window]
        if spec.kind == "gauge":
            status.value = values[-1]
            status.breached = status.value > spec.target
            status.bad_fraction = 1.0 if status.breached else 0.0
            status.burn_rate = status.bad_fraction / (1.0 - spec.objective)
            return status
        bad = sum(1 for v in values if v > spec.target)
        status.bad_fraction = bad / len(values)
        status.burn_rate = status.bad_fraction / (1.0 - spec.objective)
        if spec.kind == "latency":
            ordered = sorted(values)
            rank = min(len(ordered) - 1,
                       max(0, round(spec.percentile * (len(ordered) - 1))))
            status.value = ordered[rank]
        else:  # ratio
            status.value = sum(values) / len(values)
        status.breached = (status.value > spec.target
                           and status.burn_rate >= spec.burn_alert)
        return status

    # ----------------------------------------------------------- summary
    def breached_names(self) -> List[str]:
        with self._lock:
            return sorted(n for n, b in self._breached.items() if b)

    def render_text(self) -> str:
        lines = [f"{'slo':<24} {'kind':<8} {'value':>10} {'target':>10} "
                 f"{'burn':>7} {'state':>8}"]
        for status in self.evaluate():
            value = "-" if status.value is None else f"{status.value:.3f}"
            lines.append(
                f"{status.spec.name:<24} {status.spec.kind:<8} {value:>10} "
                f"{status.spec.target:>10.3f} {status.burn_rate:>7.2f} "
                f"{'BREACH' if status.breached else 'ok':>8}"
            )
        return "\n".join(lines)


def default_slos(engine: SloEngine) -> SloEngine:
    """The serving pipeline's stock objectives (Table 4 scale)."""
    engine.register(SloSpec(
        name="frame.p95_ms", kind="latency", target=100.0,
        percentile=0.95, objective=0.99, window_s=5.0,
        description="end-to-end frame lifecycle p95 under 100 ms",
    ))
    engine.register(SloSpec(
        name="frames.shed_rate", kind="ratio", target=0.05,
        objective=0.95, window_s=5.0,
        description="at most 5% of frames shed by admission",
    ))
    engine.register(SloSpec(
        name="tracking.ate_m", kind="gauge", target=0.10,
        window_s=30.0, min_count=1,
        description="absolute trajectory error under 10 cm",
    ))
    return engine
