"""Per-frame lifecycle ledger: fold a frame's spans into stage records.

The tracer (:mod:`repro.obs.trace`) emits one causally-linked span tree
per uploaded frame — root ``frame.lifecycle`` plus stage spans attached
via its :class:`~repro.obs.trace.TraceContext`.  The ledger folds those
trees into flat :class:`FrameRecord`\\ s with one duration per pipeline
stage (the paper's Table-4 vocabulary extended with the scale-out
layers):

================  =====================================================
stage             source span
================  =====================================================
``uplink``        ``net.frame`` — send-to-delivery incl. retransmits
``admission``     ``server.admission`` (wall) — try_admit decision
``tracking``      ``gpu.kernel`` — the tracking kernel's window on the
                  clock: the modeled latency, or the measured one
``lock_wait``     ``sharedmem.lock_wait`` (wall) — shard write locks
``merge``         ``map_merging`` — Alg. 2 round charged to this frame
``downlink``      ``net.pose`` — pose return trip
================  =====================================================

Aggregation gives the Table-4-style per-stage breakdown
(:meth:`FrameLedger.stage_breakdown`).  The ledger is pure
post-processing: it reads span dicts (live tracer or reloaded JSONL)
and never sits on the hot path.

The server's ``tracking`` sim event (and its Fig. 5/8 stage events)
stays in the trace as a lane of its own but is no stage here: it
covers the same window as ``gpu.kernel``, and counting both would book
the tracking time twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .trace import Tracer, load_jsonl

__all__ = ["FrameLedger", "FrameRecord", "ROOT_SPAN", "STAGES"]

#: Root span name marking one frame's lifecycle.
ROOT_SPAN = "frame.lifecycle"

#: Stage order used by breakdowns and waterfalls.
STAGES = (
    "uplink", "admission", "tracking", "lock_wait", "merge", "downlink",
)

#: span name -> (stage, timebase); "sim" durations come from sim_dur_ms,
#: "wall" durations from wall_dur_us (lock waits and admission are real
#: Python work, not modeled latencies).
_STAGE_OF = {
    "net.frame": ("uplink", "sim"),
    "server.admission": ("admission", "wall"),
    "gpu.kernel": ("tracking", "sim"),
    "sharedmem.lock_wait": ("lock_wait", "wall"),
    "map_merging": ("merge", "sim"),
    "net.pose": ("downlink", "sim"),
}


@dataclass
class FrameRecord:
    """One frame's folded lifecycle."""

    trace_id: int
    client_id: Optional[int] = None
    frame_no: Optional[int] = None
    captured_at: Optional[float] = None      # sim s
    completed_at: Optional[float] = None     # sim s
    status: str = "open"                     # complete/shed/uplink_dropped/...
    total_ms: Optional[float] = None
    stages: Dict[str, float] = field(default_factory=dict)   # stage -> ms
    timeline: List[Tuple[str, float, float]] = field(default_factory=list)
    attempts: int = 1                        # uplink transmissions
    n_spans: int = 0
    _span_ids: set = field(default_factory=set, repr=False)
    _parent_ids: Dict[int, Optional[int]] = field(default_factory=dict,
                                                  repr=False)
    _has_root: bool = field(default=False, repr=False)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def linked(self) -> bool:
        """True when every span's parent resolves inside this trace —
        i.e. the frame produced a single causally-linked span tree."""
        if not self._has_root:
            return False
        roots = 0
        for span_id, parent in self._parent_ids.items():
            if parent is None:
                roots += 1
            elif parent not in self._span_ids:
                return False
        return roots == 1


class FrameLedger:
    """Folds trace spans into per-frame, per-stage records.

    On the ideal link a complete frame's sim-time stages add up to its
    lifecycle: ``uplink + tracking + downlink == total_ms``.
    ``admission`` and ``lock_wait`` are wall time spent inside one sim
    instant, so they sit beside that sum, not in it.  ``merge`` does
    not add up either: the frame that triggers a map merge carries the
    whole modeled Alg. 2 round (~150 ms against a ~16 ms frame on the
    short two-client run), although the merge runs off the pose path
    and the pose returns without waiting for it.
    """

    def __init__(self) -> None:
        self.frames: Dict[int, FrameRecord] = {}
        self.unattributed = 0        # spans with no trace_id

    # ------------------------------------------------------------ building
    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "FrameLedger":
        ledger = cls()
        for span in tracer.iter_spans():
            ledger.add_span(span.to_dict())
        return ledger

    @classmethod
    def from_spans(cls, spans: Iterable[Dict[str, Any]]) -> "FrameLedger":
        ledger = cls()
        for record in spans:
            ledger.add_span(record)
        return ledger

    @classmethod
    def from_jsonl(cls, path: str) -> "FrameLedger":
        return cls.from_spans(load_jsonl(path))

    def add_span(self, span: Dict[str, Any]) -> None:
        trace_id = span.get("trace_id")
        if trace_id is None:
            self.unattributed += 1
            return
        frame = self.frames.get(trace_id)
        if frame is None:
            frame = self.frames[trace_id] = FrameRecord(trace_id=trace_id)
        frame.n_spans += 1
        frame._span_ids.add(span["span_id"])
        frame._parent_ids[span["span_id"]] = span.get("parent_id")
        attrs = span.get("attrs") or {}
        name = span["name"]
        if name == ROOT_SPAN:
            frame._has_root = True
            frame.client_id = attrs.get("client_id", frame.client_id)
            frame.frame_no = attrs.get("frame", frame.frame_no)
            frame.captured_at = span.get("sim_start_s")
            frame.completed_at = span.get("sim_end_s")
            frame.status = attrs.get("status", "complete")
            if span.get("sim_dur_ms") is not None:
                frame.total_ms = span["sim_dur_ms"]
            return
        mapped = _STAGE_OF.get(name)
        if mapped is None:
            return
        stage, timebase = mapped
        if timebase == "sim":
            dur_ms = span.get("sim_dur_ms") or 0.0
        else:
            dur_ms = (span.get("wall_dur_us") or 0.0) / 1e3
        frame.stages[stage] = frame.stages.get(stage, 0.0) + dur_ms
        start_s = span.get("sim_start_s")
        if start_s is not None:
            frame.timeline.append((stage, start_s, dur_ms))
        if stage == "uplink":
            frame.attempts = attrs.get("attempts", frame.attempts)

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.frames)

    def records(self) -> List[FrameRecord]:
        return sorted(self.frames.values(), key=lambda f: f.trace_id)

    def complete_frames(self) -> List[FrameRecord]:
        return [f for f in self.records() if f.complete]

    def by_status(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for frame in self.frames.values():
            out[frame.status] = out.get(frame.status, 0) + 1
        return out

    def stage_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Table-4-style per-stage stats over complete frames (ms)."""
        import numpy as np

        frames = self.complete_frames()
        out: Dict[str, Dict[str, float]] = {}
        for stage in STAGES + ("total",):
            if stage == "total":
                values = [f.total_ms for f in frames if f.total_ms is not None]
            else:
                values = [f.stages[stage] for f in frames if stage in f.stages]
            if not values:
                continue
            arr = np.asarray(values, dtype=float)
            out[stage] = {
                "count": int(arr.size),
                "mean_ms": float(arr.mean()),
                "p50_ms": float(np.percentile(arr, 50)),
                "p95_ms": float(np.percentile(arr, 95)),
                "p99_ms": float(np.percentile(arr, 99)),
                "max_ms": float(arr.max()),
            }
        return out

    def summary_text(self) -> str:
        """Aligned per-stage breakdown (the `repro report` text view)."""
        breakdown = self.stage_breakdown()
        statuses = self.by_status()
        lines = [
            f"frames: {len(self.frames)} traced "
            f"({', '.join(f'{k}={v}' for k, v in sorted(statuses.items()))})",
            f"{'stage':<12} {'count':>6} {'mean':>9} {'p50':>9} "
            f"{'p95':>9} {'p99':>9} {'max':>9}  (ms)",
        ]
        for stage in STAGES + ("total",):
            row = breakdown.get(stage)
            if row is None:
                continue
            lines.append(
                f"{stage:<12} {row['count']:>6} {row['mean_ms']:>9.3f} "
                f"{row['p50_ms']:>9.3f} {row['p95_ms']:>9.3f} "
                f"{row['p99_ms']:>9.3f} {row['max_ms']:>9.3f}"
            )
        return "\n".join(lines)
