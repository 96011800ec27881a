"""Span-based tracing over both wall-clock and simulated time.

The evaluation pipeline runs real computation (tracking, BA, shared-
memory writes) *inside* a discrete-event simulation
(:class:`repro.net.simclock.SimClock`).  A span therefore records two
time bases:

* **wall time** (``time.perf_counter_ns``) — what the Python process
  actually spent, used for profiling the repro itself;
* **sim time** — the virtual clock the paper's latencies live on.  The
  tracer is bound to a clock (:meth:`Tracer.bind_clock`) and stamps
  every span with ``clock.now``; model-computed durations (GPU stage
  costs, merge budgets) are recorded with :meth:`Tracer.sim_event`.

Spans nest through context managers and export to JSONL (one span per line) or to the Chrome
``chrome://tracing`` / Perfetto JSON format, with wall-clock spans and
sim-time spans on two separate pseudo-processes.

**Frame-lifecycle tracing.**  A frame's life crosses many clock events
(capture, uplink delivery, GPU batch completion, downlink delivery), so
thread-local span nesting alone cannot stitch it together.  A
:class:`TraceContext` — ``(trace_id, span_id)`` — is the portable handle
that crosses those boundaries: :meth:`Tracer.open_trace` mints one per
frame, it rides the network :class:`~repro.net.transport.Message`
(surviving ARQ retransmits and receiver dedup), every stage attaches
its spans with :meth:`Tracer.child_span` / ``ctx=`` on
:meth:`Tracer.sim_event`, and :meth:`Tracer.close_trace` seals the root
when the pose lands back on the client.  Spans opened *inside* a
context-carrying span inherit its ``trace_id`` through the thread-local
stack, so one causally-linked tree per frame comes out the other end.

When tracing is disabled (the default) :meth:`Tracer.span` returns a
shared no-op context manager — instrumented hot paths cost one
attribute check.  Long runs can bound memory with ``capacity`` (spans
beyond it are counted in ``Tracer.dropped`` and the
``trace.spans_dropped`` metric) and/or stream every span to JSONL as it
closes (:meth:`Tracer.stream_to`, flushed via ``atexit`` so interrupted
sessions keep partial traces).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from .metrics import get_metrics

__all__ = [
    "Span", "TraceContext", "Tracer", "get_tracer", "load_jsonl",
]

_spans_dropped = get_metrics().counter(
    "trace.spans_dropped", "spans discarded because the tracer was at capacity"
)

_WALL_PID = 1   # Chrome pseudo-process for wall-clock spans
_SIM_PID = 2    # Chrome pseudo-process for sim-time spans


def _ensure_parent(path: str) -> None:
    """Create the output file's directory so a long run never dies at export."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


class _NoopSpan:
    """Do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class TraceContext:
    """Portable causal handle for one logical operation (e.g. a frame).

    Carries the trace id and the parent span id across boundaries the
    thread-local span stack cannot follow: network messages, simulated-
    clock callbacks, GPU batch completions.  Cheap and immutable in
    practice — pass it by reference, attach spans with
    :meth:`Tracer.child_span` or the ``ctx=`` keyword.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext(trace_id={self.trace_id}, span_id={self.span_id})"


class Span:
    """One traced operation; use as a context manager for nesting."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "depth", "tid",
        "wall_start_us", "wall_end_us",
        "sim_start_s", "sim_end_s", "sim_dur_ms",
        "attrs", "_tracer", "_remote",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.trace_id: Optional[int] = None
        self.depth = 0
        self.tid = threading.current_thread().name
        self.wall_start_us = 0.0
        self.wall_end_us: Optional[float] = None
        self.sim_start_s: Optional[float] = None
        self.sim_end_s: Optional[float] = None
        self.sim_dur_ms: Optional[float] = None
        self._remote = False          # parented to a TraceContext, not the stack

    # ------------------------------------------------------------- context
    def __enter__(self) -> "Span":
        self._tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------ derived
    @property
    def wall_dur_us(self) -> Optional[float]:
        if self.wall_end_us is None:
            return None
        return self.wall_end_us - self.wall_start_us

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "tid": self.tid,
            "wall_start_us": round(self.wall_start_us, 3),
            "wall_dur_us": (
                None if self.wall_dur_us is None else round(self.wall_dur_us, 3)
            ),
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.sim_start_s is not None:
            record["sim_start_s"] = round(self.sim_start_s, 9)
        if self.sim_end_s is not None:
            record["sim_end_s"] = round(self.sim_end_s, 9)
        if self.sim_dur_ms is not None:
            record["sim_dur_ms"] = round(self.sim_dur_ms, 6)
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Process-wide span recorder with a near-free disabled path."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        self.enabled = False
        self.capacity = capacity
        self.clock = None            # duck-typed: anything with a .now float
        self.spans: List[Span] = []
        self.dropped = 0
        self.output_path: Optional[str] = None   # reported by `repro info`
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._open_traces: Dict[int, Span] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()
        # Streaming JSONL sink (satellite: crash-safe partial traces).
        self._stream = None
        self._stream_path: Optional[str] = None
        self._stream_count = 0
        self._atexit_registered = False

    # ------------------------------------------------------- configuration
    def configure(
        self,
        enabled: bool = True,
        clock=None,
        capacity: Optional[int] = None,
    ) -> "Tracer":
        self.enabled = enabled
        if clock is not None:
            self.clock = clock
        if capacity is not None:
            self.capacity = capacity
        return self

    def bind_clock(self, clock) -> None:
        """Use ``clock.now`` as the sim-time base for subsequent spans."""
        self.clock = clock

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.dropped = 0
            self._ids = itertools.count(1)
            self._trace_ids = itertools.count(1)
            self._open_traces.clear()

    # ------------------------------------------------------------ streaming
    def stream_to(self, path: str, append: bool = False) -> None:
        """Write every span to ``path`` as it closes (one JSON line each).

        The sink is line-buffered and closed from an ``atexit`` hook, so
        an interrupted run keeps every span recorded up to the crash —
        unlike :meth:`export_jsonl`, which only writes at end of run.
        Spans are streamed even when the in-memory buffer is at
        capacity; the cap bounds RAM, not the on-disk trace.
        """
        self.close_stream()
        _ensure_parent(path)
        with self._lock:
            self._stream = open(
                path, "a" if append else "w", encoding="utf-8", buffering=1
            )
            self._stream_path = path
            self._stream_count = 0
        if not self._atexit_registered:
            atexit.register(self.close_stream)
            self._atexit_registered = True

    @property
    def stream_path(self) -> Optional[str]:
        """Path of the active streaming sink, or ``None``."""
        return self._stream_path

    def close_stream(self) -> int:
        """Flush and close the streaming sink; returns spans streamed."""
        with self._lock:
            count = self._stream_count
            if self._stream:
                try:
                    self._stream.flush()
                finally:
                    self._stream.close()
                self._stream = None
                self._stream_path = None
        return count

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, **attrs: Any):
        """Open a (nestable) span; returns a context manager.

        While the tracer is disabled this returns a shared no-op object
        without allocating a span.
        """
        if not self.enabled:
            return _NOOP
        return Span(self, name, attrs)

    def child_span(self, ctx: Optional[TraceContext], name: str, **attrs: Any):
        """Open a span causally parented to a remote :class:`TraceContext`.

        This is how a stage picks a frame's trace back up after an
        async boundary (message delivery, GPU batch completion) where
        the thread-local stack no longer holds the frame's root span.
        With ``ctx=None`` it degrades to a plain :meth:`span`, so call
        sites need no branching.
        """
        if not self.enabled:
            return _NOOP
        span = Span(self, name, attrs)
        if ctx is not None:
            span.parent_id = ctx.span_id
            span.trace_id = ctx.trace_id
            span.depth = 1
            span._remote = True
        return span

    def _start(self, span: Span) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span.span_id = next(self._ids)
        if not span._remote and parent is not None:
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        if span.trace_id is None and parent is not None:
            span.trace_id = parent.trace_id
        span.wall_start_us = time.perf_counter_ns() / 1e3
        if self.clock is not None:
            span.sim_start_s = self.clock.now
        stack.append(span)

    def _finish(self, span: Span) -> None:
        span.wall_end_us = time.perf_counter_ns() / 1e3
        if self.clock is not None:
            span.sim_end_s = self.clock.now
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:            # tolerate out-of-order exits
            stack.remove(span)
        self._record(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            if self._stream:
                self._stream.write(json.dumps(span.to_dict(), sort_keys=True))
                self._stream.write("\n")
                self._stream_count += 1
            if len(self.spans) >= self.capacity:
                self.dropped += 1
                _spans_dropped.inc()
                return
            self.spans.append(span)

    def sim_now(self) -> Optional[float]:
        return None if self.clock is None else self.clock.now

    def _parent_from(self, span: Span, ctx: Optional[TraceContext]) -> None:
        """Parent an event span to ``ctx`` or to the open stack top."""
        if ctx is not None:
            span.parent_id = ctx.span_id
            span.trace_id = ctx.trace_id
            span.depth = 1
            return
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
            span.trace_id = stack[-1].trace_id
            span.depth = stack[-1].depth + 1

    def sim_event(
        self,
        name: str,
        dur_ms: float,
        start_s: Optional[float] = None,
        tid: str = "sim",
        ctx: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> None:
        """Record a span whose duration is *simulated* (model-computed).

        ``start_s`` defaults to the bound clock's current time; the span
        is parented to ``ctx`` when given (frame-lifecycle stages),
        otherwise to whatever wall span is currently open, so JSONL
        consumers can still reconstruct the causal tree.
        """
        if not self.enabled:
            return
        if start_s is None:
            start_s = self.sim_now() or 0.0
        span = Span(self, name, attrs)
        span.span_id = next(self._ids)
        self._parent_from(span, ctx)
        span.tid = tid
        span.wall_start_us = time.perf_counter_ns() / 1e3
        span.wall_end_us = span.wall_start_us
        span.sim_start_s = start_s
        span.sim_end_s = start_s + dur_ms * 1e-3
        span.sim_dur_ms = dur_ms
        self._record(span)

    def instant(
        self, name: str, ctx: Optional[TraceContext] = None, **attrs: Any
    ) -> None:
        """Record a zero-duration marker at the current time(s)."""
        if not self.enabled:
            return
        span = Span(self, name, attrs)
        span.span_id = next(self._ids)
        self._parent_from(span, ctx)
        span.wall_start_us = time.perf_counter_ns() / 1e3
        span.wall_end_us = span.wall_start_us
        if self.clock is not None:
            span.sim_start_s = span.sim_end_s = self.clock.now
        self._record(span)

    # ----------------------------------------------------- frame lifecycles
    def open_trace(
        self, name: str, tid: str = "frame", **attrs: Any
    ) -> Optional[TraceContext]:
        """Start a new trace and return its portable context.

        The root span stays open — stamped with the current wall/sim
        time — until :meth:`close_trace` seals and records it; stages in
        between attach via :meth:`child_span` / ``ctx=``.  Returns
        ``None`` while tracing is disabled (every consumer treats a
        ``None`` context as "don't trace").
        """
        if not self.enabled:
            return None
        span = Span(self, name, attrs)
        span.span_id = next(self._ids)
        span.trace_id = next(self._trace_ids)
        span.tid = tid
        span.wall_start_us = time.perf_counter_ns() / 1e3
        if self.clock is not None:
            span.sim_start_s = self.clock.now
        with self._lock:
            self._open_traces[span.trace_id] = span
        return TraceContext(span.trace_id, span.span_id)

    def close_trace(self, ctx: Optional[TraceContext], **attrs: Any) -> None:
        """Seal a trace's root span (idempotent; ``None`` is a no-op)."""
        if ctx is None:
            return
        with self._lock:
            span = self._open_traces.pop(ctx.trace_id, None)
        if span is None:
            return
        span.attrs.update(attrs)
        span.wall_end_us = time.perf_counter_ns() / 1e3
        if self.clock is not None:
            span.sim_end_s = self.clock.now
            if span.sim_start_s is not None:
                span.sim_dur_ms = (span.sim_end_s - span.sim_start_s) * 1e3
        self._record(span)

    def close_open_traces(self, status: str = "unfinished") -> int:
        """Seal every still-open trace (end of run / interrupted frames)."""
        with self._lock:
            pending = list(self._open_traces.values())
            self._open_traces.clear()
        for span in pending:
            span.attrs.setdefault("status", status)
            span.wall_end_us = time.perf_counter_ns() / 1e3
            if self.clock is not None:
                span.sim_end_s = self.clock.now
                if span.sim_start_s is not None:
                    span.sim_dur_ms = (span.sim_end_s - span.sim_start_s) * 1e3
            self._record(span)
        return len(pending)

    def open_trace_count(self) -> int:
        return len(self._open_traces)

    # -------------------------------------------------------------- export
    def iter_spans(self) -> Iterator[Span]:
        with self._lock:
            yield from list(self.spans)

    def export_jsonl(self, path: str) -> int:
        """One JSON object per span; returns the number written."""
        count = 0
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.iter_spans():
                fh.write(json.dumps(span.to_dict(), sort_keys=True))
                fh.write("\n")
                count += 1
        return count

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """Build the Chrome ``traceEvents`` list (two pseudo-processes).

        Wall-clock spans land on pid 1 with their measured durations;
        spans carrying sim timings land on pid 2 at their simulated
        start/duration.  Thread names become Chrome thread metadata.
        """
        spans = list(self.iter_spans())
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": _WALL_PID, "tid": 0,
             "args": {"name": "wall-clock"}},
            {"name": "process_name", "ph": "M", "pid": _SIM_PID, "tid": 0,
             "args": {"name": "sim-time"}},
        ]
        tids: Dict[str, int] = {}

        def tid_of(name: str, pid: int) -> int:
            key = f"{pid}:{name}"
            if key not in tids:
                tids[key] = len(tids) + 1
                events.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tids[key], "args": {"name": name},
                })
            return tids[key]

        wall_base = min(
            (s.wall_start_us for s in spans), default=0.0
        )
        for span in spans:
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.trace_id is not None:
                args["trace_id"] = span.trace_id
            has_sim = span.sim_dur_ms is not None or (
                span.sim_start_s is not None
                and span.sim_end_s is not None
                and span.sim_end_s > span.sim_start_s
            )
            wall_dur = span.wall_dur_us
            if wall_dur is not None and not (has_sim and wall_dur == 0.0):
                wall_args = dict(args)
                if span.sim_start_s is not None:
                    wall_args["sim_t_s"] = round(span.sim_start_s, 9)
                events.append({
                    "name": span.name,
                    "ph": "X",
                    "pid": _WALL_PID,
                    "tid": tid_of(span.tid, _WALL_PID),
                    "ts": round(span.wall_start_us - wall_base, 3),
                    "dur": round(wall_dur, 3),
                    "args": wall_args,
                })
            if has_sim:
                sim_dur_ms = (
                    span.sim_dur_ms
                    if span.sim_dur_ms is not None
                    else (span.sim_end_s - span.sim_start_s) * 1e3
                )
                events.append({
                    "name": span.name,
                    "ph": "X",
                    "pid": _SIM_PID,
                    "tid": tid_of(span.tid, _SIM_PID),
                    "ts": round(span.sim_start_s * 1e6, 3),
                    "dur": round(sim_dur_ms * 1e3, 3),
                    "args": args,
                })
        return events

    def export_chrome(self, path: str) -> int:
        """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
        events = self.chrome_trace_events()
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.obs", "spans": len(self.spans),
                          "dropped": self.dropped},
        }
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(events)

    # ------------------------------------------------------------- queries
    def span_names(self) -> List[str]:
        return [s.name for s in self.iter_spans()]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.iter_spans() if s.name == name]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate per span name: count, total wall ms, total sim ms."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.iter_spans():
            row = out.setdefault(
                span.name, {"count": 0, "wall_ms": 0.0, "sim_ms": 0.0}
            )
            row["count"] += 1
            if span.wall_dur_us is not None:
                row["wall_ms"] += span.wall_dur_us / 1e3
            if span.sim_dur_ms is not None:
                row["sim_ms"] += span.sim_dur_ms
            elif span.sim_start_s is not None and span.sim_end_s is not None:
                row["sim_ms"] += (span.sim_end_s - span.sim_start_s) * 1e3
        return out


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load span records written by :meth:`Tracer.export_jsonl` /
    :meth:`Tracer.stream_to` — one dict per line, blank lines skipped."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER
