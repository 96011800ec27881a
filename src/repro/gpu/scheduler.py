"""GSlice-style spatio-temporal GPU sharing across clients (§4.2.1).

SLAM-Share runs one tracking pipeline per client on a single server
GPU.  With *temporal* sharing only, kernels from different clients
serialize behind each other; with GSlice-style *spatial* sharing each
client gets a fraction of the SMs and kernels run concurrently at
proportionally reduced rate.  The scheduler plays kernel submissions on
the simulated clock and records per-client completion latencies, which
is what the GPU-sharing ablation measures.

Scale-out addition — **cross-client micro-batching**: every kernel
dispatch pays a fixed overhead (launch latency, descriptor uploads,
synchronization), so at tens of clients per-frame solo dispatches burn
more GPU time on overhead than on work.  With a
:class:`BatchingConfig`, kernels submitted within a coalescing window
are fused into one dispatch that pays the overhead once.  A per-client
fairness quota bounds how much of a batch any single client can claim
(no client starves at full load), and a p99-latency budget falls back
to an immediate solo dispatch when waiting out the window would blow
the budget on an otherwise idle GPU.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.simclock import SimClock
from ..obs import get_metrics, get_tracer
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.trace import TraceContext

_tracer = get_tracer()
_metrics = get_metrics()
# Private always-on registry backing per-scheduler latency histograms,
# independent of whether the CLI enabled global metrics.
_scheduler_stats = MetricsRegistry().configure(True)
_kernels_total = _metrics.counter("gpu.kernels", "kernels submitted")
_queue_delay_hist = _metrics.histogram(
    "gpu.queue_delay_ms", "kernel queueing delay (sim)", unit="ms"
)
_kernel_hist = _metrics.histogram(
    "gpu.kernel_ms", "kernel submit-to-finish latency (sim)", unit="ms"
)


@dataclass
class KernelRecord:
    client_id: int
    submitted_at: float
    started_at: float
    finished_at: float
    batch_id: int = -1            # -1: solo dispatch
    batch_size: int = 1
    #: True when the kernel duration came from a *measured* device wall
    #: time (``backend="gpu"`` on real hardware) rather than the
    #: calibrated latency model.
    measured: bool = False

    @property
    def queue_delay(self) -> float:
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at


@dataclass
class BatchingConfig:
    """Cross-client micro-batching policy.

    ``window_s`` — how long the first kernel of a batch waits for
    companions (``<= 0`` disables coalescing: every submission is a solo
    dispatch that still pays ``dispatch_overhead_s``, which is the
    unbatched A/B baseline).  ``max_batch`` caps kernels per dispatch;
    ``max_per_client`` caps one client's share of a batch (default: an
    even split, ``ceil(max_batch / clients_waiting)``).  When the GPU is
    free sooner than the window closes and the projected batched
    latency exceeds ``p99_budget_s``, the kernel is dispatched solo
    immediately instead of held.
    """

    window_s: float = 0.008
    max_batch: int = 24
    dispatch_overhead_s: float = 0.0012
    p99_budget_s: Optional[float] = 0.050
    max_per_client: Optional[int] = None


@dataclass
class _PendingKernel:
    client_id: int
    submitted_at: float
    duration: float
    on_done: Optional[callable] = field(default=None, compare=False)
    trace: Optional[TraceContext] = None
    measured: bool = False


class GpuScheduler:
    """Plays client kernel workloads under temporal or spatial sharing."""

    def __init__(
        self,
        clock: SimClock,
        mode: str = "spatial",
        n_clients: int = 1,
        saturation_clients: int = 4,
        batching: Optional[BatchingConfig] = None,
    ) -> None:
        if mode not in ("spatial", "temporal"):
            raise ValueError(f"unknown sharing mode {mode!r}")
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.clock = clock
        self.mode = mode
        self.n_clients = n_clients
        self.saturation_clients = saturation_clients
        self.batching = batching
        self.records: List[KernelRecord] = []
        self._busy_until = 0.0  # temporal mode / batched dispatch FIFO
        # Running aggregates: latency queries are O(1)/O(buckets) rather
        # than a rescan or sort of the full record list per call.
        self._latency_sum = 0.0
        self._latency_sums_by_client: Dict[int, float] = {}
        self._counts_by_client: Dict[int, int] = {}
        self._latency_hist = Histogram(
            "gpu.scheduler.latency", "per-scheduler kernel latency",
            _scheduler_stats, unit="s",
        )
        # Micro-batching state.
        self._pending: Dict[int, deque] = {}   # client_id -> FIFO of pending
        self._n_pending = 0
        self._flush_event = None
        self.batches_dispatched = 0
        self.solo_dispatches = 0
        self._batch_size_sum = 0

    @property
    def _slowdown(self) -> float:
        if self.mode == "spatial":
            return max(1.0, self.n_clients / self.saturation_clients)
        return 1.0

    def reset(self) -> None:
        """Clear all stats and pending work for a fresh session.

        Back-to-back sessions reusing one scheduler previously saw the
        prior run's records pollute ``mean_latency``/``p99_latency``;
        :mod:`repro.core.session` calls this at setup.
        """
        self.records.clear()
        self._busy_until = 0.0
        self._latency_sum = 0.0
        self._latency_sums_by_client.clear()
        self._counts_by_client.clear()
        self._latency_hist.reset()
        self._pending.clear()
        self._n_pending = 0
        if self._flush_event is not None:
            self.clock.cancel(self._flush_event)
            self._flush_event = None
        self.batches_dispatched = 0
        self.solo_dispatches = 0
        self._batch_size_sum = 0

    def pending_kernels(self) -> int:
        """Kernels waiting in the coalescing buffer (not yet dispatched)."""
        return self._n_pending

    @property
    def mean_batch_size(self) -> float:
        if self.batches_dispatched == 0:
            return 0.0
        return self._batch_size_sum / self.batches_dispatched

    def submit(self, client_id: int, duration_full_gpu: float,
               on_done: Optional[callable] = None,
               trace: Optional[TraceContext] = None,
               measured_s: Optional[float] = None) -> Optional[KernelRecord]:
        """Submit a kernel that needs ``duration_full_gpu`` seconds at 100%.

        Spatial mode: starts immediately; below GPU saturation
        (``n_clients <= saturation_clients``) it runs at full per-stream
        rate, beyond that proportionally slower.  Temporal mode: full
        rate, but FIFO-queued behind every other client's kernels.

        With batching configured, the kernel may instead be buffered
        until the coalescing window closes; in that case ``None`` is
        returned and the :class:`KernelRecord` is created at dispatch
        (``on_done`` still fires at the kernel's finish time).

        ``trace`` joins this kernel to a frame-lifecycle trace: the
        queue wait and the (possibly batched) kernel span are recorded
        against it, with ``batch_id`` in the span attrs.

        ``measured_s`` is a *measured* device-kernel wall time (the
        ``backend="gpu"`` tier on real hardware).  When given, it
        replaces ``duration_full_gpu`` — the calibrated model — as the
        kernel's duration, and the resulting record carries
        ``measured=True``.  The scheduling policy (sharing slowdown,
        batching, overheads) still applies on top, so measured kernels
        contend for the GPU exactly like modeled ones.
        """
        now = self.clock.now
        measured = measured_s is not None
        if measured:
            duration_full_gpu = measured_s
        if self.batching is not None:
            return self._submit_batched(client_id, duration_full_gpu,
                                        on_done, trace, measured=measured)
        if self.mode == "spatial":
            slowdown = self._slowdown
            start = now
            finish = now + duration_full_gpu * slowdown
        else:
            start = max(now, self._busy_until)
            finish = start + duration_full_gpu
            self._busy_until = finish
        record = KernelRecord(client_id, now, start, finish,
                              measured=measured)
        self._account(record, trace)
        if on_done is not None:
            self.clock.schedule_at(finish, on_done)
        return record

    # -------------------------------------------------------- micro-batching
    def _submit_batched(self, client_id: int, duration: float,
                        on_done: Optional[callable],
                        trace: Optional[TraceContext] = None,
                        measured: bool = False,
                        ) -> Optional[KernelRecord]:
        b = self.batching
        now = self.clock.now
        if b.window_s <= 0 or b.max_batch <= 1:
            return self._dispatch_solo(client_id, duration, on_done, trace,
                                       measured=measured)
        if b.p99_budget_s is not None:
            # Fall back to an immediate solo dispatch when the GPU will
            # be free before the window closes but waiting it out would
            # blow the latency budget (light load: batching buys nothing
            # and costs a window).
            gpu_free_in = max(0.0, self._busy_until - now)
            overhead = b.dispatch_overhead_s
            batched_est = (max(b.window_s, gpu_free_in) + overhead
                           + duration * self._slowdown)
            solo_est = gpu_free_in + overhead + duration * self._slowdown
            if batched_est > b.p99_budget_s and solo_est < batched_est:
                return self._dispatch_solo(client_id, duration, on_done, trace,
                                           measured=measured)
        self._pending.setdefault(client_id, deque()).append(
            _PendingKernel(client_id, now, duration, on_done, trace, measured)
        )
        self._n_pending += 1
        if self._flush_event is None:
            self._flush_event = self.clock.schedule(b.window_s, self._flush)
        return None

    def _dispatch_solo(self, client_id: int, duration: float,
                       on_done: Optional[callable],
                       trace: Optional[TraceContext] = None,
                       measured: bool = False) -> KernelRecord:
        b = self.batching
        now = self.clock.now
        start = max(now, self._busy_until)
        finish = start + b.dispatch_overhead_s + duration * self._slowdown
        self._busy_until = finish
        self.solo_dispatches += 1
        record = KernelRecord(client_id, now, start, finish,
                              measured=measured)
        self._account(record, trace)
        if on_done is not None:
            self.clock.schedule_at(finish, on_done)
        return record

    def _flush(self) -> None:
        """Close the window: fuse pending kernels into one dispatch."""
        self._flush_event = None
        if self._n_pending == 0:
            return
        b = self.batching
        now = self.clock.now
        # Fairness: round-robin across clients' FIFOs under a per-client
        # quota, so one flooding client cannot claim the whole batch.
        waiting = [q for q in self._pending.values() if q]
        quota = b.max_per_client or max(1, math.ceil(b.max_batch / len(waiting)))
        taken: List[_PendingKernel] = []
        counts: Dict[int, int] = {}
        progressed = True
        while len(taken) < b.max_batch and progressed:
            progressed = False
            for queue in waiting:
                if not queue or len(taken) >= b.max_batch:
                    continue
                cid = queue[0].client_id
                if counts.get(cid, 0) >= quota:
                    continue
                taken.append(queue.popleft())
                counts[cid] = counts.get(cid, 0) + 1
                progressed = True
        self._n_pending -= len(taken)
        start = max(now, self._busy_until)
        work = sum(item.duration for item in taken) * self._slowdown
        finish = start + b.dispatch_overhead_s + work
        self._busy_until = finish
        batch_id = self.batches_dispatched
        self.batches_dispatched += 1
        self._batch_size_sum += len(taken)
        for item in taken:
            record = KernelRecord(item.client_id, item.submitted_at, start,
                                  finish, batch_id=batch_id,
                                  batch_size=len(taken),
                                  measured=item.measured)
            self._account(record, item.trace)
            if item.on_done is not None:
                self.clock.schedule_at(finish, item.on_done)
        if self._n_pending:
            # Backlogged: reopen the window so leftovers (over-quota or
            # over-capacity kernels) dispatch next round, no earlier than
            # the GPU frees up so the next batch can fill further.
            next_at = max(now + b.window_s, self._busy_until)
            self._flush_event = self.clock.schedule_at(next_at, self._flush)

    def _account(self, record: KernelRecord,
                 trace: Optional[TraceContext] = None) -> None:
        client_id = record.client_id
        self.records.append(record)
        self._latency_sum += record.latency
        self._latency_sums_by_client[client_id] = (
            self._latency_sums_by_client.get(client_id, 0.0) + record.latency
        )
        self._counts_by_client[client_id] = (
            self._counts_by_client.get(client_id, 0) + 1
        )
        self._latency_hist.record(record.latency)
        _kernels_total.inc()
        trace_id = trace.trace_id if trace is not None else None
        _queue_delay_hist.record(record.queue_delay * 1e3, trace_id=trace_id)
        _kernel_hist.record(record.latency * 1e3, trace_id=trace_id)
        if _tracer.enabled:
            if trace is not None and record.queue_delay > 0.0:
                _tracer.sim_event(
                    "gpu.queue_wait", record.queue_delay * 1e3,
                    start_s=record.submitted_at, ctx=trace,
                    tid=f"gpu-client-{client_id}",
                    batch_id=record.batch_id,
                )
            _tracer.sim_event(
                "gpu.kernel",
                (record.finished_at - record.started_at) * 1e3,
                start_s=record.started_at,
                ctx=trace,
                tid=f"gpu-client-{client_id}",
                client_id=client_id,
                mode=self.mode,
                queue_delay_ms=record.queue_delay * 1e3,
                batch_id=record.batch_id,
                batch_size=record.batch_size,
            )

    def mean_latency(self, client_id: Optional[int] = None) -> float:
        """Mean kernel latency, from running sums (no record rescans)."""
        if client_id is None:
            if not self.records:
                return 0.0
            return self._latency_sum / len(self.records)
        count = self._counts_by_client.get(client_id, 0)
        if count == 0:
            return 0.0
        return self._latency_sums_by_client[client_id] / count

    def p99_latency(self) -> float:
        """Approximate p99 from the running histogram (~5% relative error).

        The geometric-bucket histogram answers percentiles in O(buckets)
        instead of sorting the full record list on every call.
        """
        return self._latency_hist.p99
