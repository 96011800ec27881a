"""GSlice-style spatio-temporal GPU sharing across clients (§4.2.1).

SLAM-Share runs one tracking pipeline per client on a single server
GPU.  With *temporal* sharing only, kernels from different clients
serialize behind each other; with GSlice-style *spatial* sharing each
client gets a fraction of the SMs and kernels run concurrently at
proportionally reduced rate.  The scheduler plays kernel submissions on
the simulated clock and records per-client completion latencies, which
is what the GPU-sharing ablation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..obs import get_metrics, get_tracer
from ..obs.trace import TraceContext
from .device import GpuCostModel

if TYPE_CHECKING:  # the slam kernels import this package for .array
    from ..net.simclock import SimClock

_tracer = get_tracer()
_metrics = get_metrics()
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
    #: True when the kernel duration is a *measured* host wall time of
    #: the stage (ROADMAP item 10's seam) rather than the calibrated
    #: latency model.
    measured: bool = False

    @property
    def queue_delay(self) -> float:
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at


class GpuScheduler:
    """Plays client kernel workloads under temporal or spatial sharing.

    Spatial mode runs every kernel at once, slowed by
    :meth:`GpuCostModel.sharing_slowdown` for an even ``1/n_clients``
    share of the GPU; temporal mode runs each at full rate, FIFO.
    """

    def __init__(
        self,
        clock: "SimClock",
        mode: str = "spatial",
        n_clients: int = 1,
    ) -> None:
        if mode not in ("spatial", "temporal"):
            raise ValueError(f"unknown sharing mode {mode!r}")
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.clock = clock
        self.mode = mode
        self.n_clients = n_clients
        self._slowdown = (
            GpuCostModel().sharing_slowdown(1.0 / n_clients)
            if mode == "spatial" else 1.0
        )
        #: Every kernel played, in submission order: the one record a
        #: caller reads latencies from.
        self.records: List[KernelRecord] = []
        self._busy_until = 0.0  # temporal mode FIFO

    def submit(self, client_id: int, duration_full_gpu: float,
               on_done: Optional[callable] = None,
               trace: Optional[TraceContext] = None,
               measured_s: Optional[float] = None) -> KernelRecord:
        """Submit a kernel that needs ``duration_full_gpu`` seconds at 100%.

        Spatial mode: starts immediately; below GPU saturation
        (``n_clients <= GpuCostModel.saturation_clients``) it runs at
        full per-stream rate, beyond that proportionally slower.  Temporal
        mode: full rate, but FIFO-queued behind every other client's
        kernels.  ``on_done`` fires on the clock at the kernel's finish.

        ``trace`` joins this kernel to a frame-lifecycle trace: the
        queue wait and the kernel span are recorded against it.

        ``measured_s`` is the stage's *measured* host wall time (ROADMAP
        item 10's seam: let measured time drive the clock).  When given,
        it replaces ``duration_full_gpu`` — the calibrated model — as the
        kernel's duration, and the resulting record carries
        ``measured=True``.  The sharing policy still applies on top, so
        measured kernels contend for the GPU exactly like modeled ones.
        """
        now = self.clock.now
        measured = measured_s is not None
        if measured:
            duration_full_gpu = measured_s
        if self.mode == "spatial":
            start = now
            finish = now + duration_full_gpu * self._slowdown
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

    def _account(self, record: KernelRecord,
                 trace: Optional[TraceContext] = None) -> None:
        client_id = record.client_id
        self.records.append(record)
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
            )
