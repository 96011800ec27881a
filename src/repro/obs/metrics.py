"""Counters, gauges and HDR-style histograms for the repro pipeline.

A single process-wide :class:`MetricsRegistry` hands out named
instruments.  Instruments are cheap module-level singletons: an
``inc``/``record`` on a disabled registry is one attribute check and a
return, so instrumented hot paths (map publishes, link sends) stay
near-free until the CLI turns metrics on.

Histograms are HDR-style: values land in geometrically spaced buckets
(growth factor 1.1 ≈ 5 % relative resolution over any dynamic range),
so p50/p95/p99 are O(buckets) with bounded relative error and constant
memory — no sample retention.

Two export surfaces exist: JSON snapshots (:meth:`MetricsRegistry.
snapshot` / ``export_json``) and Prometheus text exposition
(:meth:`MetricsRegistry.render_prometheus`), where histograms become
cumulative ``_bucket{le=...}`` series derived from the geometric
buckets.  Histograms optionally capture **exemplars**: a recorded value
may carry a ``trace_id``, kept per bucket, so a p99 bucket links back
to one concrete frame trace (rendered OpenMetrics-style as
``# {trace_id="..."} value`` on the bucket line).
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_metrics",
]

_GROWTH = 1.1
_LOG_GROWTH = math.log(_GROWTH)
#: Max buckets carrying an exemplar per histogram; the *lowest* buckets
#: are evicted first so tail (high-latency) exemplars survive.
_EXEMPLAR_CAP = 64
_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


class Counter:
    """Monotonically increasing count (events, bytes, ...)."""

    __slots__ = ("name", "help", "value", "_reg")

    def __init__(self, name: str, help: str, reg: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self.value = 0
        self._reg = reg

    def inc(self, n: float = 1) -> None:
        if self._reg.enabled:
            self.value += n


class Gauge:
    """Last-written value (utilization, queue depth, ...)."""

    __slots__ = ("name", "help", "value", "_reg")

    def __init__(self, name: str, help: str, reg: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._reg = reg

    def set(self, value: float) -> None:
        if self._reg.enabled:
            self.value = value

    def add(self, delta: float) -> None:
        if self._reg.enabled:
            self.value += delta


class Histogram:
    """Geometric-bucket (HDR-style) histogram with percentile queries."""

    __slots__ = ("name", "help", "unit", "_reg", "_buckets", "_zero",
                 "count", "total", "min", "max", "_lock", "_exemplars")

    def __init__(self, name: str, help: str, reg: "MetricsRegistry",
                 unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self._reg = reg
        self._buckets: Dict[int, int] = {}
        self._zero = 0          # values <= 0 (or exactly zero durations)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()
        # bucket index -> (value, trace_id): tail samples keep their
        # trace so a slow percentile links to a concrete frame trace.
        self._exemplars: Dict[int, Tuple[float, Any]] = {}

    def record(self, value: float, trace_id: Any = None) -> None:
        if not self._reg.enabled:
            return
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if value <= 0.0:
                self._zero += 1
                return
            index = math.floor(math.log(value) / _LOG_GROWTH)
            self._buckets[index] = self._buckets.get(index, 0) + 1
            if trace_id is not None:
                self._exemplars[index] = (value, trace_id)
                if len(self._exemplars) > _EXEMPLAR_CAP:
                    del self._exemplars[min(self._exemplars)]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ~5 % relative error."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = self._zero
        if seen and seen >= rank:
            return 0.0
        if rank <= seen:
            # q == 0 with no zero-bucket samples: the quantile is the
            # observed minimum, not the (empty) zero bucket.
            return self.min
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                # Geometric bucket midpoint (clamped to observed extremes).
                mid = _GROWTH ** index * (1.0 + _GROWTH) / 2.0
                return min(max(mid, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def snapshot(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def exemplars(self) -> Dict[float, Any]:
        """Captured exemplars as ``{value: trace_id}`` (ascending value)."""
        with self._lock:
            return {
                value: trace_id
                for _, (value, trace_id) in sorted(self._exemplars.items())
            }

    def reset(self) -> None:
        """Zero the histogram in place (references stay valid)."""
        with self._lock:
            self._buckets.clear()
            self._zero = 0
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = -math.inf
            self._exemplars.clear()


class MetricsRegistry:
    """Process-wide named instruments plus snapshot/rendering."""

    def __init__(self) -> None:
        self.enabled = False
        self.output_path: Optional[str] = None   # reported by `repro info`
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------- configuration
    def configure(self, enabled: bool = True) -> "MetricsRegistry":
        self.enabled = enabled
        return self

    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        with self._lock:
            for inst in self._instruments.values():
                if isinstance(inst, Counter):
                    inst.value = 0
                elif isinstance(inst, Gauge):
                    inst.value = 0.0
                elif isinstance(inst, Histogram):
                    inst.reset()

    # --------------------------------------------------------- instruments
    def _get_or_create(self, name: str, cls, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name=name, reg=self, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "", unit: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, help=help, unit=unit)

    # -------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        with self._lock:
            instruments = dict(self._instruments)
        for name, inst in sorted(instruments.items()):
            if isinstance(inst, Counter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.value
            elif isinstance(inst, Histogram):
                histograms[name] = inst.snapshot()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def render_text(self) -> str:
        """Aligned, human-readable snapshot (the `repro stats` view)."""
        snap = self.snapshot()
        lines: List[str] = []
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<36} {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<36} {value:.3f}")
        if snap["histograms"]:
            lines.append("histograms (count / mean / p50 / p95 / p99):")
            for name, h in snap["histograms"].items():
                if h["count"] == 0:
                    lines.append(f"  {name:<36} 0")
                    continue
                unit = self._instruments[name].unit
                lines.append(
                    f"  {name:<36} {h['count']:>7}  "
                    f"{h['mean']:>10.3f} {h['p50']:>10.3f} "
                    f"{h['p95']:>10.3f} {h['p99']:>10.3f} {unit}"
                )
        return "\n".join(lines) if lines else "(no metrics registered)"

    def render_prometheus(self, prefix: str = "repro_",
                          exemplars: bool = True) -> str:
        """Prometheus text exposition of every registered instrument.

        Counters gain the conventional ``_total`` suffix; histograms are
        emitted as cumulative ``_bucket{le="..."}`` series (upper edges
        taken from the geometric HDR buckets) plus ``_sum``/``_count``.
        With ``exemplars=True``, buckets that captured a trace-linked
        sample append it OpenMetrics-style (``# {trace_id="..."} v``) so
        a tail bucket points at a concrete frame trace.
        """
        with self._lock:
            instruments = dict(self._instruments)
        lines: List[str] = []
        for name in sorted(instruments):
            inst = instruments[name]
            prom = prefix + _PROM_BAD_CHARS.sub("_", name)
            if isinstance(inst, Counter):
                if inst.help:
                    lines.append(f"# HELP {prom}_total {inst.help}")
                lines.append(f"# TYPE {prom}_total counter")
                lines.append(f"{prom}_total {_prom_num(inst.value)}")
            elif isinstance(inst, Gauge):
                if inst.help:
                    lines.append(f"# HELP {prom} {inst.help}")
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom} {_prom_num(inst.value)}")
            elif isinstance(inst, Histogram):
                lines.extend(_render_prom_histogram(prom, inst, exemplars))
        return "\n".join(lines) + "\n"

    def export_prometheus(self, path: str, prefix: str = "repro_") -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_prometheus(prefix=prefix))

    def export_json(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)


def _prom_num(value: float) -> str:
    """Render a number the way Prometheus text format expects."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _render_prom_histogram(prom: str, hist: Histogram,
                           exemplars: bool) -> List[str]:
    lines: List[str] = []
    if hist.help:
        lines.append(f"# HELP {prom} {hist.help}")
    lines.append(f"# TYPE {prom} histogram")
    with hist._lock:
        buckets = sorted(hist._buckets.items())
        zero = hist._zero
        count = hist.count
        total = hist.total
        bucket_exemplars = dict(hist._exemplars)
    cumulative = 0
    if zero:
        cumulative += zero
        lines.append(f'{prom}_bucket{{le="0"}} {cumulative}')
    for index, n in buckets:
        cumulative += n
        upper = _GROWTH ** (index + 1)
        line = f'{prom}_bucket{{le="{upper:.6g}"}} {cumulative}'
        if exemplars and index in bucket_exemplars:
            value, trace_id = bucket_exemplars[index]
            line += f' # {{trace_id="{trace_id}"}} {_prom_num(float(value))}'
        lines.append(line)
    lines.append(f'{prom}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{prom}_sum {_prom_num(float(total))}")
    lines.append(f"{prom}_count {count}")
    return lines


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry singleton."""
    return _METRICS
