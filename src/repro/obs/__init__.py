"""Observability: structured logging, tracing, and metrics.

The paper's whole evaluation is a latency/throughput story (Tables 1-4,
Figs. 5-13); this package is the runtime instrumentation layer the rest
of the pipeline reports into.  Five pieces:

* :mod:`repro.obs.logging` — per-component named loggers with one
  ``configure()`` entry point;
* :mod:`repro.obs.trace` — nested spans stamped in both wall-clock and
  simulated time, exporting to JSONL and Chrome ``chrome://tracing``;
* :mod:`repro.obs.metrics` — counters, gauges and HDR-style histograms
  with p50/p95/p99 queries, exemplars, and text/JSON/Prometheus
  snapshots;
* :mod:`repro.obs.frames` — FrameLedger folding each frame's span tree
  into per-stage records (post-processing, not hot path);
* :mod:`repro.obs.report` — self-contained HTML waterfall report.

Everything is disabled by default and near-free while disabled; the CLI
(``repro session --trace out.json --metrics``) switches it on.  The
instrumentation modules (logging/trace/metrics) deliberately import
nothing from the rest of ``repro`` so any module can instrument itself
without cycles.
"""

from .frames import FrameLedger, FrameRecord
from .logging import configure as configure_logging
from .logging import get_logger, kv
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_metrics
from .report import render_report_html, write_report
from .trace import Span, TraceContext, Tracer, get_tracer, load_jsonl

__all__ = [
    "Counter",
    "FrameLedger",
    "FrameRecord",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "kv",
    "load_jsonl",
    "render_report_html",
    "write_report",
]
