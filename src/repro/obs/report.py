"""Self-contained HTML run report: per-frame waterfalls + Table-4 view.

Renders a :class:`~repro.obs.frames.FrameLedger` into a single HTML
file with no external assets: a per-stage breakdown table (the paper's
Table-4 shape), and a waterfall per frame — absolutely positioned bars
on a shared sim-time axis so retransmit-inflated uplinks and slow
tracking kernels are visible at a glance.  The slowest frames are
rendered first; the p95 exemplar frame (when the ledger was folded
into a registry with exemplars) is flagged so "where did the p95 go?"
has a one-click answer.  Pure post-processing — never imported by the hot path.
"""

from __future__ import annotations

import html
from typing import Any, Iterable, List, Optional

from .frames import STAGES, FrameLedger, FrameRecord

__all__ = ["render_report_html", "write_report"]

_STAGE_COLORS = {
    "uplink": "#4e79a7",
    "admission": "#bab0ab",
    "tracking": "#f28e2b",
    "lock_wait": "#edc948",
    "merge": "#59a14f",
    "downlink": "#af7aa1",
}

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 28px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { padding: 3px 10px; border-bottom: 1px solid #ddd; text-align: right; }
th:first-child, td:first-child { text-align: left; }
.legend span { display: inline-block; margin-right: 14px; }
.swatch { display: inline-block; width: 10px; height: 10px; margin-right: 4px;
          border-radius: 2px; }
.frame { margin: 10px 0; }
.meta { color: #555; font-size: 12px; margin-bottom: 2px; }
.lane { position: relative; height: 18px; background: #f4f4f4;
        border-radius: 3px; }
.bar { position: absolute; top: 2px; height: 14px; border-radius: 2px;
       min-width: 1px; }
.exemplar { outline: 2px solid #d62728; outline-offset: 2px; }
.tag { background: #d62728; color: #fff; border-radius: 3px; padding: 0 5px;
       font-size: 11px; margin-left: 6px; }
"""


def _fmt(value: Optional[float], digits: int = 3) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _breakdown_table(ledger: FrameLedger) -> List[str]:
    rows = ledger.stage_breakdown()
    out = ["<h2>Per-stage breakdown (complete frames)</h2>", "<table>",
           "<tr><th>stage</th><th>count</th><th>mean ms</th><th>p50 ms</th>"
           "<th>p95 ms</th><th>p99 ms</th><th>max ms</th></tr>"]
    for stage in STAGES + ("total",):
        row = rows.get(stage)
        if row is None:
            continue
        out.append(
            f"<tr><td>{html.escape(stage)}</td><td>{row['count']}</td>"
            f"<td>{row['mean_ms']:.3f}</td><td>{row['p50_ms']:.3f}</td>"
            f"<td>{row['p95_ms']:.3f}</td><td>{row['p99_ms']:.3f}</td>"
            f"<td>{row['max_ms']:.3f}</td></tr>"
        )
    out.append("</table>")
    return out


def _legend() -> str:
    parts = "".join(
        f'<span><i class="swatch" style="background:{color}"></i>'
        f"{html.escape(stage)}</span>"
        for stage, color in _STAGE_COLORS.items()
    )
    return f'<p class="legend">{parts}</p>'


def _waterfall(frame: FrameRecord, exemplar: bool = False) -> List[str]:
    if frame.captured_at is None or not frame.timeline:
        return []
    t0 = frame.captured_at
    span_ms = max(
        frame.total_ms or 0.0,
        max((start - t0) * 1e3 + dur for (_, start, dur) in frame.timeline),
        1e-6,
    )
    tag = '<span class="tag">p95 exemplar</span>' if exemplar else ""
    out = [
        f'<div class="frame{" exemplar" if exemplar else ""}">',
        f'<div class="meta">trace {frame.trace_id} · client '
        f"{frame.client_id} · frame {frame.frame_no} · "
        f"{_fmt(frame.total_ms)} ms · status {html.escape(frame.status)}"
        f"{' · ' + str(frame.attempts) + ' tx' if frame.attempts > 1 else ''}"
        f"{tag}</div>",
        '<div class="lane">',
    ]
    for stage, start_s, dur_ms in sorted(frame.timeline, key=lambda x: x[1]):
        left = (start_s - t0) * 1e3 / span_ms * 100.0
        width = max(dur_ms / span_ms * 100.0, 0.15)
        color = _STAGE_COLORS.get(stage, "#999")
        out.append(
            f'<div class="bar" style="left:{left:.2f}%;width:{width:.2f}%;'
            f'background:{color}" title="{html.escape(stage)}: '
            f'{dur_ms:.3f} ms"></div>'
        )
    out.extend(["</div>", "</div>"])
    return out


def render_report_html(ledger: FrameLedger, title: str = "repro run report",
                       max_frames: int = 40,
                       exemplar_trace_ids: Iterable[int] = ()) -> str:
    """Render the ledger as one self-contained HTML document."""
    exemplars = set(exemplar_trace_ids)
    statuses = ledger.by_status()
    status_text = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>{len(ledger)} traced frames ({html.escape(status_text)}); "
        f"{ledger.unattributed} unattributed spans.</p>",
    ]
    parts.extend(_breakdown_table(ledger))
    complete = ledger.complete_frames()
    slowest = sorted(complete, key=lambda f: f.total_ms or 0.0, reverse=True)
    shown = slowest[:max_frames]
    parts.append(f"<h2>Frame waterfalls — slowest {len(shown)} "
                 f"of {len(complete)}</h2>")
    parts.append(_legend())
    for frame in shown:
        parts.extend(_waterfall(frame, exemplar=frame.trace_id in exemplars))
    incomplete = [f for f in ledger.records() if not f.complete]
    if incomplete:
        parts.append(f"<h2>Incomplete frames ({len(incomplete)})</h2><table>"
                     "<tr><th>trace</th><th>client</th><th>frame</th>"
                     "<th>status</th><th>spans</th></tr>")
        for frame in incomplete[:max_frames]:
            parts.append(
                f"<tr><td>{frame.trace_id}</td><td>{frame.client_id}</td>"
                f"<td>{frame.frame_no}</td>"
                f"<td>{html.escape(frame.status)}</td>"
                f"<td>{frame.n_spans}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(ledger: FrameLedger, path: str, **kwargs: Any) -> str:
    """Write the HTML report to ``path`` and return the path."""
    import os

    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report_html(ledger, **kwargs))
    return path
