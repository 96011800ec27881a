"""One repeat of one workload, run in a process of its own.

Repeats inside one process do not measure the same thing twice (three
4-client sessions in a row raised peak RSS from 388 to 665 MB), so the
runner starts this module's :func:`run_repeat` in a fresh interpreter for
every repeat and reads the result from the last line of its standard
output.
"""

from __future__ import annotations

import gc
import os
import resource
from time import perf_counter
from typing import Dict, Optional, Sequence

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def host_calib_ms() -> float:
    """Best of five runs of a fixed numpy kernel (~10 ms on the 2-core host).

    Written into every result so absolute numbers from two machines, or
    from a quiet and a disturbed moment of one machine, can be told
    apart.  The minimum is used because interference only ever adds time.
    """
    base = np.arange(240 * 320, dtype=np.float32).reshape(240, 320) % 251
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        x = base
        for _ in range(100):
            x = np.maximum(x[1:-1, 1:-1], x[:-2, 2:]) * 0.5 + x[1:-1, 1:-1] * 0.5
            x = np.pad(x, 1)
        float(x.sum())
        best = min(best, (perf_counter() - start) * 1e3)
    return best


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` of this process (KiB on Linux), plus its children's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_repeat(name: str, seed: int, seconds: float, trace: bool,
               setup_only: bool, out_dir: Optional[str]) -> Dict[str, object]:
    # Set-up starts here, after the standard library and numpy: the first
    # import of repro, input generation, construction and the warm-up.
    setup_start = perf_counter()
    from . import workloads
    from .tracing import SpanRecorder

    workload = workloads.WORKLOADS[name](seed, seconds)
    workload.setup()
    setup_s = perf_counter() - setup_start
    result: Dict[str, object] = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": trace,
        "setup_s": setup_s,
    }
    if setup_only:
        return result
    rec = None
    if trace:
        rec = SpanRecorder()
        workload.install_trace(rec)
    calib_before = host_calib_ms()
    gc.collect()
    m = workload.run(rec)
    rss_mb = peak_rss_mb(workload.rss_children)
    calib_after = host_calib_ms()
    result.update({
        "frames": m.frames, "wall_s": m.wall_s, "outside_s": m.outside_s,
        "frame_ms": m.frame_ms, "attempted": m.attempted, "failed": m.failed,
        "peak_rss_mb": rss_mb,
        "host_calib_ms": [calib_before, calib_after],
        "info": m.info,
    })
    if rec is not None:
        # Before the checks, which call wrapped layers themselves.
        layers = workload.layer_metrics(rec, m)
        # Against the untraced frames_per_s this is the tracing overhead.
        layers["perf.trace.frames_per_s"] = (m.frames / m.wall_s, "1/s")
        result["layers"] = layers
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"{name}.seed{seed}.spans.jsonl")
            result["spans_path"] = path
            result["spans"] = rec.write_jsonl(path)
    result["checks"] = [(check, bool(ok), detail)
                        for check, ok, detail in workload.check(m)]
    return result
