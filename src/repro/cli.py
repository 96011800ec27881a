"""Command-line interface for the SLAM-Share reproduction.

Subcommands::

    python -m repro.cli session  --traces MH04 MH05 --duration 12
    python -m repro.cli baseline --traces MH04 MH05 --duration 12
    python -m repro.cli stats    --traces MH04 MH05 --duration 8
    python -m repro.cli snapshot --traces MH04 MH05 --out map.snap
    python -m repro.cli restore  map.snap --traces MH05
    python -m repro.cli report   run.jsonl --html report.html
    python -m repro.cli info

``session`` runs a SLAM-Share multi-client session; ``baseline`` the
Edge-SLAM-style comparison; ``stats`` runs a session with full
observability on and prints the aggregated metrics/span summary;
``report`` folds a span JSONL file into the per-frame / per-stage
breakdown (and optionally an HTML waterfall report); ``info`` prints
the available traces, shaping profiles and the current observability
state.

Observability flags (session/baseline/stats)::

    --trace out.json        write a Chrome-trace (chrome://tracing) file
    --trace-jsonl out.jsonl write one JSON span per line
    --trace-stream          stream spans to --trace-jsonl as they close
                            (crash-safe; atexit-flushed) instead of
                            exporting at end of run
    --trace-capacity N      cap the in-memory span buffer (excess spans
                            are counted in trace.spans_dropped)
    --metrics               print a metrics snapshot after the run
    --metrics-out m.json    write the metrics snapshot as JSON
    --metrics-prom m.prom   write Prometheus text exposition (with
                            trace-id exemplars on histogram tails)
    --log-level debug       structured logging verbosity
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .core import (
    BaselineConfig,
    BaselineSession,
    ClientScenario,
    SlamShareConfig,
    SlamShareSession,
)
from .datasets import PAPER_TRACES, make_dataset
from .net import ALL_PROFILES
from .obs import configure_logging, get_logger, get_metrics, get_tracer

PROFILE_BY_NAME = {p.name: p for p in ALL_PROFILES}

_log = get_logger("cli")

LOG_LEVELS = ("debug", "info", "warning", "error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLAM-Share (CoNEXT 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--log-level", choices=LOG_LEVELS, default="info",
                       help="structured-logging verbosity")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a Chrome-trace JSON file of the run")
        p.add_argument("--trace-jsonl", metavar="PATH", default=None,
                       help="write spans as JSON lines")
        p.add_argument("--trace-stream", action="store_true",
                       help="stream spans to --trace-jsonl as they close "
                            "(crash-safe) instead of exporting at end")
        p.add_argument("--trace-capacity", type=int, metavar="N", default=None,
                       help="cap the in-memory span buffer at N spans")
        p.add_argument("--metrics", action="store_true",
                       help="collect and print runtime metrics")
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the metrics snapshot as JSON")
        p.add_argument("--metrics-prom", metavar="PATH", default=None,
                       help="write Prometheus text exposition")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--traces", nargs="+", default=["MH04", "MH05"],
            help="one dataset trace per client (first client starts the map)",
        )
        p.add_argument("--duration", type=float, default=12.0,
                       help="seconds of each trace to run")
        p.add_argument("--rate", type=float, default=10.0,
                       help="camera frame rate (Hz)")
        p.add_argument("--join-gap", type=float, default=4.0,
                       help="seconds between client join times")
        p.add_argument(
            "--shaping", choices=sorted(PROFILE_BY_NAME), default=None,
            help="tc-style link shaping profile",
        )
        p.add_argument("--seed", type=int, default=7)
        add_obs(p)

    session = sub.add_parser("session", help="run a SLAM-Share session")
    add_common(session)
    baseline = sub.add_parser("baseline", help="run the Edge-SLAM baseline")
    add_common(baseline)
    baseline.add_argument("--hold-down-frames", type=int, default=50)
    stats = sub.add_parser(
        "stats", help="run a session with observability on, print stats"
    )
    add_common(stats)
    snapshot = sub.add_parser(
        "snapshot", help="run a session, then persist the global map to disk"
    )
    add_common(snapshot)
    snapshot.add_argument("--out", required=True, metavar="DIR",
                          help="snapshot directory (atomically replaced)")
    snapshot.add_argument("--max-keyframes", type=int, default=None,
                          help="global-map keyframe budget (LRU eviction)")
    snapshot.add_argument("--max-points", type=int, default=None,
                          help="global-map map-point budget")
    restore = sub.add_parser(
        "restore",
        help="restore a snapshot and relocalize a fresh client into it",
    )
    restore.add_argument("snapshot", metavar="DIR",
                         help="snapshot directory written by `snapshot`")
    add_common(restore)
    restore.add_argument("--client-id", type=int, default=None,
                         help="joining client's id (default: first id range "
                              "unused by the snapshot)")
    report = sub.add_parser(
        "report", help="fold a span JSONL file into per-frame breakdowns"
    )
    report.add_argument("jsonl", metavar="SPANS_JSONL",
                        help="span file written by --trace-jsonl")
    report.add_argument("--html", metavar="PATH", default=None,
                        help="also render an HTML waterfall report")
    report.add_argument("--max-frames", type=int, default=40,
                        help="waterfalls rendered in the HTML report")
    report.add_argument("--log-level", choices=LOG_LEVELS, default="info")
    info = sub.add_parser("info", help="list traces and shaping profiles")
    add_obs(info)
    return parser


def _scenarios(args) -> List[ClientScenario]:
    scenarios = []
    for i, trace in enumerate(args.traces):
        dataset = make_dataset(trace, duration=args.duration, rate=args.rate)
        scenarios.append(
            ClientScenario(
                client_id=i,
                dataset=dataset,
                start_time=i * args.join_gap,
                oracle_seed=args.seed + 2 * i,
                imu_seed=args.seed + 2 * i + 1,
            )
        )
    return scenarios


def _config(args) -> SlamShareConfig:
    config = SlamShareConfig(camera_fps=args.rate, render_video_frames=False)
    if args.shaping is not None:
        config.shaping = PROFILE_BY_NAME[args.shaping]
    return config


# ------------------------------------------------------------------ obs glue
def _setup_obs(args) -> None:
    """Enable tracing/metrics according to the parsed CLI flags."""
    tracer = get_tracer()
    metrics = get_metrics()
    want_trace = bool(
        getattr(args, "trace", None) or getattr(args, "trace_jsonl", None)
    )
    want_metrics = bool(
        getattr(args, "metrics", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "metrics_prom", None)
    )
    if args.command == "stats":
        want_trace = True
        want_metrics = True
    if want_trace:
        tracer.reset()
        tracer.configure(
            enabled=True, capacity=getattr(args, "trace_capacity", None)
        )
        tracer.output_path = (
            getattr(args, "trace", None) or getattr(args, "trace_jsonl", None)
        )
        if getattr(args, "trace_stream", False):
            jsonl = getattr(args, "trace_jsonl", None)
            if jsonl is None:
                raise SystemExit("--trace-stream requires --trace-jsonl PATH")
            tracer.stream_to(jsonl)
    if want_metrics:
        metrics.reset()
        metrics.configure(enabled=True)
        metrics.output_path = getattr(args, "metrics_out", None)


def _finish_obs(args) -> None:
    """Export trace/metrics output after a run."""
    tracer = get_tracer()
    metrics = get_metrics()
    trace_path = getattr(args, "trace", None)
    if trace_path:
        n = tracer.export_chrome(trace_path)
        _log.info("trace: wrote %d events to %s (chrome://tracing)",
                  n, trace_path)
    jsonl_path = getattr(args, "trace_jsonl", None)
    if jsonl_path:
        if tracer.stream_path == jsonl_path:
            n = tracer.close_stream()
            _log.info("trace: streamed %d spans to %s", n, jsonl_path)
        else:
            n = tracer.export_jsonl(jsonl_path)
            _log.info("trace: wrote %d spans to %s", n, jsonl_path)
    if tracer.dropped:
        _log.warning("trace: %d spans dropped at capacity %d",
                     tracer.dropped, tracer.capacity)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        metrics.export_json(metrics_out)
        _log.info("metrics: wrote snapshot to %s", metrics_out)
    metrics_prom = getattr(args, "metrics_prom", None)
    if metrics_prom:
        metrics.export_prometheus(metrics_prom)
        _log.info("metrics: wrote Prometheus exposition to %s", metrics_prom)
    if getattr(args, "metrics", False):
        _log.info("metrics snapshot:\n%s", metrics.render_text())


# --------------------------------------------------------------- subcommands
def cmd_session(args) -> int:
    session = SlamShareSession(_scenarios(args), _config(args),
                               ate_sample_interval=1.0)
    result = session.run()
    _log.info(f"session: {result.duration:.1f} s simulated, "
              f"{result.server.global_map.summary()}")
    for merge in result.merges:
        _log.info(f"  merge: client {merge.client_id} at "
                  f"t={merge.session_time:.1f} s in {merge.merge_ms:.0f} ms")
    for client_id, outcome in sorted(result.outcomes.items()):
        ate = result.client_ate(client_id)
        _log.info(
            f"  client {client_id}: ATE {ate.rmse * 100:.2f} cm, "
            f"tracking {np.mean(outcome.tracking_latencies_ms):.1f} ms/frame, "
            f"{outcome.frames_lost} lost"
        )
    _finish_obs(args)
    return 0


def cmd_baseline(args) -> int:
    session = BaselineSession(
        _scenarios(args), _config(args),
        BaselineConfig(hold_down_frames=args.hold_down_frames),
    )
    result = session.run()
    _log.info(f"baseline: {result.duration:.1f} s simulated, "
              f"{result.global_map.summary()}")
    for client_id, state in sorted(result.clients.items()):
        ate = result.client_ate(client_id)
        _log.info(f"  client {client_id}: global ATE {ate.rmse * 100:.2f} cm, "
                  f"{state.frames_dropped} frames dropped, "
                  f"{len(state.rounds)} sync rounds, merged={state.merged}")
    _finish_obs(args)
    return 0


def cmd_stats(args) -> int:
    """Run a session with full observability and print the aggregates."""
    session = SlamShareSession(_scenarios(args), _config(args))
    result = session.run()
    tracer = get_tracer()
    metrics = get_metrics()
    _log.info(f"stats: {result.duration:.1f} s simulated, "
              f"{len(result.merges)} merges, "
              f"{len(tracer.spans)} spans recorded")
    _log.info("spans (count / wall ms / sim ms):")
    summary = tracer.summary()
    for name in sorted(summary, key=lambda n: -summary[n]["wall_ms"]):
        row = summary[name]
        _log.info(f"  {name:<28} {row['count']:>7}  "
                  f"{row['wall_ms']:>10.2f} {row['sim_ms']:>10.2f}")
    _log.info("%s", metrics.render_text())
    from .obs.frames import FrameLedger

    ledger = FrameLedger.from_tracer(tracer)
    if len(ledger):
        _log.info("frame-lifecycle breakdown:\n%s", ledger.summary_text())
    _finish_obs(args)
    return 0


def cmd_snapshot(args) -> int:
    """Run a session and persist its global map to a snapshot directory."""
    from .sharedmem import load_snapshot

    config = _config(args)
    config.serving.snapshot_path = args.out
    config.slam.mapping.max_keyframes = args.max_keyframes
    config.slam.mapping.max_mappoints = args.max_points
    session = SlamShareSession(_scenarios(args), config,
                               ate_sample_interval=1.0)
    result = session.run()
    info = load_snapshot(args.out).info
    _log.info(f"snapshot: {result.duration:.1f} s simulated, "
              f"{result.server.global_map.summary()}")
    _log.info(f"snapshot: wrote {info.n_keyframes} keyframes / "
              f"{info.n_mappoints} map points "
              f"({info.bytes_written} bytes over {info.n_shards} shards) "
              f"to {args.out}")
    _finish_obs(args)
    return 0


def cmd_restore(args) -> int:
    """Restore a snapshot, then relocalize one fresh client into it."""
    from .sharedmem import load_snapshot
    from .slam import IdAllocator

    snap = load_snapshot(args.snapshot)
    if not snap.keyframes:
        _log.error("restore: snapshot %s holds no keyframes", args.snapshot)
        return 1
    client_id = args.client_id
    if client_id is None:
        owners = {IdAllocator.owner_of(kf.keyframe_id)
                  for kf in snap.keyframes}
        owners |= {IdAllocator.owner_of(p.point_id) for p in snap.mappoints}
        client_id = max(owners) + 1
    dataset = make_dataset(args.traces[0], duration=args.duration,
                           rate=args.rate)
    scenario = ClientScenario(
        client_id=client_id, dataset=dataset, start_time=0.0,
        oracle_seed=args.seed, imu_seed=args.seed + 1,
    )
    config = _config(args)
    config.serving.restore_path = args.snapshot
    session = SlamShareSession([scenario], config, ate_sample_interval=1.0)
    result = session.run()
    info = snap.info
    _log.info(f"restore: loaded {info.n_keyframes} keyframes / "
              f"{info.n_mappoints} map points from {args.snapshot}")
    merged = [m for m in result.merges if m.client_id == client_id]
    if merged:
        _log.info(f"restore: client {client_id} relocalized into the "
                  f"restored map at t={merged[0].session_time:.1f} s")
    else:
        _log.warning(f"restore: client {client_id} did not relocalize "
                     f"into the restored map")
    ate = result.client_ate(client_id)
    _log.info(f"restore: client {client_id} ATE {ate.rmse * 100:.2f} cm "
              f"over {result.duration:.1f} s")
    _finish_obs(args)
    return 0 if merged else 1


def cmd_report(args) -> int:
    """Fold a span JSONL file into the per-frame / per-stage report."""
    from .obs.frames import FrameLedger
    from .obs.report import write_report

    ledger = FrameLedger.from_jsonl(args.jsonl)
    if not len(ledger):
        _log.warning("no frame-lifecycle traces in %s (was the run traced "
                     "with frame tracing enabled?)", args.jsonl)
        return 1
    print(ledger.summary_text())
    linked = sum(1 for f in ledger.records() if f.linked)
    print(f"causally linked frame trees: {linked}/{len(ledger)}")
    if args.html:
        path = write_report(
            ledger, args.html,
            title=f"repro report — {args.jsonl}",
            max_frames=args.max_frames,
        )
        _log.info("report: wrote %s", path)
    return 0


def cmd_info(args) -> int:
    _log.info("traces (paper durations / frame counts):")
    for name, (duration, frames) in PAPER_TRACES.items():
        _log.info(f"  {name:<10} {duration:6.1f} s  {frames:5d} frames")
    _log.info("shaping profiles:")
    for name in sorted(PROFILE_BY_NAME):
        profile = PROFILE_BY_NAME[name]
        bw = (f"{profile.bandwidth_bps / 1e6:.1f} Mbit/s"
              if profile.bandwidth_bps else "unconstrained")
        _log.info(f"  {name:<24} bw={bw:<16} delay={profile.delay_s * 1e3:.0f} ms")
    tracer = get_tracer()
    metrics = get_metrics()
    _log.info("observability:")
    _log.info(f"  tracing: enabled={tracer.enabled} "
              f"output={tracer.output_path or '-'} "
              f"spans={len(tracer.spans)}")
    _log.info(f"  metrics: enabled={metrics.enabled} "
              f"output={metrics.output_path or '-'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=getattr(args, "log_level", "info"))
    _setup_obs(args)
    handler = {
        "session": cmd_session,
        "baseline": cmd_baseline,
        "stats": cmd_stats,
        "snapshot": cmd_snapshot,
        "restore": cmd_restore,
        "report": cmd_report,
        "info": cmd_info,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
